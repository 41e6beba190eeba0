//! Quickstart: close the EUCON feedback loop on the paper's SIMPLE
//! workload and watch both processors converge to the rate-monotonic
//! utilization bound even though actual execution times are only half the
//! design-time estimates.
//!
//! Run with: `cargo run --example quickstart`

use eucon::prelude::*;

fn main() -> Result<(), eucon::Error> {
    // The paper's SIMPLE configuration (Table 1): 3 end-to-end tasks on 2
    // processors.  The set points default to the Liu–Layland bound,
    // 2(√2 − 1) ≈ 0.828 with two subtasks per processor.
    let workload = workloads::simple();
    let set_points = rms_set_points(&workload);
    println!(
        "workload: {} tasks, {} subtasks, {} processors",
        workload.num_tasks(),
        workload.num_subtasks(),
        workload.num_processors()
    );
    println!("set points: {set_points}");

    // Actual execution times are half the estimates (etf = 0.5) — an
    // open-loop design would underutilize the CPUs by 2x.
    let mut cl = LoopBuilder::new(workload)
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .local()?;

    println!("\n  k    u(P1)    u(P2)    r(T1)      r(T2)      r(T3)");
    for k in 0..60 {
        let step = cl.step();
        if k % 5 == 0 {
            println!(
                "{k:>4} {:>8.3} {:>8.3} {:>10.5} {:>10.5} {:>10.5}",
                step.utilization[0],
                step.utilization[1],
                step.rates[0],
                step.rates[1],
                step.rates[2],
            );
        }
    }

    let result = cl.into_result();
    let tail = metrics::window(&result.trace.utilization_series(0), 40, 60);
    println!(
        "\nP1 over the last 20 periods: mean {:.4}, std {:.4}",
        tail.mean, tail.std_dev
    );
    println!("deadline miss ratio: {:.4}", result.deadlines.miss_ratio());
    assert!(
        (tail.mean - 0.828).abs() < 0.05,
        "EUCON should converge to the set point"
    );
    println!("EUCON held the utilization at the schedulable bound — all deadlines protected.");
    Ok(())
}
