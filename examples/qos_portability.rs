//! QoS portability (paper §3.3): deploy the *same* application on a fast
//! platform and on a slow platform, with zero manual retuning.
//!
//! The execution-time factor models the platform speed: on the fast
//! platform every subtask takes 40% of its estimate (etf = 0.4); on the
//! slow platform it takes 160% (etf = 1.6).  EUCON automatically raises
//! task rates on the fast platform (more value delivered — e.g. higher
//! video frame rates) and lowers them on the slow one, while both
//! platforms end up at exactly the same guaranteed CPU utilization.
//!
//! Run with: `cargo run --example qos_portability`

use eucon::prelude::*;

fn deploy(platform: &str, etf: f64) -> Result<(Vec<f64>, f64), eucon::Error> {
    let workload = workloads::medium();
    let mut cl = LoopBuilder::new(workload)
        .sim_config(
            SimConfig::constant_etf(etf)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .seed(42),
        )
        .controller(ControllerSpec::Eucon(MpcConfig::medium()))
        .local()?;
    let result = cl.run(200);

    let last = result.trace.steps().last().expect("ran periods");
    let rates: Vec<f64> = (0..6).map(|t| last.rates[t]).collect();
    let u1 = metrics::window(&result.trace.utilization_series(0), 150, 200).mean;
    println!("{platform:<14} etf = {etf:<4}  u(P1) = {u1:.3}");
    Ok((rates, u1))
}

fn main() -> Result<(), eucon::Error> {
    println!("Deploying the MEDIUM application on two platforms...\n");
    let (fast_rates, fast_u) = deploy("fast platform", 0.4)?;
    let (slow_rates, slow_u) = deploy("slow platform", 1.6)?;

    println!("\nconverged rates of T1..T6 (fast / slow):");
    for t in 0..6 {
        let ratio = fast_rates[t] / slow_rates[t];
        println!(
            "  T{}: {:>9.5} / {:>9.5}   (x{ratio:.2})",
            t + 1,
            fast_rates[t],
            slow_rates[t]
        );
    }

    // Same guaranteed utilization on both platforms, very different rates:
    // that is QoS portability without manual performance tuning.
    assert!(
        (fast_u - slow_u).abs() < 0.05,
        "both platforms meet the same guarantee"
    );
    let mean_ratio: f64 = (0..6).map(|t| fast_rates[t] / slow_rates[t]).sum::<f64>() / 6.0;
    assert!(
        mean_ratio > 2.0,
        "the fast platform should sustain much higher rates"
    );
    println!(
        "\nBoth platforms settled at u(P1) ≈ {fast_u:.2}; the fast platform delivers ~{mean_ratio:.1}x the task rates."
    );
    Ok(())
}
