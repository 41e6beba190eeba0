//! Integrating rate adaptation with admission control (the paper's §6.2
//! points to admission control when the utilization-control problem is
//! infeasible; the integration is its stated future work).
//!
//! A disaster-recovery scenario: execution times explode to 25× the
//! estimates (sensor fusion saturating on debris-cluttered imagery).
//! Rate adaptation alone cannot shed enough load, so the loop's admission
//! supervisor suspends tasks until the system fits, then re-admits them
//! when the scene clears.
//!
//! This is *task-level* admission inside one loop.  For *loop-level*
//! admission — many independent control loops admitted to and evicted
//! from one long-running daemon — see [`eucon::core::service`]
//! (`ControlService`, the `eucon-service` binary) and README
//! "Running as a service".
//!
//! Run with: `cargo run --release --example admission_control`

use eucon::core::admission::{AdmissionEvent, AdmissionPolicy};
use eucon::prelude::*;

fn main() -> Result<(), eucon::Error> {
    // etf 25 for 80 periods (catastrophic overload), then relief at 0.5.
    let profile = EtfProfile::steps(&[(0.0, 25.0), (80_000.0, 0.5)]);
    // An admission policy is all it takes: the loop's admission
    // controller then supervises load shedding next to rate adaptation.
    let mut al = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig {
            exec_model: ExecModel::Constant,
            etf: profile,
            seed: 0,
            release_guard: Default::default(),
            processor_speeds: None,
        })
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .admission(AdmissionPolicy::default())
        .local()?;

    let result = al.run(220);

    println!("admission events:");
    for e in &result.admission_events {
        match e {
            AdmissionEvent::Suspended { period, task } => {
                println!("  period {period:>3}: suspended  {task}");
            }
            AdmissionEvent::Readmitted { period, task } => {
                println!("  period {period:>3}: re-admitted {task}");
            }
            // Runtime-churn events (arrivals/departures) never fire here:
            // this scenario has a static task set.
            other => println!("  {other:?}"),
        }
    }

    let u1 = result.trace.utilization_series(0);
    let overload_tail = metrics::window(&u1, 60, 80);
    let relief_tail = metrics::window(&u1, 180, 220);
    println!(
        "\nP1 utilization: after shedding (draining backlog) {:.3}, after relief {:.3} (set point 0.828)",
        overload_tail.mean, relief_tail.mean
    );

    assert!(
        result
            .admission_events
            .iter()
            .any(|e| matches!(e, AdmissionEvent::Suspended { .. })),
        "the overload must force suspensions"
    );
    assert!(
        result.churn.suspended == result.churn.readmitted,
        "relief must bring every task back"
    );
    assert!(
        (relief_tail.mean - 0.828).abs() < 0.05,
        "normal regulation resumes"
    );
    println!("\nLoad shedding kept the system schedulable; every task is running again.");
    Ok(())
}
