//! Fleet determinism: per-loop results are bit-identical across worker
//! thread counts.
//!
//! The fleet runner's contract is that parallelism is invisible — a
//! loop's trace digest is a pure function of its builder, never of which
//! worker ran it or in what order loops were stolen.  This suite runs a
//! heterogeneous fleet (both paper workloads, stochastic execution
//! times, supervised loops under a scripted + random crash plan, loops
//! that shed load under a 25x overload) at 1, 2 and 8 threads and
//! requires identical digest vectors, in both debug and release profiles
//! (CI runs both).

use eucon_control::MpcConfig;
use eucon_core::{AdmissionPolicy, ControllerSpec, FleetRunner, LoopBuilder};
use eucon_sim::{ExecModel, FaultPlan, SimConfig};
use eucon_tasks::workloads;

const PERIODS: usize = 20;

/// A fleet that exercises every per-loop code path whose determinism
/// matters: warm-started QP solves, seeded stochastic execution times,
/// seeded fault injection, supervisor degradation and load shedding.
fn fleet_loops() -> Vec<LoopBuilder> {
    let mut loops = Vec::new();
    for i in 0..24u64 {
        let lp = match i % 5 {
            0 => LoopBuilder::new(workloads::simple()).sim_config(SimConfig::constant_etf(0.5)),
            1 => LoopBuilder::new(workloads::medium())
                .sim_config(
                    SimConfig::constant_etf(1.0)
                        .exec_model(ExecModel::Uniform { half_width: 0.2 })
                        .seed(i),
                )
                .controller(ControllerSpec::Eucon(MpcConfig::medium())),
            2 => LoopBuilder::new(workloads::simple())
                .sim_config(SimConfig::constant_etf(0.5))
                .controller(ControllerSpec::SupervisedEucon {
                    mpc: MpcConfig::simple(),
                    supervisor: Default::default(),
                })
                .faults(
                    FaultPlan::none()
                        .crash(1, 10, 18)
                        .random_crashes(0.05, 0.3)
                        .seed(7),
                ),
            3 => LoopBuilder::new(workloads::medium())
                .sim_config(SimConfig::constant_etf(0.9).seed(i))
                .controller(ControllerSpec::Pid { kp: 0.5, ki: 0.05 }),
            // Rate adaptation exhausted: the supervisor suspends a task
            // at periods 12 and 17.
            _ => LoopBuilder::new(workloads::simple())
                .sim_config(SimConfig::constant_etf(25.0))
                .admission(AdmissionPolicy::default()),
        };
        loops.push(lp);
    }
    loops
}

fn run_at(threads: usize) -> eucon_core::FleetReport {
    let mut fleet = FleetRunner::new().threads(threads);
    for lp in fleet_loops() {
        fleet.push(lp);
    }
    fleet.run(PERIODS).expect("fleet runs")
}

#[test]
fn digests_identical_across_thread_counts() {
    let baseline = run_at(1);
    assert_eq!(baseline.loops, 24);
    assert_eq!(baseline.total_periods, 24 * PERIODS as u64);
    for threads in [2usize, 8] {
        let parallel = run_at(threads);
        assert_eq!(
            baseline.digests, parallel.digests,
            "digest vector must not depend on thread count ({threads} threads)"
        );
        assert_eq!(baseline.engine_events, parallel.engine_events);
        assert_eq!(baseline.control_errors, parallel.control_errors);
        assert_eq!(baseline.churn, parallel.churn);
    }
    let shedding_members = (0..24).filter(|i| i % 5 == 4).count() as u64;
    assert_eq!(baseline.churn.suspended, 2 * shedding_members);
}

#[test]
fn identical_loops_produce_identical_digests() {
    let report = LoopBuilder::new(workloads::medium())
        .sim_config(
            SimConfig::constant_etf(1.0)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .seed(1),
        )
        .controller(ControllerSpec::Eucon(MpcConfig::medium()))
        .fleet(16)
        .threads(8)
        .run(PERIODS)
        .expect("fleet runs");
    assert!(
        report.digests.iter().all(|&d| d == report.digests[0]),
        "identical loops must agree: {:?}",
        report.digests
    );
}
