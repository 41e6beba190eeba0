//! v0.3 facade pins: the [`LoopBuilder`] finishers and the unified
//! [`Error`] type must be *surface*, not behaviour.
//!
//! The golden hashes the core crate pins for the four closed-loop
//! scenarios (see `crates/core/tests/trace_hash/`) must come out
//! bit-identical when the same scenarios are assembled through the new
//! `eucon::LoopBuilder` facade — both the in-process finishers (`.local()`,
//! or in-memory lanes for the two faulted scenarios, whose lost commands
//! live on the command lanes) and the `.distributed(NetConfig::tcp())`
//! finisher over loopback-TCP lanes.  And every failure the facade can produce must surface
//! as `eucon::Error` with a stable [`ErrorKind`] and a reachable
//! `source()` chain.

#[path = "../crates/core/tests/trace_hash/mod.rs"]
mod trace_hash;

use std::error::Error as StdError;
use std::time::Duration;

use eucon::prelude::*;
use trace_hash::{hash_result, Scenario, GOLDEN_PERIODS};

/// Assembles a golden scenario through the v0.3 facade.
fn facade_builder(s: Scenario) -> LoopBuilder {
    let (set, sim, controller, faults) = match s {
        Scenario::SimpleFaultFree => (
            workloads::simple(),
            SimConfig::constant_etf(0.5),
            ControllerSpec::Eucon(MpcConfig::simple()),
            FaultPlan::none(),
        ),
        Scenario::MediumFaultFree => (
            workloads::medium(),
            SimConfig::constant_etf(1.0)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .seed(1),
            ControllerSpec::Eucon(MpcConfig::medium()),
            FaultPlan::none(),
        ),
        Scenario::SimpleFaulted => (
            workloads::simple(),
            SimConfig::constant_etf(0.5),
            ControllerSpec::SupervisedEucon {
                mpc: MpcConfig::simple(),
                supervisor: Default::default(),
            },
            FaultPlan::none().crash(1, 10, 18),
        ),
        Scenario::MediumFaulted => (
            workloads::medium(),
            SimConfig::constant_etf(1.0)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .seed(1),
            ControllerSpec::SupervisedEucon {
                mpc: MpcConfig::medium(),
                supervisor: Default::default(),
            },
            FaultPlan::none().crash(1, 10, 18),
        ),
    };
    LoopBuilder::new(set)
        .sim_config(sim)
        .controller(controller)
        .faults(faults)
}

/// The in-process finisher of a scenario: `.local()` for the fault-free
/// two, in-memory lanes for the faulted two (a loop without lanes has no
/// command lanes to lose commands on).
fn finish_in_process(s: Scenario, b: LoopBuilder) -> ClosedLoop {
    if Scenario::FAULT_FREE.contains(&s) {
        b.local().expect("local loop")
    } else {
        b.distributed(s.lanes(NetConfig::channel()))
            .expect("in-memory loop")
    }
}

#[test]
fn local_finisher_reproduces_all_four_golden_hashes() {
    for s in Scenario::ALL {
        let mut cl = finish_in_process(s, facade_builder(s));
        assert_eq!(
            hash_result(&cl.run(GOLDEN_PERIODS)),
            s.golden(),
            "{} drifted through LoopBuilder::local()",
            s.name()
        );
    }
}

#[test]
fn poll_engine_finisher_reproduces_all_four_golden_hashes() {
    for s in Scenario::ALL {
        let tcp = NetConfig::tcp().recv_timeout(Duration::from_millis(200));
        let mut dl = facade_builder(s)
            .distributed(s.lanes(tcp))
            .expect("distributed poll loop");
        assert_eq!(
            hash_result(&dl.run(GOLDEN_PERIODS)),
            s.golden(),
            "{} drifted through LoopBuilder::distributed(tcp)",
            s.name()
        );
        assert_eq!(dl.backend_name(), "tcp");
        assert_eq!(dl.transport_stats().decode_errors, 0);
    }
}

/// The explicitly selected simulator backend is the same plant the
/// default path uses: all four golden hashes must survive
/// `.plant(SimPlantFactory)` bit-for-bit.
#[test]
fn sim_plant_backend_reproduces_all_four_golden_hashes() {
    for s in Scenario::ALL {
        let mut cl = finish_in_process(s, facade_builder(s).plant(SimPlantFactory));
        assert_eq!(cl.plant().name(), "sim");
        assert_eq!(
            hash_result(&cl.run(GOLDEN_PERIODS)),
            s.golden(),
            "{} drifted through LoopBuilder::plant(SimPlantFactory)",
            s.name()
        );
    }
}

/// Backends compose with every finisher, not just `.local()`: the
/// distributed poll engine driving an explicit sim plant stays golden.
#[test]
fn distributed_finisher_composes_with_sim_plant_backend() {
    let s = Scenario::SimpleFaultFree;
    let mut dl = facade_builder(s)
        .plant(SimPlantFactory)
        .distributed(NetConfig::tcp().recv_timeout(Duration::from_millis(200)))
        .expect("distributed sim-plant loop");
    assert_eq!(
        hash_result(&dl.run(GOLDEN_PERIODS)),
        s.golden(),
        "{} drifted through .plant(SimPlantFactory).distributed(tcp)",
        s.name()
    );
}

/// ...and with `.fleet(n)`: the factory travels into the worker threads.
#[test]
fn fleet_finisher_composes_with_sim_plant_backend() {
    let report = LoopBuilder::new(workloads::simple())
        .plant(SimPlantFactory)
        .fleet(3)
        .run(10)
        .expect("sim-plant fleet runs");
    assert_eq!(report.loops, 3);
    assert_eq!(report.total_periods, 30);
    assert_eq!(report.control_errors, 0);
}

/// The trace-replay backend: a hand-written schema-v1 JSONL recording
/// drives the loop, and the sampled utilizations are the recorded
/// values bit-for-bit.
#[test]
fn replay_backend_composes_through_the_facade() {
    let mut text = String::new();
    for k in 0..20 {
        text.push_str(&format!(
            "{{\"period\":{k},\"time\":{}.0,\"u_p1\":0.6,\"u_p2\":0.55}}\n",
            (k + 1) * 1000
        ));
    }
    let trace = ReplayTrace::parse(&text).expect("schema-v1 rows parse");
    let mut cl = LoopBuilder::new(workloads::simple())
        .plant(trace)
        .record_trace(true)
        .local()
        .expect("replay loop builds");
    assert_eq!(cl.plant().name(), "replay");
    let result = cl.run(20);
    for (k, step) in result.trace.steps().iter().enumerate() {
        assert_eq!(
            step.utilization.as_slice(),
            &[0.6, 0.55],
            "period {k}: replayed utilization must be the recorded bits"
        );
    }
}

/// The real-OS backend composes through the same `.plant(...)` seam.
/// Workers are real processes, so this stays tiny (and skips when the
/// host cannot spawn them).
#[cfg(feature = "os-plant")]
#[test]
fn os_plant_backend_composes_through_the_facade() {
    use std::time::Duration;
    let built = LoopBuilder::new(workloads::simple())
        .plant(OsPlantConfig::new().wall_period(Duration::from_millis(50)))
        .local();
    let mut cl = match built {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("skipping os-plant facade test: {e}");
            return;
        }
    };
    assert_eq!(cl.plant().name(), "os");
    cl.run(3);
}

#[test]
fn facade_failures_surface_as_unified_errors_with_kinds() {
    // An out-of-domain lane model is a config error — the facade rejects
    // it before anything binds a socket.
    let err: Error = facade_builder(Scenario::SimpleFaultFree)
        .distributed(NetConfig::tcp().report_lanes(LaneModel {
            delay: 1,
            loss_probability: 1.0,
            seed: 3,
        }))
        .expect_err("a lane that loses every report must be rejected")
        .into();
    assert_eq!(err.kind(), ErrorKind::Config);
    // The layer error is still reachable for callers that need detail.
    assert!(err.source().is_some(), "unified error lost its source");
}
