//! Runtime-membership (churn) integration tests for the closed loop.
//!
//! Three contracts pinned here:
//!
//! 1. **Golden-trace safety** — a churn-free build (explicit empty
//!    [`ChurnPlan`]) takes byte-identical code paths to a build with no
//!    plan at all, so the golden hashes of `trace_hash/` hold unchanged
//!    (`engine_equivalence` and `transport_equivalence` keep pinning the
//!    no-plan variants).
//! 2. **Re-convergence** — after every admitted arrival and departure the
//!    controller re-distributes rates and pulls every processor back to
//!    its utilization set point within 20 sampling periods (±0.03).
//! 3. **Determinism** — stochastic plans are a pure function of their
//!    seed, and a churned loop's trace is a pure function of its spec.

mod trace_hash;

use eucon_control::{MpcConfig, SupervisorConfig};
use eucon_core::{
    metrics, AdmissionEvent, AdmissionPolicy, ChurnPlan, ControllerSpec, LaneModel, LoopBuilder,
    NetConfig, RejectReason, RunResult,
};
use eucon_sim::{FaultPlan, SimConfig};
use eucon_tasks::{workloads, ProcessorId, Task, TaskId};
use proptest::prelude::*;
use trace_hash::{hash_result, Fnv, Scenario};

/// A small end-to-end task spanning both SIMPLE processors, shaped like
/// the workload's own tasks (estimates ~4 ms, rates around 0.05/ms).
fn simple_arrival() -> Task {
    Task::builder(0.02, 0.12, 0.05)
        .subtask(ProcessorId(0), 4.0)
        .subtask(ProcessorId(1), 3.0)
        .build()
        .expect("valid task")
}

/// A MEDIUM-shaped arrival: a three-stage chain across processors 0-2.
fn medium_arrival() -> Task {
    Task::builder(0.01, 0.1, 0.03)
        .subtask(ProcessorId(0), 3.0)
        .subtask(ProcessorId(1), 4.0)
        .subtask(ProcessorId(2), 3.0)
        .build()
        .expect("valid task")
}

// ---- 1. golden-trace safety ----

#[test]
fn zero_churn_plan_preserves_every_golden_hash() {
    for s in Scenario::FAULT_FREE {
        assert_eq!(
            hash_result(&s.run_single_zero_churn()),
            s.golden(),
            "empty churn plan must not perturb {}",
            s.name()
        );
    }
}

#[test]
fn zero_churn_plan_preserves_distributed_golden_hashes() {
    for s in [Scenario::SimpleFaultFree, Scenario::MediumFaulted] {
        assert_eq!(
            hash_result(&s.run_distributed_zero_churn()),
            s.golden(),
            "empty churn plan must not perturb distributed {}",
            s.name()
        );
    }
}

// ---- 2. membership changes end to end ----

/// Permissive budget: arrivals may transiently project up to 25% above
/// the set points — the controller absorbs the load by redistributing
/// rates (that is the point of combining §6.2 admission with EUCON).
fn permissive() -> AdmissionPolicy {
    AdmissionPolicy {
        admit_threshold: 1.25,
        ..AdmissionPolicy::default()
    }
}

fn run_simple_churn(plan: ChurnPlan, policy: AdmissionPolicy, periods: usize) -> RunResult {
    LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .churn(plan)
        .admission(policy)
        .local()
        .expect("closed loop")
        .run(periods)
}

/// Every processor's utilization, averaged over `[from, to)`, is within
/// `tol` of its set point.
fn converged(result: &RunResult, from: usize, to: usize, tol: f64) {
    for p in 0..result.set_points.len() {
        let b = result.set_points[p];
        let series = result.trace.utilization_series(p);
        let w = metrics::window(&series, from, to);
        assert!(
            (w.mean - b).abs() <= tol,
            "P{} mean {:.4} vs set point {:.4} over [{from}, {to})",
            p + 1,
            w.mean,
            b
        );
    }
}

#[test]
fn arrival_departure_and_mode_change_reconverge_on_simple() {
    // The arrival is plan-space id 3 (after SIMPLE's tasks 0..3); it
    // departs again at 70.  Departing one of the *initial* tasks instead
    // would leave the survivors rate-saturated below the set points —
    // feasibility, not convergence, is what breaks there (the MEDIUM
    // storm test covers initial-task departures with enough slack).
    let plan = ChurnPlan::none()
        .arrival(30, simple_arrival())
        .departure(70, TaskId(3))
        .mode_change(110, TaskId(1), 1.4);
    let result = run_simple_churn(plan, permissive(), 160);

    assert_eq!(result.control_errors, 0);
    let ch = result.churn;
    assert_eq!(ch.admitted, 1);
    assert_eq!(ch.rejected, 0);
    assert_eq!(ch.departed, 1);
    assert_eq!(ch.mode_changes, 1);
    // Every membership change updated the plant model.
    assert_eq!(ch.model_updates, 2);

    assert!(result
        .trace
        .steps()
        .iter()
        .all(|s| s.rates.iter().all(|r| r.is_finite())));
    // Re-convergence to ±0.03 within 20 periods of each change.
    converged(&result, 50, 70, 0.03); // after the arrival
    converged(&result, 90, 110, 0.03); // after the departure
    converged(&result, 130, 160, 0.03); // after the mode change

    // Telemetry counters agree with the run summary.
    assert_eq!(result.telemetry.counter("tasks_admitted"), Some(1));
    assert_eq!(result.telemetry.counter("tasks_departed"), Some(1));
    assert_eq!(result.telemetry.counter("task_mode_changes"), Some(1));
    assert_eq!(result.telemetry.counter("model_updates"), Some(2));
}

#[test]
fn over_budget_arrival_defers_then_rejects() {
    // Default budget (threshold 1.0): once EUCON has pulled utilization
    // up to the set points there is no headroom, so the arrival defers
    // for `defer_limit` periods and is then turned away.
    let plan = ChurnPlan::none().arrival(30, simple_arrival());
    let result = run_simple_churn(plan, AdmissionPolicy::default(), 60);

    let ch = result.churn;
    assert_eq!(ch.admitted, 0);
    assert_eq!(ch.rejected, 1);
    assert_eq!(ch.deferred, AdmissionPolicy::default().defer_limit as u64);
    let events = result.admission_events.as_slice();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, AdmissionEvent::Deferred { period: 30 })),
        "first deferral is logged once: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            AdmissionEvent::Rejected {
                reason: RejectReason::OverBudget,
                ..
            }
        )),
        "exhausted deferral ends in an over-budget rejection: {events:?}"
    );
    assert_eq!(result.control_errors, 0);
}

#[test]
fn open_controller_refuses_arrivals_but_honors_departures() {
    // OPEN has no per-task plant model: arrivals are rejected outright
    // (not deferred — the refusal is permanent), departures still drain.
    let plan = ChurnPlan::none()
        .arrival(10, simple_arrival())
        .departure(20, TaskId(0));
    let mut cl = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(ControllerSpec::Open)
        .churn(plan)
        .local()
        .expect("closed loop");
    let result = cl.run(40);

    let ch = result.churn;
    assert_eq!(ch.admitted, 0);
    assert_eq!(ch.deferred, 0);
    assert_eq!(ch.rejected, 1);
    assert_eq!(ch.departed, 1);
    assert!(result.admission_events.iter().any(|e| matches!(
        e,
        AdmissionEvent::Rejected {
            reason: RejectReason::ControllerRefused,
            ..
        }
    )));
    assert_eq!(result.control_errors, 0);
}

#[test]
fn departures_and_mode_changes_on_rejected_arrivals_are_noops() {
    // Plan-space id 3 is the (rejected, default budget) arrival; events
    // that target it must do nothing rather than hit a live task.
    let plan = ChurnPlan::none()
        .arrival(30, simple_arrival())
        .departure(40, TaskId(3))
        .mode_change(45, TaskId(3), 2.0);
    let result = run_simple_churn(plan, AdmissionPolicy::default(), 60);
    let ch = result.churn;
    assert_eq!(ch.rejected, 1);
    assert_eq!(ch.departed, 0);
    assert_eq!(ch.mode_changes, 0);
    assert_eq!(result.control_errors, 0);
}

#[test]
fn medium_churn_storm_reconverges_within_twenty_periods() {
    // The acceptance scenario: MEDIUM (12 tasks, 4 processors) with ~30%
    // membership churn over 500 periods — two arrivals, two departures
    // (one of them a runtime arrival departing again).
    let changes = [100usize, 200, 300, 400];
    let plan = ChurnPlan::none()
        .arrival(changes[0], medium_arrival())
        .departure(changes[1], TaskId(3))
        .arrival(changes[2], medium_arrival())
        .departure(changes[3], TaskId(12)); // plan-space id of the first arrival
    let mut cl = LoopBuilder::new(workloads::medium())
        .sim_config(SimConfig::constant_etf(0.9))
        .controller(ControllerSpec::Eucon(MpcConfig::medium()))
        .churn(plan)
        .admission(permissive())
        .local()
        .expect("closed loop");
    let result = cl.run(500);

    assert_eq!(result.control_errors, 0, "zero controller errors");
    let ch = result.churn;
    assert_eq!(ch.admitted, 2, "events: {:?}", result.admission_events);
    assert_eq!(ch.departed, 2);
    assert_eq!(ch.rejected, 0);
    assert_eq!(ch.model_updates, 4);

    // No non-finite rate ever reaches the plant.
    for step in result.trace.steps().iter() {
        assert!(step.rates.iter().all(|r| r.is_finite()));
        assert!(step.utilization.iter().all(|u| u.is_finite()));
    }

    // Within 20 periods of each membership change every processor is
    // back to ±0.03 of its set point (window mean over the next 20).
    for &k in &changes {
        converged(&result, k + 20, k + 40, 0.03);
    }
    // And the run ends converged.
    converged(&result, 460, 500, 0.03);
}

// ---- 3. determinism ----

#[test]
fn identical_churned_specs_produce_identical_traces() {
    let run = |seed: u64| {
        let plan = ChurnPlan::poisson(&workloads::simple(), 80, 0.05, 0.03, seed);
        let result = run_simple_churn(plan, permissive(), 80);
        let mut h = Fnv::new();
        for step in result.trace.steps().iter() {
            h.f64(step.time);
            h.vector(&step.utilization);
            h.vector(&step.rates);
        }
        (h.0, result.churn)
    };
    for seed in [0u64, 7, 42] {
        let (h1, c1) = run(seed);
        let (h2, c2) = run(seed);
        assert_eq!(h1, h2, "seed {seed}: trace must be reproducible");
        assert_eq!(c1, c2, "seed {seed}: churn summary must be reproducible");
    }
}

proptest! {
    #[test]
    fn poisson_plans_are_pure_functions_of_their_seed(
        seed in 0u64..1_000_000,
        pa in 0.0f64..0.3,
        pd in 0.0f64..0.3,
    ) {
        let set = workloads::simple();
        let a = ChurnPlan::poisson(&set, 120, pa, pd, seed);
        let b = ChurnPlan::poisson(&set, 120, pa, pd, seed);
        prop_assert_eq!(&a, &b);
        // Every generated plan validates against its task set.
        prop_assert!(a.validate(&set).is_ok());
    }
}

// ---- 4. churned trajectories, pinned across commits ----

/// `churn_soak`'s two MEDIUM scenarios at 400 periods: Poisson churn
/// under raw EUCON, or the same storm under supervised EUCON while P2
/// crashes and recovers and 10 % of the commands are lost on in-memory
/// command lanes.
fn run_medium_poisson(seed: u64, faulted: bool) -> RunResult {
    let medium = workloads::medium();
    let plan = ChurnPlan::poisson(&medium, 400, 0.02, 0.015, seed);
    let builder = LoopBuilder::new(medium)
        .sim_config(SimConfig::constant_etf(0.9).seed(seed))
        .churn(plan)
        .admission(permissive());
    let lp = if faulted {
        builder
            .controller(ControllerSpec::SupervisedEucon {
                mpc: MpcConfig::medium(),
                supervisor: SupervisorConfig::default(),
            })
            .faults(FaultPlan::none().crash(1, 60, 100))
            .distributed(NetConfig::channel().command_lanes(LaneModel::lossy(0.1, seed + 17)))
    } else {
        builder
            .controller(ControllerSpec::Eucon(MpcConfig::medium()))
            .local()
    };
    lp.expect("closed loop").run(400)
}

#[test]
fn churned_trajectories_hold_their_pinned_hashes() {
    // Captured at c537c06, the last commit where a departure could take a
    // second path through the controller (a shrink that extracted the
    // Gauss normal matrix, pinned bit-identical to the rebuild that is
    // now the only path).  Every membership change feeds the model the
    // next solve runs on, so any change to what a rebuild computes or to
    // how warm state migrates moves these.  The two faulted rows were
    // re-captured when their command loss moved onto the command lanes
    // (a different RNG stream; the event counts held).
    let plan = ChurnPlan::none()
        .arrival(30, simple_arrival())
        .departure(70, TaskId(3))
        .mode_change(110, TaskId(1), 1.4);
    assert_eq!(
        hash_result(&run_simple_churn(plan, permissive(), 160)),
        0xda29_0335_2747_5b5e,
        "SIMPLE scripted churn"
    );
    for (seed, faulted, golden, events) in [
        (0, false, 0x93e6_28d2_a193_15f3_u64, 10),
        (1, false, 0xf487_c0a9_90a5_596a, 12),
        (0, true, 0xeccd_188a_6e58_e924, 14),
        (1, true, 0x4055_c138_1d95_8182, 18),
    ] {
        let result = run_medium_poisson(seed, faulted);
        assert_eq!(
            (hash_result(&result), result.admission_events.len()),
            (golden, events),
            "MEDIUM poisson churn, seed {seed}, faulted {faulted}"
        );
    }
}
