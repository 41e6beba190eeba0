//! Admission-control regression tests, promoted from the
//! `admission_control` example so CI enforces what the example's
//! narrative claims: under a catastrophic overload (execution times at
//! 25× the estimates) rate adaptation alone cannot fit the workload, so
//! the supervisor suspends tasks; when the overload clears, every task
//! is re-admitted and normal utilization regulation resumes.
//!
//! The loops are the one `ClosedLoop`, built by `LoopBuilder` with an
//! admission policy; the assertions and the decision log are the ones the
//! separate admission loop that PR 17 deleted passed and printed.

use eucon_control::MpcConfig;
use eucon_core::AdmissionEvent::{Departed, Readmitted, Suspended};
use eucon_core::{
    metrics, AdmissionEvent, AdmissionPolicy, ChurnPlan, ClosedLoop, ControllerSpec, LoopBuilder,
    NetConfig,
};
use eucon_math::Vector;
use eucon_sim::{EtfProfile, ExecModel, SimConfig};
use eucon_tasks::{workloads, ProcessorId, Task, TaskId, TaskSet};

/// SIMPLE under EUCON with the default admission policy.
fn shedding_loop(sim: SimConfig) -> LoopBuilder {
    LoopBuilder::new(workloads::simple())
        .sim_config(sim)
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .admission(AdmissionPolicy::default())
}

/// The example's disaster-recovery scenario: etf 25 for 80 periods
/// (sensor fusion saturating), then relief at 0.5.
fn disaster_recovery() -> LoopBuilder {
    let profile = EtfProfile::steps(&[(0.0, 25.0), (80_000.0, 0.5)]);
    shedding_loop(SimConfig {
        exec_model: ExecModel::Constant,
        etf: profile,
        seed: 0,
        release_guard: Default::default(),
        processor_speeds: None,
    })
}

fn local(b: LoopBuilder) -> ClosedLoop {
    b.local().expect("loop builds")
}

#[test]
fn overload_forces_suspensions_and_relief_readmits_everyone() {
    let al = local(disaster_recovery()).run(220);

    assert!(
        al.admission_events
            .iter()
            .any(|e| matches!(e, Suspended { .. })),
        "the 25x overload must force suspensions: {:?}",
        al.admission_events
    );
    assert!(
        al.admission_events
            .iter()
            .any(|e| matches!(e, Readmitted { .. })),
        "relief must trigger re-admissions: {:?}",
        al.admission_events
    );
    assert!(
        al.churn.suspended == al.churn.readmitted,
        "relief must bring every task back: {:?}",
        al.churn
    );

    // Normal regulation resumes after relief: P1's tail utilization
    // returns to its RMS set point.
    let u1 = al.trace.utilization_series(0);
    let relief_tail = metrics::window(&u1, 180, 220);
    assert!(
        (relief_tail.mean - 0.828).abs() < 0.05,
        "post-relief P1 mean {:.3} should track 0.828",
        relief_tail.mean
    );
}

#[test]
fn suspensions_and_readmissions_pair_up_in_period_order() {
    let al = local(disaster_recovery()).run(220);

    // Every suspension precedes its matching re-admission, and the event
    // log is ordered by period.
    let mut last_period = 0usize;
    let mut outstanding = 0i64;
    for e in &al.admission_events {
        match *e {
            Suspended { period, .. } => {
                assert!(period >= last_period);
                last_period = period;
                outstanding += 1;
            }
            Readmitted { period, .. } => {
                assert!(period >= last_period);
                last_period = period;
                outstanding -= 1;
                assert!(outstanding >= 0, "re-admission without a suspension");
            }
            _ => {}
        }
    }
    assert_eq!(outstanding, 0, "every suspension is eventually undone");
}

#[test]
fn healthy_load_never_touches_admission() {
    let al = local(shedding_loop(SimConfig::constant_etf(1.0))).run(40);
    assert!(al.churn.suspended == al.churn.readmitted);
    assert!(
        al.admission_events.is_empty(),
        "events: {:?}",
        al.admission_events
    );
}

fn suspended(period: usize, task: usize) -> AdmissionEvent {
    let task = TaskId(task);
    Suspended { period, task }
}

fn readmitted(period: usize, task: usize) -> AdmissionEvent {
    let task = TaskId(task);
    Readmitted { period, task }
}

#[test]
fn decision_log_matches_the_parent_locally_and_over_lanes() {
    // What the deleted admission loop logged on this scenario at PR 17's
    // parent commit.
    let parent = [
        suspended(12, 1),
        suspended(17, 0),
        readmitted(160, 0),
        readmitted(165, 1),
    ];
    let single = local(disaster_recovery()).run(220);
    let over_lanes = disaster_recovery()
        .distributed(NetConfig::channel())
        .expect("loop builds")
        .run(220);
    for (mode, al) in [("local", &single), ("distributed", &over_lanes)] {
        assert_eq!(al.admission_events, parent, "{mode}");
        assert_eq!(al.control_errors, 0, "{mode}");
        // One plant-model update per controller column dropped or added.
        assert_eq!(al.churn.model_updates, 4, "{mode}");
    }
    assert_eq!(single.trace, over_lanes.trace, "ideal lanes change nothing");
}

#[test]
fn a_suspended_task_that_departs_is_never_readmitted() {
    // T2 (sim id 1) is suspended at period 12 and its departure is
    // scripted for period 20, while it sits on the re-admission stack.
    let plan = ChurnPlan::none().departure(20, TaskId(1));
    let al = local(disaster_recovery().churn(plan)).run(220);
    let log = &al.admission_events;
    let departure = Departed {
        period: 20,
        task: TaskId(1),
    };
    assert!(log.contains(&departure), "{log:?}");
    let back: Vec<_> = log
        .iter()
        .filter(|e| matches!(e, Readmitted { .. }))
        .collect();
    assert_eq!(back, [&readmitted(160, 0)], "only T1 is left to return");
    // T2's column was dropped when it was shed; its departure drops none.
    let ch = al.churn;
    assert_eq!((ch.suspended, ch.readmitted, ch.departed), (2, 1, 1));
    assert_eq!(ch.model_updates, 3);
    assert_eq!(al.control_errors, 0);
}

#[test]
fn never_suspends_the_last_task() {
    // Single-task workload under hopeless overload: the supervisor must
    // keep it admitted.  The set point is lowered from the one-subtask RMS
    // bound of 1.0, which no utilization can exceed by the margin, so the
    // overload rule really fires and only the last-task guard holds it.
    let mut set = TaskSet::new(1);
    let r = 1.0 / 100.0;
    set.add_task(
        Task::builder(r / 2.0, r * 2.0, r)
            .subtask(ProcessorId(0), 50.0)
            .build()
            .unwrap(),
    )
    .unwrap();
    let al = local(
        LoopBuilder::new(set)
            .sim_config(SimConfig::constant_etf(10.0))
            .set_points(Vector::from_slice(&[0.7]))
            .admission(AdmissionPolicy::default()),
    )
    .run(60);
    assert_eq!(al.churn.suspended, 0, "{:?}", al.admission_events);
}
