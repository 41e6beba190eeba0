//! Pins on the event engine's observable behaviour, captured before the
//! event core learned to run successor hand-offs in place (PR 16) and
//! before its indexed heap became a tournament tree (PR 18): the counters
//! and the state hash below must never move when the queue's plumbing
//! does.

use eucon_sim::{EngineCounters, ExecModel, SimConfig, Simulator};
use eucon_tasks::workloads::{self, RandomWorkload};
use eucon_tasks::{ProcessorId, Task, TaskSet};

/// FNV-1a over everything a run leaves behind that depends on event order.
fn state_hash(sim: &mut Simulator) -> u64 {
    let mut words = vec![sim.counters().events, sim.backlog() as u64];
    let d = sim.deadline_stats();
    words.extend([d.met, d.missed]);
    for t in sim.task_stats() {
        words.extend([
            t.completed,
            t.missed,
            t.response_time_sum.to_bits(),
            t.response_time_max.to_bits(),
        ]);
    }
    for s in sim.subtask_stats().iter().flatten() {
        words.extend([s.completed, s.missed]);
    }
    words.extend(sim.sample_utilizations().iter().map(|u| u.to_bits()));
    words.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

fn run(set: TaskSet, model: ExecModel, horizon: f64) -> (EngineCounters, u64) {
    let cfg = SimConfig::constant_etf(1.0).exec_model(model).seed(1);
    let mut sim = Simulator::new(set, cfg);
    // Period by period, like the loop drives it, so whatever the queue
    // carries across `run_until` calls — sources that fired and were not
    // re-armed, hand-offs decided at a period's last instant — is part
    // of what the pins cover.
    let mut t = 0.0;
    while t < horizon {
        t += 1000.0;
        sim.run_until(t);
    }
    (sim.counters(), state_hash(&mut sim))
}

fn counters(
    events: u64,
    reschedules: u64,
    guard_deferrals: u64,
    stale_wakeups: u64,
    queue_peak: usize,
) -> EngineCounters {
    EngineCounters {
        events,
        reschedules,
        guard_deferrals,
        stale_wakeups,
        queue_peak,
        ..EngineCounters::default()
    }
}

/// Everything but `handoffs` (which the parent did not have) must equal
/// the parent's value.
fn assert_pinned(name: &str, got: (EngineCounters, u64), want: EngineCounters, hash: u64) {
    let (c, h) = got;
    assert!(c.handoffs > 0, "{name}: no hand-off ran in place: {c:?}");
    assert!(c.handoffs < c.events, "{name}: {c:?}");
    assert_eq!(EngineCounters { handoffs: 0, ..c }, want, "{name}");
    assert_eq!(h, hash, "{name}: state hash {h:#018x}");
}

const UNIFORM: ExecModel = ExecModel::Uniform { half_width: 0.2 };

fn random_64p() -> TaskSet {
    RandomWorkload::new(64, 192)
        .seed(21)
        .locality(2)
        .max_chain_len(3)
        .generate()
}

#[test]
fn simple_counters_match_the_parent() {
    assert_pinned(
        "simple/constant",
        run(workloads::simple(), ExecModel::Constant, 200_000.0),
        counters(20445, 6223, 889, 0, 6),
        0xbb25_cdd4_4eee_87e5,
    );
    assert_pinned(
        "simple/uniform",
        run(workloads::simple(), UNIFORM, 200_000.0),
        counters(20851, 6607, 1296, 0, 7),
        0x1cd6_8c3a_c1e7_dc77,
    );
}

#[test]
fn medium_counters_match_the_parent() {
    assert_pinned(
        "medium/constant",
        run(workloads::medium(), ExecModel::Constant, 200_000.0),
        counters(54850, 14849, 3839, 0, 20),
        0x5bfe_9576_fe06_9692,
    );
    assert_pinned(
        "medium/uniform",
        run(workloads::medium(), UNIFORM, 200_000.0),
        counters(56008, 14660, 4997, 0, 21),
        0x2294_5807_bfe8_8520,
    );
}

#[test]
fn random_64p_counters_match_the_parent() {
    assert_pinned(
        "64x192/constant",
        run(random_64p(), ExecModel::Constant, 50_000.0),
        counters(190527, 52307, 11623, 0, 262),
        0xd406_679e_af17_168d,
    );
    assert_pinned(
        "64x192/uniform",
        run(random_64p(), UNIFORM, 50_000.0),
        counters(196707, 51815, 17801, 0, 263),
        0x9ac1_3a43_08a4_385a,
    );
}

/// Two mirrored two-stage tasks with equal periods and constant execution
/// times: both head subtasks complete at the same instant, so each
/// hand-off finds an older event due at `now` and must take the queued
/// path to keep the `(time, seq)` firing order.
#[test]
fn tied_completions_queue_the_hand_off() {
    let r = 1.0 / 100.0;
    let mut set = TaskSet::new(2);
    for (first, second) in [(0, 1), (1, 0)] {
        let task = Task::builder(r / 10.0, r * 10.0, r)
            .subtask(ProcessorId(first), 20.0)
            .subtask(ProcessorId(second), 30.0)
            .build()
            .unwrap();
        set.add_task(task).unwrap();
    }
    let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
    sim.run_until(10_000.0);
    let c = sim.counters();
    let successor_completions: u64 = sim.subtask_stats().iter().map(|s| s[0].completed).sum();
    assert_eq!(successor_completions, 200);
    assert!(
        c.handoffs < successor_completions,
        "ties at the hand-off instant must be queued: {c:?}"
    );
    assert_eq!(
        EngineCounters { handoffs: 0, ..c },
        counters(802, 0, 0, 0, 4)
    );
    assert_eq!(state_hash(&mut sim), 0xa263_4f03_5235_3558, "state hash");
}
