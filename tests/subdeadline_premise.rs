//! Tests of the paper's foundational premise (§3.3): keeping each
//! processor's utilization below its schedulable bound makes every
//! subtask meet its subdeadline (= its period), which in turn makes every
//! end-to-end deadline hold under the release-guard protocol.

use eucon::prelude::*;
use eucon::sim::Simulator;

/// With utilization regulated at the RMS bound and constant execution
/// times, subdeadline misses are (essentially) absent — the Liu–Layland
/// guarantee observed end-to-end through the full stack.
#[test]
fn utilization_bound_implies_subdeadlines() {
    let mut cl = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(0.8))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .local()
        .expect("loop");
    let _ = cl.run(200);
    let sim = cl.simulator();
    assert!(
        sim.subdeadline_miss_ratio() < 0.01,
        "subdeadline miss ratio {:.4} at the RMS bound",
        sim.subdeadline_miss_ratio()
    );
}

/// Without control (OPEN) and with underestimated execution times, the
/// processors overload and subdeadlines collapse — the failure mode
/// utilization control exists to prevent.
#[test]
fn overload_destroys_subdeadlines_without_control() {
    let mut cl = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(2.0))
        .controller(ControllerSpec::Open)
        .local()
        .expect("loop");
    let _ = cl.run(100);
    let miss = cl.simulator().subdeadline_miss_ratio();
    assert!(
        miss > 0.2,
        "OPEN at etf 2.0 must miss heavily, got {miss:.4}"
    );
}

/// Per-subtask statistics are wired through correctly: each subtask
/// records completions, and totals are consistent with the per-task
/// end-to-end counts.
#[test]
fn subtask_stats_are_consistent_with_task_stats() {
    let set = workloads::simple();
    let mut sim = Simulator::new(set, SimConfig::constant_etf(0.5));
    sim.run_until(50_000.0);
    let per_task = sim.task_stats();
    let per_sub = sim.subtask_stats();
    assert_eq!(per_sub.len(), 3);
    assert_eq!(per_sub[1].len(), 2, "T2 has two subtasks");
    for (t, subs) in per_sub.iter().enumerate() {
        // The tail subtask's completions equal the task's end-to-end
        // completions.
        let tail = subs.last().expect("chains are non-empty");
        assert_eq!(
            tail.completed,
            per_task[t].completed,
            "T{}: tail completions must match end-to-end count",
            t + 1
        );
        // Upstream stages complete at least as often as downstream ones.
        for pair in subs.windows(2) {
            assert!(pair[0].completed >= pair[1].completed);
        }
    }
}

/// EUCON also protects subdeadlines on the MEDIUM workload through the
/// Experiment II disturbance profile.
#[test]
fn subdeadlines_hold_through_disturbance() {
    let profile = EtfProfile::steps(&[(0.0, 0.5), (50_000.0, 0.9), (100_000.0, 0.33)]);
    let mut cl = LoopBuilder::new(workloads::medium())
        .sim_config(SimConfig {
            exec_model: ExecModel::Uniform { half_width: 0.2 },
            etf: profile,
            seed: 1,
            release_guard: Default::default(),
            processor_speeds: None,
        })
        .controller(ControllerSpec::Eucon(MpcConfig::medium()))
        .local()
        .expect("loop");
    let _ = cl.run(150);
    let miss = cl.simulator().subdeadline_miss_ratio();
    assert!(
        miss < 0.05,
        "subdeadline miss ratio through disturbance: {miss:.4}"
    );
}
