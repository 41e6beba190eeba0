//! Integration of the third adaptation mechanism: design-time subtask
//! reallocation.  A deployment whose allocation structurally overloads
//! one processor cannot meet its bounds by rate adaptation alone;
//! rebalancing the allocation makes the same workload controllable.

use eucon::prelude::*;
use eucon::tasks::balance::{balance, worst_load_ratio};
use eucon::tasks::{ProcessorId, TaskSet};

/// Five independent tasks, all piled on P1 of a 3-processor platform,
/// sized so P1's structural demand exceeds its schedulable bound at every
/// admissible rate.
fn lopsided() -> TaskSet {
    let mut set = TaskSet::new(3);
    for i in 0..5 {
        let r = 1.0 / (120.0 + 20.0 * i as f64);
        set.add_task(
            Task::builder(r / 1.2, r * 1.2, r) // narrow rate range: little headroom
                .subtask(ProcessorId(0), 48.0)
                .build()
                .unwrap(),
        )
        .unwrap();
    }
    set
}

#[test]
fn rebalancing_turns_an_uncontrollable_deployment_into_a_controllable_one() {
    let set = lopsided();
    assert!(
        worst_load_ratio(&set) > 1.5,
        "the lopsided deployment must be structurally overloaded"
    );

    // Unbalanced: even at Rmin, P1 exceeds its bound — EUCON saturates.
    let mut cl = LoopBuilder::new(set.clone())
        .sim_config(SimConfig::constant_etf(1.0))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .local()
        .expect("loop");
    let unbalanced = cl.run(120);
    let u1 = metrics::window(&unbalanced.trace.utilization_series(0), 80, 120);
    assert!(
        u1.mean > unbalanced.set_points[0] + 0.1,
        "P1 must be stuck above its bound: {:.3}",
        u1.mean
    );
    assert!(
        unbalanced.deadlines.miss_ratio() > 0.1,
        "and missing deadlines"
    );

    // Balanced: the same workload spread across the platform is
    // controllable everywhere.
    let (balanced_set, report) = balance(&set, 50);
    assert!(
        report.after < 1.0,
        "balancing must reach feasibility: {report:?}"
    );
    let mut cl = LoopBuilder::new(balanced_set)
        .sim_config(SimConfig::constant_etf(1.0))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .local()
        .expect("loop");
    let balanced = cl.run(120);
    for p in 0..3 {
        let s = metrics::window(&balanced.trace.utilization_series(p), 80, 120);
        assert!(
            s.mean <= balanced.set_points[p] + 0.03,
            "P{} within its bound after rebalancing: {:.3} vs {:.3}",
            p + 1,
            s.mean,
            balanced.set_points[p]
        );
    }
    assert!(
        balanced.deadlines.miss_ratio() < 0.02,
        "deadlines protected after rebalancing: {:.4}",
        balanced.deadlines.miss_ratio()
    );
}

#[test]
fn rebalanced_medium_still_matches_paper_behaviour() {
    // Balancing a workload that is already balanced must not change the
    // closed-loop behaviour.
    let set = workloads::medium();
    let (balanced, report) = balance(&set, 50);
    assert!(report.moves.is_empty());
    let mut cl = LoopBuilder::new(balanced)
        .sim_config(SimConfig::constant_etf(0.5).seed(1))
        .controller(ControllerSpec::Eucon(MpcConfig::medium()))
        .local()
        .expect("loop");
    let result = cl.run(150);
    let s = metrics::window(&result.trace.utilization_series(0), 100, 150);
    assert!((s.mean - result.set_points[0]).abs() < 0.03);
}
