//! Equivalence pins for the cluster-scale sharded controller.
//!
//! Three bit-identity contracts gate the sharded path:
//!
//! 1. **K=1 is DEUCON, and stays what it was** — the decentralized
//!    spec, the sharded spec at shard size 1 and its ideal-lane variant
//!    all build the singleton team, whose closed-loop trace is pinned to
//!    the hash the separate per-processor `DecentralizedController`
//!    produced on this scenario before it was deleted as a duplicate.
//! 2. **Ideal lanes ≡ in-process** — routing the boundary exchange over
//!    lossless same-period `eucon-net` lanes must not perturb a single
//!    bit of the sweep.
//! 3. Both hold through the full distributed stack (per-processor
//!    report/command lanes *and* per-shard boundary lanes at once).

mod trace_hash;

use eucon_control::MpcConfig;
use eucon_core::{BoundaryMode, ControllerSpec, LoopBuilder, NetConfig, RunResult};
use eucon_sim::{ExecModel, SimConfig};
use eucon_tasks::workloads;
use trace_hash::hash_result;

const PERIODS: usize = 60;

fn sim_config() -> SimConfig {
    SimConfig::constant_etf(0.9)
        .exec_model(ExecModel::Uniform { half_width: 0.2 })
        .seed(3)
}

/// Trace hash of `DecentralizedController` on this scenario, captured
/// on commit 6f7e9f9 (its last), equal in debug and release builds.
const GOLDEN_K1: u64 = 0xf707_1808_c8b7_8dd2;

fn builder(spec: ControllerSpec) -> LoopBuilder {
    LoopBuilder::new(workloads::medium())
        .sim_config(sim_config())
        .controller(spec)
}

fn run_closed(spec: ControllerSpec) -> RunResult {
    builder(spec).local().expect("closed loop").run(PERIODS)
}

fn run_distributed(spec: ControllerSpec) -> RunResult {
    builder(spec)
        .distributed(NetConfig::channel())
        .expect("distributed loop")
        .run(PERIODS)
}

fn sharded(shard_size: usize, boundary: BoundaryMode) -> ControllerSpec {
    ControllerSpec::Sharded {
        mpc: MpcConfig::medium(),
        shard_size,
        boundary,
    }
}

#[test]
fn k1_every_spelling_reproduces_the_deucon_golden() {
    for (spelling, spec) in [
        (
            "Decentralized",
            ControllerSpec::Decentralized(MpcConfig::medium()),
        ),
        (
            "Sharded{1}, in process",
            sharded(1, BoundaryMode::InProcess),
        ),
        (
            "Sharded{1}, ideal lanes",
            sharded(1, BoundaryMode::IdealLanes),
        ),
    ] {
        assert_eq!(
            hash_result(&run_closed(spec)),
            GOLDEN_K1,
            "{spelling}: the singleton team diverged from the pinned DEUCON trace"
        );
    }
}

#[test]
fn ideal_lanes_bit_identical_to_in_process_exchange() {
    let direct = run_closed(sharded(2, BoundaryMode::InProcess));
    let lanes = run_closed(sharded(2, BoundaryMode::IdealLanes));
    assert_eq!(
        hash_result(&direct),
        hash_result(&lanes),
        "boundary lanes perturbed the sweep"
    );
}

#[test]
fn distributed_loop_carries_the_sharded_team_unchanged() {
    // Per-processor feedback lanes and per-shard boundary lanes at once:
    // the full distributed stack must still match the single-process loop.
    let single = run_closed(sharded(2, BoundaryMode::IdealLanes));
    let distributed = run_distributed(sharded(2, BoundaryMode::IdealLanes));
    assert_eq!(
        hash_result(&single),
        hash_result(&distributed),
        "distributed stack perturbed the sharded trace"
    );
}

#[test]
fn sharded_converges_within_spec_on_medium() {
    // The ISSUE's convergence gate at workload scale: every processor
    // within ±0.03 of its set point by period 150.
    let result = builder(sharded(2, BoundaryMode::IdealLanes))
        .local()
        .expect("closed loop")
        .run(150);
    let set = workloads::medium();
    let b = eucon_tasks::rms_set_points(&set);
    for p in 0..set.num_processors() {
        // Windowed mean over the settled tail — the noise of a single
        // stochastic sample is not a convergence property.
        let w = eucon_core::metrics::window(&result.trace.utilization_series(p), 120, 150);
        let err = (w.mean - b[p]).abs();
        assert!(err <= 0.03, "processor {p} err {err:.4} at period 150");
    }
    assert_eq!(result.control_errors, 0);
}
