//! Equivalence pins for the cluster-scale sharded controller.
//!
//! Three bit-identity contracts gate the sharded path:
//!
//! 1. **K=1 is DEUCON, and stays what it was** — the sharded spec at
//!    shard size 1, in process and over ideal lanes, builds the singleton
//!    team, whose closed-loop trace is pinned to the hash the separate
//!    per-processor `DecentralizedController` produced on this scenario
//!    before it was deleted as a duplicate.
//! 2. **The sweep stays what it was** — the team at shard size 2 on
//!    MEDIUM and at shard size 16 on the `shard_64p` cluster shape is
//!    pinned to hashes captured before the shared-memory sweep was
//!    deleted, once over the in-memory board and once over lossless
//!    same-period `eucon-net` lanes.
//! 3. Both hold through the full distributed stack (per-processor
//!    report/command lanes *and* per-shard boundary lanes at once).

mod trace_hash;

use eucon_control::MpcConfig;
use eucon_core::{BoundaryMode, ControllerSpec, LoopBuilder, NetConfig, RunResult};
use eucon_sim::{ExecModel, SimConfig};
use eucon_tasks::{workloads, workloads::RandomWorkload, TaskSet};
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

/// The same scenario under the sharded team at shard size 2 — captured
/// while the team still ran a second, shared-memory sweep beside the bus
/// sweep, equal in debug and release builds.
const GOLDEN_K2: u64 = 0x3375_bdd0_6e3e_749e;

/// The `shard_64p` shape ([`cluster_64`]) at shard size 16 under this
/// file's simulator configuration, captured with [`GOLDEN_K2`].
const GOLDEN_CLUSTER_K16: u64 = 0xb457_f1ba_d9fb_2b29;

fn builder(spec: ControllerSpec) -> LoopBuilder {
    LoopBuilder::new(workloads::medium())
        .sim_config(sim_config())
        .controller(spec)
}

fn run_closed(spec: ControllerSpec) -> RunResult {
    builder(spec).local().expect("closed loop").run(PERIODS)
}

/// The `shard_64p` benchmark's shape: 64 processors, 192 tasks, chains
/// of at most three subtasks, each hop within two processors of the last.
fn cluster_64() -> TaskSet {
    RandomWorkload::new(64, 192)
        .seed(21)
        .locality(2)
        .max_chain_len(3)
        .generate()
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

/// Asserts `golden` for the team at `shard_size` on `set`, once over the
/// team's in-memory board and once over ideal boundary lanes.
fn assert_sweep_golden(name: &str, set: &TaskSet, shard_size: usize, golden: u64) {
    for boundary in [BoundaryMode::InProcess, BoundaryMode::IdealLanes] {
        let result = LoopBuilder::new(set.clone())
            .sim_config(sim_config())
            .controller(sharded(shard_size, boundary.clone()))
            .local()
            .expect("closed loop")
            .run(PERIODS);
        assert_eq!(
            hash_result(&result),
            golden,
            "{name}, {boundary:?}: the sharded sweep diverged from its pinned trace"
        );
    }
}

#[test]
fn k2_golden_holds_in_process_and_over_ideal_lanes() {
    assert_sweep_golden("MEDIUM K=2", &workloads::medium(), 2, GOLDEN_K2);
}

#[test]
fn cluster_k16_golden_holds_in_process_and_over_ideal_lanes() {
    assert_sweep_golden("64x192 K=16", &cluster_64(), 16, GOLDEN_CLUSTER_K16);
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
