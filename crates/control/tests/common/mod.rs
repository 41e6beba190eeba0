//! Fixtures shared by `solver_golden.rs` and `alloc_steady_state.rs`: a
//! 20-processor centralized MPC, one 16-processor shard, and a fixed
//! utilization script that keeps their active sets churning.

use eucon_control::{MpcConfig, MpcController, ShardedController};
use eucon_math::Vector;
use eucon_tasks::{rms_set_points, workloads::RandomWorkload, TaskSet};

/// The `central_20p_over` benchmark shape: 60 tasks × M = 2 → 120
/// variables, 280 constraint rows (240 rate bounds, and the utilization
/// rows of prediction steps 1..=M, which hold-rate leaves distinct).
pub fn central_20p() -> (TaskSet, MpcController) {
    let set = RandomWorkload::new(20, 60).seed(7).generate();
    let b = rms_set_points(&set);
    let ctrl = MpcController::new(&set, b, MpcConfig::medium()).expect("central controller");
    (set, ctrl)
}

/// One 16-processor shard of the `shard_64p` shape (banded local QP).
pub fn one_shard_16p() -> (TaskSet, ShardedController) {
    let set = RandomWorkload::new(16, 48)
        .seed(21)
        .locality(2)
        .max_chain_len(3)
        .generate();
    let b = rms_set_points(&set);
    let team =
        ShardedController::with_shard_size(&set, b, MpcConfig::medium(), 16).expect("sharded team");
    assert_eq!(team.num_controllers(), 1, "fixture must be a single shard");
    (set, team)
}

/// Utilization sample of script step `k`, written into `u`: what the
/// processors would measure if every job ran `gain(k)` times its estimate
/// at the rates the controller last commanded, with a ±20 % per-processor
/// hash on top (so no two periods pin the same rows).  The gain is a
/// square wave through overload and underload, so rates run into `Rmin`
/// and `Rmax` and leave again.
pub fn script_into(k: usize, set: &TaskSet, rates: &Vector, u: &mut Vector) {
    let gain = [3.0, 0.4, 1.8, 0.9][(k / 10) % 4];
    let estimate = set.estimated_utilization(rates);
    for p in 0..u.len() {
        let mut h = (k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (p as u64 + 1).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        h ^= h >> 29;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 32;
        let noise = (h % 2001) as f64 / 1000.0 - 1.0; // [-1, 1]
        u[p] = (gain * estimate[p] * (1.0 + 0.2 * noise)).clamp(0.0, 1.0);
    }
}
