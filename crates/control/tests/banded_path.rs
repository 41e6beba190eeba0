//! Regression pins for the banded-Cholesky fast path on shard-scale
//! problems (ISSUE 8 satellite).
//!
//! The PR 6 banded factorization only pays off when controller Hessians
//! are *detected* with bandwidth ≪ n — which requires workloads with
//! physical locality and controllers whose local problems preserve it.
//! These tests pin all three links: detection, the banded loops actually
//! being in effect, and bit-identity against the forced-dense reference.

use eucon_control::{MpcConfig, ShardedController};
use eucon_math::Cholesky;
use eucon_tasks::{rms_set_points, workloads::RandomWorkload, TaskSet};

/// A rack-like platform: 64 processors, 192 tasks, chains confined to a
/// ±2-processor neighborhood so the coupling graph is banded.
fn rack() -> TaskSet {
    RandomWorkload::new(64, 192)
        .seed(17)
        .locality(2)
        .max_chain_len(3)
        .generate()
}

#[test]
fn sharded_hessians_are_detected_banded() {
    let set = rack();
    let b = rms_set_points(&set);
    let team =
        ShardedController::with_shard_size(&set, b, MpcConfig::medium(), 16).expect("sharded team");
    let global_n = 2 * set.num_tasks(); // two prediction steps per task
    let sizes = team.shard_problem_sizes();
    let bands = team.hessian_bandwidths();
    assert_eq!(sizes.len(), bands.len());
    let mut large_banded = 0usize;
    for (i, (&(owned, _), &band)) in sizes.iter().zip(bands.iter()).enumerate() {
        // The MPC stacks two prediction steps per task, so the local
        // problem has n = 2·owned variables.  Every shard must beat the
        // centralized bandwidth by a wide margin...
        let n = 2 * owned;
        assert!(
            4 * band < global_n,
            "shard {i}: bandwidth {band} vs global n={global_n}"
        );
        // ...and the large shards — where an O(n·b²) factorization is
        // real money — must also engage the banded loops *within* their
        // own problem (tiny shards are legitimately dense).
        if owned >= 16 {
            assert!(
                band < n - 1 && 5 * band <= 4 * n,
                "shard {i}: bandwidth {band} of n={n} — dense fallback on a large shard"
            );
            large_banded += 1;
        }
    }
    assert!(
        large_banded >= 3,
        "only {large_banded} large shards — the fixture no longer exercises the banded path"
    );
}

#[test]
fn decentralized_hessians_stay_narrow() {
    // Decentralization bounds the bandwidth by construction: each node
    // factors only its owned tasks, so every local band is tiny against
    // the 2·192-variable centralized problem.
    let set = rack();
    let b = rms_set_points(&set);
    let team = ShardedController::with_shard_size(&set, b, MpcConfig::medium(), 1)
        .expect("singleton team");
    let global_n = 2 * set.num_tasks();
    let sizes = team.shard_problem_sizes();
    for (i, &band) in team.hessian_bandwidths().iter().enumerate() {
        let n = 2 * sizes[i].0;
        assert!(band < n, "node {i}: bandwidth {band} of n={n}");
        assert!(
            16 * band < global_n,
            "node {i}: bandwidth {band} vs global n={global_n}"
        );
    }
}

#[test]
fn banded_factorization_is_bit_identical_to_dense_reference() {
    // The exact sparsity the shard-local MPC sees: H = FᵀF + εI over the
    // locality workload couples tasks only through shared processors, so
    // H is banded in task order.  The auto-detected banded factorization
    // must reproduce the forced-dense reference bit for bit — the skipped
    // out-of-band terms are exactly zero, never merely small.
    let set = rack();
    let f = set.allocation_matrix();
    let ft = f.transpose();
    let mut h = &ft * &f;
    for i in 0..h.rows() {
        h[(i, i)] += 1e-4;
    }
    let n = h.rows();

    let auto = Cholesky::decompose(&h).expect("SPD by construction");
    assert!(
        auto.bandwidth() * 4 < n,
        "detected bandwidth {} of n={n} — workload lost its locality",
        auto.bandwidth()
    );

    let dense = Cholesky::decompose_with_bandwidth(&h, n - 1).expect("dense reference");
    assert_eq!(dense.bandwidth(), n - 1, "probe must force the dense loops");
    for i in 0..n {
        for j in 0..=i {
            assert_eq!(
                auto.l()[(i, j)].to_bits(),
                dense.l()[(i, j)].to_bits(),
                "L[({i},{j})] differs between banded and dense paths"
            );
        }
    }
}
