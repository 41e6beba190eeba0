//! Controller-level golden hashes over a script that forces active-set
//! churn (ISSUE 13).
//!
//! The SIMPLE/MEDIUM closed-loop goldens in `eucon-core` never spend more
//! than 8 active-set iterations in a solve; these two drive the solver
//! where the benchmark does — a 120-variable × 280-row centralized QP and
//! a banded 16-processor shard QP, tens of iterations a solve — and pin
//! every commanded rate bit.  The constants were captured on the commit
//! before the solver read sparse rows or used a workspace: any reordering
//! of its arithmetic changes them.

mod common;

use common::{central_20p, one_shard_16p, script_into};
use eucon_control::RateController;
use eucon_math::Vector;
use eucon_tasks::TaskSet;

/// Steps of the script the hashes cover.
const SCRIPT_STEPS: usize = 300;

const CENTRAL_20P_RATE_HASH: u64 = 0x3e81_ff19_9823_eea6;
const SHARD_16P_RATE_HASH: u64 = 0x1695_2b6f_0cf6_6266;

/// FNV-1a over the bit patterns of every rate commanded along the script,
/// plus the largest per-period iteration count seen and the number of
/// steps that dropped the utilization rows.
fn drive(set: &TaskSet, ctrl: &mut dyn RateController) -> (u64, usize, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut max_iters = 0;
    let mut relaxed = 0;
    let mut u = Vector::zeros(set.num_processors());
    for k in 0..SCRIPT_STEPS {
        script_into(k, set, ctrl.rates(), &mut u);
        ctrl.update(&u).expect("script step solves");
        max_iters = max_iters.max(ctrl.telemetry().qp_iterations);
        relaxed += usize::from(ctrl.telemetry().relaxed_utilization);
        for r in ctrl.rates() {
            for byte in r.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (hash, max_iters, relaxed)
}

#[test]
fn central_20p_rates_are_pinned_through_active_set_churn() {
    let (set, mut ctrl) = central_20p();
    let (hash, max_iters, relaxed) = drive(&set, &mut ctrl);
    assert!(
        max_iters > 8,
        "script must churn harder than the closed-loop goldens (max {max_iters} iterations)"
    );
    // The overload phases make the utilization rows infeasible, so the
    // hash pins the rate-row fallback's bits too.
    assert!(
        relaxed >= 30,
        "script must run the fallback ({relaxed} relaxed steps)"
    );
    assert_eq!(hash, CENTRAL_20P_RATE_HASH, "rate hash {hash:#018x}");
}

#[test]
fn one_16p_shard_rates_are_pinned_through_active_set_churn() {
    let (set, mut ctrl) = one_shard_16p();
    let (hash, max_iters, _) = drive(&set, &mut ctrl);
    assert!(
        max_iters > 8,
        "script must churn harder than the closed-loop goldens (max {max_iters} iterations)"
    );
    assert_eq!(hash, SHARD_16P_RATE_HASH, "rate hash {hash:#018x}");
}

#[test]
fn a_dropped_row_never_rebuilds_the_factor_on_the_central_script() {
    // A solve builds its subproblem factor from scratch at most once for
    // its warm start's guess, and once more per declined append; every
    // other change to the active set, drops included, is an append or a
    // delete.
    let (set, mut ctrl) = central_20p();
    let mut u = Vector::zeros(set.num_processors());
    let mut deletes = 0;
    for k in 0..SCRIPT_STEPS {
        script_into(k, &set, ctrl.rates(), &mut u);
        ctrl.update(&u).expect("script step solves");
        let work = ctrl.last_step_info().factor_work;
        assert!(work.builds <= 1 + work.declined, "step {k}: {work:?}");
        deletes += work.deletes;
    }
    assert!(
        deletes > SCRIPT_STEPS,
        "the script must drop rows ({deletes} deletes)"
    );
}
