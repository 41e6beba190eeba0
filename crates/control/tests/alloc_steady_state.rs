//! Allocation guard for the controller step (ISSUE 13).
//!
//! A controller is itself a real-time task: once its buffers have grown
//! to the sizes its problem reaches, `RateController::update` — QP solve
//! included — must not touch the heap.  The script keeps the active set
//! churning (tens of iterations a solve, the relaxed-constraint fallback,
//! warm starts that keep a few rows of their guess), so this covers the
//! solver's every temporary, not a settled loop's zero-iteration solve.
//!
//! A counting `#[global_allocator]` makes the contract checkable.  The
//! file contains a single `#[test]` on purpose: the counter is global, so
//! concurrent tests in the same binary would pollute each other's deltas.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{central_20p, one_shard_16p, script_into};
use eucon_control::RateController;
use eucon_math::Vector;
use eucon_tasks::TaskSet;

/// Passes every request to the system allocator, counting them.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

const WARM_UP: usize = 20;
const MEASURED: usize = 200;

/// Allocations made inside `update` over script steps
/// `WARM_UP..WARM_UP + MEASURED` (the script's own are not counted), and
/// the largest iteration count among them.
fn measure(set: &TaskSet, ctrl: &mut dyn RateController) -> (u64, usize) {
    let mut u = Vector::zeros(set.num_processors());
    let mut allocs = 0;
    let mut max_iters = 0;
    for k in 0..WARM_UP + MEASURED {
        script_into(k, set, ctrl.rates(), &mut u);
        let before = ALLOCS.load(Ordering::Relaxed);
        ctrl.update(&u).expect("script step solves");
        if k >= WARM_UP {
            allocs += ALLOCS.load(Ordering::Relaxed) - before;
            max_iters = max_iters.max(ctrl.telemetry().qp_iterations);
        }
    }
    (allocs, max_iters)
}

#[test]
fn controller_updates_are_allocation_free_after_warm_up() {
    let (set, mut central) = central_20p();
    let (allocs, max_iters) = measure(&set, &mut central);
    assert!(max_iters > 8, "the measured steps must churn ({max_iters})");
    assert_eq!(
        allocs, 0,
        "MpcController::update allocated {allocs} times over {MEASURED} steps"
    );

    let (set, mut team) = one_shard_16p();
    let (allocs, max_iters) = measure(&set, &mut team);
    assert!(max_iters > 8, "the measured steps must churn ({max_iters})");
    assert_eq!(
        allocs, 0,
        "ShardedController::update allocated {allocs} times over {MEASURED} steps"
    );
}
