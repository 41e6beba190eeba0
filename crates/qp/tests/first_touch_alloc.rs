//! Allocation guard for a prepared QP's first touch of a constraint row.
//!
//! A `PreparedQp` computes a row's back-solve `H⁻¹nᵢ` the first time a
//! solve needs the row, into a table sized for every row at construction,
//! and the row's Gram entries where the solve reads them.  So a row that
//! becomes active for the first time late in a run — a constraint the
//! controller has never hit — must cost arithmetic only, not a heap
//! allocation.
//!
//! A counting `#[global_allocator]` makes that checkable.  The file
//! contains a single `#[test]` on purpose: the counter is global, so
//! concurrent tests in the same binary would pollute each other's deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use eucon_math::{Matrix, Vector};
use eucon_qp::{PreparedQp, QpSolution};

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

/// `min ½xᵀHx − tᵀx` over 6 coupled variables with `x ≤ 1` and `x ≥ −1`
/// per coordinate (rows 0–5 and 6–11) and two sum rows (12, 13).
fn boxed_problem() -> PreparedQp {
    let n = 6;
    let h = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
        0 => 2.0,
        1 => 0.5,
        _ => 0.0,
    });
    let g = Matrix::from_fn(2 * n + 2, n, |i, j| match i {
        _ if i == j => 1.0,
        _ if i == n + j => -1.0,
        _ if i == 2 * n => 1.0,
        _ if i == 2 * n + 1 && j % 2 == 0 => 1.0,
        _ => 0.0,
    });
    PreparedQp::new(h, g).unwrap()
}

#[test]
fn a_row_touched_for_the_first_time_allocates_nothing() {
    let qp = boxed_problem();
    let mut hvec = Vector::filled(14, 1.0);
    hvec[12] = 4.0;
    hvec[13] = 3.0;
    let mut out = QpSolution::default();
    let mut seen = vec![false; qp.num_constraints()];
    let mut warm = Vec::new();

    // Warm-up: targets above the box on the first three coordinates, then
    // below it on two of them, cold and warm — rows of A = {0, 1, 2, 6, 7}
    // become active, the workspace grows to every code path.
    let targets: [[f64; 6]; 4] = [
        [4.0, 4.0, 0.0, 0.0, 0.0, 0.0],
        [4.0, 4.0, 4.0, 0.0, 0.0, 0.0],
        [-4.0, -4.0, 0.0, 0.0, 0.0, 0.0],
        [4.0, 4.0, 0.0, 0.0, 0.0, 0.0],
    ];
    for t in targets {
        let f = Vector::from_iter(t.iter().map(|v| -v));
        for guess in [&[][..], &warm.clone()] {
            qp.solve_into(&f, &hvec, guess, &mut out).unwrap();
            for &a in &out.active {
                seen[a] = true;
            }
        }
        warm.clone_from(&out.active);
    }

    // Push the last coordinate over its bound: no earlier target moved
    // x5, so row 5 has never been active or even violated.
    let f = Vector::from_slice(&[-4.0, -4.0, 0.0, 0.0, 0.0, -4.0]);
    let before = ALLOCS.load(Ordering::Relaxed);
    qp.solve_into(&f, &hvec, &warm, &mut out).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert!(out.active.contains(&5), "active set {:?}", out.active);
    assert!(!seen[5], "row 5 must be new to this instance");
    assert_eq!(
        allocs, 0,
        "the first touch of row 5 allocated {allocs} times"
    );
}
