//! Unrolled scalar kernels shared by the dense containers.
//!
//! These are the innermost loops of the closed-loop hot path: every MPC
//! step funnels through `dot` (matrix–vector products, constraint
//! violation scans) and `axpy` (active-set updates).  Each kernel is
//! written with `chunks_exact` so the compiler can keep the unrolled
//! body in registers, but accumulates with a **single** accumulator in
//! the exact left-to-right order of the textbook loop it replaces.
//! That makes the substitution bit-exact — no reassociation — which the
//! golden closed-loop trace hashes in `eucon-core` pin down.
//!
//! The contract extends to the sparse form,
//! [`SparseRows::dot`](crate::SparseRows::dot): same single accumulator,
//! same ascending column order, with the terms whose *matrix* entry is an
//! exact `±0.0` left out.  For finite `x` that changes no bit:
//!
//! 1. a left-out term `0·x` is `±0.0`;
//! 2. the accumulator starts at `+0.0` and, under round-to-nearest, a sum
//!    is `−0.0` only when both operands are — so it is never `−0.0`, and
//!    adding `±0.0` to it returns it unchanged, whether it is `+0.0` or
//!    nonzero;
//! 3. the remaining terms are the same products, added in the same order.
//!
//! The precondition — finite operands; `0·∞` is NaN — is enforced by the
//! callers: `eucon-qp` rejects non-finite per-solve inputs and the
//! factorizations reject non-finite matrices.
//!
//! The triangular sweeps of [`Cholesky::solve_into`] keep the same
//! contract: each entry is `b_i` minus its in-band terms, in one
//! accumulator, in ascending column order, divided by the pivot.  The
//! back sweep reads row `i` of a stored band of `Lᵀ` where it used to walk
//! down column `i` of `L` — the same terms from another copy of the same
//! values, so no bit moves.
//!
//! [`Cholesky::solve_into`]: crate::Cholesky::solve_into

/// Unroll width for the kernels below.
///
/// Four doubles is one cache line half; wide enough to hide the loop
/// overhead, small enough that tails stay cheap for this repo's tiny
/// operands (tens of entries).
const UNROLL: usize = 4;

/// Dot product `Σ a[i]·b[i]` over two equal-length slices.
///
/// Accumulation order is strictly left to right with one accumulator,
/// so the result is bit-identical to the naive loop.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    let mut acc = 0.0;
    let mut ca = a.chunks_exact(UNROLL);
    let mut cb = b.chunks_exact(UNROLL);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        acc += x[0] * y[0];
        acc += x[1] * y[1];
        acc += x[2] * y[2];
        acc += x[3] * y[3];
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += x * y;
    }
    acc
}

/// Fused in-place update `y[i] += alpha · x[i]`.
///
/// Each entry is updated as `y[i] + (alpha · x[i])`, the same expression
/// as the allocating form `&y + &x.scale(alpha)`, so replacing that
/// pattern with `axpy` is bit-exact while eliminating two temporaries.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy requires equal lengths");
    let mut cy = y.chunks_exact_mut(UNROLL);
    let mut cx = x.chunks_exact(UNROLL);
    for (ys, xs) in cy.by_ref().zip(cx.by_ref()) {
        ys[0] += alpha * xs[0];
        ys[1] += alpha * xs[1];
        ys[2] += alpha * xs[2];
        ys[3] += alpha * xs[3];
    }
    for (yv, xv) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yv += alpha * xv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn dot_matches_naive_for_all_tail_lengths() {
        // Lengths straddling the unroll width, including every tail size.
        for n in 0..=9 {
            let a: Vec<f64> = (0..n).map(|i| 0.3 * i as f64 - 1.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.7 - 0.9 * i as f64).collect();
            let expected = naive_dot(&a, &b);
            assert_eq!(dot(&a, &b), expected, "length {n}");
        }
    }

    #[test]
    fn dot_is_bit_exact_against_sequential_sum() {
        // Values chosen so reassociation would visibly change the result.
        let a = [1e16, 1.0, -1e16, 1.0, 0.5, 2.0, -0.25, 8.0, 3.0];
        let b = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(dot(&a, &b).to_bits(), naive_dot(&a, &b).to_bits());
    }

    #[test]
    fn axpy_matches_scale_add_for_all_tail_lengths() {
        for n in 0..=9 {
            let x: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 + 0.7).collect();
            let mut y: Vec<f64> = (0..n).map(|i| 2.0 - 0.4 * i as f64).collect();
            let expected: Vec<f64> = y.iter().zip(&x).map(|(yv, xv)| yv + 1.3 * xv).collect();
            axpy(&mut y, 1.3, &x);
            assert_eq!(y, expected, "length {n}");
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn axpy_length_mismatch_panics() {
        axpy(&mut [1.0, 2.0], 1.0, &[1.0]);
    }
}
