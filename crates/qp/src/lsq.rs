//! `lsqlin`-style constrained least-squares front end.

use std::sync::Arc;

use eucon_math::{Matrix, SparseRows, Vector};

use crate::solver::{check_finite, copy_active_set};
use crate::{FactorWork, PreparedQp, QpError};

/// Solution of a [`PreparedLsq`] solve.
#[derive(Debug, Clone, Default)]
pub struct LsqSolution {
    /// The minimizer.
    pub x: Vector,
    /// Residual norm `‖C·x − d‖₂` at the solution.
    pub residual: f64,
    /// Number of active-set changes performed by the QP solver.
    pub iterations: usize,
    /// Indices of the rows of `G` active at the solution.
    pub active: Vec<usize>,
    /// Rows of the warm-start guess the QP solver kept as its starting
    /// active set (see [`QpSolution::warm_retained`](crate::QpSolution::warm_retained)).
    pub warm_retained: usize,
    /// What the QP solve did to its subproblem factor.
    pub factor_work: FactorWork,
}

/// Constrained linear least-squares problem, shaped like MATLAB's `lsqlin`,
/// with fixed `C` and `G`, prepared for repeated solves with varying
/// targets `d` and constraint slacks `h`:
///
/// ```text
/// min ‖C·x − d‖₂²   subject to   G·x ≤ h
/// ```
///
/// This is the shape of the EUCON controller's per-period problem: the
/// objective matrix `C` and constraint matrix `G` derive from the task
/// model and never change between sampling periods, while `d` (tracking
/// error) and `h` (rate/utilization slacks) change every period.
/// Construction builds the strictly convex QP's `H = CᵀC + εI` and
/// factorizes it once (the Tikhonov term `εI` keeps it strictly convex
/// when `C` is rank-deficient; `ε = 0` trusts the caller); a
/// constraint row's back-solve is computed the first time a solve touches
/// the row and kept ([`PreparedQp`]).  Once a run's rows are in, each
/// [`solve_with`](PreparedLsq::solve_with) costs two triangular
/// back-substitutions plus active-set bookkeeping, and can warm-start from
/// the previous period's active set.  Box bounds are rows of `G`: `x ≤ ub`
/// as `[I]`, `[ub]` and `x ≥ lb` as `[−I]`, `[−lb]`, leaving out the rows
/// of unbounded sides (every entry of `h` must be finite).
///
/// # Example
///
/// ```
/// use eucon_math::{Matrix, Vector};
/// use eucon_qp::PreparedLsq;
///
/// # fn main() -> Result<(), eucon_qp::QpError> {
/// // Repeatedly project a moving target onto x0 + x1 ≤ 1.
/// let prepared = PreparedLsq::new(
///     Matrix::identity(2),
///     Matrix::from_rows(&[&[1.0, 1.0]]),
///     0.0,
/// )?;
/// let h = Vector::from_slice(&[1.0]);
/// let mut warm = Vec::new();
/// for k in 0..3 {
///     let d = Vector::from_slice(&[1.0 + k as f64, 1.0]);
///     let sol = prepared.solve_with(&d, &h, &warm)?;
///     assert!(sol.x[0] + sol.x[1] <= 1.0 + 1e-9);
///     warm = sol.active;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PreparedLsq {
    /// The objective matrix, shared across clones like the QP core:
    /// fanning a homogeneous model out to a fleet copies an `Arc`, not
    /// matrices.
    objective: Arc<Objective>,
    qp: PreparedQp,
}

/// `C` as [`PreparedLsq`] uses it per solve: the nonzeros of its rows
/// (for the residual `C·x − d`) and of its columns (for `f = −Cᵀd`).
/// The dense matrix is not kept; nothing reads it after construction.
#[derive(Debug)]
struct Objective {
    c_rows: SparseRows,
    ct_rows: SparseRows,
}

impl PreparedLsq {
    /// Prepares `min ‖C·x − d‖²` s.t. `G·x ≤ h` for repeated solves,
    /// factorizing `H = CᵀC + εI` (from the nonzeros of `C`) once.
    ///
    /// # Errors
    ///
    /// * [`QpError::NotStrictlyConvex`] — `CᵀC + εI` is not positive
    ///   definite (rank-deficient `C` with `ε = 0`).
    /// * [`QpError::DimensionMismatch`] — `g.cols() != c.cols()`.
    /// * [`QpError::NonFiniteInput`] — `c` or `g` has a NaN or infinite
    ///   entry (`what` is `"c"` or `"g"`, `index` its row-major position).
    pub fn new(c: Matrix, g: Matrix, regularization: f64) -> Result<Self, QpError> {
        check_finite("c", c.as_slice())?;
        let c_rows = SparseRows::from_matrix(&c);
        drop(c);
        let mut hess = c_rows.gram();
        if regularization > 0.0 {
            for i in 0..hess.rows() {
                hess[(i, i)] += regularization;
            }
        }
        let qp = PreparedQp::new(hess, g)?;
        Ok(PreparedLsq {
            objective: Arc::new(Objective {
                ct_rows: c_rows.transpose(),
                c_rows,
            }),
            qp,
        })
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.c_rows.cols()
    }

    /// Number of inequality constraints.
    pub fn num_constraints(&self) -> usize {
        self.qp.num_constraints()
    }

    /// Lower bandwidth of the normal-equation Hessian `CᵀC + εI`
    /// detected at preparation time (see
    /// [`PreparedQp::hessian_bandwidth`]).
    pub fn hessian_bandwidth(&self) -> usize {
        self.qp.hessian_bandwidth()
    }

    /// Whether `self` and `other` share one immutable model (`C`, `Cᵀ`
    /// and the prepared QP core) — true exactly for clones of a common
    /// ancestor (see [`PreparedQp::shares_model`]).
    pub fn shares_model(&self, other: &PreparedLsq) -> bool {
        Arc::ptr_eq(&self.objective, &other.objective) && self.qp.shares_model(&other.qp)
    }

    /// Solves for a new target `d` and constraint rhs `h`, optionally
    /// warm-starting from a previous active set (see
    /// [`PreparedQp::solve`]).  Allocates the returned solution;
    /// [`solve_into`](PreparedLsq::solve_into) is the same solve into a
    /// caller-owned one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedQp::solve`], with `d` checked for
    /// non-finite entries like `h`.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != c.rows()` or `h.len()` differs from the
    /// prepared constraint count.
    pub fn solve_with(
        &self,
        d: &Vector,
        h: &Vector,
        warm: &[usize],
    ) -> Result<LsqSolution, QpError> {
        let mut sol = LsqSolution::default();
        self.solve_into(d, h, warm, &mut sol)?;
        Ok(sol)
    }

    /// [`solve_with`](PreparedLsq::solve_with) into a caller-owned
    /// solution whose buffers are reused — the controller's per-period
    /// call, allocation-free in steady state (see
    /// [`PreparedQp::solve_into`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedLsq::solve_with`]; `out` is untouched
    /// on error.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PreparedLsq::solve_with`].
    pub fn solve_into(
        &self,
        d: &Vector,
        h: &Vector,
        warm: &[usize],
        out: &mut LsqSolution,
    ) -> Result<(), QpError> {
        self.solve_rows(d, h, warm, false, out)
    }

    /// [`solve_into`](PreparedLsq::solve_into) subject to the first `k =
    /// h.len()` rows of `G` alone: the answer of `PreparedLsq::new(c,
    /// G[..k], ε)`, bit for bit, from this preparation (see
    /// [`PreparedQp::solve_prefix_into`]); errors and panics as there.
    pub fn solve_prefix_into(
        &self,
        d: &Vector,
        h: &Vector,
        warm: &[usize],
        out: &mut LsqSolution,
    ) -> Result<(), QpError> {
        self.solve_rows(d, h, warm, true, out)
    }

    /// [`solve_into`](PreparedLsq::solve_into), or with `prefix`
    /// [`solve_prefix_into`](PreparedLsq::solve_prefix_into).
    fn solve_rows(
        &self,
        d: &Vector,
        h: &Vector,
        warm: &[usize],
        prefix: bool,
        out: &mut LsqSolution,
    ) -> Result<(), QpError> {
        let Objective { c_rows, ct_rows } = &*self.objective;
        let (rows, cols) = (c_rows.rows(), c_rows.cols());
        assert_eq!(
            d.len(),
            rows,
            "rhs length must equal the number of rows of C"
        );
        check_finite("d", d.as_slice())?;
        let ws = &mut *self.qp.workspace();
        // f = −Cᵀd, staged in the workspace (taken out for the solve, which
        // borrows the rest of it).
        let mut f = std::mem::take(&mut ws.f);
        f.resize(cols);
        ct_rows.mul_vec_into(d, &mut f);
        for v in f.as_mut_slice() {
            *v *= -1.0;
        }
        let solved = self.qp.solve_in(ws, &f, h, warm, prefix);
        ws.f = f;
        let stats = solved?;
        // ‖C·x − d‖ accumulated row by row; same per-row dots and the same
        // left-to-right sum of squares as `(&c.mul_vec(&x) - d).norm()`,
        // without the two temporaries.
        let mut acc = 0.0;
        for i in 0..rows {
            let diff = c_rows.dot(i, ws.x.as_slice()) - d[i];
            acc += diff * diff;
        }
        out.x.clone_from(&ws.x);
        out.residual = acc.sqrt();
        out.iterations = stats.iterations;
        copy_active_set(&ws.active, cols, &mut out.active);
        out.warm_retained = stats.warm_retained;
        out.factor_work = stats.factor_work;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `G` and `h` of the box `lb ≤ x ≤ ub`: the upper-bound rows, then the
    /// lower-bound rows, each only where that side is finite.
    fn box_rows(lb: &[f64], ub: &[f64]) -> (Matrix, Vector) {
        let upper = ub.iter().enumerate().map(|(j, &b)| (j, 1.0, b));
        let lower = lb.iter().enumerate().map(|(j, &b)| (j, -1.0, -b));
        let sides: Vec<(usize, f64, f64)> =
            upper.chain(lower).filter(|s| s.2.is_finite()).collect();
        let g = Matrix::from_fn(sides.len(), lb.len(), |r, j| {
            if sides[r].0 == j {
                sides[r].1
            } else {
                0.0
            }
        });
        (g, Vector::from_iter(sides.iter().map(|s| s.2)))
    }

    /// One solve of `min ‖C·x − d‖²` s.t. `G·x ≤ h` on a fresh instance.
    fn solve_once(c: Matrix, g: Matrix, h: &Vector, d: &Vector) -> Result<LsqSolution, QpError> {
        PreparedLsq::new(c, g, 0.0)?.solve_with(d, h, &[])
    }

    #[test]
    fn unconstrained_matches_qr_least_squares() {
        let c = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
        let d = Vector::from_slice(&[1.0, 2.0, 2.8]);
        let sol = solve_once(c.clone(), Matrix::zeros(0, 2), &Vector::zeros(0), &d).unwrap();
        let oracle = c.least_squares(&d).unwrap();
        assert!(sol.x.approx_eq(&oracle, 1e-9));
        assert!(sol.active.is_empty());
    }

    #[test]
    fn bounds_clip_the_solution() {
        let (g, h) = box_rows(&[-1.0, -1.0], &[1.0, 1.0]);
        let d = Vector::from_slice(&[5.0, -5.0]);
        let sol = solve_once(Matrix::identity(2), g, &h, &d).unwrap();
        assert!(sol.x.approx_eq(&Vector::from_slice(&[1.0, -1.0]), 1e-9));
        assert_eq!(sol.active.len(), 2);
    }

    #[test]
    fn unbounded_sides_are_rows_left_out() {
        let (g, h) = box_rows(&[f64::NEG_INFINITY, 0.0], &[f64::INFINITY, 1.0]);
        // Only x1's two finite bounds are rows.
        assert_eq!(g.rows(), 2);
        let sol = solve_once(Matrix::identity(2), g, &h, &Vector::zeros(2)).unwrap();
        assert!(sol.x.max_abs() < 1e-12);
        // An unbounded side written as a row is rejected, not solved.
        let err = solve_once(
            Matrix::identity(2),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            &Vector::from_slice(&[f64::INFINITY]),
            &Vector::zeros(2),
        );
        assert_eq!(
            err.unwrap_err(),
            QpError::NonFiniteInput {
                what: "h",
                index: 0
            }
        );
    }

    #[test]
    fn mixed_rows_and_bounds() {
        // Target [2, 2]; x0 + x1 ≤ 1 and x ≥ 0 → symmetric optimum [.5, .5].
        let (bg, bh) = box_rows(&[0.0, 0.0], &[10.0, 10.0]);
        let g = Matrix::from_rows(&[&[1.0, 1.0]]).vstack(&bg);
        let h = Vector::from_slice(&[1.0]).concat(&bh);
        let sol = solve_once(Matrix::identity(2), g, &h, &Vector::from_slice(&[2.0, 2.0])).unwrap();
        assert!(sol.x.approx_eq(&Vector::from_slice(&[0.5, 0.5]), 1e-9));
        assert!((sol.residual - (2.0f64 * 1.5 * 1.5).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn rank_deficient_needs_regularization() {
        // C has rank 1: fails at construction without regularization,
        // succeeds with it.
        let c = Matrix::from_rows(&[&[1.0, 1.0]]);
        let d = Vector::from_slice(&[2.0]);
        let bare = PreparedLsq::new(c.clone(), Matrix::zeros(0, 2), 0.0);
        assert_eq!(bare.unwrap_err(), QpError::NotStrictlyConvex);

        let sol = PreparedLsq::new(c, Matrix::zeros(0, 2), 1e-9)
            .unwrap()
            .solve_with(&d, &Vector::zeros(0), &[])
            .unwrap();
        // Minimum-norm-ish solution: x0 ≈ x1 ≈ 1.
        assert!((sol.x[0] - 1.0).abs() < 1e-4);
        assert!((sol.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn infeasible_box_detected() {
        // x ≤ −2 and x ≥ −1
        let g = Matrix::from_rows(&[&[1.0], &[-1.0]]);
        let r = solve_once(
            Matrix::identity(1),
            g,
            &Vector::from_slice(&[-2.0, 1.0]),
            &Vector::zeros(1),
        );
        assert_eq!(r.unwrap_err(), QpError::Infeasible);
    }

    #[test]
    #[should_panic(expected = "rhs length")]
    fn dimension_validation_panics() {
        let _ = solve_once(
            Matrix::identity(2),
            Matrix::zeros(0, 2),
            &Vector::zeros(0),
            &Vector::zeros(3),
        );
    }

    #[test]
    fn residual_reported_correctly() {
        // Overdetermined inconsistent system keeps a positive residual.
        let c = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let d = Vector::from_slice(&[0.0, 2.0]);
        let sol = solve_once(c, Matrix::zeros(0, 1), &Vector::zeros(0), &d).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
        assert!((sol.residual - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn prepared_warm_start_reaches_same_solution() {
        let prepared = PreparedLsq::new(
            Matrix::identity(2),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
            0.0,
        )
        .unwrap();
        let h = Vector::from_slice(&[1.0, 1.0]);
        let d = Vector::from_slice(&[2.0, 2.0]);
        let cold = prepared.solve_with(&d, &h, &[]).unwrap();
        let warm = prepared.solve_with(&d, &h, &cold.active).unwrap();
        assert!(warm.x.approx_eq(&cold.x, 1e-12));
        assert_eq!(warm.iterations, 0);
    }

    /// MPC-shaped problem: dense tracking rows over every variable, then
    /// one rate-penalty row per variable that is zero everywhere else.
    fn churn_shaped_prepared() -> (Matrix, Matrix, PreparedLsq) {
        let c = Matrix::from_rows(&[
            &[1.0, 0.4, -0.3],
            &[0.2, 1.1, 0.6],
            &[0.5, 0.0, 0.0],
            &[0.0, 0.5, 0.0],
            &[0.0, 0.0, 0.5],
        ]);
        let g = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0],
            &[-1.0, 0.0, 0.0],
            &[0.0, -1.0, 0.0],
            &[0.0, 0.0, -1.0],
        ]);
        let p = PreparedLsq::new(c.clone(), g.clone(), 1e-9).unwrap();
        (c, g, p)
    }

    #[test]
    fn prepared_rejects_non_finite_targets_and_slacks() {
        let (_, _, p) = churn_shaped_prepared();
        let d = Vector::from_slice(&[1.0, 2.0, 0.0, 0.0, 0.0]);
        let h = Vector::from_slice(&[0.5; 6]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad_d = d.clone();
            // Row 2 of C is zero in columns 1 and 2: a product the sparse
            // `Cᵀd` never forms, so `d` is checked before it is used.
            bad_d[2] = bad;
            let mut bad_h = h.clone();
            bad_h[5] = bad;
            assert_eq!(
                p.solve_with(&bad_d, &h, &[]).unwrap_err(),
                QpError::NonFiniteInput {
                    what: "d",
                    index: 2
                }
            );
            assert_eq!(
                p.solve_with(&d, &bad_h, &[0]).unwrap_err(),
                QpError::NonFiniteInput {
                    what: "h",
                    index: 5
                }
            );
        }
        assert!(p.solve_with(&d, &h, &[]).is_ok());
    }

    #[test]
    fn non_finite_objective_matrix_is_rejected_at_construction() {
        let (c, g, _) = churn_shaped_prepared();
        let last = c.rows() * c.cols() - 1;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for index in [0, last] {
                let mut bad_c = c.clone();
                bad_c[(index / c.cols(), index % c.cols())] = bad;
                assert_eq!(
                    PreparedLsq::new(bad_c, g.clone(), 1e-9).unwrap_err(),
                    QpError::NonFiniteInput { what: "c", index }
                );
            }
        }
    }

    #[test]
    fn solve_into_matches_solve_with_through_one_reused_output() {
        let (c, g, p) = churn_shaped_prepared();
        let h = Vector::from_slice(&[0.2, 0.3, 0.9, 0.9, 0.4, 0.1]);
        let mut out = LsqSolution::default();
        let mut warm: Vec<usize> = Vec::new();
        for k in 0..10 {
            let s = k as f64;
            let d = Vector::from_slice(&[1.5 - 0.4 * s, -0.7 + 0.3 * s, 0.2, -0.4, 0.1 * s]);
            p.solve_into(&d, &h, &warm, &mut out).unwrap();
            let fresh = PreparedLsq::new(c.clone(), g.clone(), 1e-9).unwrap();
            let reference = fresh.solve_with(&d, &h, &warm).unwrap();
            let bits = |v: &Vector| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&out.x), bits(&reference.x), "step {k}");
            assert_eq!(out.residual.to_bits(), reference.residual.to_bits());
            assert_eq!(out.active, reference.active);
            assert_eq!(out.iterations, reference.iterations);
            assert_eq!(out.warm_retained, reference.warm_retained);
            // The dense formula the sparse products replaced.
            let dense = (&c.mul_vec(&out.x) - &d).norm();
            assert_eq!(out.residual.to_bits(), dense.to_bits());
            warm.clone_from(&out.active);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn solution_never_violates_box(
                d in proptest::collection::vec(-10.0..10.0f64, 3),
                half_width in 0.1..2.0f64,
            ) {
                let (g, h) = box_rows(&[-half_width; 3], &[half_width; 3]);
                let sol = solve_once(Matrix::identity(3), g, &h, &Vector::from_slice(&d)).unwrap();
                for (i, &di) in d.iter().enumerate() {
                    prop_assert!(sol.x[i].abs() <= half_width + 1e-8);
                    // Identity objective → solution is the clamp.
                    prop_assert!((sol.x[i] - di.clamp(-half_width, half_width)).abs() < 1e-8);
                }
            }

            #[test]
            fn objective_not_worse_than_feasible_candidates(
                d in proptest::collection::vec(-3.0..3.0f64, 2),
                candidate in proptest::collection::vec(-1.0..1.0f64, 2),
            ) {
                // Any feasible candidate must score ≥ the reported optimum.
                let c = Matrix::from_rows(&[&[2.0, 0.5], &[0.0, 1.0]]);
                let dv = Vector::from_slice(&d);
                let (g, h) = box_rows(&[-1.0, -1.0], &[1.0, 1.0]);
                let sol = solve_once(c.clone(), g, &h, &dv).unwrap();
                let cand = Vector::from_slice(&candidate);
                let cand_resid = (&c.mul_vec(&cand) - &dv).norm();
                prop_assert!(sol.residual <= cand_resid + 1e-7);
            }
        }
    }
}
