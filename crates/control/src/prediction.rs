//! Construction of the MPC prediction and cost matrices.
//!
//! The controller's constrained optimization (paper §6.1) is transformed
//! into the standard `lsqlin` form `min ‖C·X − d‖²` over the stacked move
//! vector `X = [Δr(k); …; Δr(k+M−1)]`.  The right-hand side depends
//! linearly on the current tracking error and the previous move:
//! `d = A_u·(u(k) − B) + A_d·Δr(k−1)`.  This module builds `C`, `A_u` and
//! `A_d` once per controller; they depend only on the model, not on
//! measurements — which is also what makes the closed-loop stability
//! analysis in [`crate::stability`] possible.
//!
//! `A_u` and `A_d` are diagonal blocks — `n·P + m` nonzeros among
//! `(n·P + m·M)·(n + m)` entries — so they are held as [`SparseRows`],
//! whose products carry the bits of the dense ones.

use eucon_math::{Matrix, SparseRows, Vector};

use crate::{ControlError, ControlPenalty, MoveHold, MpcConfig};

/// The right-hand-side maps of the MPC least-squares problem; the
/// objective matrix `C` is built beside them and handed to the caller,
/// which moves it into the solver's preparation.
#[derive(Debug, Clone)]
pub(crate) struct Predictor {
    /// Linear map from the tracking error `u(k) − B` to the rhs `d`:
    /// the reference-decay diagonal of each tracking block.
    pub a_u: SparseRows,
    /// Linear map from the previous move `Δr(k−1)` to the rhs `d`: the
    /// move-penalty diagonal of the first penalty block (empty for
    /// [`ControlPenalty::Move`]).
    pub a_d: SparseRows,
    /// Number of processors.
    pub n: usize,
    /// Number of tasks.
    pub m: usize,
}

impl Predictor {
    /// Builds the maps and the stacked objective matrix `C` (`n·P`
    /// tracking rows then `m·M` penalty rows) for allocation matrix `f`
    /// under `cfg`.
    ///
    /// # Errors
    ///
    /// [`ControlError::Config`] when `cfg` fails
    /// [`MpcConfig::validate`] for `f`'s processor count.
    pub fn new(f: &Matrix, cfg: &MpcConfig) -> Result<(Self, Matrix), ControlError> {
        cfg.validate(f.rows())?;
        let n = f.rows();
        let m = f.cols();
        let p = cfg.prediction_horizon;
        let mh = cfg.control_horizon;
        let lambda = cfg.reference_decay();

        let sqrt_q: Vec<f64> = match &cfg.tracking_weights {
            Some(w) => w.iter().map(|&x| x.sqrt()).collect(),
            None => vec![1.0; n],
        };
        let sqrt_r = cfg.control_penalty_weight.sqrt();

        let n_rows = n * p + m * mh;
        let n_cols = m * mh;
        let mut c = Matrix::zeros(n_rows, n_cols);
        let mut a_u = Matrix::zeros(n_rows, n);
        let a_d = {
            let mut a_d = Matrix::zeros(n_rows, m);
            if cfg.control_penalty == ControlPenalty::MoveDelta {
                // Penalty row block i = 0 subtracts Δr(k−1): residual
                // √R(X₀ − Δr(k−1)), so d gets +√R·Δr(k−1).
                for t in 0..m {
                    a_d[(n * p + t, t)] = sqrt_r;
                }
            }
            a_d
        };

        // Tracking rows: block i (1-based step) applies move block j with
        // multiplicity `move_multiplicity(i, j, M, hold)` (see MoveHold
        // for the two beyond-horizon conventions).  The reference
        // trajectory (paper eq. 8) starts at u(k) and decays to B, so the
        // step-i residual carries the tracking error with coefficient
        // (1 − λ^i): rhs block −√Q·(1 − λ^i)·(u − B).
        for i in 1..=p {
            let row0 = n * (i - 1);
            for j in 0..mh {
                let mult = move_multiplicity(i, j, mh, cfg.move_hold);
                if mult == 0.0 {
                    continue;
                }
                for r in 0..n {
                    for t in 0..m {
                        c[(row0 + r, j * m + t)] = mult * sqrt_q[r] * f[(r, t)];
                    }
                }
            }
            let err_coef = 1.0 - lambda.powi(i as i32);
            for r in 0..n {
                a_u[(row0 + r, r)] = -sqrt_q[r] * err_coef;
            }
        }

        // Penalty rows.
        for i in 0..mh {
            let row0 = n * p + m * i;
            for t in 0..m {
                c[(row0 + t, i * m + t)] = sqrt_r;
            }
            if cfg.control_penalty == ControlPenalty::MoveDelta && i >= 1 {
                for t in 0..m {
                    c[(row0 + t, (i - 1) * m + t)] = -sqrt_r;
                }
            }
        }

        let pred = Predictor {
            a_u: SparseRows::from_matrix(&a_u),
            a_d: SparseRows::from_matrix(&a_d),
            n,
            m,
        };
        Ok((pred, c))
    }

    /// Evaluates the rhs `d` for the current tracking error and previous
    /// move into a caller-owned buffer, allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the number of objective rows.
    pub fn rhs_into(&self, error: &Vector, prev_move: &Vector, out: &mut Vector) {
        self.a_u.mul_vec_into(error, out);
        self.a_d.mul_vec_acc(prev_move, out);
    }
}

/// How many times move block `j` (0-based) has been applied to the
/// utilization by prediction step `i` (1-based), under the chosen
/// beyond-horizon convention.
pub(crate) fn move_multiplicity(i: usize, j: usize, mh: usize, hold: MoveHold) -> f64 {
    match hold {
        MoveHold::Rate => {
            // Each move is applied exactly once, from step j+1 onward.
            if i > j {
                1.0
            } else {
                0.0
            }
        }
        MoveHold::Delta => {
            if j + 1 < mh {
                if i > j {
                    1.0
                } else {
                    0.0
                }
            } else {
                // The final move keeps being applied at every step ≥ M.
                (i as isize - j as isize).max(0) as f64
            }
        }
    }
}

/// Number of prediction steps that get their own utilization rows: none
/// when `cfg` turns the utilization constraints off.
///
/// Under [`MoveHold::Rate`] every move has been applied by step `M`, so
/// the rows of steps `M..=P` are one row `u(k) + F·Σ_j Δr_j ≤ B` repeated,
/// with one right-hand side: only steps `1..=M` are emitted.  A repeat
/// could never be the most violated row of a solve, so it never changes
/// an answer: the row it repeats comes first, and either is inactive and
/// wins the scan's tie, or is active, with a slack within rounding of
/// zero that the repeat shares and the scan's tolerance ignores.  Under
/// [`MoveHold::Delta`] the held final move keeps accumulating and every
/// step `1..=P` is distinct.
pub(crate) fn utilization_steps(cfg: &MpcConfig) -> usize {
    match cfg.move_hold {
        _ if !cfg.utilization_constraints => 0,
        MoveHold::Rate => cfg.control_horizon.min(cfg.prediction_horizon),
        MoveHold::Delta => cfg.prediction_horizon,
    }
}

/// Builds the constraint matrix `G` of the MPC problem: `G·X ≤ h`
/// encodes, for each control-horizon step `i`,
///
/// * rate bounds `Rmin ≤ r(k−1) + Σ_{j≤i} Δr_j ≤ Rmax` (paper eq. 2), and,
///   for each prediction step that [`utilization_steps`] keeps,
/// * utilization bounds `u(k) + F·S_i ≤ B` (paper eq. 1).
///
/// Row layout: per control step `i`, `m` upper then `m` lower rate rows
/// (`2·m·M` in all), then `n` utilization rows per kept prediction step —
/// the rate rows alone are a prefix of the rows.
///
/// `G` is a pure function of the allocation matrix and the horizons — the
/// measured utilization and current rates only enter the right-hand side —
/// so a controller builds it once at construction and rewrites only `h`
/// every period (see [`constraint_rhs_into`]).
pub(crate) fn constraint_matrix(f: &Matrix, cfg: &MpcConfig) -> Matrix {
    constraint_rows(f, cfg, utilization_steps(cfg))
}

/// [`constraint_matrix`] with utilization rows for prediction steps
/// `1..=steps`.
fn constraint_rows(f: &Matrix, cfg: &MpcConfig, steps: usize) -> Matrix {
    let n = f.rows();
    let m = f.cols();
    let mh = cfg.control_horizon;
    let n_cols = m * mh;

    let util_rows = n * steps;
    let mut g = Matrix::zeros(2 * m * mh + util_rows, n_cols);

    // Rate bounds: rows for upper, then lower, per step.
    for i in 0..mh {
        for t in 0..m {
            let up = 2 * m * i + t;
            let lo = 2 * m * i + m + t;
            for j in 0..=i {
                g[(up, j * m + t)] = 1.0;
                g[(lo, j * m + t)] = -1.0;
            }
        }
    }

    if steps > 0 {
        let base = 2 * m * mh;
        for i in 1..=steps {
            let row0 = base + n * (i - 1);
            for j in 0..mh {
                let mult = move_multiplicity(i, j, mh, cfg.move_hold);
                if mult == 0.0 {
                    continue;
                }
                for r in 0..n {
                    for t in 0..m {
                        g[(row0 + r, j * m + t)] = mult * f[(r, t)];
                    }
                }
            }
        }
    }
    g
}

/// Rewrites the constraint right-hand side `h` in place for the current
/// rates and measured utilization; row layout matches
/// [`constraint_matrix`].
///
/// # Panics
///
/// Panics if `h.len()` does not match the constraint-row count.
#[allow(clippy::too_many_arguments)] // private helper mirroring the paper's symbol list
pub(crate) fn constraint_rhs_into(
    f: &Matrix,
    cfg: &MpcConfig,
    rates: &Vector,
    rmin: &Vector,
    rmax: &Vector,
    u: &Vector,
    b: &Vector,
    h: &mut Vector,
) {
    let n = f.rows();
    let m = f.cols();
    let mh = cfg.control_horizon;
    let steps = utilization_steps(cfg);
    let util_rows = n * steps;
    assert_eq!(
        h.len(),
        2 * m * mh + util_rows,
        "rhs buffer has the wrong row count"
    );

    for i in 0..mh {
        for t in 0..m {
            h[2 * m * i + t] = rmax[t] - rates[t];
            h[2 * m * i + m + t] = rates[t] - rmin[t];
        }
    }

    let base = 2 * m * mh;
    for i in 0..steps {
        for r in 0..n {
            h[base + n * i + r] = b[r] - u[r];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(G, h)` of the MPC problem: [`constraint_matrix`] and
    /// [`constraint_rhs_into`] together.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's symbol list
    fn constraints(
        f: &Matrix,
        cfg: &MpcConfig,
        rates: &Vector,
        rmin: &Vector,
        rmax: &Vector,
        u: &Vector,
        b: &Vector,
        utilization: bool,
    ) -> (Matrix, Vector) {
        let cfg = &cfg.clone().utilization_constraints(utilization);
        let g = constraint_matrix(f, cfg);
        let mut h = Vector::zeros(g.rows());
        constraint_rhs_into(f, cfg, rates, rmin, rmax, u, b, &mut h);
        (g, h)
    }

    fn simple_f() -> Matrix {
        // The paper's §5 example: F = [[c11, c21, 0], [0, c22, c31]].
        Matrix::from_rows(&[&[35.0, 35.0, 0.0], &[0.0, 35.0, 45.0]])
    }

    #[test]
    fn dimensions_match_horizons() {
        let f = simple_f();
        let cfg = MpcConfig::simple(); // P=2, M=1
        let (pred, c) = Predictor::new(&f, &cfg).unwrap();
        assert_eq!(c.rows(), 2 * 2 + 3); // n·P tracking + m·M penalty rows
        assert_eq!(c.cols(), 3);
        assert_eq!(pred.a_u.cols(), 2);
        assert_eq!(pred.a_d.cols(), 3);
        // Only the diagonals are stored: n·P decay entries, m penalty
        // entries.
        assert_eq!(pred.a_u.nnz(), 2 * 2);
        assert_eq!(pred.a_d.nnz(), 3);
    }

    #[test]
    fn tracking_blocks_hold_rate_and_decay() {
        let f = simple_f();
        let cfg = MpcConfig::simple(); // MoveHold::Rate by default
        let (pred, c) = Predictor::new(&f, &cfg).unwrap();
        let lambda = cfg.reference_decay();
        // Hold-rate: the single move (M=1) is applied exactly once at
        // every prediction step.
        for i in 0..2 {
            for r in 0..2 {
                for t in 0..3 {
                    assert_eq!(c[(2 * i + r, t)], f[(r, t)]);
                }
            }
        }
        // a_u carries −(1 − λ^i) on the diagonal of each block (the
        // reference starts at u(k), eq. 8).
        let a_u = pred.a_u.to_matrix();
        assert!((a_u[(0, 0)] + (1.0 - lambda)).abs() < 1e-15);
        assert!((a_u[(2, 0)] + (1.0 - lambda * lambda)).abs() < 1e-15);
        assert_eq!(a_u[(0, 1)], 0.0);
    }

    #[test]
    fn tracking_blocks_hold_delta_accumulate() {
        let f = simple_f();
        let cfg = MpcConfig::simple().move_hold(MoveHold::Delta);
        let (_, c) = Predictor::new(&f, &cfg).unwrap();
        // Hold-delta (the literal eq. 12): the move is re-applied each
        // step, so step 2 carries 2F.
        for i in 0..2 {
            let mult = (i + 1) as f64;
            for r in 0..2 {
                for t in 0..3 {
                    assert_eq!(c[(2 * i + r, t)], mult * f[(r, t)]);
                }
            }
        }
    }

    #[test]
    fn move_delta_penalty_couples_prev_move() {
        let f = simple_f();
        let cfg = MpcConfig::simple();
        let (pred, c) = Predictor::new(&f, &cfg).unwrap();
        // Penalty block: identity on the move, identity map from Δr(k−1).
        for t in 0..3 {
            assert_eq!(c[(4 + t, t)], 1.0);
            assert_eq!(pred.a_d.to_matrix()[(4 + t, t)], 1.0);
        }
    }

    #[test]
    fn move_penalty_has_no_prev_coupling() {
        let f = simple_f();
        let cfg = MpcConfig::simple().control_penalty(ControlPenalty::Move);
        let (pred, _) = Predictor::new(&f, &cfg).unwrap();
        assert_eq!(pred.a_d.nnz(), 0);
    }

    #[test]
    fn multi_step_horizon_has_difference_chain() {
        let f = simple_f();
        let cfg = MpcConfig::simple()
            .horizons(4, 2)
            .move_hold(MoveHold::Delta);
        let (_, c) = Predictor::new(&f, &cfg).unwrap();
        let m = 3;
        let base = 2 * 4; // n*P tracking rows
                          // Second penalty block: +I at block 1, −I at block 0.
        for t in 0..m {
            assert_eq!(c[(base + m + t, m + t)], 1.0);
            assert_eq!(c[(base + m + t, t)], -1.0);
        }
        // Step i = 1 uses only the first move; by i = 4 the first move has
        // been applied once and the held second move three times (Delta).
        assert_eq!(c[(0, m)], 0.0);
        assert_eq!(c[(0, 0)], f[(0, 0)]);
        let i4 = 2 * 3; // row block of step i = 4 (n = 2)
        assert_eq!(c[(i4, 0)], f[(0, 0)]);
        assert_eq!(c[(i4, m)], 3.0 * f[(0, 0)]);
    }

    #[test]
    fn move_multiplicity_conventions() {
        use MoveHold::{Delta, Rate};
        // Rate: every move is applied exactly once from step j+1 onward.
        assert_eq!(move_multiplicity(1, 0, 1, Rate), 1.0);
        assert_eq!(move_multiplicity(3, 0, 1, Rate), 1.0);
        assert_eq!(move_multiplicity(1, 1, 2, Rate), 0.0);
        assert_eq!(move_multiplicity(4, 1, 2, Rate), 1.0);
        // Delta, M = 1: the only move accumulates i times.
        assert_eq!(move_multiplicity(1, 0, 1, Delta), 1.0);
        assert_eq!(move_multiplicity(3, 0, 1, Delta), 3.0);
        // Delta, M = 2: move 0 applies once; move 1 accumulates.
        assert_eq!(move_multiplicity(1, 0, 2, Delta), 1.0);
        assert_eq!(move_multiplicity(2, 0, 2, Delta), 1.0);
        assert_eq!(move_multiplicity(1, 1, 2, Delta), 0.0);
        assert_eq!(move_multiplicity(2, 1, 2, Delta), 1.0);
        assert_eq!(move_multiplicity(4, 1, 2, Delta), 3.0);
    }

    #[test]
    fn rhs_combines_error_and_prev_move() {
        let f = simple_f();
        let cfg = MpcConfig::simple();
        let (pred, c) = Predictor::new(&f, &cfg).unwrap();
        let err = Vector::from_slice(&[0.1, -0.2]);
        let prev = Vector::from_slice(&[0.001, 0.0, -0.002]);
        let mut d = Vector::zeros(c.rows());
        pred.rhs_into(&err, &prev, &mut d);
        let lambda = cfg.reference_decay();
        assert!((d[0] + (1.0 - lambda) * 0.1).abs() < 1e-15);
        assert!((d[3] + (1.0 - lambda * lambda) * -0.2).abs() < 1e-15);
        assert!((d[4] - 0.001).abs() < 1e-15);
        assert!((d[6] + 0.002).abs() < 1e-15);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Operands with signed zeros, tiny and huge magnitudes.
        fn entry() -> impl Strategy<Value = f64> {
            (0..8u64, -2.0..2.0f64).prop_map(|(kind, v)| match kind {
                0 => 0.0,
                1 => -0.0,
                2 => v * 1e-300,
                3 => v * 1e12,
                _ => v,
            })
        }

        proptest! {
            #[test]
            fn rhs_into_is_bit_identical_to_the_dense_maps(
                shape in 0..4usize,
                weights in proptest::collection::vec(0..3u64, 2),
                error in proptest::collection::vec(entry(), 2),
                prev in proptest::collection::vec(entry(), 3),
                start in proptest::collection::vec(entry(), 12),
            ) {
                let f = simple_f();
                let (n, m) = (2, 3);
                // A zero tracking weight stores a `−0.0` decay entry.
                let q: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
                let cfg = match shape {
                    0 => MpcConfig::simple(),
                    1 => MpcConfig::medium(),
                    2 => MpcConfig::medium().control_penalty(ControlPenalty::Move),
                    _ => MpcConfig::simple().horizons(3, 2).move_hold(MoveHold::Delta),
                }
                .tracking_weights(Vector::from_slice(&q));
                let (pred, _) = Predictor::new(&f, &cfg).unwrap();
                let (p, mh) = (cfg.prediction_horizon, cfg.control_horizon);
                let rows = n * p + m * mh;
                // The dense maps as written out entry by entry.
                let lambda = cfg.reference_decay();
                let mut a_u = Matrix::zeros(rows, n);
                let mut a_d = Matrix::zeros(rows, m);
                for i in 1..=p {
                    for r in 0..n {
                        a_u[(n * (i - 1) + r, r)] = -q[r].sqrt() * (1.0 - lambda.powi(i as i32));
                    }
                }
                if cfg.control_penalty == ControlPenalty::MoveDelta {
                    for t in 0..m {
                        a_d[(n * p + t, t)] = cfg.control_penalty_weight.sqrt();
                    }
                }
                let (error, prev) = (Vector::from_slice(&error), Vector::from_slice(&prev));
                // Whatever the buffer held is overwritten.
                let mut sparse = Vector::from_slice(&start[..rows.min(12)]);
                sparse.resize(rows);
                let mut dense = Vector::zeros(rows);
                pred.rhs_into(&error, &prev, &mut sparse);
                a_u.mul_vec_into(&error, &mut dense);
                a_d.mul_vec_acc(&prev, &mut dense);
                for i in 0..rows {
                    prop_assert_eq!(sparse[i].to_bits(), dense[i].to_bits(), "row {}", i);
                }
            }
        }
    }

    #[test]
    fn tracking_weights_scale_rows() {
        let f = simple_f();
        let cfg = MpcConfig::simple().tracking_weights(Vector::from_slice(&[4.0, 1.0]));
        let (_, c) = Predictor::new(&f, &cfg).unwrap();
        // √4 = 2 scales processor-0 rows.
        assert_eq!(c[(0, 0)], 2.0 * f[(0, 0)]);
        assert_eq!(c[(1, 1)], f[(1, 1)]);
    }

    #[test]
    fn constraint_shapes_and_values() {
        let f = simple_f();
        let cfg = MpcConfig::simple();
        let rates = Vector::from_slice(&[0.01, 0.01, 0.01]);
        let rmin = Vector::from_slice(&[0.001; 3]);
        let rmax = Vector::from_slice(&[0.03; 3]);
        let u = Vector::from_slice(&[0.9, 0.7]);
        let b = Vector::from_slice(&[0.828, 0.828]);
        let (g, h) = constraints(&f, &cfg, &rates, &rmin, &rmax, &u, &b, true);
        // 2·m·M rate rows + n·min(P, M) utilization rows (hold-rate).
        assert_eq!(g.rows(), 6 + 2);
        // Upper rate bound rows: Δr ≤ Rmax − r.
        assert_eq!(g[(0, 0)], 1.0);
        assert!((h[0] - 0.02).abs() < 1e-15);
        // Lower: −Δr ≤ r − Rmin.
        assert_eq!(g[(3, 0)], -1.0);
        assert!((h[3] - 0.009).abs() < 1e-15);
        // Utilization rows carry F and B − u (negative on the overloaded
        // processor).
        assert_eq!(g[(6, 0)], 35.0);
        assert!((h[6] - (0.828 - 0.9)).abs() < 1e-12);
        // Disabled utilization constraints shrink the system.
        let (g2, _) = constraints(&f, &cfg, &rates, &rmin, &rmax, &u, &b, false);
        assert_eq!(g2.rows(), 6);
    }

    #[test]
    fn only_repeated_utilization_rows_are_dropped() {
        let f = simple_f();
        let (n, m) = (2, 3);
        let rates = Vector::from_slice(&[0.01, 0.02, 0.015]);
        let rmin = Vector::from_slice(&[0.001; 3]);
        let rmax = Vector::from_slice(&[0.03; 3]);
        let u = Vector::from_slice(&[0.9, 0.7]);
        let b = Vector::from_slice(&[0.828, 0.8]);
        for (p, mh) in [(2, 1), (4, 2), (5, 3), (3, 3)] {
            for hold in [MoveHold::Rate, MoveHold::Delta] {
                let cfg = MpcConfig::simple().horizons(p, mh).move_hold(hold);
                let (g, h) = constraints(&f, &cfg, &rates, &rmin, &rmax, &u, &b, true);
                // Every prediction step's rows, with the right-hand side
                // each step's rows share.
                let full = constraint_rows(&f, &cfg, p);
                let base = 2 * m * mh;
                let steps = utilization_steps(&cfg);
                assert_eq!(steps, if hold == MoveHold::Rate { mh } else { p });
                assert_eq!(g.rows(), base + n * steps);
                assert_eq!(full.rows(), base + n * p);
                // The kept rows are the full matrix's leading rows.
                assert_eq!(g.as_slice(), &full.as_slice()[..g.rows() * g.cols()]);
                // Every step's utilization rows share one right-hand
                // side, `B − u`, so a dropped step's `h` repeats too.
                for k in 0..n * steps {
                    assert_eq!(h[base + k], b[k % n] - u[k % n]);
                }
                // Hold-rate: steps M+1..=P repeat step M row for row.
                for i in steps + 1..=p {
                    for r in 0..n {
                        let (dropped, kept) = (base + n * (i - 1) + r, base + n * (mh - 1) + r);
                        assert_eq!(full.row(dropped), full.row(kept), "P {p} M {mh} step {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn cumulative_rate_constraints_for_longer_horizon() {
        let f = simple_f();
        let cfg = MpcConfig::simple().horizons(4, 2);
        let rates = Vector::from_slice(&[0.01; 3]);
        let rmin = Vector::from_slice(&[0.001; 3]);
        let rmax = Vector::from_slice(&[0.03; 3]);
        let u = Vector::zeros(2);
        let b = Vector::zeros(2);
        let (g, _) = constraints(&f, &cfg, &rates, &rmin, &rmax, &u, &b, false);
        // Step-1 upper row for task 0 sums both move blocks.
        let row = 2 * 3; // first step-1 row
        assert_eq!(g[(row, 0)], 1.0);
        assert_eq!(g[(row, 3)], 1.0);
    }
}
