//! The EUCON model-predictive controller.

use eucon_math::{Matrix, Vector};
use eucon_qp::{FactorWork, LsqSolution, PreparedLsq, QpError};
use eucon_tasks::TaskSet;

use crate::prediction::{constraint_matrix, constraint_rhs_into, utilization_steps, Predictor};
use crate::{ControlError, ControllerTelemetry, MpcConfig, RateController};

/// Tiny Tikhonov weight keeping the least-squares problem strictly convex
/// even when the tracking matrix is rank deficient and the control penalty
/// is disabled.
const REGULARIZATION: f64 = 1e-9;

/// Diagnostics of the most recent controller invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MpcStepInfo {
    /// Active-set iterations spent by the QP solver.
    pub qp_iterations: usize,
    /// Whether the hard utilization constraints had to be dropped because
    /// the constrained problem was infeasible this period.
    pub relaxed_utilization: bool,
    /// Residual norm of the least-squares objective at the optimum.
    pub residual: f64,
    /// The committed solve was *offered* a non-empty active-set guess
    /// (false on the first period and right after a reset).  Says nothing
    /// about how much of the guess the solver could use — that is
    /// [`warm_retained`](MpcStepInfo::warm_retained).
    pub warm_start: bool,
    /// Rows of the guess the committed solve kept as its starting active
    /// set; the rest were dropped as dual infeasible or no longer binding
    /// before the first iteration.
    pub warm_retained: usize,
    /// The warm-started attempt failed and the problem was re-solved
    /// cold before the verdict was believed.
    pub cold_retry: bool,
    /// Constraints active at the optimum (constraint saturation).
    pub active_set_size: usize,
    /// Symmetric difference between this period's optimal active set and
    /// the previous period's; 0 once the loop has settled.
    pub active_churn: usize,
    /// What the committed solve did to its subproblem factor: builds and
    /// their `Σq³`, appends, declined appends, deletes and the largest
    /// order — the cause of a slow step, counted.
    pub factor_work: FactorWork,
}

/// The EUCON MIMO model-predictive controller (paper §6.1).
///
/// Once per sampling period, [`MpcController::step`] receives the measured
/// utilization vector `u(k)` and produces new task rates by solving the
/// constrained least-squares problem
///
/// ```text
/// min  Σᵢ ‖u(k+i|k) − ref(k+i|k)‖²_Q + Σᵢ ‖Δr(k+i|k) − Δr(k+i−1|k)‖²_R
/// s.t. u(k+i|k) ≤ B          (utilization constraints, eq. 1)
///      Rmin ≤ r(k+i|k) ≤ Rmax (rate constraints, eq. 2)
/// ```
///
/// over the approximate model `u(k+1) = u(k) + F·Δr(k)` (the controller
/// assumes unit utilization gains, `G = I`; robustness to `G ≠ I` is what
/// the stability analysis quantifies).  Only the first move of the optimal
/// trajectory is applied (receding horizon).
///
/// If the hard utilization constraints make the problem infeasible (e.g. a
/// severe overload that rate adaptation cannot remove within one step),
/// the controller retries without them — the tracking objective still
/// drives utilization toward the set points, which mirrors `lsqlin`
/// practice and keeps the loop alive; the event is reported in
/// [`MpcController::last_step_info`].  The retry solves over the leading
/// rate rows of the one prepared problem.
///
/// # Example
///
/// ```
/// use eucon_control::{MpcConfig, MpcController, RateController};
/// use eucon_math::Vector;
/// use eucon_tasks::{rms_set_points, workloads};
///
/// # fn main() -> Result<(), eucon_control::ControlError> {
/// let simple = workloads::simple();
/// let b = rms_set_points(&simple);
/// let mut ctrl = MpcController::new(&simple, b, MpcConfig::simple())?;
/// // Underutilized system → the controller raises rates.
/// let before = ctrl.rates().sum();
/// let after = ctrl.step(&Vector::from_slice(&[0.4, 0.4]))?.sum();
/// assert!(after > before);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MpcController {
    f: Matrix,
    b: Vector,
    rmin: Vector,
    rmax: Vector,
    cfg: MpcConfig,
    pred: Predictor,
    rates: Vector,
    prev_move: Vector,
    last_info: MpcStepInfo,
    /// The one prepared problem: `C`, and the `2·m·M` rate rows followed,
    /// when the config enables them, by the utilization rows.  The
    /// rate-only problem is a solve over the rate-row prefix.
    solver: PreparedLsq,
    /// Per-period right-hand-side buffers, rewritten in place: the
    /// constraint matrix is fixed, only these change with `u` and `r`.
    /// `h` has one entry per row, `h_rate` one per rate row.
    h: Vector,
    h_rate: Vector,
    d_buf: Vector,
    /// Tracking-error scratch `u − B`, rewritten in place every period so
    /// the hot path never allocates.
    err_buf: Vector,
    /// Active sets of the previous period (over every row, over the rate
    /// rows), used to warm-start the dual active-set solver.  In steady
    /// state the set is unchanged and the solve takes zero iterations.
    warm_util: Vec<usize>,
    warm_rate: Vec<usize>,
    /// The period's QP solution, written in place by the solver (its
    /// buffers are reused, so a steady-state step allocates nothing).
    sol: LsqSolution,
}

impl MpcController {
    /// Creates a controller for a task set, reading `F`, the rate bounds
    /// and the initial rates from the model.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] when `set_points` does
    /// not have one entry per processor, and [`ControlError::Config`] when
    /// `cfg` fails [`MpcConfig::validate`].
    pub fn new(set: &TaskSet, set_points: Vector, cfg: MpcConfig) -> Result<Self, ControlError> {
        let (rmin, rmax) = set.rate_bounds();
        Self::from_model(
            set.allocation_matrix(),
            set_points,
            rmin,
            rmax,
            set.initial_rates(),
            cfg,
        )
    }

    /// Creates a controller from an explicit model (allocation matrix,
    /// set points, rate bounds and initial rates).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] on inconsistent sizes,
    /// and [`ControlError::Config`] when `cfg` fails
    /// [`MpcConfig::validate`].
    pub fn from_model(
        f: Matrix,
        set_points: Vector,
        rmin: Vector,
        rmax: Vector,
        initial_rates: Vector,
        cfg: MpcConfig,
    ) -> Result<Self, ControlError> {
        let n = f.rows();
        let m = f.cols();
        if set_points.len() != n {
            return Err(ControlError::DimensionMismatch(format!(
                "{} set points for {n} processors",
                set_points.len()
            )));
        }
        if rmin.len() != m || rmax.len() != m || initial_rates.len() != m {
            return Err(ControlError::DimensionMismatch(format!(
                "rate vectors must have {m} entries"
            )));
        }
        let (pred, c) = Predictor::new(&f, &cfg)?;

        // Everything that depends only on the model is computed here, once:
        // the constraint matrix, the Hessian CᵀC + εI and its Cholesky
        // factor; `C` and `G` move into the preparation, which keeps their
        // nonzeros only.  `step` only rewrites right-hand sides.
        let g = constraint_matrix(&f, &cfg);
        let h = Vector::zeros(g.rows());
        let h_rate = Vector::zeros(2 * m * cfg.control_horizon);
        let d_buf = Vector::zeros(c.rows());
        let solver = PreparedLsq::new(c, g, REGULARIZATION).map_err(ControlError::Optimization)?;
        let err_buf = Vector::zeros(n);

        Ok(MpcController {
            f,
            b: set_points,
            rmin,
            rmax,
            cfg,
            pred,
            rates: initial_rates,
            prev_move: Vector::zeros(m),
            last_info: MpcStepInfo::default(),
            solver,
            h,
            h_rate,
            d_buf,
            err_buf,
            warm_util: Vec::new(),
            warm_rate: Vec::new(),
            sol: LsqSolution::default(),
        })
    }

    /// The utilization set points `B`.
    pub fn set_points(&self) -> &Vector {
        &self.b
    }

    /// Replaces the utilization set points (they can be changed online,
    /// paper §3.3).
    ///
    /// # Panics
    ///
    /// Panics if the length changes.
    pub fn set_set_points(&mut self, b: Vector) {
        assert_eq!(b.len(), self.b.len(), "set-point dimension cannot change");
        self.b = b;
    }

    /// The controller configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.cfg
    }

    /// Diagnostics of the most recent [`MpcController::step`].
    pub fn last_step_info(&self) -> MpcStepInfo {
        self.last_info
    }

    /// Lower bandwidth detected in the MPC Hessian `CᵀC + εI` by the
    /// amortized solver's Cholesky factorization.
    ///
    /// The horizon structure makes the Hessian block banded: move blocks
    /// `j₁, j₂` only couple through prediction steps that apply both, and
    /// within a block tasks only couple when the allocation matrix puts
    /// them on a shared processor.  Anything below `num_vars − 1` means
    /// the banded `O(n·b²)` factor/solve paths are active.
    pub fn hessian_bandwidth(&self) -> usize {
        self.solver.hessian_bandwidth()
    }

    /// Computes the control input `Δr(k)` for the measured utilization
    /// `u(k)` and returns the new rate vector `r(k) = r(k−1) + Δr(k)`.
    ///
    /// # Errors
    ///
    /// * [`ControlError::DimensionMismatch`] — `u` does not have one entry
    ///   per processor.
    /// * [`ControlError::InvalidSample`] — `u` contains a non-finite
    ///   entry.  Such a sample would corrupt the QP right-hand sides and,
    ///   through the recorded active set, every future warm-started
    ///   solve; the controller's state is left untouched instead.
    /// * [`ControlError::Optimization`] — the QP failed even after
    ///   dropping the utilization constraints (does not happen for valid
    ///   rate boxes, which are always feasible at `Δr = 0`).
    pub fn step(&mut self, u: &Vector) -> Result<Vector, ControlError> {
        self.step_in_place(u)?;
        Ok(self.rates.clone())
    }

    /// The allocation-free core of [`MpcController::step`]: commits the new
    /// rates into `self.rates` instead of returning a fresh vector.  All
    /// per-period right-hand sides, the tracking error and the QP solution
    /// are rewritten in long-lived buffers, and the solver works in its
    /// own per-instance workspace: once those have grown to the sizes the
    /// problem reaches, a step performs no heap allocation.
    pub(crate) fn step_in_place(&mut self, u: &Vector) -> Result<(), ControlError> {
        if u.len() != self.pred.n {
            return Err(ControlError::DimensionMismatch(format!(
                "{} utilization samples for {} processors",
                u.len(),
                self.pred.n
            )));
        }
        if let Some(p) = u.iter().position(|ui| !ui.is_finite()) {
            return Err(ControlError::InvalidSample(format!(
                "u[{p}] = {} is not finite",
                u[p]
            )));
        }
        for i in 0..u.len() {
            self.err_buf[i] = u[i] - self.b[i];
        }
        self.pred
            .rhs_into(&self.err_buf, &self.prev_move, &mut self.d_buf);

        // One rhs over every row; the rate-only problem — the primary one
        // without utilization rows, the fallback of an infeasible
        // constrained one — reads its leading rate rows.
        let constrained = self.cfg.utilization_constraints;
        constraint_rhs_into(
            &self.f,
            &self.cfg,
            &self.rates,
            &self.rmin,
            &self.rmax,
            u,
            &self.b,
            &mut self.h,
        );
        let primary = constrained.then(|| {
            let (h, warm) = (&self.h, &mut self.warm_util);
            solve_amortized(&self.solver, &self.d_buf, h, false, warm, &mut self.sol)
        });
        let (stats, relaxed) = match primary {
            Some(Ok(stats)) => (stats, false),
            Some(Err(QpError::Infeasible)) | None => {
                // Without utilization rows, `h` is the rate rows' rhs.
                let h = if constrained {
                    let rows = self.h_rate.len();
                    let rate_rows = &self.h.as_slice()[..rows];
                    self.h_rate.as_mut_slice().copy_from_slice(rate_rows);
                    &self.h_rate
                } else {
                    &self.h
                };
                let warm = &mut self.warm_rate;
                let stats =
                    solve_amortized(&self.solver, &self.d_buf, h, true, warm, &mut self.sol)
                        .map_err(ControlError::Optimization)?;
                (stats, constrained)
            }
            Some(Err(e)) => return Err(ControlError::Optimization(e)),
        };

        // Receding horizon: apply only the first move (the leading `m`
        // entries of the optimal move trajectory), in place.
        let solution = &self.sol;
        let m = self.pred.m;
        for t in 0..m {
            let nr = (self.rates[t] + solution.x[t]).clamp(self.rmin[t], self.rmax[t]);
            self.prev_move[t] = nr - self.rates[t];
            self.rates[t] = nr;
        }
        self.last_info = MpcStepInfo {
            qp_iterations: solution.iterations,
            relaxed_utilization: relaxed,
            residual: solution.residual,
            warm_start: stats.warm_start,
            warm_retained: solution.warm_retained,
            cold_retry: stats.cold_retry,
            active_set_size: solution.active.len(),
            active_churn: stats.active_churn,
            factor_work: solution.factor_work,
        };
        Ok(())
    }

    /// Whether `self` and `other` share the same prepared model memory —
    /// the `Arc`-backed prediction matrix, constraint rows and Cholesky
    /// factor inside [`PreparedLsq`].  True exactly for clones of one
    /// controller (the fleet prototype cache relies on this); two
    /// independently constructed controllers never alias, even over
    /// identical inputs.
    pub fn shares_model(&self, other: &MpcController) -> bool {
        self.solver.shares_model(&other.solver)
    }
}

/// Membership updates: tasks arriving and departing at runtime.
///
/// Both operations build a **new** controller for the changed task set by
/// the one construction path there is ([`MpcController::from_model`]:
/// matrix assembly, Gram product, factorization, an empty first-touch
/// back-solve memo) and
/// migrate every piece of accumulated state that still makes sense —
/// current rates, the previous move, and the warm-start active sets
/// (remapped through the constraint-row layout) — so the first solve after
/// a membership change starts from the surviving tasks' momentum instead
/// of cold.  Nothing of the old factorization is reused: dropping or
/// adding a column changes `H`, and every back-solve and the whole Gram
/// table depend on it (EXPERIMENTS.md, "What a membership change costs").
impl MpcController {
    /// Number of tasks currently in the model.
    pub fn num_tasks(&self) -> usize {
        self.pred.m
    }

    /// Number of processors in the model.
    pub fn num_processors(&self) -> usize {
        self.pred.n
    }

    /// The allocation matrix `F` currently in use.
    pub fn allocation(&self) -> &Matrix {
        &self.f
    }

    /// Removes the tasks whose `keep` entry is `false`, producing a
    /// controller over the retained columns of `F`.
    ///
    /// The model is rebuilt from the retained columns; rates, previous
    /// move and rate bounds keep the surviving entries, and the warm-start
    /// active sets are remapped row for row (the departing tasks'
    /// rate-bound rows vanish, every other row keeps its meaning).
    ///
    /// # Errors
    ///
    /// [`ControlError::DimensionMismatch`] when `keep` does not have one
    /// entry per task or would retain no tasks.
    pub fn retain_tasks(&self, keep: &[bool]) -> Result<Self, ControlError> {
        let m = self.pred.m;
        let n = self.pred.n;
        if keep.len() != m {
            return Err(ControlError::DimensionMismatch(format!(
                "membership mask has {} entries for {m} tasks",
                keep.len()
            )));
        }
        let kept: Vec<usize> = keep
            .iter()
            .enumerate()
            .filter_map(|(t, &k)| k.then_some(t))
            .collect();
        if kept.is_empty() {
            return Err(ControlError::DimensionMismatch(
                "cannot retain an empty task set".to_string(),
            ));
        }
        let f = Matrix::from_fn(n, kept.len(), |r, j| self.f[(r, kept[j])]);
        let sub = |v: &Vector| Vector::from_iter(kept.iter().map(|&t| v[t]));
        let mut next = Self::from_model(
            f,
            self.b.clone(),
            sub(&self.rmin),
            sub(&self.rmax),
            sub(&self.rates),
            self.cfg.clone(),
        )?;

        // A mask over the old constraint rows (see `constraint_matrix`):
        // per control step m upper then m lower rate rows — the task mask,
        // 2·M times over — then n utilization rows per kept prediction
        // step (`utilization_steps`), which all survive.  Both warm sets
        // index these rows (the rate-only one, the leading rate rows).
        let keep_rows: Vec<bool> = keep
            .repeat(2 * self.cfg.control_horizon)
            .into_iter()
            .chain(std::iter::repeat_n(true, n * utilization_steps(&self.cfg)))
            .collect();
        next.prev_move = sub(&self.prev_move);
        next.warm_util = migrate_warm(&self.warm_util, &keep_rows);
        next.warm_rate = migrate_warm(&self.warm_rate, &keep_rows);
        next.last_info = self.last_info;
        Ok(next)
    }

    /// Adds a task: appends its allocation column `f_col` (its estimated
    /// utilization contribution per processor), rate bounds and initial
    /// rate to the model.
    ///
    /// The model is rebuilt from the grown `F`; what migrates is the
    /// state — surviving rates, the previous move (the new task starts
    /// with zero momentum) and the warm-start active sets, remapped
    /// through the grown constraint layout so the next solve starts warm.
    ///
    /// # Errors
    ///
    /// * [`ControlError::DimensionMismatch`] — `f_col` does not have one
    ///   entry per processor.
    /// * [`ControlError::InvalidSample`] — non-finite allocation entries
    ///   or an invalid rate box (`rate_min > rate_max`, non-positive or
    ///   non-finite bounds).
    pub fn add_task(
        &self,
        f_col: &[f64],
        rate_min: f64,
        rate_max: f64,
        initial_rate: f64,
    ) -> Result<Self, ControlError> {
        let n = self.pred.n;
        let m = self.pred.m;
        if f_col.len() != n {
            return Err(ControlError::DimensionMismatch(format!(
                "allocation column has {} entries for {n} processors",
                f_col.len()
            )));
        }
        if let Some(r) = f_col.iter().position(|x| !x.is_finite()) {
            return Err(ControlError::InvalidSample(format!(
                "allocation column entry {r} = {} is not finite",
                f_col[r]
            )));
        }
        if !(rate_min.is_finite() && rate_max.is_finite() && initial_rate.is_finite())
            || rate_min <= 0.0
            || rate_min > rate_max
        {
            return Err(ControlError::InvalidSample(format!(
                "invalid rate box [{rate_min}, {rate_max}] (initial {initial_rate})"
            )));
        }
        let m2 = m + 1;
        let f = Matrix::from_fn(n, m2, |r, j| if j < m { self.f[(r, j)] } else { f_col[r] });
        let push = |v: &Vector, extra: f64| Vector::from_iter(v.iter().copied().chain([extra]));
        let mut next = Self::from_model(
            f,
            self.b.clone(),
            push(&self.rmin, rate_min),
            push(&self.rmax, rate_max),
            push(&self.rates, initial_rate.clamp(rate_min, rate_max)),
            self.cfg.clone(),
        )?;

        // Old constraint row → grown constraint row (every old row
        // survives; indices shift because each step block widens).
        let mh = self.cfg.control_horizon;
        let map = |&row: &usize| -> usize {
            let (i, r) = (row / (2 * m), row % (2 * m));
            match row {
                _ if row >= 2 * m * mh => 2 * m2 * mh + (row - 2 * m * mh),
                _ if r < m => 2 * m2 * i + r,
                _ => 2 * m2 * i + m2 + (r - m),
            }
        };
        next.prev_move = push(&self.prev_move, 0.0);
        next.warm_rate = self.warm_rate.iter().map(map).collect();
        next.warm_util = self.warm_util.iter().map(map).collect();
        next.last_info = self.last_info;
        Ok(next)
    }
}

/// Remaps warm-start active-set indices across a constraint-row shrink:
/// entries of dropped rows vanish, survivors get their rank among the
/// kept rows.
fn migrate_warm(warm: &[usize], keep: &[bool]) -> Vec<usize> {
    let mut rank = vec![0usize; keep.len()];
    let mut c = 0usize;
    for (i, r) in rank.iter_mut().enumerate() {
        *r = c;
        if keep[i] {
            c += 1;
        }
    }
    warm.iter()
        .filter(|&&i| keep[i])
        .map(|&i| rank[i])
        .collect()
}

/// Warm-start bookkeeping of one amortized solve (observability: every
/// period's warm/cold outcome reaches telemetry through
/// [`MpcStepInfo`]).
#[derive(Debug, Clone, Copy, Default)]
struct SolveStats {
    warm_start: bool,
    cold_retry: bool,
    active_churn: usize,
}

/// One amortized solve into `sol` — over every row, or with `prefix`
/// over the first `h.len()` — warm-started from the previous active set,
/// retried cold if the (extremely rare) warm path hits the iteration
/// limit, recording the new active set for the next period.
fn solve_amortized(
    solver: &PreparedLsq,
    d: &Vector,
    h: &Vector,
    prefix: bool,
    warm: &mut Vec<usize>,
    sol: &mut LsqSolution,
) -> Result<SolveStats, QpError> {
    let solve = |warm: &[usize], sol: &mut LsqSolution| match prefix {
        true => solver.solve_prefix_into(d, h, warm, sol),
        false => solver.solve_into(d, h, warm, sol),
    };
    let mut stats = SolveStats {
        warm_start: !warm.is_empty(),
        ..SolveStats::default()
    };
    let attempt = solve(warm, sol);
    let result = match attempt {
        // The warm start is only a heuristic: a stale active set can make
        // the dual iteration wander (iteration limit) or misreport
        // infeasibility from an ill-conditioned subproblem.  Any failure is
        // re-checked cold before the verdict is believed — feasibility
        // decisions must not depend on the previous period's guess.
        Err(_) if !warm.is_empty() => {
            stats.cold_retry = true;
            solve(&[], sol)
        }
        other => other,
    };
    result?;
    stats.active_churn = symmetric_difference(warm, &sol.active);
    // Room for every row an active set can hold, so the guess does not
    // reallocate each time the set outgrows its past sizes.
    warm.clear();
    warm.reserve(solver.num_vars());
    warm.extend_from_slice(&sol.active);
    Ok(stats)
}

/// Size of the symmetric difference of two small index sets (the active
/// sets stay tiny, so the quadratic scan beats sorting or hashing — and
/// allocates nothing).
fn symmetric_difference(a: &[usize], b: &[usize]) -> usize {
    let only_a = a.iter().filter(|x| !b.contains(x)).count();
    let only_b = b.iter().filter(|x| !a.contains(x)).count();
    only_a + only_b
}

impl RateController for MpcController {
    fn update(&mut self, u: &Vector) -> Result<(), ControlError> {
        self.step_in_place(u)
    }

    fn rates(&self) -> &Vector {
        &self.rates
    }

    fn name(&self) -> &'static str {
        "EUCON"
    }

    fn telemetry(&self) -> ControllerTelemetry {
        ControllerTelemetry {
            qp_iterations: self.last_info.qp_iterations,
            warm_start: self.last_info.warm_start,
            warm_retained: self.last_info.warm_retained,
            cold_retry: self.last_info.cold_retry,
            relaxed_utilization: self.last_info.relaxed_utilization,
            active_set_size: self.last_info.active_set_size,
            active_churn: self.last_info.active_churn,
            ..ControllerTelemetry::default()
        }
    }

    /// Shrinks the plant model via [`MpcController::retain_tasks`]
    /// (rebuild with warm-state migration).
    fn membership_retain(&mut self, keep: &[bool]) -> Result<(), ControlError> {
        *self = MpcController::retain_tasks(self, keep)?;
        Ok(())
    }

    /// Grows the plant model via [`MpcController::add_task`] (rebuild
    /// with warm-state migration).
    fn membership_admit(
        &mut self,
        f_col: &[f64],
        rate_min: f64,
        rate_max: f64,
        initial_rate: f64,
    ) -> Result<(), ControlError> {
        *self = MpcController::add_task(self, f_col, rate_min, rate_max, initial_rate)?;
        Ok(())
    }

    /// Discards all accumulated internal state — the previous move, the
    /// warm-start active sets and the step diagnostics — and restarts
    /// from `rates` (clamped into the rate box).  Used by supervisory
    /// wrappers to re-engage MPC after an outage without inheriting
    /// pre-fault momentum.
    fn reset(&mut self, rates: &Vector) {
        assert_eq!(rates.len(), self.pred.m, "one rate per task required");
        for t in 0..self.pred.m {
            self.rates[t] = rates[t].clamp(self.rmin[t], self.rmax[t]);
        }
        self.prev_move = Vector::zeros(self.pred.m);
        self.warm_util.clear();
        self.warm_rate.clear();
        self.last_info = MpcStepInfo::default();
    }

    /// A clone: the prepared QP core is behind an `Arc`, the warm-start
    /// state is copied.
    fn shared_clone(&self) -> Option<Box<dyn RateController + Send>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_tasks::{rms_set_points, workloads};

    fn simple_controller() -> MpcController {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        MpcController::new(&set, b, MpcConfig::simple()).unwrap()
    }

    #[test]
    fn clones_share_the_prepared_model_and_track_identically() {
        let mut original = simple_controller();
        let mut clone = original.clone();
        assert!(original.shares_model(&clone));
        assert!(
            !original.shares_model(&simple_controller()),
            "independent builds must not alias"
        );
        // Shared memory, private trajectories: both evolve bit-identically
        // on the same inputs while sharing one prepared core.
        let u = Vector::from_slice(&[0.7, 0.4]);
        for _ in 0..5 {
            let a = original.step(&u).unwrap();
            let b = clone.step(&u).unwrap();
            for t in 0..a.len() {
                assert_eq!(a[t].to_bits(), b[t].to_bits());
            }
        }
        assert!(original.shares_model(&clone), "stepping must not unshare");
    }

    #[test]
    fn underutilization_raises_rates() {
        let mut c = simple_controller();
        let r0 = c.rates().clone();
        let r1 = c.step(&Vector::from_slice(&[0.3, 0.3])).unwrap();
        for t in 0..3 {
            assert!(r1[t] >= r0[t] - 1e-12, "task {t} rate should not drop");
        }
        assert!(r1.sum() > r0.sum());
    }

    #[test]
    fn overutilization_lowers_rates() {
        let mut c = simple_controller();
        let r0 = c.rates().clone();
        let r1 = c.step(&Vector::from_slice(&[1.0, 1.0])).unwrap();
        assert!(r1.sum() < r0.sum());
    }

    #[test]
    fn at_set_point_rates_barely_move() {
        let mut c = simple_controller();
        let b = c.set_points().clone();
        let r0 = c.rates().clone();
        let r1 = c.step(&b).unwrap();
        // With zero tracking error and zero previous move the optimum is
        // Δr = 0.
        assert!((&r1 - &r0).max_abs() < 1e-9);
    }

    #[test]
    fn rates_always_stay_in_bounds() {
        let mut c = simple_controller();
        for u in [[0.0, 0.0], [1.0, 1.0], [0.9, 0.1], [0.1, 0.9]] {
            let r = c.step(&Vector::from_slice(&u)).unwrap();
            let set = workloads::simple();
            for (t, task) in set.tasks().iter().enumerate() {
                assert!(r[t] >= task.rate_min() - 1e-12);
                assert!(r[t] <= task.rate_max() + 1e-12);
            }
        }
    }

    #[test]
    fn model_convergence_under_unit_gain() {
        // Iterate the controller against its own model (G = I): u must
        // converge to B.
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let f = set.allocation_matrix();
        let mut c = MpcController::new(&set, b.clone(), MpcConfig::simple()).unwrap();
        let mut u = set.estimated_utilization(&set.initial_rates());
        let mut prev_rates = c.rates().clone();
        for _ in 0..60 {
            let rates = c.step(&u).unwrap();
            let dr = &rates - &prev_rates;
            u = &u + &f.mul_vec(&dr);
            prev_rates = rates;
        }
        assert!((&u - &b).max_abs() < 1e-3, "u = {u}, B = {b}");
    }

    #[test]
    fn model_convergence_with_gain_two() {
        // G = 2·I is inside the stability region: still converges.
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let f = set.allocation_matrix();
        let mut c = MpcController::new(&set, b.clone(), MpcConfig::simple()).unwrap();
        // Actual utilization responds twice as strongly as estimated.
        let mut u = set.estimated_utilization(&set.initial_rates()).scale(2.0);
        let mut prev_rates = c.rates().clone();
        for _ in 0..120 {
            let rates = c.step(&u).unwrap();
            let dr = &rates - &prev_rates;
            u = &u + &f.mul_vec(&dr).scale(2.0);
            prev_rates = rates;
        }
        assert!((&u - &b).max_abs() < 1e-2, "u = {u}, B = {b}");
    }

    #[test]
    fn utilization_constraint_respected_in_prediction() {
        // Start exactly at the set point; the predicted utilization after
        // the move must not exceed B (model-wise).
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let f = set.allocation_matrix();
        let mut c = MpcController::new(&set, b.clone(), MpcConfig::simple()).unwrap();
        let u = Vector::from_slice(&[0.5, 0.828]);
        let r0 = c.rates().clone();
        let r1 = c.step(&u).unwrap();
        let du = f.mul_vec(&(&r1 - &r0));
        assert!(
            u[1] + du[1] <= b[1] + 1e-6,
            "P2 must not be pushed past its set point"
        );
    }

    #[test]
    fn infeasible_overload_falls_back_gracefully() {
        // Overloaded processors with rates already at Rmin: utilization
        // constraints cannot be met in one step; the controller must relax
        // them instead of failing.
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let mut c = MpcController::new(&set, b, MpcConfig::simple()).unwrap();
        // Drive rates to the floor first.
        for _ in 0..50 {
            let _ = c.step(&Vector::from_slice(&[1.0, 1.0])).unwrap();
        }
        let r = c.step(&Vector::from_slice(&[1.0, 1.0])).unwrap();
        assert!(c.last_step_info().relaxed_utilization);
        let set = workloads::simple();
        for (t, task) in set.tasks().iter().enumerate() {
            assert!(
                (r[t] - task.rate_min()).abs() < 1e-9,
                "rates pinned at Rmin"
            );
        }
    }

    #[test]
    fn steady_state_step_reports_zero_qp_iterations() {
        // Regression for the amortized hot path: once the loop settles —
        // same measurement, same rates, zero previous move — the previous
        // period's active set warm-starts the solver to the exact optimum
        // and the dual iteration has nothing left to do.
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let mut c = MpcController::new(&set, b, MpcConfig::simple()).unwrap();
        // Persistent overload pins every rate at Rmin within a few
        // periods; from then on each period solves the identical QP with
        // a non-empty, unchanged active set.
        let u = Vector::from_slice(&[1.0, 1.0]);
        for _ in 0..50 {
            let _ = c.step(&u).unwrap();
        }
        let before = c.rates().clone();
        let _ = c.step(&u).unwrap();
        assert_eq!(
            c.last_step_info().qp_iterations,
            0,
            "steady-state solve must be fully warm-started"
        );
        assert!(
            c.rates().approx_eq(&before, 1e-12),
            "rates must be at a fixed point"
        );
    }

    #[test]
    fn dimension_mismatch_detected() {
        let set = workloads::simple();
        let err = MpcController::new(&set, Vector::zeros(3), MpcConfig::simple());
        assert!(matches!(
            err.unwrap_err(),
            ControlError::DimensionMismatch(_)
        ));

        let mut c = simple_controller();
        let err = c.step(&Vector::zeros(3));
        assert!(matches!(
            err.unwrap_err(),
            ControlError::DimensionMismatch(_)
        ));
    }

    #[test]
    fn non_finite_samples_rejected_without_state_damage() {
        let mut c = simple_controller();
        // Establish a warm active set and a previous move.
        let _ = c.step(&Vector::from_slice(&[0.4, 0.4])).unwrap();
        let rates_before = c.rates().clone();
        let prev_move_before = c.prev_move.clone();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = c.step(&Vector::from_slice(&[0.4, bad])).unwrap_err();
            assert!(matches!(err, ControlError::InvalidSample(_)), "got {err:?}");
            assert!(err.to_string().contains("u[1]"));
        }
        assert!(c.rates().approx_eq(&rates_before, 0.0), "state untouched");
        assert!(c.prev_move.approx_eq(&prev_move_before, 0.0));
        // The controller keeps working normally afterwards.
        let _ = c.step(&Vector::from_slice(&[0.4, 0.4])).unwrap();
    }

    #[test]
    fn non_finite_qp_inputs_are_an_error_that_leaves_the_state_untouched() {
        // A NaN set point passes the sample check (the sample is fine) and
        // reaches the solver as a non-finite target and right-hand side.
        let mut c = simple_controller();
        let u = Vector::from_slice(&[0.9, 0.9]);
        for _ in 0..3 {
            let _ = c.step(&u).unwrap();
        }
        let good = c.set_points().clone();
        let rates = rate_bits(&c);
        let prev_move = c.prev_move.clone();
        let (warm_util, warm_rate) = (c.warm_util.clone(), c.warm_rate.clone());
        let info = c.last_step_info();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            c.set_set_points(Vector::from_slice(&[good[0], bad]));
            let err = c.step(&u).unwrap_err();
            assert!(
                matches!(
                    err,
                    ControlError::Optimization(QpError::NonFiniteInput { .. })
                ),
                "got {err:?}"
            );
            assert_eq!(rate_bits(&c), rates);
            assert!(c.prev_move.approx_eq(&prev_move, 0.0));
            assert_eq!((&c.warm_util, &c.warm_rate), (&warm_util, &warm_rate));
            assert_eq!(c.last_step_info(), info);
        }
        // With the set points restored it continues exactly like a
        // controller that never saw the bad ones.
        c.set_set_points(good);
        let mut twin = simple_controller();
        for _ in 0..3 {
            let _ = twin.step(&u).unwrap();
        }
        let _ = (c.step(&u).unwrap(), twin.step(&u).unwrap());
        assert_eq!(rate_bits(&c), rate_bits(&twin));
    }

    #[test]
    fn reset_clears_momentum_and_restarts_from_given_rates() {
        let mut c = simple_controller();
        for _ in 0..10 {
            let _ = c.step(&Vector::from_slice(&[0.2, 0.2])).unwrap();
        }
        assert!(c.prev_move.max_abs() > 0.0 || !c.warm_rate.is_empty() || !c.warm_util.is_empty());
        let restart = Vector::from_slice(&[1e9, 1e9, 1e9]); // clamped to Rmax
        c.reset(&restart);
        assert_eq!(c.prev_move.max_abs(), 0.0);
        assert!(c.warm_util.is_empty() && c.warm_rate.is_empty());
        let set = workloads::simple();
        for (t, task) in set.tasks().iter().enumerate() {
            assert!((c.rates()[t] - task.rate_max()).abs() < 1e-12);
        }
        assert_eq!(c.last_step_info(), MpcStepInfo::default());
    }

    #[test]
    fn online_set_point_change() {
        let mut c = simple_controller();
        // Converge to the default set points against the model first.
        let set = workloads::simple();
        let f = set.allocation_matrix();
        let mut u = set.estimated_utilization(&set.initial_rates());
        let mut prev = c.rates().clone();
        for _ in 0..50 {
            let r = c.step(&u).unwrap();
            u = &u + &f.mul_vec(&(&r - &prev));
            prev = r;
        }
        // Lower the set point on P1 (overload-protection scenario §3.3).
        c.set_set_points(Vector::from_slice(&[0.5, 0.828]));
        for _ in 0..80 {
            let r = c.step(&u).unwrap();
            u = &u + &f.mul_vec(&(&r - &prev));
            prev = r;
        }
        assert!(
            (u[0] - 0.5).abs() < 1e-2,
            "P1 must track the new set point, got {}",
            u[0]
        );
    }

    fn medium_controller() -> MpcController {
        let set = workloads::medium();
        let b = rms_set_points(&set);
        MpcController::new(&set, b, MpcConfig::medium()).unwrap()
    }

    fn rate_bits(c: &MpcController) -> Vec<u64> {
        c.rates().iter().map(|x| x.to_bits()).collect()
    }

    /// What a constraint row constrains, decoded from its index in an
    /// `m`-task layout (see `constraint_matrix`): a rate bound of one task
    /// at one control step, or a utilization bound of one processor at one
    /// prediction step.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Row {
        Rate {
            step: usize,
            task: usize,
            upper: bool,
        },
        Util {
            step: usize,
            processor: usize,
        },
    }

    fn decode_row(row: usize, m: usize, n: usize, mh: usize) -> Row {
        match row.checked_sub(2 * m * mh) {
            None => Row::Rate {
                step: row / (2 * m),
                task: row % m,
                upper: row % (2 * m) < m,
            },
            Some(r) => Row::Util {
                step: r / n,
                processor: r % n,
            },
        }
    }

    #[test]
    fn retain_tasks_migrates_warm_state() {
        // Two scripts that keep rows active across the shrink.  Held at
        // `Rmax` with P1 over its set point: the utilization solver's set
        // holds rate-bound rows of both control steps and P1's
        // utilization rows.  Held at `Rmin` under a total overload: the
        // utilization rows are infeasible every period, so the rate-only
        // fallback's set is the live one.
        for at_floor in [false, true] {
            let mut c = medium_controller();
            let (n, m) = (c.num_processors(), c.num_tasks());
            let mh = c.config().control_horizon;
            let mut u = Vector::filled(n, if at_floor { 1.0 } else { 0.3 });
            if !at_floor {
                u[0] = c.set_points()[0] + 0.03;
            }
            let hold = if at_floor { &c.rmin } else { &c.rmax }.clone();
            c.reset(&hold);
            for _ in 0..12 {
                let _ = c.step(&u).unwrap();
            }
            assert_eq!(c.last_step_info().relaxed_utilization, at_floor);

            let mut keep = vec![true; m];
            keep[1] = false;
            keep[m - 1] = false;
            let mut shrunk = c.retain_tasks(&keep).unwrap();
            let m2 = shrunk.num_tasks();
            // Every surviving index names the row it named before — same
            // step, same bound, the task under its new column number —
            // and the dropped tasks' rows are gone.
            let (mut dropped, mut rate_rows, mut util_rows) = (0, 0, 0);
            for (old, new) in [
                (&c.warm_util, &shrunk.warm_util),
                (&c.warm_rate, &shrunk.warm_rate),
            ] {
                let expected: Vec<Row> = old
                    .iter()
                    .filter_map(|&row| match decode_row(row, m, n, mh) {
                        Row::Rate { task, .. } if !keep[task] => {
                            dropped += 1;
                            None
                        }
                        Row::Rate { step, task, upper } => {
                            rate_rows += 1;
                            let task = keep[..task].iter().filter(|&&k| k).count();
                            Some(Row::Rate { step, task, upper })
                        }
                        util => {
                            util_rows += 1;
                            Some(util)
                        }
                    })
                    .collect();
                let migrated: Vec<Row> = new.iter().map(|&r| decode_row(r, m2, n, mh)).collect();
                assert_eq!(migrated, expected, "at_floor {at_floor}");
            }
            assert!(
                dropped > 0 && rate_rows > 0,
                "the script left no rows to migrate"
            );
            assert_eq!(util_rows > 0, !at_floor);

            // The first solve after the shrink starts from them.
            let _ = shrunk.step(&u).unwrap();
            let info = shrunk.last_step_info();
            assert!(info.warm_start && info.warm_retained > 0, "{info:?}");
            assert_eq!(info.relaxed_utilization, at_floor);
        }
    }

    #[test]
    fn retained_controller_equals_fresh_model_after_reset() {
        // Dropping tasks and then resetting must behave exactly like a
        // controller built from the shrunk model directly.
        let mut c = medium_controller();
        let n = c.num_processors();
        for _ in 0..6 {
            let _ = c.step(&Vector::filled(n, 0.4)).unwrap();
        }
        let m = c.num_tasks();
        let mut keep = vec![true; m];
        keep[0] = false;
        let mut shrunk = c.retain_tasks(&keep).unwrap();

        let f = c.allocation();
        let f_sub = Matrix::from_fn(n, m - 1, |r, j| f[(r, j + 1)]);
        let sub = |v: &Vector| Vector::from_slice(&(1..m).map(|t| v[t]).collect::<Vec<f64>>());
        let mut fresh = MpcController::from_model(
            f_sub,
            c.set_points().clone(),
            sub(&c.rmin),
            sub(&c.rmax),
            sub(c.rates()),
            MpcConfig::medium(),
        )
        .unwrap();
        let restart = fresh.rates().clone();
        shrunk.reset(&restart);
        fresh.reset(&restart);
        for k in 0..6 {
            let u = Vector::filled(n, 0.3 + 0.1 * (k % 3) as f64);
            let a = shrunk.step(&u).unwrap();
            let b = fresh.step(&u).unwrap();
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
            );
        }
    }

    #[test]
    fn add_task_grows_to_the_full_model() {
        // Start from medium minus its last task, add it back, and compare
        // against the never-shrunk controller after a common reset.
        let set = workloads::medium();
        let b = rms_set_points(&set);
        let f = set.allocation_matrix();
        let n = f.rows();
        let m = f.cols();
        let f_sub = Matrix::from_fn(n, m - 1, |r, j| f[(r, j)]);
        let head = |v: &Vector| Vector::from_slice(&(0..m - 1).map(|t| v[t]).collect::<Vec<f64>>());
        let (rmin, rmax) = set.rate_bounds();
        let r0 = set.initial_rates();
        let small = MpcController::from_model(
            f_sub,
            b.clone(),
            head(&rmin),
            head(&rmax),
            head(&r0),
            MpcConfig::medium(),
        )
        .unwrap();
        let col: Vec<f64> = (0..n).map(|r| f[(r, m - 1)]).collect();
        let mut grown = small
            .add_task(&col, rmin[m - 1], rmax[m - 1], r0[m - 1])
            .unwrap();
        assert_eq!(grown.num_tasks(), m);

        let mut full = MpcController::new(&set, b, MpcConfig::medium()).unwrap();
        let restart = full.rates().clone();
        grown.reset(&restart);
        full.reset(&restart);
        for k in 0..6 {
            let u = Vector::filled(n, 0.35 + 0.08 * (k % 4) as f64);
            let a = grown.step(&u).unwrap();
            let bb = full.step(&u).unwrap();
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
                bb.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
            );
        }
    }

    #[test]
    fn add_task_migrates_warm_state_and_keeps_solving() {
        let mut c = simple_controller();
        for _ in 0..10 {
            let _ = c.step(&Vector::from_slice(&[0.9, 0.9])).unwrap();
        }
        let warm_before = c.warm_util.len() + c.warm_rate.len();
        let mut grown = c.add_task(&[10.0, 10.0], 0.002, 0.03, 0.01).unwrap();
        assert_eq!(
            warm_before,
            grown.warm_util.len() + grown.warm_rate.len(),
            "growth keeps every surviving warm index"
        );
        // The grown controller keeps converging against its own model.
        let f = grown.allocation().clone();
        let b = grown.set_points().clone();
        let mut u = Vector::from_slice(&[0.9, 0.9]);
        let mut prev = grown.rates().clone();
        for _ in 0..80 {
            let r = grown.step(&u).unwrap();
            u = &u + &f.mul_vec(&(&r - &prev));
            prev = r;
        }
        assert!((&u - &b).max_abs() < 1e-2, "u = {u}, B = {b}");
    }

    #[test]
    fn membership_input_validation() {
        let c = simple_controller();
        assert!(matches!(
            c.retain_tasks(&[true, false]),
            Err(ControlError::DimensionMismatch(_))
        ));
        assert!(matches!(
            c.retain_tasks(&[false, false, false]),
            Err(ControlError::DimensionMismatch(_))
        ));
        assert!(matches!(
            c.add_task(&[1.0], 0.001, 0.03, 0.01),
            Err(ControlError::DimensionMismatch(_))
        ));
        assert!(matches!(
            c.add_task(&[1.0, f64::NAN], 0.001, 0.03, 0.01),
            Err(ControlError::InvalidSample(_))
        ));
        assert!(matches!(
            c.add_task(&[1.0, 1.0], 0.03, 0.001, 0.01),
            Err(ControlError::InvalidSample(_))
        ));
    }

    #[test]
    fn retain_all_is_equivalent_to_the_original() {
        let mut c = simple_controller();
        let _ = c.step(&Vector::from_slice(&[0.4, 0.4])).unwrap();
        let mut same = c.retain_tasks(&[true, true, true]).unwrap();
        let u = Vector::from_slice(&[0.6, 0.2]);
        let a = c.step(&u).unwrap();
        let b = same.step(&u).unwrap();
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
        );
    }

    mod properties {
        use super::*;
        use eucon_tasks::workloads::RandomWorkload;
        use proptest::prelude::*;

        proptest! {
            // For any generated workload and any measured utilization,
            // the controller returns in-bounds rates and never errors.
            #[test]
            fn controller_is_total_and_in_bounds(
                seed in 0u64..40,
                u_scale in 0.0..1.0f64,
            ) {
                let set = RandomWorkload::new(3, 7).seed(seed).generate();
                let b = rms_set_points(&set);
                let mut c = MpcController::new(&set, b, MpcConfig::medium()).unwrap();
                for step in 0..5 {
                    let u = Vector::filled(3, (u_scale + 0.13 * step as f64) % 1.0);
                    let r = c.step(&u).unwrap();
                    for (t, task) in set.tasks().iter().enumerate() {
                        prop_assert!(r[t] >= task.rate_min() - 1e-10);
                        prop_assert!(r[t] <= task.rate_max() + 1e-10);
                    }
                }
            }

            // Monotone response: measuring *lower* utilization never
            // produces *lower* rates (from identical controller state).
            #[test]
            fn response_is_monotone_in_error(
                seed in 0u64..20,
                u_lo in 0.1..0.4f64,
                gap in 0.05..0.4f64,
            ) {
                let set = RandomWorkload::new(2, 5).seed(seed).generate();
                let b = rms_set_points(&set);
                let mk = || MpcController::new(&set, b.clone(), MpcConfig::simple()).unwrap();
                let mut c_lo = mk();
                let mut c_hi = mk();
                let r_lo = c_lo.step(&Vector::filled(2, u_lo)).unwrap();
                let r_hi = c_hi.step(&Vector::filled(2, u_lo + gap)).unwrap();
                prop_assert!(
                    r_lo.sum() >= r_hi.sum() - 1e-9,
                    "lower utilization must command at least as much rate"
                );
            }
        }
    }

    #[test]
    fn medium_controller_converges_on_model() {
        let set = workloads::medium();
        let b = rms_set_points(&set);
        let f = set.allocation_matrix();
        let mut c = MpcController::new(&set, b.clone(), MpcConfig::medium()).unwrap();
        let mut u = set.estimated_utilization(&set.initial_rates()).scale(0.5);
        let mut prev = c.rates().clone();
        for _ in 0..100 {
            let r = c.step(&u).unwrap();
            u = &u + &f.mul_vec(&(&r - &prev)).scale(0.5);
            prev = r;
        }
        assert!((&u - &b).max_abs() < 1e-2, "u = {u}");
    }
}
