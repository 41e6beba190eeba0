//! Decentralized utilization control — the paper's stated future work
//! ("we will develop decentralized control architecture to handle
//! large-scale distributed systems"), realized along the lines of the
//! authors' follow-on DEUCON work.
//!
//! Instead of one centralized MIMO controller, every processor runs a
//! *local* model-predictive controller:
//!
//! * each task is **owned** by the processor hosting its head subtask, so
//!   every rate is actuated by exactly one controller;
//! * a local controller models only the processors its owned tasks touch
//!   (its *neighborhood*) via the corresponding sub-block of the
//!   allocation matrix `F`;
//! * coupling to the rest of the system is handled by exchanging each
//!   controller's most recent move over the feedback lanes: before
//!   solving, a local controller folds its neighbors' last rate changes
//!   into its utilization measurements as a predicted disturbance.
//!
//! Per period, each local problem has `m_i ≪ m` variables, so the work
//! per node shrinks and no node needs global state — the scalability
//! property the paper's conclusion asks for.  The price is optimality:
//! neighbors are predicted by their previous move rather than coordinated
//! exactly, so convergence is slightly slower than the centralized
//! controller (quantified in the `ablation` binary).

use eucon_math::{Matrix, Vector};
use eucon_tasks::TaskSet;

use crate::{ControlError, ControllerTelemetry, MpcConfig, MpcController, RateController};

/// One per-processor controller and its bookkeeping.
#[derive(Debug, Clone)]
struct LocalController {
    /// Indices of the tasks this controller owns (head subtask here).
    owned: Vec<usize>,
    /// Processors affected by the owned tasks (the neighborhood), as
    /// global indices; the first entries drive the local model rows.
    neighborhood: Vec<usize>,
    /// Local MPC over the `neighborhood × owned` sub-block of `F`.
    mpc: MpcController,
    /// Coupling from non-owned tasks into the neighborhood:
    /// `neighborhood × all-tasks` sub-block of `F` with owned columns
    /// zeroed.
    foreign: Matrix,
}

/// Decentralized EUCON: a team of local MPC controllers, one per
/// processor, coordinating through last-move exchange.
///
/// Implements [`RateController`] and is a drop-in replacement for the
/// centralized [`MpcController`] in the closed loop.
///
/// # Example
///
/// ```
/// use eucon_control::{DecentralizedController, MpcConfig, RateController};
/// use eucon_math::Vector;
/// use eucon_tasks::{rms_set_points, workloads};
///
/// # fn main() -> Result<(), eucon_control::ControlError> {
/// let set = workloads::medium();
/// let b = rms_set_points(&set);
/// let mut ctrl = DecentralizedController::new(&set, b, MpcConfig::medium())?;
/// ctrl.update(&Vector::from_slice(&[0.4, 0.4, 0.4, 0.4]))?;
/// assert_eq!(ctrl.rates().len(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DecentralizedController {
    locals: Vec<LocalController>,
    rates: Vector,
    last_moves: Vector,
    num_processors: usize,
    /// For each processor, how many local controllers can actuate it
    /// (own a task with a subtask there).  Tracking errors are split by
    /// this count so the team's collective correction sums to the needed
    /// one instead of multiplying with team size.
    actuator_count: Vec<usize>,
}

impl DecentralizedController {
    /// Builds the controller team for a task set.
    ///
    /// Task ownership follows the head-subtask rule; processors that own
    /// no tasks run no controller (their utilization is still regulated
    /// by the owners of the tasks crossing them).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] when `set_points` does
    /// not have one entry per processor, and propagates local-controller
    /// construction failures.
    pub fn new(set: &TaskSet, set_points: Vector, cfg: MpcConfig) -> Result<Self, ControlError> {
        let n = set.num_processors();
        let m = set.num_tasks();
        if set_points.len() != n {
            return Err(ControlError::DimensionMismatch(format!(
                "{} set points for {n} processors",
                set_points.len()
            )));
        }
        let f = set.allocation_matrix();
        let (rmin, rmax) = set.rate_bounds();
        let r0 = set.initial_rates();

        // Local controllers run with *soft* utilization constraints: a
        // hard local `u ≤ B` deadlocks cross-controller rebalancing (a
        // task crossing a saturated processor can never be raised, and
        // the saturated processor's owner sees zero error so never makes
        // room).  The tracking objective still drives every processor to
        // its set point; constraint satisfaction emerges at the team
        // level.  Measured on 16×48 systems: worst steady-state error
        // 0.29 with hard local constraints vs 0.0004 with soft ones.
        let local_cfg = cfg.clone().utilization_constraints(false);

        let mut locals = Vec::new();
        for p in 0..n {
            let owned: Vec<usize> = (0..m)
                .filter(|&j| set.tasks()[j].subtasks()[0].processor.0 == p)
                .collect();
            if owned.is_empty() {
                continue;
            }
            // Neighborhood: every processor touched by an owned task.
            let mut neighborhood: Vec<usize> = Vec::new();
            for &j in &owned {
                for s in set.tasks()[j].subtasks() {
                    if !neighborhood.contains(&s.processor.0) {
                        neighborhood.push(s.processor.0);
                    }
                }
            }
            neighborhood.sort_unstable();

            // Local model: rows = neighborhood, cols = owned tasks.
            let f_local = Matrix::from_fn(neighborhood.len(), owned.len(), |r, c| {
                f[(neighborhood[r], owned[c])]
            });
            let b_local = Vector::from_iter(neighborhood.iter().map(|&q| set_points[q]));
            let mpc = MpcController::from_model(
                f_local,
                b_local,
                Vector::from_iter(owned.iter().map(|&j| rmin[j])),
                Vector::from_iter(owned.iter().map(|&j| rmax[j])),
                Vector::from_iter(owned.iter().map(|&j| r0[j])),
                local_cfg.clone(),
            )?;

            // Foreign coupling: F restricted to the neighborhood rows,
            // owned columns zeroed.
            let foreign = Matrix::from_fn(neighborhood.len(), m, |r, c| {
                if owned.contains(&c) {
                    0.0
                } else {
                    f[(neighborhood[r], c)]
                }
            });

            locals.push(LocalController {
                owned,
                neighborhood,
                mpc,
                foreign,
            });
        }

        let mut actuator_count = vec![0usize; n];
        for local in &locals {
            for &q in &local.neighborhood {
                actuator_count[q] += 1;
            }
        }
        for c in &mut actuator_count {
            *c = (*c).max(1);
        }

        Ok(DecentralizedController {
            locals,
            rates: r0,
            last_moves: Vector::zeros(m),
            num_processors: n,
            actuator_count,
        })
    }

    /// Number of local controllers in the team.
    pub fn num_controllers(&self) -> usize {
        self.locals.len()
    }

    /// Largest local problem size (owned tasks), a proxy for per-node
    /// cost.
    pub fn max_local_tasks(&self) -> usize {
        self.locals.iter().map(|l| l.owned.len()).max().unwrap_or(0)
    }

    /// Owned-task count of local controller `i`, in sweep order.
    pub fn local_tasks(&self, i: usize) -> usize {
        self.locals[i].owned.len()
    }

    /// Detected Hessian bandwidth of each local MPC, in sweep order —
    /// the probe the banded-Cholesky regression tests read.  Anything
    /// below `2·local_tasks(i) − 1` means that node's factor and solves
    /// run the banded `O(n·b²)` loops.
    pub fn hessian_bandwidths(&self) -> Vec<usize> {
        self.locals
            .iter()
            .map(|l| l.mpc.hessian_bandwidth())
            .collect()
    }
}

impl RateController for DecentralizedController {
    fn update(&mut self, u: &Vector) -> Result<(), ControlError> {
        if u.len() != self.num_processors {
            return Err(ControlError::DimensionMismatch(format!(
                "{} utilization samples for {} processors",
                u.len(),
                self.num_processors
            )));
        }
        // Stage the team's result and commit only after every local solve
        // succeeded — a mid-loop failure must not leave `rates` half
        // updated.
        let mut new_rates = self.rates.clone();
        // Gauss–Seidel coordination: controllers act in a fixed order;
        // each sees the moves already committed this period by earlier
        // controllers, and predicts the not-yet-acting ones by their
        // previous move.  (A Jacobi-style simultaneous exchange double
        // counts corrections and oscillates.)
        let mut predicted_moves = self.last_moves.clone();
        let mut new_moves = Vector::zeros(self.rates.len());
        let actuator_count = self.actuator_count.clone();
        for local in &mut self.locals {
            let disturbance = local.foreign.mul_vec(&predicted_moves);
            // Present each processor with its share of the tracking error
            // (splitting by actuator count prevents the team from
            // collectively over-correcting shared processors).
            let u_local =
                Vector::from_iter(local.neighborhood.iter().enumerate().map(|(r, &q)| {
                    let b = local.mpc.set_points()[r];
                    let err = u[q] + disturbance[r] - b;
                    (b + err / actuator_count[q] as f64).clamp(0.0, 1.0)
                }));
            local.mpc.step_in_place(&u_local)?;
            let r_local = local.mpc.rates();
            for (c, &j) in local.owned.iter().enumerate() {
                new_moves[j] = r_local[c] - self.rates[j];
                predicted_moves[j] = new_moves[j];
                new_rates[j] = r_local[c];
            }
        }
        self.last_moves = new_moves;
        self.rates = new_rates;
        Ok(())
    }

    fn rates(&self) -> &Vector {
        &self.rates
    }

    fn name(&self) -> &'static str {
        "DEUCON"
    }

    fn telemetry(&self) -> ControllerTelemetry {
        // Aggregate across the per-processor local MPCs: iteration and
        // active-set counts add up, warm-start / retry / relaxation flags
        // report "any local did this" — the period is only as clean as its
        // worst local solve.
        let mut t = ControllerTelemetry::default();
        for local in &self.locals {
            let lt = local.mpc.telemetry();
            t.qp_iterations += lt.qp_iterations;
            t.warm_retained += lt.warm_retained;
            t.active_set_size += lt.active_set_size;
            t.active_churn += lt.active_churn;
            t.warm_start |= lt.warm_start;
            t.cold_retry |= lt.cold_retry;
            t.relaxed_utilization |= lt.relaxed_utilization;
        }
        t
    }

    fn reset(&mut self, rates: &Vector) {
        assert_eq!(rates.len(), self.rates.len(), "one rate per task required");
        for local in &mut self.locals {
            let sub = Vector::from_iter(local.owned.iter().map(|&j| rates[j]));
            local.mpc.reset(&sub);
            // The local rate boxes may have clamped; read back the
            // authoritative values.
            for (c, &j) in local.owned.iter().enumerate() {
                self.rates[j] = local.mpc.rates()[c];
            }
        }
        self.last_moves = Vector::zeros(self.last_moves.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_tasks::{rms_set_points, workloads};

    fn medium_controller() -> DecentralizedController {
        let set = workloads::medium();
        let b = rms_set_points(&set);
        DecentralizedController::new(&set, b, MpcConfig::medium()).unwrap()
    }

    #[test]
    fn ownership_partitions_tasks() {
        let set = workloads::medium();
        let ctrl = medium_controller();
        let mut seen = vec![false; set.num_tasks()];
        for local in &ctrl.locals {
            for &j in &local.owned {
                assert!(!seen[j], "task T{} owned twice", j + 1);
                seen[j] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every task must be owned");
    }

    #[test]
    fn neighborhoods_cover_owned_chains() {
        let set = workloads::medium();
        let ctrl = medium_controller();
        for local in &ctrl.locals {
            for &j in &local.owned {
                for s in set.tasks()[j].subtasks() {
                    assert!(
                        local.neighborhood.contains(&s.processor.0),
                        "chain of T{} leaves its controller's neighborhood",
                        j + 1
                    );
                }
            }
        }
    }

    #[test]
    fn local_problems_are_smaller_than_global() {
        let set = workloads::medium();
        let ctrl = medium_controller();
        assert!(ctrl.num_controllers() >= 2);
        assert!(
            ctrl.max_local_tasks() < set.num_tasks(),
            "decentralization must shrink the per-node problem"
        );
    }

    #[test]
    fn converges_on_the_model_like_the_centralized_controller() {
        // Iterate against the true linear model with gain 1.
        let set = workloads::medium();
        let b = rms_set_points(&set);
        let f = set.allocation_matrix();
        let mut ctrl = medium_controller();
        let mut u = set.estimated_utilization(&set.initial_rates()).scale(0.5);
        let mut prev = ctrl.rates().clone();
        for _ in 0..200 {
            ctrl.update(&u).unwrap();
            let r = ctrl.rates().clone();
            u = &u + &f.mul_vec(&(&r - &prev)).scale(0.5);
            prev = r;
        }
        assert!(
            (&u - &b).max_abs() < 0.02,
            "decentralized loop must converge on the model: u = {u}, B = {b}"
        );
    }

    #[test]
    fn rates_respect_bounds() {
        let set = workloads::medium();
        let mut ctrl = medium_controller();
        for _ in 0..30 {
            ctrl.update(&Vector::filled(4, 1.0)).unwrap();
            for (j, task) in set.tasks().iter().enumerate() {
                assert!(ctrl.rates()[j] >= task.rate_min() - 1e-12);
                assert!(ctrl.rates()[j] <= task.rate_max() + 1e-12);
            }
        }
    }

    #[test]
    fn dimension_mismatch_detected() {
        let set = workloads::medium();
        let b = rms_set_points(&set);
        assert!(matches!(
            DecentralizedController::new(&set, Vector::zeros(2), MpcConfig::medium()),
            Err(ControlError::DimensionMismatch(_))
        ));
        let mut ctrl = DecentralizedController::new(&set, b, MpcConfig::medium()).unwrap();
        assert!(matches!(
            ctrl.update(&Vector::zeros(9)),
            Err(ControlError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn simple_workload_single_and_multi_owner() {
        // SIMPLE: T1 and T2 head on P1, T3 heads on P2 → two controllers.
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let ctrl = DecentralizedController::new(&set, b, MpcConfig::simple()).unwrap();
        assert_eq!(ctrl.num_controllers(), 2);
        assert_eq!(ctrl.max_local_tasks(), 2);
    }

    #[test]
    fn name_distinguishes_from_centralized() {
        assert_eq!(medium_controller().name(), "DEUCON");
    }
}
