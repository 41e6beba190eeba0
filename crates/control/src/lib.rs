//! Controllers for end-to-end utilization control — the EUCON paper's core
//! contribution.
//!
//! * [`MpcController`] — the MIMO model-predictive controller of §6.1:
//!   exponential reference trajectory, quadratic tracking + control-penalty
//!   cost, hard utilization and rate constraints, solved each period as a
//!   constrained least-squares problem (via `eucon-qp`), receding horizon.
//! * [`MpcConfig`] — the controller parameters of Table 2 (`P`, `M`,
//!   `Tref/Ts`, weights), with the paper's SIMPLE and MEDIUM presets.
//! * [`stability`] — the closed-loop analysis of §6.2: unconstrained
//!   control-law derivation, closed-loop matrix `A(G)`, spectral-radius
//!   stability test and critical-gain search (≈ 5.0 for SIMPLE under our
//!   re-derivation; the paper reports 5.95 — see `stability` module docs).
//! * [`OpenLoop`] — the paper's OPEN baseline; [`IndependentPid`] — a
//!   decoupled per-processor baseline for ablation.
//! * [`ShardedController`] — the paper's future-work direction: a team of
//!   local MPCs, one per processor group, coordinating by boundary-state
//!   exchange; at shard size 1 ([`ShardedController::with_shard_size`])
//!   it is the per-processor (DEUCON-style) team.
//!
//! All controllers implement [`RateController`] so experiments can swap
//! them uniformly.
//!
//! # Example
//!
//! ```
//! use eucon_control::{stability, MpcConfig};
//! use eucon_tasks::workloads;
//!
//! # fn main() -> Result<(), eucon_control::ControlError> {
//! // Reproduce the paper's stability example (§6.2): the loop tolerates
//! // execution times several times the estimates.
//! let f = workloads::simple().allocation_matrix();
//! let g = stability::critical_uniform_gain(&f, &MpcConfig::simple(), 10.0, 1e-4)?;
//! assert!(g > 5.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod config;
mod error;
mod mpc;
mod prediction;
mod shard;
pub mod stability;
mod supervisor;

pub use baselines::{IndependentPid, OpenLoop};
pub use config::{ControlPenalty, MoveHold, MpcConfig};
pub use error::ControlError;
pub use mpc::{MpcController, MpcStepInfo};
pub use shard::{BoundaryBus, ShardPlan, ShardPlanner, ShardedController};
pub use supervisor::{Supervised, SupervisorConfig, SupervisorReport};

use eucon_math::Vector;

/// Operating mode a controller reports to the loop (health accounting).
///
/// Plain controllers are always [`ControlMode::Nominal`]; supervisory
/// wrappers such as [`Supervised`] report [`ControlMode::Degraded`] while
/// their watchdog holds the loop in the safe-mode fallback law.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlMode {
    /// The primary control law is in charge.
    #[default]
    Nominal,
    /// A fallback law is in charge (sensors or the primary law failed).
    Degraded,
}

/// Per-period observability snapshot of a controller, polled by the
/// closed loop after every update — the consolidated observer interface
/// through which *all* controller internals reach telemetry (instead of
/// N bespoke counter fields on N controller types).
///
/// Cheap to produce (`Copy`, no allocation) so polling it every sampling
/// period preserves the loop's zero-allocation steady state.  Controllers
/// fill in what they know and leave the rest at the defaults: plain
/// controllers report only their mode, [`MpcController`] adds the QP
/// solver internals, [`Supervised`] adds watchdog counters on top of
/// whatever its primary law reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerTelemetry {
    /// Active-set iterations spent by the QP solver this period.
    pub qp_iterations: usize,
    /// The solve was offered a non-empty active-set guess (any shard's,
    /// for a team).  Not a measure of how useful the guess was — see
    /// `warm_retained`.
    pub warm_start: bool,
    /// Rows of the guess the QP solver kept as its starting active set
    /// (summed across a team's local solves, like `qp_iterations`).
    pub warm_retained: usize,
    /// The warm-started attempt failed and the solver re-ran cold.
    pub cold_retry: bool,
    /// The hard utilization constraints were dropped (infeasible period).
    pub relaxed_utilization: bool,
    /// Constraints active (at their bound) at the optimum — the period's
    /// constraint-saturation count.
    pub active_set_size: usize,
    /// Entries by which the optimal active set differs from the previous
    /// period's (symmetric difference); 0 in steady state.
    pub active_churn: usize,
    /// A fallback law is currently in charge (mirrors
    /// [`ControlMode::Degraded`]).
    pub degraded: bool,
    /// Cumulative sensor samples rejected by validation.
    pub rejected_samples: u64,
    /// Largest current consecutive-invalid-sample streak across
    /// processors (0 when all monitors are healthy).
    pub stale_max: usize,
    /// Cumulative safe-mode entries (watchdog trips).
    pub degradations: u64,
    /// Cumulative primary-law re-engagements.
    pub reengagements: u64,
}

/// Common interface of utilization controllers: once per sampling period,
/// consume the measured utilization vector and produce new task rates.
pub trait RateController {
    /// Consumes the utilization measurement `u(k)` and commits the rate
    /// vector for the next sampling period, readable (without an
    /// allocation) through [`RateController::rates`].
    ///
    /// Returning `()` instead of a fresh `Vector` keeps the per-period
    /// control exchange allocation-free; callers that need ownership of
    /// the commanded rates clone `rates()` explicitly.
    ///
    /// # Errors
    ///
    /// Implementations report dimension mismatches and optimization
    /// failures as [`ControlError`]; on error the previously commanded
    /// rates stay in force.
    fn update(&mut self, u: &Vector) -> Result<(), ControlError>;

    /// The rates currently commanded by the controller.
    ///
    /// Returned by reference — the per-period control loop reads this every
    /// sampling period and must not pay an allocation for it; callers that
    /// need ownership clone at the call site.
    fn rates(&self) -> &Vector;

    /// Short human-readable controller name (for experiment reports).
    fn name(&self) -> &'static str;

    /// The controller's current operating mode.  The closed loop polls
    /// this each period to count degraded time; stateless controllers
    /// keep the default ([`ControlMode::Nominal`]).
    fn mode(&self) -> ControlMode {
        ControlMode::Nominal
    }

    /// Observability snapshot of the most recent update.
    ///
    /// The default implementation reports only the operating mode;
    /// controllers with interesting internals (QP solvers, watchdogs)
    /// override it.  Must be allocation-free — the closed loop polls it
    /// every sampling period.
    fn telemetry(&self) -> ControllerTelemetry {
        ControllerTelemetry {
            degraded: self.mode() == ControlMode::Degraded,
            ..ControllerTelemetry::default()
        }
    }

    /// Discards accumulated internal state (integrators, warm starts,
    /// previous moves) and restarts from the given rate vector, clamped
    /// into the controller's rate box where one exists.
    ///
    /// Supervisory wrappers call this when re-engaging a primary law
    /// after an outage, so stale pre-fault momentum cannot destabilize
    /// the re-engagement.  Stateless controllers may ignore it (the
    /// default is a no-op).
    fn reset(&mut self, rates: &Vector) {
        let _ = rates;
    }

    /// Shrinks the controller's plant model to the tasks marked `true` in
    /// `keep` (one flag per current task column, in order), migrating
    /// warm-start state so the next solve continues from the surviving
    /// subproblem instead of cold-starting.
    ///
    /// Called by churn-aware loops when tasks depart at runtime.  The
    /// default refuses with [`ControlError::Unsupported`]: controllers
    /// without a per-task plant model (OPEN, PID) cannot shrink, and the
    /// loop then keeps routing their full-arity commands (the departed
    /// tasks simply ignore theirs).
    ///
    /// # Errors
    ///
    /// [`ControlError::Unsupported`] by default; implementations add
    /// their own validation failures.
    fn membership_retain(&mut self, keep: &[bool]) -> Result<(), ControlError> {
        let _ = keep;
        Err(ControlError::Unsupported(
            "this controller has no per-task plant model to shrink".into(),
        ))
    }

    /// Grows the controller's plant model by one task: `f_col` is the new
    /// task's estimated per-processor utilization per unit rate (the new
    /// column of the subtask allocation matrix `F`), and the rate box /
    /// starting rate describe its actuation range.
    ///
    /// Called by churn-aware loops when an arrival passes the admission
    /// test.  The default refuses with [`ControlError::Unsupported`], and
    /// the admission controller then rejects the arrival — a task nobody
    /// can control must not enter the plant.
    ///
    /// # Errors
    ///
    /// [`ControlError::Unsupported`] by default; implementations add
    /// their own validation failures.
    fn membership_admit(
        &mut self,
        f_col: &[f64],
        rate_min: f64,
        rate_max: f64,
        initial_rate: f64,
    ) -> Result<(), ControlError> {
        let _ = (f_col, rate_min, rate_max, initial_rate);
        Err(ControlError::Unsupported(
            "this controller has no per-task plant model to grow".into(),
        ))
    }

    /// Tells the controller that `processor`'s next utilization sample is
    /// a stale reuse, not a fresh measurement — its feedback lane lost or
    /// delayed this period's report, and the loop substituted the last
    /// delivered value.
    ///
    /// Called (once per affected processor) *before* the corresponding
    /// [`RateController::update`].  Plain controllers ignore it (the
    /// default is a no-op); [`Supervised`] advances its per-processor
    /// staleness counter so a dead lane trips the watchdog exactly like a
    /// dead monitor.
    fn note_stale(&mut self, processor: usize) {
        let _ = processor;
    }

    /// A copy of this controller, in its current state, that another
    /// thread can own and that shares the immutable prepared model
    /// instead of preparing it again — or `None` when the controller has
    /// no such model to share (the default).
    ///
    /// A fleet builds one controller per group of identical loops and
    /// hands each member a shared clone of it.
    fn shared_clone(&self) -> Option<Box<dyn RateController + Send>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_objects_are_usable() {
        use eucon_tasks::{rms_set_points, workloads};
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let mut controllers: Vec<Box<dyn RateController>> = vec![
            Box::new(MpcController::new(&set, b.clone(), MpcConfig::simple()).unwrap()),
            Box::new(OpenLoop::design(&set, &b).unwrap()),
            Box::new(IndependentPid::new(&set, b, 0.5, 0.1).unwrap()),
        ];
        let u = Vector::from_slice(&[0.5, 0.5]);
        for c in controllers.iter_mut() {
            c.update(&u).unwrap();
            assert_eq!(c.rates().len(), 3, "{} commands wrong arity", c.name());
        }
    }
}
