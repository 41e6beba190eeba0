//! The plant abstraction: what the closed loop senses and actuates.
//!
//! The EUCON loop only needs sampled utilizations in and rate commands
//! out (paper §4).  Everything else the loop does — fault injection,
//! runtime membership, load shedding — is optional capability.
//! [`Plant`] captures that surface so [`crate::ClosedLoop`] (and
//! everything stacked on it: [`crate::FleetRunner`],
//! [`crate::service::ControlService`]) can drive any backend:
//!
//! * [`SimPlant`] — the event-driven simulator (`eucon-sim`), the
//!   default.  Bit-identical to the pre-abstraction loop: the golden
//!   trace hashes and the 0-alloc steady-state gates are pinned against
//!   it.
//! * [`crate::ReplayPlant`] — a recorded telemetry trace played back
//!   through the loop (regression and bench input).
//! * `OsPlant` (feature `os-plant`) — real CPU-bound worker processes
//!   on the host scheduler, actuated through cgroup CPU quotas and
//!   sampled from `/proc`.
//!
//! Backends are chosen per loop with the `plant(...)` builder option
//! ([`crate::LoopBuilder::plant`], and the same setter on the fleet and
//! tenant specs), which takes a [`PlantFactory`] — a `Send + Sync` description that
//! builds the actual (possibly non-`Send`) plant inside whichever
//! worker runs the loop.  See DESIGN.md §18.

use std::sync::Arc;

use eucon_math::Vector;
use eucon_sim::{DeadlineStats, EngineCounters, SimConfig, Simulator};
use eucon_tasks::{ProcessorId, Task, TaskError, TaskId, TaskSet};

use crate::CoreError;

/// The sensing/actuation surface the closed loop drives once per
/// sampling period.
///
/// # Contract
///
/// Each period the loop calls, in order: the fault hooks (only when an
/// injector is configured), [`Plant::advance_to`] with the period's end
/// time, [`Plant::sample_into`] to read the monitors, and finally
/// [`Plant::apply_rates`] with the new command.  A backend must tolerate
/// that exact cadence and nothing else is guaranteed.
///
/// Implementations must not allocate in [`Plant::advance_to`],
/// [`Plant::sample_into`], [`Plant::apply_rates`] or
/// [`Plant::rates_in_force`] once warmed up — the loop's steady-state
/// 0-alloc gates run through this trait.
pub trait Plant {
    /// Short backend label for reports (e.g. `"sim"`, `"replay"`).
    fn name(&self) -> &'static str;

    /// Number of processors (utilization monitors) the plant exposes.
    fn num_processors(&self) -> usize;

    /// Number of tasks (rate modulators) the plant exposes.
    fn num_tasks(&self) -> usize;

    /// Advances the plant to absolute time `t_end` (the end of the
    /// current sampling period).
    fn advance_to(&mut self, t_end: f64);

    /// Samples the per-processor utilizations over the period that just
    /// ended into the caller-provided buffer (no allocation).
    fn sample_into(&mut self, out: &mut Vector);

    /// Applies one rate command per task (the rate modulators).  Rates
    /// are clamped into each task's acceptable range.
    fn apply_rates(&mut self, rates: &Vector);

    /// The rates currently in force at the modulators (post-clamping),
    /// one per task.
    fn rates_in_force(&self) -> &[f64];

    /// End-to-end deadline statistics accumulated so far (all zero for
    /// backends that do not track deadlines).
    fn deadline_stats(&self) -> DeadlineStats {
        DeadlineStats::default()
    }

    /// Event-engine counters accumulated so far (all zero for backends
    /// without an event engine).
    fn counters(&self) -> EngineCounters {
        EngineCounters::default()
    }

    // --- fault surface (driven by the loop's fault injector; no-ops for
    // backends that cannot emulate the fault) ---

    /// Scales the execution speed of processor `p` (execution-time
    /// bursts).
    fn set_speed_override(&mut self, p: ProcessorId, factor: f64) {
        let _ = (p, factor);
    }

    /// Crashes processor `p`: it executes nothing until recovered.
    fn crash_processor(&mut self, p: ProcessorId) {
        let _ = p;
    }

    /// Recovers processor `p` from a crash.
    fn recover_processor(&mut self, p: ProcessorId) {
        let _ = p;
    }

    // --- membership surface (driven by churn plans and the load-shedding
    // supervisor; backends that return `false` from `supports_membership`
    // are rejected at build time when a churn plan or admission policy is
    // configured) ---

    /// Whether this backend supports runtime membership (admissions,
    /// departures, mode changes, suspension).
    fn supports_membership(&self) -> bool {
        false
    }

    /// Admits a new task into the plant, returning its id.
    ///
    /// # Errors
    ///
    /// Propagates workload-validation failures.
    ///
    /// # Panics
    ///
    /// The default implementation panics: backends that report
    /// [`Plant::supports_membership`] `false` never receive membership
    /// calls (the builder rejects churn plans for them), so reaching it
    /// is a loop bug.
    fn admit_task(&mut self, task: Task) -> Result<TaskId, TaskError> {
        let _ = task;
        unreachable!("membership call on a plant without membership support")
    }

    /// Departs a task: in-flight work drains, no further releases.
    fn depart_task(&mut self, task: TaskId) {
        let _ = task;
    }

    /// Whether a task has departed.
    fn is_departed(&self, task: TaskId) -> bool {
        let _ = task;
        false
    }

    /// Scales a task's execution demand (mode change).
    fn set_task_mode(&mut self, task: TaskId, exec_scale: f64) {
        let _ = (task, exec_scale);
    }

    /// Suspends a task (load shedding): in-flight work drains, no further
    /// releases until [`Plant::resume_task`]; its id, rate slot and
    /// statistics stay.
    fn suspend_task(&mut self, task: TaskId) {
        let _ = task;
    }

    /// Resumes a suspended task at the rate in force for it.
    fn resume_task(&mut self, task: TaskId) {
        let _ = task;
    }

    /// Borrow the underlying simulator, when this plant is
    /// simulator-backed (`None` for every other backend).
    fn as_simulator(&self) -> Option<&Simulator> {
        None
    }
}

/// A `Send + Sync` description that builds a [`Plant`] for a workload.
///
/// Factories, not plants, travel through the builders: a
/// [`crate::LoopBuilder`] must stay `Send + Clone` while the plant it
/// describes (a simulator with its RNG streams, a process tree) need
/// not be.  The factory is invoked once per loop, inside whichever
/// thread runs it.
pub trait PlantFactory: Send + Sync {
    /// Builds the plant for `set` (the workload the controller was
    /// built against) under the loop's simulator configuration (which
    /// only the simulator backend interprets).
    ///
    /// # Errors
    ///
    /// Backend-specific construction failures: [`CoreError::Replay`]
    /// for recordings that do not decode or do not match the workload,
    /// [`CoreError::Config`] for everything else.
    fn build_plant(&self, set: &TaskSet, sim: &SimConfig) -> Result<Box<dyn Plant>, CoreError>;

    /// Short factory label for builder `Debug` output.
    fn label(&self) -> &'static str {
        "plant"
    }
}

/// Factories are shared by reference across fleet workers.
impl PlantFactory for Arc<dyn PlantFactory> {
    fn build_plant(&self, set: &TaskSet, sim: &SimConfig) -> Result<Box<dyn Plant>, CoreError> {
        (**self).build_plant(set, sim)
    }

    fn label(&self) -> &'static str {
        (**self).label()
    }
}

/// The default backend: the event-driven `eucon-sim` simulator behind
/// the [`Plant`] surface.
///
/// A loop built without a `plant(...)` option gets exactly this, and the
/// indirection is behaviour-free: the golden trace hashes and the
/// steady-state allocation gates are pinned bit-identical to the
/// pre-abstraction loop.
#[derive(Debug)]
pub struct SimPlant {
    sim: Simulator,
}

impl SimPlant {
    /// Wraps an existing simulator.
    pub fn new(sim: Simulator) -> Self {
        SimPlant { sim }
    }

    /// Builds the simulator for `set` under `cfg` and wraps it.
    pub fn build(set: TaskSet, cfg: SimConfig) -> Self {
        SimPlant::new(Simulator::new(set, cfg))
    }

    /// Borrow the wrapped simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }
}

impl Plant for SimPlant {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn num_processors(&self) -> usize {
        self.sim.task_set().num_processors()
    }

    fn num_tasks(&self) -> usize {
        self.sim.rates_slice().len()
    }

    fn advance_to(&mut self, t_end: f64) {
        self.sim.run_until(t_end);
    }

    fn sample_into(&mut self, out: &mut Vector) {
        self.sim.sample_utilizations_into(out);
    }

    fn apply_rates(&mut self, rates: &Vector) {
        self.sim.set_rates(rates);
    }

    fn rates_in_force(&self) -> &[f64] {
        self.sim.rates_slice()
    }

    fn deadline_stats(&self) -> DeadlineStats {
        self.sim.deadline_stats()
    }

    fn counters(&self) -> EngineCounters {
        self.sim.counters()
    }

    fn set_speed_override(&mut self, p: ProcessorId, factor: f64) {
        self.sim.set_speed_override(p, factor);
    }

    fn crash_processor(&mut self, p: ProcessorId) {
        self.sim.crash_processor(p);
    }

    fn recover_processor(&mut self, p: ProcessorId) {
        self.sim.recover_processor(p);
    }

    fn supports_membership(&self) -> bool {
        true
    }

    fn admit_task(&mut self, task: Task) -> Result<TaskId, TaskError> {
        self.sim.admit_task(task)
    }

    fn depart_task(&mut self, task: TaskId) {
        self.sim.depart_task(task);
    }

    fn is_departed(&self, task: TaskId) -> bool {
        self.sim.is_departed(task)
    }

    fn set_task_mode(&mut self, task: TaskId, exec_scale: f64) {
        self.sim.set_task_mode(task, exec_scale);
    }

    fn suspend_task(&mut self, task: TaskId) {
        self.sim.suspend_task(task);
    }

    fn resume_task(&mut self, task: TaskId) {
        self.sim.resume_task(task);
    }

    fn as_simulator(&self) -> Option<&Simulator> {
        Some(&self.sim)
    }
}

/// Builds a [`SimPlant`] from the loop's own task set and simulator
/// configuration — the explicit spelling of the default backend, for
/// call sites that select backends dynamically.
///
/// ```
/// use eucon_core::{LoopBuilder, SimPlantFactory};
/// use eucon_sim::SimConfig;
/// use eucon_tasks::workloads;
///
/// # fn main() -> Result<(), eucon_core::CoreError> {
/// let mut cl = LoopBuilder::new(workloads::simple())
///     .sim_config(SimConfig::constant_etf(0.5))
///     .plant(SimPlantFactory)
///     .local()?;
/// cl.run(5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimPlantFactory;

impl PlantFactory for SimPlantFactory {
    fn build_plant(&self, set: &TaskSet, sim: &SimConfig) -> Result<Box<dyn Plant>, CoreError> {
        Ok(Box::new(SimPlant::build(set.clone(), sim.clone())))
    }

    fn label(&self) -> &'static str {
        "sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_tasks::workloads;

    #[test]
    fn sim_plant_forwards_the_simulator_surface() {
        let set = workloads::simple();
        let n_tasks = set.num_tasks();
        let mut plant = SimPlant::build(set, SimConfig::constant_etf(0.5));
        assert_eq!(plant.name(), "sim");
        assert_eq!(plant.num_processors(), 2);
        assert_eq!(plant.num_tasks(), n_tasks);
        assert!(plant.supports_membership());
        assert!(plant.as_simulator().is_some());
        plant.advance_to(1000.0);
        let mut u = Vector::zeros(2);
        plant.sample_into(&mut u);
        assert!(u.iter().all(|x| x.is_finite() && *x >= 0.0));
        let cmd = Vector::from_slice(plant.rates_in_force());
        plant.apply_rates(&cmd);
        assert_eq!(plant.rates_in_force(), cmd.as_slice());
        assert!(plant.counters().events > 0);
    }

    #[test]
    fn factory_builds_an_equivalent_plant() {
        let set = workloads::simple();
        let cfg = SimConfig::constant_etf(0.5);
        let direct = SimPlant::build(set.clone(), cfg.clone());
        let via_factory = SimPlantFactory.build_plant(&set, &cfg).unwrap();
        assert_eq!(direct.rates_in_force(), via_factory.rates_in_force());
        assert_eq!(via_factory.name(), "sim");
        assert_eq!(SimPlantFactory.label(), "sim");
    }

    #[test]
    fn default_hooks_are_inert() {
        /// A minimal utilization source: fixed report, no extras.
        struct Flat(Vec<f64>, Vec<f64>);
        impl Plant for Flat {
            fn name(&self) -> &'static str {
                "flat"
            }
            fn num_processors(&self) -> usize {
                self.0.len()
            }
            fn num_tasks(&self) -> usize {
                self.1.len()
            }
            fn advance_to(&mut self, _t_end: f64) {}
            fn sample_into(&mut self, out: &mut Vector) {
                out.copy_from_slice(&self.0);
            }
            fn apply_rates(&mut self, rates: &Vector) {
                self.1.copy_from_slice(rates.as_slice());
            }
            fn rates_in_force(&self) -> &[f64] {
                &self.1
            }
        }
        let mut p = Flat(vec![0.5, 0.5], vec![1.0; 4]);
        // Fault hooks are accepted and ignored.
        p.set_speed_override(ProcessorId(0), 2.0);
        p.crash_processor(ProcessorId(1));
        p.recover_processor(ProcessorId(1));
        assert!(!p.supports_membership());
        assert!(!p.is_departed(TaskId(0)));
        p.depart_task(TaskId(0));
        p.set_task_mode(TaskId(0), 2.0);
        p.suspend_task(TaskId(0));
        p.resume_task(TaskId(0));
        assert!(p.as_simulator().is_none());
        assert_eq!(p.deadline_stats(), DeadlineStats::default());
        assert_eq!(p.counters(), EngineCounters::default());
    }
}
