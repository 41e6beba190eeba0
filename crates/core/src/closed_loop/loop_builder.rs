//! The loop builder: one description of a loop for every execution mode.
//!
//! [`LoopBuilder`] describes an experiment once — workload, plant,
//! controller, faults, churn — as plain
//! `Send + Clone` data, and a finisher picks how it runs:
//!
//! * [`LoopBuilder::local`] — the single-process loop;
//! * [`LoopBuilder::distributed`] — the same loop with its feedback lanes
//!   on real transports, the [`NetConfig`] passed explicitly so the mode
//!   switch is visible at the call site;
//! * [`LoopBuilder::fleet`] — `n` clones on the work-stealing
//!   [`FleetRunner`], which builds each one inside a worker.
//!
//! There is one loop type: `local` and `distributed` both return a
//! [`ClosedLoop`] (transport is a field of the loop, empty in
//! single-process mode), and every fleet worker and service tenant
//! builds its loop from a `LoopBuilder` too.  All inputs are validated at
//! the finisher, which returns [`CoreError::Config`] for out-of-domain
//! values instead of panicking in a setter, and every finisher honours
//! every option.  Lane delay and loss are not a builder option: they
//! belong to the lanes, on the [`NetConfig`].  A fault plan's partition
//! windows act on lanes too, so only [`LoopBuilder::distributed`]
//! accepts them.
//!
//! The module is a child of `closed_loop` because building a loop means
//! filling in its private state.

use std::sync::Arc;

use eucon_control::{MpcConfig, RateController};
use eucon_math::Vector;
use eucon_sim::{FaultInjector, FaultPlan, SimConfig, Simulator};
use eucon_tasks::{rms_set_points, TaskId, TaskSet};

use super::{rate_grid, ClosedLoop, FaultSummary, DEFAULT_SAMPLING_PERIOD};
use crate::admission::{AdmissionController, AdmissionPolicy, ChurnPlan};
use crate::distributed::NetRuntime;
use crate::plant::{Plant, PlantFactory, SimPlant};
use crate::telemetry::LoopTelemetry;
use crate::{ControllerSpec, CoreError, FleetRunner, NetConfig, Trace, TraceStep};

/// One builder for every execution mode; see the module docs.
///
/// # Example
///
/// ```
/// use eucon_core::{ControllerSpec, LoopBuilder, NetConfig};
/// use eucon_sim::SimConfig;
/// use eucon_tasks::workloads;
///
/// # fn main() -> Result<(), eucon_core::CoreError> {
/// // The same experiment, two execution modes:
/// let mut local = LoopBuilder::new(workloads::simple())
///     .sim_config(SimConfig::constant_etf(0.5))
///     .local()?;
/// let mut dist = LoopBuilder::new(workloads::simple())
///     .sim_config(SimConfig::constant_etf(0.5))
///     .distributed(NetConfig::channel())?;
/// // Ideal lanes are bit-identical to the single-process loop.
/// assert_eq!(
///     local.run(40).trace.steps().last().unwrap().utilization,
///     dist.run(40).trace.steps().last().unwrap().utilization,
/// );
/// assert!(dist.transport_stats().sent > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct LoopBuilder {
    // The fleet reads the `pub(crate)` fields: members with equal task
    // set, controller and set points (and no churn or admission) share
    // one prepared controller model.
    pub(crate) set: TaskSet,
    sim: SimConfig,
    pub(crate) controller: ControllerSpec,
    pub(crate) set_points: Option<Vector>,
    faults: FaultPlan,
    pub(crate) churn: ChurnPlan,
    pub(crate) admission: Option<AdmissionPolicy>,
    quantized_rates: Option<usize>,
    record_trace: bool,
    sampling_period: f64,
    plant: Option<Arc<dyn PlantFactory>>,
}

// The fleet ships builders to its worker threads.
const _: fn() = || {
    fn _is<T: Send + Clone + 'static>() {}
    _is::<LoopBuilder>();
};

impl std::fmt::Debug for LoopBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopBuilder")
            .field("controller", &self.controller)
            .field("plant", &self.plant.as_ref().map_or("sim", |p| p.label()))
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl LoopBuilder {
    /// Starts describing an experiment over a task set (defaults: the
    /// `etf = 1` constant-execution-time plant, the EUCON controller
    /// with SIMPLE's parameters, no faults, a static task set).
    pub fn new(set: TaskSet) -> Self {
        LoopBuilder {
            set,
            sim: SimConfig::default(),
            controller: ControllerSpec::Eucon(MpcConfig::simple()),
            set_points: None,
            faults: FaultPlan::none(),
            churn: ChurnPlan::none(),
            admission: None,
            quantized_rates: None,
            record_trace: true,
            sampling_period: DEFAULT_SAMPLING_PERIOD,
            plant: None,
        }
    }

    /// Chooses the plant backend every mode senses and actuates
    /// (default: the `eucon-sim` simulator).
    ///
    /// Accepts any [`PlantFactory`] — [`crate::SimPlantFactory`] (the
    /// explicit spelling of the default), a loaded
    /// [`crate::ReplayTrace`], or an `OsPlantConfig` (feature
    /// `os-plant`) driving real worker processes — and composes with
    /// every finisher.
    pub fn plant(mut self, factory: impl PlantFactory + 'static) -> Self {
        self.plant = Some(Arc::new(factory));
        self
    }

    /// Chooses the simulator configuration (default: `etf = 1`, constant
    /// execution times).
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim = cfg;
        self
    }

    /// Chooses the controller (default: EUCON with SIMPLE's parameters).
    /// The finisher builds it for the task set and the set points the
    /// loop settles on.
    pub fn controller(mut self, spec: ControllerSpec) -> Self {
        self.controller = spec;
        self
    }

    /// Overrides the utilization set points (default: the RMS bounds of
    /// the paper's eq. 13).
    pub fn set_points(mut self, b: Vector) -> Self {
        self.set_points = Some(b);
        self
    }

    /// Installs a fault-injection plan: scripted or stochastic processor
    /// crashes, execution-time bursts, sensor faults and lane partitions
    /// (default: no faults).  Partition windows need lanes: only
    /// [`LoopBuilder::distributed`] accepts a plan that has them.
    ///
    /// Crashed processors execute nothing, pile up a backlog and report
    /// `NaN` utilization (the monitor dies with its host); the closed
    /// loop feeds whatever the faulty sensors produce straight to the
    /// controller, which is exactly what [`ControllerSpec::SupervisedEucon`]
    /// exists to survive.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Installs a runtime-membership plan: scripted task arrivals,
    /// departures and mode changes (default: none — a static task set).
    ///
    /// Arrivals pass through the admission test of the configured
    /// [`AdmissionPolicy`]; departures drain their in-flight jobs cleanly
    /// while the controller rebuilds its plant model without the task's
    /// column (warm state migrates).  A non-empty plan also engages the
    /// policy's load-shedding supervisor; an empty plan leaves the loop
    /// byte-identical to one built without this call.
    pub fn churn(mut self, plan: ChurnPlan) -> Self {
        self.churn = plan;
        self
    }

    /// Overrides the admission policy (default:
    /// [`AdmissionPolicy::default`]) and engages the loop's admission
    /// controller even for an empty churn plan: runtime arrivals face the
    /// policy's budget, and its load-shedding supervisor suspends tasks
    /// when rate adaptation is exhausted and re-admits them once headroom
    /// returns ([`crate::admission`]).  Out-of-range thresholds are
    /// rejected by the finisher.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Quantizes actuated rates to a per-task geometric grid of `levels`
    /// values between `Rmin` and `Rmax` (default: continuous rates).
    ///
    /// Models real actuators — e.g. video pipelines that only support a
    /// discrete set of frame rates.  The controller still reasons in
    /// continuous rates; only the value applied to the plant snaps to the
    /// grid.  `levels < 2` is rejected by the finisher.
    pub fn quantized_rates(mut self, levels: usize) -> Self {
        self.quantized_rates = Some(levels);
        self
    }

    /// Turns trace recording on or off (default: on).
    ///
    /// With recording off the loop keeps only the most recent
    /// [`TraceStep`] (returned by [`ClosedLoop::step`]) and the running
    /// statistics; long unattended runs — chaos sweeps, scaling studies —
    /// avoid the per-period trace allocations entirely, making the
    /// fault-free period step allocation-free.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Overrides the sampling period (default
    /// [`DEFAULT_SAMPLING_PERIOD`]).  Non-positive or non-finite values
    /// are rejected by the finisher.
    pub fn sampling_period(mut self, ts: f64) -> Self {
        self.sampling_period = ts;
        self
    }

    /// Finishes as a single-process loop.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when an input fails validation —
    /// a non-positive or non-finite sampling period, a fault plan with
    /// lane-partition windows (a loop without lanes has nothing to
    /// partition), fewer than two quantized rate levels, set points that
    /// are non-finite, non-positive, or of the wrong arity, a sharded
    /// controller with `shard_size` 0, an MPC or supervisor configuration
    /// out of its domain ([`MpcConfig::validate`],
    /// [`SupervisorConfig::validate`](eucon_control::SupervisorConfig::validate)),
    /// a malformed
    /// churn plan, an out-of-range admission policy, or a plant backend
    /// that does not fit the workload — [`CoreError::Sim`] for a
    /// malformed fault plan, execution-time model or processor speed list
    /// ([`SimConfig::validate`]), and propagates controller-construction
    /// failures (a shard boundary lane model out of domain among them)
    /// as [`CoreError::Control`].
    pub fn local(self) -> Result<ClosedLoop, CoreError> {
        self.finish(None, None)
    }

    /// The set points the loop settles on (the RMS bounds unless
    /// overridden), checked: one positive, finite value per processor.
    pub(crate) fn resolved_set_points(&self) -> Result<Vector, CoreError> {
        let set_points = match &self.set_points {
            Some(b) => b.clone(),
            None => rms_set_points(&self.set),
        };
        if set_points.len() != self.set.num_processors() {
            return Err(CoreError::Config(format!(
                "need one set point per processor: got {} for {} processors",
                set_points.len(),
                self.set.num_processors()
            )));
        }
        if let Some(p) = (0..set_points.len()).find(|&p| {
            let b = set_points[p];
            !b.is_finite() || b <= 0.0
        }) {
            return Err(CoreError::Config(format!(
                "set point for P{} must be positive and finite, got {}",
                p + 1,
                set_points[p]
            )));
        }
        Ok(set_points)
    }

    /// Builds the loop, closing it with `prebuilt` instead of a controller
    /// built from the spec when one is given (a fleet member's shared
    /// clone; its current rates are applied to the plant at time zero),
    /// and connecting the lanes `net` describes when one is given.
    pub(crate) fn finish(
        self,
        prebuilt: Option<Box<dyn RateController>>,
        net: Option<NetConfig>,
    ) -> Result<ClosedLoop, CoreError> {
        match &net {
            Some(net) => {
                net.report_lanes.validate("report_lanes")?;
                net.command_lanes.validate("command_lanes")?;
            }
            None if self.faults.has_partitions() => {
                return Err(CoreError::Config(
                    "the fault plan partitions feedback lanes, and a loop without lanes has \
                     none: finish with .distributed(NetConfig::channel())"
                        .into(),
                ))
            }
            None => {}
        }
        let ts = self.sampling_period;
        if !(ts > 0.0 && ts.is_finite()) {
            return Err(CoreError::Config(format!(
                "sampling period must be positive and finite, got {ts}"
            )));
        }
        self.controller.validate(self.set.num_processors())?;
        self.faults.validate(self.set.num_processors())?;
        self.sim.validate(self.set.num_processors())?;
        self.churn.validate(&self.set)?;
        if let Some(policy) = &self.admission {
            policy.validate()?;
        }
        if let Some(levels) = self.quantized_rates {
            if levels < 2 {
                return Err(CoreError::Config(format!(
                    "quantized actuation needs at least two rate levels, got {levels}"
                )));
            }
        }
        let set_points = self.resolved_set_points()?;
        let controller = match prebuilt {
            Some(controller) => controller,
            None => self.controller.build(&self.set, &set_points)?,
        };
        let rate_grid = self.quantized_rates.map(|levels| {
            self.set
                .tasks()
                .iter()
                .map(|t| rate_grid(t, levels))
                .collect()
        });
        // The processor hosting each task's rate modulator (its first
        // subtask): how the command lanes route the rates.
        let head_proc: Vec<usize> = self
            .set
            .tasks()
            .iter()
            .map(|t| t.subtasks()[0].processor.0)
            .collect();
        let injector = if self.faults.is_empty() {
            None
        } else {
            Some(FaultInjector::new(
                self.faults.clone(),
                self.set.num_processors(),
            ))
        };
        let num_procs = self.set.num_processors();
        let num_tasks = self.set.num_tasks();
        // Churn machinery engages only for a non-empty plan (or an
        // explicit policy); otherwise churn-free runs take byte-identical
        // code paths to builds without it.
        let admission = if !self.churn.is_empty() || self.admission.is_some() {
            Some(Box::new(AdmissionController::new(
                self.admission.unwrap_or_default(),
                self.churn,
                self.set.tasks().to_vec(),
            )))
        } else {
            None
        };
        let mut plant: Box<dyn Plant> = match self.plant {
            Some(factory) => {
                let plant = factory.build_plant(&self.set, &self.sim)?;
                if plant.num_processors() != num_procs {
                    return Err(CoreError::Config(format!(
                        "plant backend '{}' exposes {} processors, workload has {}",
                        plant.name(),
                        plant.num_processors(),
                        num_procs
                    )));
                }
                if plant.num_tasks() != num_tasks {
                    return Err(CoreError::Config(format!(
                        "plant backend '{}' exposes {} tasks, workload has {}",
                        plant.name(),
                        plant.num_tasks(),
                        num_tasks
                    )));
                }
                plant
            }
            // The default path moves the set and config straight into the
            // simulator — no clone, bit-identical to the pre-`Plant` loop.
            None => Box::new(SimPlant::new(Simulator::new(self.set, self.sim))),
        };
        if admission.is_some() && !plant.supports_membership() {
            return Err(CoreError::Config(format!(
                "plant backend '{}' does not support runtime membership; \
                 churn plans and admission policies need a simulator-backed plant",
                plant.name()
            )));
        }
        // Apply the controller's initial rates from time zero (OPEN's
        // design rates take effect immediately; feedback controllers start
        // from the task set's initial rates, a no-op here).
        plant.apply_rates(controller.rates());
        // The full metric registry is declared (and allocated) here, once;
        // per-period recording updates it strictly in place.
        let telemetry = Box::new(LoopTelemetry::new(num_procs));
        let net = match net {
            Some(cfg) => Some(Box::new(NetRuntime::new(&cfg, num_procs, &head_proc)?)),
            None => None,
        };
        Ok(ClosedLoop {
            plant,
            controller,
            ts,
            period: 0,
            set_points,
            trace: Trace::new(),
            control_errors: 0,
            rate_grid,
            injector,
            summary: FaultSummary::default(),
            record: self.record_trace,
            u_scratch: Vector::zeros(num_procs),
            sensed: Vector::zeros(num_procs),
            last: TraceStep::clean(0.0, Vector::zeros(num_procs), Vector::zeros(num_tasks)),
            telemetry,
            net,
            admission,
            ctrl_cols: (0..num_tasks).map(TaskId).collect(),
            act_cmd: Vector::zeros(num_tasks),
        })
    }

    /// Finishes as a distributed loop: the same [`ClosedLoop`], with its
    /// report and command phases crossing the transport lanes `net`
    /// describes.
    ///
    /// # Errors
    ///
    /// Everything [`LoopBuilder::local`] rejects except partition
    /// windows, plus [`CoreError::Config`] when `net.report_lanes` or
    /// `net.command_lanes` is out of domain ([`LaneModel::validate`]),
    /// and [`CoreError::Transport`] when the backend fails to connect
    /// (e.g. binding the loopback sockets).
    ///
    /// [`LaneModel::validate`]: crate::LaneModel::validate
    pub fn distributed(self, net: NetConfig) -> Result<ClosedLoop, CoreError> {
        self.finish(None, Some(net))
    }

    /// Finishes as a fleet of `n` clones of this loop on the
    /// work-stealing [`FleetRunner`]; pin the thread count with
    /// [`FleetRunner::threads`] and start it with [`FleetRunner::run`].
    ///
    /// Members honour every option, except that they run untraced: a
    /// [`crate::FleetReport`] returns one digest per loop, not its trace.
    /// Members are loops without lanes, so a fault plan with partition
    /// windows fails the run as [`LoopBuilder::local`] fails.
    pub fn fleet(self, n: usize) -> FleetRunner {
        FleetRunner {
            loops: vec![self; n],
            threads: None,
        }
    }

    /// Deprecated spelling of [`LoopBuilder::local`].
    #[deprecated(since = "0.4.0", note = "use LoopBuilder::local")]
    pub fn build(self) -> Result<ClosedLoop, CoreError> {
        self.local()
    }
}

#[cfg(test)]
mod tests {
    use std::io;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::fleet::digest_run;
    use crate::telemetry::TelemetrySink;
    use crate::{BoundaryMode, LaneModel};
    use eucon_control::SupervisorConfig;
    use eucon_sim::{ExecModel, SimError};
    use eucon_tasks::workloads;

    #[test]
    fn distributed_finisher_matches_local_over_ideal_channels() {
        let mut local = LoopBuilder::new(workloads::medium())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::medium()))
            .local()
            .unwrap();
        let mut dist = LoopBuilder::new(workloads::medium())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::medium()))
            .distributed(NetConfig::channel())
            .unwrap();
        assert_eq!(local.backend_name(), "none");
        assert_eq!(dist.backend_name(), "channel");
        assert_eq!(local.run(30).trace, dist.run(30).trace);
        assert_eq!(local.transport_stats().sent, 0);
        assert!(dist.transport_stats().sent > 0);
    }

    #[test]
    fn fleet_finisher_runs_replicas() {
        let report = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .fleet(6)
            .threads(2)
            .run(20)
            .unwrap();
        assert_eq!(report.loops, 6);
    }

    /// One option of the builder: how to set it, and how a loop built
    /// with it shows that the option took effect — each check fails on a
    /// loop built without the option.
    struct OptionCase {
        name: &'static str,
        set: fn(LoopBuilder) -> LoopBuilder,
        honoured: fn(&mut ClosedLoop) -> bool,
    }

    const OPTIONS: [OptionCase; 5] = [
        OptionCase {
            name: "quantized_rates",
            set: |b| b.quantized_rates(2),
            honoured: |lp| {
                let set = workloads::simple();
                let rates = lp.run(3).trace.steps()[2].rates.clone();
                (0..rates.len()).all(|t| {
                    let task = &set.tasks()[t];
                    rates[t] == task.rate_min() || rates[t] == task.rate_max()
                })
            },
        },
        OptionCase {
            name: "record_trace",
            set: |b| b.record_trace(false),
            honoured: |lp| lp.run(3).trace.is_empty(),
        },
        OptionCase {
            name: "sampling_period",
            set: |b| b.sampling_period(500.0),
            honoured: |lp| lp.step().time == 500.0,
        },
        OptionCase {
            name: "controller",
            set: |b| b.controller(ControllerSpec::Open),
            honoured: |lp| lp.controller_name() == "OPEN",
        },
        OptionCase {
            name: "admission",
            // At 25x overload the shedding supervisor suspends a task at
            // period 12; without a policy nothing watches for exhaustion.
            set: |b| {
                b.sim_config(SimConfig::constant_etf(25.0))
                    .admission(AdmissionPolicy::default())
            },
            honoured: |lp| !lp.run(13).admission_events.is_empty(),
        },
    ];

    #[test]
    fn every_finisher_honours_every_option() {
        let base =
            || LoopBuilder::new(workloads::simple()).sim_config(SimConfig::constant_etf(0.5));
        for case in &OPTIONS {
            // The checks tell a loop with the option from one without.
            let mut plain = base().local().unwrap();
            assert!(!(case.honoured)(&mut plain), "{} check", case.name);

            let builder = (case.set)(base());
            let mut local = builder.clone().local().unwrap();
            assert!((case.honoured)(&mut local), "local drops {}", case.name);

            let mut dist = builder.clone().distributed(NetConfig::channel()).unwrap();
            assert!(
                (case.honoured)(&mut dist),
                "distributed drops {}",
                case.name
            );

            // Fleet members are clones of the builder: each one's digest
            // is the digest of an untraced loop built from it by hand.
            let mut standalone = builder.clone().record_trace(false).local().unwrap();
            let expected = digest_run(&mut standalone, 20);
            let report = builder.fleet(2).threads(2).run(20).unwrap();
            assert_eq!(
                report.digests,
                vec![expected; 2],
                "fleet drops {}",
                case.name
            );
        }
    }

    /// Counts the rows a loop pushes into it.
    struct CountingSink(Arc<AtomicUsize>);

    impl TelemetrySink for CountingSink {
        fn begin(&mut self, _columns: &[String]) -> io::Result<()> {
            Ok(())
        }

        fn record(&mut self, _period: u64, _time: f64, _values: &[f64]) -> io::Result<()> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn a_sink_attached_to_a_finished_loop_sees_every_period() {
        let base = || LoopBuilder::new(workloads::simple());
        for mut lp in [
            base().local().unwrap(),
            base().distributed(NetConfig::channel()).unwrap(),
        ] {
            let rows = Arc::new(AtomicUsize::new(0));
            lp.telemetry_sink(CountingSink(rows.clone()));
            lp.run(3);
            assert_eq!(rows.load(Ordering::Relaxed), 3, "{}", lp.backend_name());
        }
    }

    #[test]
    fn lane_models_are_validated_for_every_mode() {
        for loss in [1.0, 1.5, -0.1, f64::NAN] {
            let bad = LaneModel {
                delay: 0,
                loss_probability: loss,
                seed: 0,
            };
            let attempts = [
                (
                    "report_lanes",
                    LoopBuilder::new(workloads::simple())
                        .distributed(NetConfig::channel().report_lanes(bad.clone())),
                ),
                (
                    "command_lanes",
                    LoopBuilder::new(workloads::simple())
                        .distributed(NetConfig::channel().command_lanes(bad.clone())),
                ),
            ];
            for (option, built) in attempts {
                let err = built.unwrap_err();
                assert!(
                    matches!(err, CoreError::Config(ref m)
                        if m.contains(option) && m.contains("loss probability")),
                    "loss = {loss} on {option}: got {err:?}"
                );
            }
        }
    }

    #[test]
    fn only_a_loop_with_lanes_takes_a_partition_plan() {
        let partitioned =
            || LoopBuilder::new(workloads::simple()).faults(FaultPlan::none().partition(1, 5, 10));
        let named = |err: &CoreError| {
            let hint = ".distributed(NetConfig::channel())";
            matches!(err, CoreError::Config(m) if m.contains(hint))
        };
        let err = partitioned().local().unwrap_err();
        assert!(named(&err), "local: got {err:?}");
        let err = partitioned().fleet(2).threads(1).run(3).unwrap_err();
        assert!(named(&err), "fleet: got {err:?}");
        let mut dl = partitioned().distributed(NetConfig::channel()).unwrap();
        assert_eq!(dl.run(12).faults.partitioned_periods, 5);
    }

    #[test]
    fn quantizer_needs_two_levels() {
        let err = LoopBuilder::new(workloads::simple())
            .quantized_rates(1)
            .local()
            .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("two rate levels"));
    }

    #[test]
    fn finisher_rejects_bad_sampling_periods() {
        for ts in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = LoopBuilder::new(workloads::simple())
                .sampling_period(ts)
                .local()
                .unwrap_err();
            assert!(
                matches!(err, CoreError::Config(ref m) if m.contains("sampling period")),
                "ts = {ts}: got {err:?}"
            );
        }
    }

    #[test]
    fn finisher_rejects_bad_set_points() {
        // Non-finite entry.
        let err = LoopBuilder::new(workloads::simple())
            .set_points(Vector::from_slice(&[0.8, f64::NAN]))
            .local()
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Config(ref m) if m.contains("P2")),
            "got {err:?}"
        );
        // Non-positive entry.
        let err = LoopBuilder::new(workloads::simple())
            .set_points(Vector::from_slice(&[0.0, 0.8]))
            .local()
            .unwrap_err();
        assert!(matches!(err, CoreError::Config(ref m) if m.contains("P1")));
        // Wrong arity.
        let err = LoopBuilder::new(workloads::simple())
            .set_points(Vector::from_slice(&[0.8]))
            .local()
            .unwrap_err();
        assert!(matches!(err, CoreError::Config(ref m) if m.contains("per processor")));
    }

    #[test]
    fn finisher_rejects_bad_processor_speeds() {
        // The public field bypasses the setter's assert: the finisher is
        // the last check before the simulator indexes the list.
        for (speeds, expected) in [
            (
                vec![1.0],
                SimError::WrongArity {
                    what: "processor_speeds",
                    got: 1,
                    num_processors: 2,
                },
            ),
            (
                vec![f64::NAN, 1.0],
                SimError::InvalidFactor { value: f64::NAN },
            ),
        ] {
            let builder = LoopBuilder::new(workloads::simple()).sim_config(SimConfig {
                processor_speeds: Some(speeds),
                ..SimConfig::constant_etf(0.5)
            });
            let errors = [
                builder.clone().local().map(|_| ()),
                builder
                    .clone()
                    .distributed(NetConfig::channel())
                    .map(|_| ()),
                builder.fleet(2).threads(2).run(3).map(|_| ()),
            ];
            for err in errors.map(Result::unwrap_err) {
                // NaN != NaN, so compare the display.
                assert_eq!(
                    err.to_string(),
                    CoreError::Sim(expected.clone()).to_string()
                );
            }
        }
    }

    #[test]
    fn finisher_rejects_bad_exec_models() {
        // The enum's fields are public, so no constructor sees these; a
        // NaN half-width would otherwise draw NaN execution times.
        for (model, what, value) in [
            (
                ExecModel::Uniform {
                    half_width: f64::NAN,
                },
                "half_width",
                f64::NAN,
            ),
            (ExecModel::Uniform { half_width: 0.0 }, "half_width", 0.0),
            (ExecModel::Uniform { half_width: 1.0 }, "half_width", 1.0),
            (ExecModel::Uniform { half_width: -0.2 }, "half_width", -0.2),
            (
                ExecModel::Bimodal {
                    low: 0.0,
                    high: 2.0,
                    p_high: 0.5,
                },
                "low",
                0.0,
            ),
            (
                ExecModel::Bimodal {
                    low: 0.5,
                    high: f64::INFINITY,
                    p_high: 0.5,
                },
                "high",
                f64::INFINITY,
            ),
            (
                ExecModel::Bimodal {
                    low: 0.5,
                    high: 2.0,
                    p_high: 1.5,
                },
                "p_high",
                1.5,
            ),
            (
                ExecModel::Bimodal {
                    low: 0.5,
                    high: 2.0,
                    p_high: f64::NAN,
                },
                "p_high",
                f64::NAN,
            ),
        ] {
            let builder = LoopBuilder::new(workloads::simple())
                .sim_config(SimConfig::constant_etf(0.5).exec_model(model));
            let errors = [
                builder.clone().local().map(|_| ()),
                builder
                    .clone()
                    .distributed(NetConfig::channel())
                    .map(|_| ()),
                builder.fleet(2).threads(2).run(3).map(|_| ()),
            ];
            for err in errors.map(Result::unwrap_err) {
                // NaN != NaN, so compare the display.
                assert_eq!(
                    err.to_string(),
                    CoreError::Sim(SimError::InvalidExecModel { what, value }).to_string(),
                    "{model:?}"
                );
            }
        }
        // The edges of the documented ranges are accepted.
        let edge = ExecModel::Bimodal {
            low: 0.5,
            high: 2.0,
            p_high: 1.0,
        };
        let builder = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5).exec_model(edge));
        assert!(builder.local().is_ok());
    }

    #[test]
    fn finisher_rejects_a_zero_shard_size() {
        let builder = LoopBuilder::new(workloads::medium()).controller(ControllerSpec::Sharded {
            mpc: MpcConfig::medium(),
            shard_size: 0,
            boundary: BoundaryMode::InProcess,
        });
        let errors = [
            builder.clone().local().map(|_| ()),
            builder
                .clone()
                .distributed(NetConfig::channel())
                .map(|_| ()),
            builder.fleet(2).threads(1).run(3).map(|_| ()),
        ];
        for err in errors.map(Result::unwrap_err) {
            assert!(
                matches!(err, CoreError::Config(ref m) if m.contains("shard_size")),
                "got {err:?}"
            );
        }
    }

    /// `local`, `distributed(NetConfig::channel())` and a 2-member fleet
    /// each fail with `CoreError::Config` naming `field`.
    fn assert_every_finisher_names(builder: LoopBuilder, field: &str) {
        let errors = [
            builder.clone().local().map(|_| ()),
            builder
                .clone()
                .distributed(NetConfig::channel())
                .map(|_| ()),
            builder.fleet(2).threads(1).run(3).map(|_| ()),
        ];
        for err in errors.map(Result::unwrap_err) {
            assert!(
                matches!(err, CoreError::Config(ref m) if m.contains(field)),
                "{field}: got {err:?}"
            );
        }
    }

    #[test]
    fn finisher_rejects_bad_mpc_configs() {
        // Public fields no builder method checks; each case used to panic
        // in a constructor, or (weights NaN or negative) to fail as a
        // linear-algebra error.
        type Spoil = fn(&mut MpcConfig);
        let cases: [(&str, Spoil); 8] = [
            ("prediction_horizon", |c| c.prediction_horizon = 0),
            ("control_horizon", |c| c.control_horizon = 0),
            ("control_horizon", |c| {
                c.control_horizon = c.prediction_horizon + 1
            }),
            ("tref_over_ts", |c| c.tref_over_ts = f64::NAN),
            ("control_penalty_weight", |c| {
                c.control_penalty_weight = -1.0
            }),
            ("tracking_weights", |c| {
                c.tracking_weights = Some(Vector::from_slice(&[1.0; 3]))
            }),
            ("tracking_weights[0]", |c| {
                c.tracking_weights = Some(Vector::from_slice(&[f64::NAN, 1.0, 1.0, 1.0]))
            }),
            ("tracking_weights[0]", |c| {
                c.tracking_weights = Some(Vector::from_slice(&[-1.0, 1.0, 1.0, 1.0]))
            }),
        ];
        for (field, spoil) in cases {
            let mut mpc = MpcConfig::medium();
            spoil(&mut mpc);
            let specs = [
                ControllerSpec::Eucon(mpc.clone()),
                ControllerSpec::Sharded {
                    mpc: mpc.clone(),
                    shard_size: 2,
                    boundary: BoundaryMode::InProcess,
                },
                ControllerSpec::SupervisedEucon {
                    mpc,
                    supervisor: SupervisorConfig::default(),
                },
            ];
            for spec in specs {
                let builder = LoopBuilder::new(workloads::medium()).controller(spec);
                assert_every_finisher_names(builder, field);
            }
        }
        // One weight per processor, zeros included, is a clean run, in
        // the sharded team too (each shard reads its neighborhood's).
        let weighted =
            MpcConfig::medium().tracking_weights(Vector::from_slice(&[0.0, 1.0, 2.0, 1.0]));
        for spec in [
            ControllerSpec::Eucon(weighted.clone()),
            ControllerSpec::Sharded {
                mpc: weighted,
                shard_size: 2,
                boundary: BoundaryMode::InProcess,
            },
        ] {
            let mut built = LoopBuilder::new(workloads::medium())
                .controller(spec)
                .local()
                .unwrap();
            assert_eq!(built.run(20).control_errors, 0);
        }
    }

    #[test]
    fn finisher_rejects_bad_supervisor_configs() {
        type Spoil = fn(&mut SupervisorConfig);
        let cases: [(&str, Spoil); 3] = [
            ("slew", |c| c.slew = 0.0),
            ("u_max", |c| c.u_max = f64::NAN),
            ("max_stale", |c| c.max_stale = 0),
        ];
        for (field, spoil) in cases {
            let mut supervisor = SupervisorConfig::default();
            spoil(&mut supervisor);
            let builder =
                LoopBuilder::new(workloads::simple()).controller(ControllerSpec::SupervisedEucon {
                    mpc: MpcConfig::simple(),
                    supervisor,
                });
            assert_every_finisher_names(builder, field);
        }
    }

    #[test]
    fn finisher_rejects_bad_admission_policies() {
        let base = || LoopBuilder::new(workloads::simple());
        type Spoil = fn(&mut AdmissionPolicy);
        let cases: [(&str, Spoil); 7] = [
            ("margin", |p| p.margin = f64::NAN),
            ("margin", |p| p.margin = -0.01),
            ("readmit_headroom", |p| p.readmit_headroom = -0.1),
            ("readmit_headroom", |p| p.readmit_headroom = f64::INFINITY),
            ("admit_threshold", |p| p.admit_threshold = f64::NAN),
            ("admit_threshold", |p| p.admit_threshold = 0.0),
            ("patience", |p| p.patience = 0),
        ];
        for (field, spoil) in cases {
            let mut policy = AdmissionPolicy::default();
            spoil(&mut policy);
            let built = [
                base().admission(policy.clone()).local(),
                base()
                    .admission(policy.clone())
                    .distributed(NetConfig::channel()),
            ];
            for err in built.map(Result::unwrap_err) {
                assert!(
                    matches!(err, CoreError::Config(ref m) if m.contains(field)),
                    "{policy:?}: got {err:?}"
                );
            }
            // Fleet workers build through `local()`.
            let fleet = base().admission(policy.clone()).fleet(2).run(3);
            assert!(fleet.is_err(), "fleet accepts {policy:?}");
        }
        // Zero margin and headroom are in range: shed at, re-admit below, B.
        let mut edge = AdmissionPolicy::default();
        (edge.margin, edge.readmit_headroom) = (0.0, 0.0);
        assert!(base().admission(edge).local().is_ok());
    }
}
