//! The EUCON feedback loop: simulator + controller, one exchange per
//! sampling period.

use std::time::Instant;

mod loop_builder;

use eucon_control::{ControlError, ControlMode, RateController};
use eucon_math::Vector;
use eucon_net::TransportStats;
use eucon_sim::{DeadlineStats, EngineCounters, FaultInjector, Simulator};
use eucon_tasks::{ProcessorId, Task, TaskId, TaskSet};

use crate::admission::{
    load_on, AdmissionController, AdmissionEvent, ChurnEvent, ChurnSummary, PendingArrival,
    RejectReason, Shed,
};
use crate::distributed::NetRuntime;
use crate::metrics::{self, SeriesStats};
use crate::plant::Plant;
use crate::telemetry::{
    ChurnPeriod, LoopTelemetry, PeriodObservation, PeriodTimings, Registry, Snapshot, TelemetrySink,
};
use crate::trace::StepAnnotations;
use crate::{Trace, TraceStep};

pub use loop_builder::LoopBuilder;

/// The sampling period used throughout the paper (Table 2): 1000 time
/// units.
pub const DEFAULT_SAMPLING_PERIOD: f64 = 1000.0;

/// Fault and degradation counters accumulated by a closed-loop run (all
/// zero in a fault-free run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Processor-periods spent crashed (two processors down for one
    /// period count as 2).
    pub crashed_periods: usize,
    /// Processor-periods with a scripted sensor fault active.
    pub sensor_fault_periods: usize,
    /// Periods the controller reported [`ControlMode::Degraded`].
    pub degraded_periods: usize,
    /// Processor-periods spent with the feedback lane partitioned from
    /// the controller (no report out, no command in).
    pub partitioned_periods: usize,
}

/// Result of a closed-loop run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-period utilization and rate trace.
    pub trace: Trace,
    /// End-to-end deadline statistics over the whole run.
    pub deadlines: DeadlineStats,
    /// The utilization set points the controller tracked.
    pub set_points: Vector,
    /// Sampling periods where the controller returned an error and the
    /// previous rates were kept (0 in a healthy loop).
    pub control_errors: usize,
    /// Fault-injection and degradation counters.
    pub faults: FaultSummary,
    /// Event-engine counters accumulated by the simulator over the run
    /// (events processed, in-place reschedules, queue high-water mark).
    pub engine: EngineCounters,
    /// Final telemetry snapshot (QP solver stats, supervisor counters,
    /// phase timings, tracking-error histograms — see DESIGN.md §12).
    pub telemetry: Snapshot,
    /// Runtime-membership activity (all zero for churn-free runs).
    pub churn: ChurnSummary,
    /// Membership decisions taken over the run, in period order (empty
    /// for churn-free runs).
    pub admission_events: Vec<AdmissionEvent>,
}

impl RunResult {
    /// The consolidated metrics view over this run: windowed series
    /// statistics, the paper's acceptability criterion, settling times
    /// and the telemetry snapshot, behind one entry point.
    pub fn metrics(&self) -> RunMetrics<'_> {
        RunMetrics { result: self }
    }
}

/// Read-only metrics view over a [`RunResult`], created by
/// [`RunResult::metrics`].
///
/// # Example
///
/// ```
/// use eucon_core::{ControllerSpec, LoopBuilder};
/// use eucon_sim::SimConfig;
/// use eucon_tasks::workloads;
///
/// # fn main() -> Result<(), eucon_core::CoreError> {
/// let mut cl = LoopBuilder::new(workloads::simple())
///     .sim_config(SimConfig::constant_etf(0.5))
///     .controller(ControllerSpec::Eucon(eucon_control::MpcConfig::simple()))
///     .local()?;
/// let result = cl.run(150);
/// let m = result.metrics();
/// assert!(m.acceptable(0, 100, 150), "P1 regulated to its set point");
/// assert_eq!(m.telemetry().counter("periods"), Some(150));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RunMetrics<'a> {
    result: &'a RunResult,
}

impl RunMetrics<'_> {
    /// Mean and deviation of processor `p`'s utilization over the
    /// half-open period window `[from, to)`.
    pub fn utilization(&self, p: usize, from: usize, to: usize) -> SeriesStats {
        metrics::window(&self.result.trace.utilization_series(p), from, to)
    }

    /// The paper's acceptability criterion (§7.1) for processor `p` over
    /// `[from, to)`: mean within ±0.02 of the set point, σ below 0.05.
    pub fn acceptable(&self, p: usize, from: usize, to: usize) -> bool {
        metrics::acceptable(self.utilization(p, from, to), self.result.set_points[p])
    }

    /// First period from which processor `p` stays within `±band` of its
    /// set point for the rest of the run (see [`metrics::settling_index`]).
    pub fn settling(&self, p: usize, band: f64, from: usize) -> Option<usize> {
        metrics::settling_index(
            &self.result.trace.utilization_series(p),
            self.result.set_points[p],
            band,
            from,
        )
    }

    /// The run's final telemetry snapshot.
    pub fn telemetry(&self) -> &Snapshot {
        &self.result.telemetry
    }
}

/// The distributed feedback control loop of the paper's §4: at the end of
/// every sampling period the utilization monitors report `u(k)` over their
/// feedback lanes, the controller computes new rates, and the rate
/// modulators apply them.
///
/// # Example
///
/// ```
/// use eucon_core::{ControllerSpec, LoopBuilder};
/// use eucon_sim::SimConfig;
/// use eucon_tasks::workloads;
///
/// # fn main() -> Result<(), eucon_core::CoreError> {
/// let mut cl = LoopBuilder::new(workloads::simple())
///     .sim_config(SimConfig::constant_etf(0.5))
///     .controller(ControllerSpec::Eucon(eucon_control::MpcConfig::simple()))
///     .local()?;
/// let result = cl.run(150);
/// // EUCON converges to the 0.828 set points despite etf = 0.5.
/// let u1 = result.trace.utilization_series(0);
/// let tail = eucon_core::metrics::window(&u1, 100, 150);
/// assert!((tail.mean - 0.828).abs() < 0.03);
/// # Ok(())
/// # }
/// ```
pub struct ClosedLoop {
    /// The plant under control — the simulator by default; a telemetry
    /// replayer or a real-OS shim via the `plant(...)` builder option.
    plant: Box<dyn Plant>,
    controller: Box<dyn RateController>,
    ts: f64,
    period: usize,
    set_points: Vector,
    trace: Trace,
    control_errors: usize,
    /// Per-task discrete rate grids when actuation is quantized.
    rate_grid: Option<Vec<Vec<f64>>>,
    /// Fault injector driving scripted/stochastic faults (None = the
    /// fault-free fast path: zero per-period overhead).
    injector: Option<FaultInjector>,
    summary: FaultSummary,
    /// Whether steps are accumulated into the trace (off for long
    /// unattended runs that only need the final statistics).
    record: bool,
    /// True utilizations of the current period (persistent scratch —
    /// rewritten in place every period, never reallocated).
    u_scratch: Vector,
    /// What the monitors reported after sensor faults (persistent scratch,
    /// only touched when an injector is configured).
    sensed: Vector,
    /// The most recent period's record, rewritten in place each step.
    last: TraceStep,
    /// Metric registry + sinks, fed at the end of every period.  Boxed so
    /// the loop struct itself stays compact (it is moved by value out of
    /// the builder, and its hot fields should share cache lines).
    telemetry: Box<LoopTelemetry>,
    /// Transport lanes in distributed mode (`None` = single-process loop,
    /// which has no lanes: phases 4 and 6 hand reports and commands over
    /// directly).  Every lane delay, loss and partition acts in here.
    pub(crate) net: Option<Box<NetRuntime>>,
    /// Runtime-membership executor (`None` = static task set: the churn
    /// machinery is bypassed entirely, keeping churn-free traces
    /// bit-identical to builds without it).
    admission: Option<Box<AdmissionController>>,
    /// Controller column → sim task id.  Identity until a departure
    /// shrinks the plant model; sim slots are never recycled, so the two
    /// arities diverge under churn.  Only consulted when `admission` is
    /// engaged.
    ctrl_cols: Vec<TaskId>,
    /// Full sim-arity actuation command (persistent scratch — rewritten
    /// in place every period on the slow path, grown on admission).
    act_cmd: Vector,
}

impl std::fmt::Debug for ClosedLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosedLoop")
            .field("controller", &self.controller.name())
            .field("ts", &self.ts)
            .field("period", &self.period)
            .finish_non_exhaustive()
    }
}

impl ClosedLoop {
    /// Deprecated spelling of [`LoopBuilder::new`].
    #[deprecated(since = "0.4.0", note = "use LoopBuilder::new")]
    pub fn builder(set: TaskSet) -> LoopBuilder {
        LoopBuilder::new(set)
    }

    /// The utilization set points in force.
    pub fn set_points(&self) -> &Vector {
        &self.set_points
    }

    /// The controller's name (for reports).
    pub fn controller_name(&self) -> &'static str {
        self.controller.name()
    }

    /// Number of sampling periods executed so far.
    pub fn periods_elapsed(&self) -> usize {
        self.period
    }

    /// How many sampling periods the controller failed and the previous
    /// rates were kept (expected to stay 0).
    pub fn control_errors(&self) -> usize {
        self.control_errors
    }

    /// Borrow the live plant (read-only).
    pub fn plant(&self) -> &dyn Plant {
        &*self.plant
    }

    /// Borrow the live simulator (read-only).
    ///
    /// # Panics
    ///
    /// Panics when the loop drives a non-simulator backend (a replay
    /// trace or a real-OS plant) — use [`ClosedLoop::plant`] for
    /// backend-agnostic access.
    pub fn simulator(&self) -> &Simulator {
        self.plant
            .as_simulator()
            .expect("loop is not driving the simulator backend")
    }

    /// Aggregate transport counters over every lane endpoint (all zero
    /// for a single-process loop).
    pub fn transport_stats(&self) -> TransportStats {
        self.net
            .as_ref()
            .map(|n| n.aggregate_stats())
            .unwrap_or_default()
    }

    /// The transport backend label: `"channel"` or `"tcp"` in
    /// distributed mode, `"none"` for a single-process loop.
    pub fn backend_name(&self) -> &'static str {
        self.net.as_ref().map_or("none", |n| n.backend_name())
    }

    /// Fault and degradation counters so far.
    pub fn fault_summary(&self) -> FaultSummary {
        let mut s = self.summary;
        if let Some(inj) = &self.injector {
            s.sensor_fault_periods = inj.sensor_fault_periods();
        }
        s
    }

    /// Executes one sampling period: inject scheduled faults, advance the
    /// plant, sample the monitors, update the controller, apply the rates.
    ///
    /// Controller failures (which do not occur under normal configurations)
    /// keep the previous rates and are counted in
    /// [`ClosedLoop::control_errors`], mirroring a real deployment where a
    /// controller fault must not stop the plant.
    pub fn step(&mut self) -> &TraceStep {
        // The fault schedule indexes periods from 0.
        let k = self.period;
        self.period += 1;
        // 0. Runtime membership: due arrivals face the admission test
        // (against the previous period's utilization sample), departures
        // drain, deferred arrivals retry, the load-shedding supervisor
        // takes its decision.  A no-op without an admission controller.
        self.process_churn(k);
        let mut ann = StepAnnotations::default();
        // Phase boundaries for the span histograms — plain timestamps
        // rather than scoped guards so the hot loop stays free of borrow
        // gymnastics (`Instant::now` does not allocate).
        let t0 = Instant::now();

        // 1. Fault injection acts on the plant before the period runs;
        // partition windows (distributed loops only) act on the lanes.
        if let Some(inj) = &mut self.injector {
            ann.crashed = inj.begin_period(k);
            self.summary.crashed_periods += ann.crashed.len();
            for p in 0..self.set_points.len() {
                self.plant
                    .set_speed_override(ProcessorId(p), inj.speed_factor(k, p));
                if ann.crashed.contains(&p) {
                    self.plant.crash_processor(ProcessorId(p));
                } else {
                    self.plant.recover_processor(ProcessorId(p));
                }
            }
            let n = self.set_points.len();
            ann.partitioned
                .extend((0..n).filter(|&p| inj.lane_partitioned(k, p)));
            self.summary.partitioned_periods += ann.partitioned.len();
        }

        // 2. Run the plant and sample the true utilizations into the
        // persistent scratch (no allocation).
        let t_end = self.period as f64 * self.ts;
        self.plant.advance_to(t_end);
        let t_simulated = Instant::now();
        self.plant.sample_into(&mut self.u_scratch);

        // 3. Sensor faults corrupt what the monitors report (a crashed
        // processor's monitor dies with it and reports NaN).  Without an
        // injector the truth is the report and the scratch is untouched.
        let mut sensor_faulted = false;
        if let Some(inj) = &mut self.injector {
            self.sensed.copy_from(&self.u_scratch);
            for &p in &ann.crashed {
                self.sensed[p] = f64::NAN;
            }
            inj.corrupt_sensors(k, &mut self.sensed);
            sensor_faulted = self.sensed != self.u_scratch;
        }
        let u_report = if sensor_faulted {
            &self.sensed
        } else {
            &self.u_scratch
        };

        // 4. In distributed mode the report crosses the feedback lanes
        // (possibly delayed, lost or partitioned); `None` means it arrived
        // unchanged.
        let laned = self
            .net
            .as_mut()
            .and_then(|net| net.exchange_reports(k, u_report, &ann.partitioned));
        let u_ctrl = laned.as_ref().unwrap_or(u_report);

        // 5. Control update: the controller commits its new rates
        // internally; on error the previous rates stay in force.  Silent
        // lanes are flagged first, so a watchdog treats them like dead
        // monitors.
        let t_sampled = Instant::now();
        if let Some(net) = &self.net {
            for p in 0..self.set_points.len() {
                if net.lane_stale(p) {
                    self.controller.note_stale(p);
                }
            }
        }
        if self.controller.update(u_ctrl).is_err() {
            self.control_errors += 1;
            ann.control_error = true;
        }
        if self.controller.mode() == ControlMode::Degraded {
            ann.degraded = true;
            self.summary.degraded_periods += 1;
        }
        let t_controlled = Instant::now();

        // 6. Actuation: quantize, then cross the command lanes (if any)
        // to the rate modulators.  Without quantization, lanes or churn
        // the controller's rates reach the modulators by reference — no
        // copy, no allocation.
        if self.rate_grid.is_none() && self.net.is_none() && self.admission.is_none() {
            self.plant.apply_rates(self.controller.rates());
        } else {
            // Assemble this period's full sim-arity command into the
            // persistent scratch (no allocation in steady state).
            if self.admission.is_some() {
                // Under churn the controller may command fewer columns
                // than the sim has slots: start from the rates in force
                // (departed / unmanaged slots keep theirs) and route the
                // controller's output through the live column map.
                self.act_cmd.copy_from_slice(self.plant.rates_in_force());
                let rates = self.controller.rates();
                for (c, &tid) in self.ctrl_cols.iter().enumerate() {
                    let r = rates[c];
                    self.act_cmd[tid.0] = match &self.rate_grid {
                        Some(grid) => snap_to_grid(&grid[tid.0], r),
                        None => r,
                    };
                }
            } else {
                match &self.rate_grid {
                    Some(grid) => {
                        let rates = self.controller.rates();
                        for t in 0..rates.len() {
                            self.act_cmd[t] = snap_to_grid(&grid[t], rates[t]);
                        }
                    }
                    None => self.act_cmd.copy_from(self.controller.rates()),
                }
            }
            if let Some(net) = &mut self.net {
                // Distributed mode: the command crosses the lanes and
                // the modulators merge whatever arrived (a silent, lossy
                // or partitioned lane keeps its tasks' rates in force).
                let merged = net.actuate(
                    k,
                    &self.act_cmd,
                    self.plant.rates_in_force(),
                    &ann.partitioned,
                );
                self.plant.apply_rates(merged);
            } else {
                self.plant.apply_rates(&self.act_cmd);
            }
        }
        let t_actuated = Instant::now();

        // 7. Telemetry: fold this period's observations into the metric
        // registry (and any sinks) — controller internals via the
        // consolidated observer interface, engine counters as deltas.
        let net_obs = self.net.as_mut().map(|n| n.period_observation());
        let churn_obs = self.admission.as_ref().map(|a| ChurnPeriod {
            admitted: a.period_delta.admitted,
            rejected: a.period_delta.rejected,
            deferred: a.period_delta.deferred,
            departed: a.period_delta.departed,
            mode_changes: a.period_delta.mode_changes,
            model_updates: a.period_delta.model_updates,
            update_ns: &a.update_ns,
        });
        self.telemetry.record_period(PeriodObservation {
            period: k as u64,
            time: t_end,
            utilization: &self.u_scratch,
            set_points: &self.set_points,
            controller: self.controller.telemetry(),
            control_error: ann.control_error,
            crashed: ann.crashed.len(),
            engine: self.plant.counters(),
            timings: PeriodTimings {
                simulate_ns: (t_simulated - t0).as_nanos() as u64,
                sample_ns: (t_sampled - t_simulated).as_nanos() as u64,
                control_ns: (t_controlled - t_sampled).as_nanos() as u64,
                actuate_ns: (t_actuated - t_controlled).as_nanos() as u64,
            },
            net: net_obs,
            churn: churn_obs,
        });

        // 8. Record into the reused step: the true utilizations, plus what
        // the controller actually received whenever that differed.
        self.last.time = t_end;
        self.last.utilization.copy_from(&self.u_scratch);
        self.last.received = if laned.is_some() {
            laned
        } else if sensor_faulted {
            Some(self.sensed.clone())
        } else {
            None
        };
        self.last.rates.copy_from_slice(self.plant.rates_in_force());
        self.last.annotations = ann;
        if self.record {
            self.trace.push(self.last.clone());
            return self.trace.steps().last().expect("step just pushed");
        }
        &self.last
    }

    /// Runs `periods` sampling periods and returns the accumulated result.
    ///
    /// The recorded trace is *moved* into the result (long runs do not pay
    /// a second copy of the whole time series); the loop keeps running
    /// state, but its internal trace restarts empty.
    pub fn run(&mut self, periods: usize) -> RunResult {
        for _ in 0..periods {
            self.step();
        }
        self.telemetry.flush();
        RunResult {
            trace: std::mem::take(&mut self.trace),
            deadlines: self.plant.deadline_stats(),
            set_points: self.set_points.clone(),
            control_errors: self.control_errors,
            faults: self.fault_summary(),
            engine: self.plant.counters(),
            telemetry: self.telemetry.snapshot(),
            churn: self.churn_summary(),
            admission_events: self.admission_events().to_vec(),
        }
    }

    /// Consumes the loop, returning the final result.
    pub fn into_result(mut self) -> RunResult {
        self.run(0)
    }

    /// Read-only view of the live metric registry (counters, gauges and
    /// histograms updated every sampling period).
    pub fn telemetry(&self) -> &Registry {
        self.telemetry.registry()
    }

    /// Attaches a telemetry sink and sends it the column schema; from the
    /// next period on, the loop pushes one row per sampling period into
    /// every attached sink.  Attach before the first
    /// [`ClosedLoop::step`] to see every period.  Without sinks the
    /// metric registry alone is updated, which keeps the period step
    /// allocation-free.
    ///
    /// Sink I/O failures never stop the loop; they are counted in the
    /// `sink_errors` metric.
    pub fn telemetry_sink(&mut self, sink: impl TelemetrySink + 'static) {
        self.telemetry.add_sink(Box::new(sink));
    }

    /// Membership decisions taken so far (empty without a churn plan).
    pub fn admission_events(&self) -> &[AdmissionEvent] {
        self.admission.as_ref().map_or(&[], |a| a.log())
    }

    /// Cumulative runtime-membership activity (all zero without a churn
    /// plan).
    pub fn churn_summary(&self) -> ChurnSummary {
        self.admission
            .as_ref()
            .map(|a| a.summary())
            .unwrap_or_default()
    }

    /// Applies due membership changes at the top of period `k`: deferred
    /// arrivals retry first (FIFO), then scripted events fire in plan
    /// order, then the load-shedding supervisor reads the previous
    /// period's sample.  Steady-state periods — nothing pending, no event
    /// due, no shedding decision — do not allocate.
    fn process_churn(&mut self, k: usize) {
        let Some(mut adm) = self.admission.take() else {
            return;
        };
        adm.begin_period();
        let pending = std::mem::take(&mut adm.pending);
        for mut p in pending {
            p.age += 1;
            self.settle_arrival(&mut adm, k, p);
        }
        while adm.events.get(adm.cursor).is_some_and(|e| e.period() <= k) {
            let ev = adm.events[adm.cursor].clone();
            adm.cursor += 1;
            match ev {
                ChurnEvent::Arrival { task, .. } => {
                    let plan_id = adm.plan_map.len();
                    adm.plan_map.push(None);
                    self.settle_arrival(
                        &mut adm,
                        k,
                        PendingArrival {
                            plan_id,
                            task,
                            age: 0,
                        },
                    );
                }
                ChurnEvent::Departure { task, .. } => self.depart(&mut adm, k, task),
                ChurnEvent::ModeChange { task, scale, .. } => {
                    if let Some(tid) = adm.resolve(task) {
                        if !self.plant.is_departed(tid) {
                            self.plant.set_task_mode(tid, scale);
                            adm.log.push(AdmissionEvent::ModeChanged {
                                period: k,
                                task: tid,
                            });
                            adm.summary.mode_changes += 1;
                            adm.period_delta.mode_changes += 1;
                        }
                    }
                }
            }
        }
        match adm.supervise(&self.u_scratch, &self.set_points, &*self.plant) {
            Some(Shed::Suspend(tid)) => {
                self.plant.suspend_task(tid);
                self.drop_column(&mut adm, tid);
                adm.suspended.push(tid);
                adm.log.push(AdmissionEvent::Suspended {
                    period: k,
                    task: tid,
                });
                adm.summary.suspended += 1;
            }
            Some(Shed::Readmit(tid)) => self.readmit(&mut adm, k, tid),
            None => {}
        }
        self.admission = Some(adm);
    }

    /// Brings the most recently suspended task back at its minimum rate.
    /// A controller that refuses the column (safe mode freezes
    /// admissions) leaves the task suspended; the headroom streak has
    /// restarted, so the supervisor asks again `patience` periods on.
    fn readmit(&mut self, adm: &mut AdmissionController, k: usize, tid: TaskId) {
        let task = adm.tasks[tid.0].clone();
        // A controller that refused to drop the column still has it.
        if !self.ctrl_cols.contains(&tid) {
            if self.add_column(adm, &task, task.rate_min()).is_err() {
                return;
            }
            self.ctrl_cols.push(tid);
        }
        self.act_cmd.copy_from_slice(self.plant.rates_in_force());
        self.act_cmd[tid.0] = task.rate_min();
        self.plant.apply_rates(&self.act_cmd);
        self.plant.resume_task(tid);
        adm.suspended.pop();
        adm.log.push(AdmissionEvent::Readmitted {
            period: k,
            task: tid,
        });
        adm.summary.readmitted += 1;
    }

    /// Grows the controller's plant model by `task`'s column, starting at
    /// rate `r0` (arrivals and re-admissions).
    fn add_column(
        &mut self,
        adm: &mut AdmissionController,
        task: &Task,
        r0: f64,
    ) -> Result<(), ControlError> {
        adm.f_col.clear();
        adm.f_col
            .extend((0..self.set_points.len()).map(|p| load_on(task, p)));
        let t0 = Instant::now();
        self.controller
            .membership_admit(&adm.f_col, task.rate_min(), task.rate_max(), r0)?;
        adm.note_update(t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Shrinks the controller's plant model by `tid`'s column, migrating
    /// warm state (departures and suspensions).
    fn drop_column(&mut self, adm: &mut AdmissionController, tid: TaskId) {
        if let Some(col) = self.ctrl_cols.iter().position(|&t| t == tid) {
            adm.keep_scratch.clear();
            adm.keep_scratch
                .extend(self.ctrl_cols.iter().map(|&t| t != tid));
            let t0 = Instant::now();
            if self.controller.membership_retain(&adm.keep_scratch).is_ok() {
                self.ctrl_cols.remove(col);
                adm.note_update(t0.elapsed().as_nanos() as u64);
            }
            // Controllers without a per-task plant model keep commanding
            // the dormant slot; the plant simply ignores it.
        }
    }

    /// Decides one (possibly deferred) arrival: admit it, keep deferring,
    /// or reject once the deferral limit is exhausted.
    fn settle_arrival(&mut self, adm: &mut AdmissionController, k: usize, p: PendingArrival) {
        match self.try_admit(adm, &p.task) {
            Ok(tid) => {
                adm.plan_map[p.plan_id] = Some(tid);
                adm.log.push(AdmissionEvent::Admitted {
                    period: k,
                    task: tid,
                });
                adm.summary.admitted += 1;
                adm.period_delta.admitted += 1;
            }
            Err((_, deferrable)) if deferrable && p.age < adm.policy.defer_limit => {
                if p.age == 0 {
                    adm.log.push(AdmissionEvent::Deferred { period: k });
                }
                adm.summary.deferred += 1;
                adm.period_delta.deferred += 1;
                adm.pending.push(p);
            }
            Err((reason, _)) => {
                adm.log.push(AdmissionEvent::Rejected { period: k, reason });
                adm.summary.rejected += 1;
                adm.period_delta.rejected += 1;
            }
        }
    }

    /// Runs the admission test for one arrival and, on success, grows the
    /// controller's plant model, the simulator, and every per-task table
    /// the loop keeps.  The second member of the error is whether the
    /// rejection is transient (worth deferring).
    fn try_admit(
        &mut self,
        adm: &mut AdmissionController,
        task: &Task,
    ) -> Result<TaskId, (RejectReason, bool)> {
        // Safe mode freezes admissions until the primary law re-engages.
        if self.controller.mode() == ControlMode::Degraded {
            return Err((RejectReason::Degraded, true));
        }
        // Utilization-threshold admission test (the paper's §6.2 pointer):
        // project the arrival's estimated load at its starting rate on top
        // of the previous period's utilization sample.
        let r0 = task.initial_rate();
        for p in 0..self.set_points.len() {
            if self.u_scratch[p] + load_on(task, p) * r0
                > adm.policy.admit_threshold * self.set_points[p]
            {
                return Err((RejectReason::OverBudget, true));
            }
        }
        // Grow the controller first — a task nobody can control must not
        // enter the plant.  Controllers without a per-task plant model
        // (OPEN, PID) refuse, which rejects the arrival for good.
        self.add_column(adm, task, r0)
            .map_err(|_| (RejectReason::ControllerRefused, false))?;
        let tid = self
            .plant
            .admit_task(task.clone())
            .expect("churn plan validated at build time");
        self.ctrl_cols.push(tid);
        adm.tasks.push(task.clone());
        if let Some(grid) = &mut self.rate_grid {
            let levels = grid[0].len();
            grid.push(rate_grid(task, levels));
        }
        let started = self.plant.rates_in_force()[tid.0];
        self.last.rates.push(started);
        self.act_cmd.push(started);
        if let Some(net) = &mut self.net {
            net.add_task(task.subtasks()[0].processor.0);
        }
        Ok(tid)
    }

    /// Executes a departure: the plant drains the task's in-flight jobs,
    /// and the controller shrinks its plant model (migrating warm state)
    /// if it has one.
    fn depart(&mut self, adm: &mut AdmissionController, k: usize, plan_task: TaskId) {
        let Some(tid) = adm.resolve(plan_task) else {
            return; // a rejected arrival: nothing to depart
        };
        if self.plant.is_departed(tid) {
            return; // idempotent
        }
        self.plant.depart_task(tid);
        // A suspended task lost its column when it was shed; departing, it
        // must also leave the re-admission stack.
        adm.suspended.retain(|&t| t != tid);
        self.drop_column(adm, tid);
        adm.log.push(AdmissionEvent::Departed {
            period: k,
            task: tid,
        });
        adm.summary.departed += 1;
        adm.period_delta.departed += 1;
    }
}

/// The `levels` discrete rates a quantized actuator offers `task`: a
/// geometric grid, which covers wide rate ranges evenly in log space
/// (rate ranges span 10-20x in the paper).
fn rate_grid(task: &Task, levels: usize) -> Vec<f64> {
    let (lo, hi) = (task.rate_min(), task.rate_max());
    (0..levels)
        .map(|i| lo * (hi / lo).powf(i as f64 / (levels - 1) as f64))
        .collect()
}

/// Nearest grid value to `r` (grid is sorted ascending).
fn snap_to_grid(grid: &[f64], r: f64) -> f64 {
    grid.iter()
        .copied()
        .min_by(|a, b| (a - r).abs().total_cmp(&(b - r).abs()))
        .expect("grids have at least two levels")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ControllerSpec;
    use eucon_control::{ControlError, MpcConfig, MpcController};
    use eucon_sim::{FaultPlan, SimConfig};
    use eucon_tasks::workloads;

    fn eucon_loop(etf: f64) -> ClosedLoop {
        LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(etf))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()))
            .local()
            .unwrap()
    }

    #[test]
    fn eucon_converges_on_simple_at_half_load() {
        // Figure 3(a): etf = 0.5 → both processors reach 0.828.
        let mut cl = eucon_loop(0.5);
        let result = cl.run(150);
        for p in 0..2 {
            let series = result.trace.utilization_series(p);
            let tail = metrics::window(&series, 100, 150);
            assert!(
                (tail.mean - 0.828).abs() < 0.03,
                "P{} mean {:.3} should approach 0.828",
                p + 1,
                tail.mean
            );
            assert!(
                tail.std_dev < 0.05,
                "P{} too oscillatory: {:.3}",
                p + 1,
                tail.std_dev
            );
        }
        assert_eq!(cl.control_errors(), 0);
    }

    #[test]
    fn eucon_diverges_at_etf_seven() {
        // Figure 3(b): etf = 7 exceeds the stability bound → no
        // convergence (oscillation / saturation).
        let mut cl = eucon_loop(7.0);
        let result = cl.run(150);
        let series = result.trace.utilization_series(0);
        let tail = metrics::window(&series, 100, 150);
        assert!(
            !metrics::acceptable(tail, 0.828),
            "etf = 7 must not satisfy the acceptability criterion (mean {:.3}, σ {:.3})",
            tail.mean,
            tail.std_dev
        );
    }

    #[test]
    fn open_loop_tracks_etf_linearly() {
        let mut cl = LoopBuilder::new(workloads::medium())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Open)
            .local()
            .unwrap();
        let result = cl.run(40);
        let series = result.trace.utilization_series(0);
        let tail = metrics::window(&series, 20, 40);
        // OPEN at etf 0.5 sits at half the set point.
        let b = result.set_points[0];
        assert!(
            (tail.mean - 0.5 * b).abs() < 0.05,
            "got {:.3}, want {:.3}",
            tail.mean,
            0.5 * b
        );
    }

    #[test]
    fn pid_baseline_runs() {
        let mut cl = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Pid { kp: 0.5, ki: 0.05 })
            .local()
            .unwrap();
        let result = cl.run(60);
        assert_eq!(result.trace.len(), 60);
        assert_eq!(cl.controller_name(), "PID");
    }

    #[test]
    fn custom_set_points_are_tracked() {
        let mut cl = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()))
            .set_points(Vector::from_slice(&[0.5, 0.6]))
            .local()
            .unwrap();
        let result = cl.run(120);
        let u1 = result.trace.utilization_series(0);
        let u2 = result.trace.utilization_series(1);
        assert!((metrics::window(&u1, 80, 120).mean - 0.5).abs() < 0.03);
        assert!((metrics::window(&u2, 80, 120).mean - 0.6).abs() < 0.03);
    }

    #[test]
    fn deadlines_met_once_converged() {
        let mut cl = eucon_loop(0.5);
        let result = cl.run(100);
        // Soft deadlines: the overwhelming majority must be met once the
        // utilization sits at the RMS bound.
        assert!(
            result.deadlines.miss_ratio() < 0.05,
            "miss ratio {:.4}",
            result.deadlines.miss_ratio()
        );
    }

    /// A controller that fails after a few periods, to exercise the
    /// loop's fault handling.
    struct FlakyController {
        inner: MpcController,
        fail_after: usize,
        calls: usize,
    }

    impl RateController for FlakyController {
        fn update(&mut self, u: &Vector) -> Result<(), ControlError> {
            self.calls += 1;
            if self.calls > self.fail_after {
                return Err(ControlError::DimensionMismatch("injected fault".into()));
            }
            self.inner.step(u).map(|_| ())
        }

        fn rates(&self) -> &Vector {
            self.inner.rates()
        }

        fn name(&self) -> &'static str {
            "flaky"
        }
    }

    #[test]
    fn controller_faults_keep_the_plant_running() {
        use eucon_tasks::rms_set_points;
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let inner = MpcController::new(&set, b, MpcConfig::simple()).unwrap();
        let flaky: Box<dyn RateController> = Box::new(FlakyController {
            inner,
            fail_after: 30,
            calls: 0,
        });
        let mut cl = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .finish(Some(flaky), None)
            .unwrap();
        let result = cl.run(80);
        assert_eq!(
            cl.control_errors(),
            50,
            "every post-fault period is counted"
        );
        assert_eq!(cl.controller_name(), "flaky");
        // The plant keeps running on the last good rates: utilization
        // stays pinned near wherever the loop had converged to.
        let tail = crate::metrics::window(&result.trace.utilization_series(0), 60, 80);
        assert!(
            tail.mean > 0.5,
            "plant still executing after controller death"
        );
        let last = result.trace.steps().last().unwrap();
        let at_30 = &result.trace.steps()[30];
        assert!(
            last.rates.approx_eq(&at_30.rates, 1e-12),
            "rates frozen at the fault"
        );
    }

    #[test]
    fn quantized_rates_snap_to_grid_and_still_regulate() {
        let mut cl = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()))
            .quantized_rates(16)
            .local()
            .unwrap();
        let result = cl.run(150);
        // All actuated rates lie on the 16-level geometric grid.
        let set = workloads::simple();
        for step in result.trace.steps() {
            for (t, task) in set.tasks().iter().enumerate() {
                let lo = task.rate_min();
                let hi = task.rate_max();
                let on_grid = (0..16).any(|i| {
                    let g = lo * (hi / lo).powf(i as f64 / 15.0);
                    (step.rates[t] - g).abs() < 1e-12
                });
                assert!(on_grid, "rate {} of T{} off grid", step.rates[t], t + 1);
            }
        }
        // Regulation survives quantization, with some quantization noise.
        let s = crate::metrics::window(&result.trace.utilization_series(0), 100, 150);
        assert!((s.mean - 0.8284).abs() < 0.06, "mean {:.3}", s.mean);
    }

    #[test]
    fn coarse_quantization_increases_oscillation() {
        let sigma = |levels: Option<usize>| {
            let mut b = LoopBuilder::new(workloads::simple())
                .sim_config(SimConfig::constant_etf(0.5))
                .controller(ControllerSpec::Eucon(MpcConfig::simple()));
            if let Some(l) = levels {
                b = b.quantized_rates(l);
            }
            let result = b.local().unwrap().run(150);
            crate::metrics::window(&result.trace.utilization_series(0), 100, 150).std_dev
        };
        let continuous = sigma(None);
        let coarse = sigma(Some(4));
        assert!(
            coarse > continuous,
            "4-level actuation must be noisier: {coarse:.4} vs {continuous:.4}"
        );
    }

    #[test]
    fn telemetry_tracks_qp_and_engine_activity() {
        let mut cl = eucon_loop(0.5);
        let result = cl.run(60);
        let snap = &result.telemetry;
        assert_eq!(snap.counter("periods"), Some(60));
        assert_eq!(snap.counter("control_errors"), Some(0));
        // The engine counters flow through period deltas and must agree
        // with the cumulative totals the simulator reports.
        assert_eq!(snap.counter("engine_events"), Some(result.engine.events));
        // Converged: tracking error collapses and the transient's
        // constrained periods solve from a warm active set.
        let track = snap.histogram("tracking_error").unwrap();
        assert_eq!(track.count as usize, 60 * 2);
        assert_eq!(snap.histogram("qp_iterations_hist").unwrap().count, 60);
        assert!(snap.counter("qp_warm_hits").unwrap() > 0);
        assert_eq!(snap.counter("qp_cold_retries"), Some(0));
        // All four phase spans were timed every period.
        for h in [
            "span_simulate_ns",
            "span_sample_ns",
            "span_control_ns",
            "span_actuate_ns",
        ] {
            assert_eq!(snap.histogram(h).unwrap().count, 60, "{h}");
        }
        // The live registry view agrees with the snapshot.
        assert!(!cl.telemetry().columns().is_empty());
    }

    #[test]
    fn telemetry_counts_supervisor_transitions_under_crash() {
        let mut cl = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::SupervisedEucon {
                mpc: MpcConfig::simple(),
                supervisor: Default::default(),
            })
            .faults(FaultPlan::none().crash(1, 10, 20))
            .local()
            .unwrap();
        let result = cl.run(40);
        let snap = &result.telemetry;
        assert_eq!(snap.counter("crashed_periods"), Some(10));
        assert!(snap.counter("degraded_periods").unwrap() >= 10);
        assert!(
            snap.counter("mode_transitions").unwrap() >= 2,
            "a trip and a re-engagement"
        );
        assert_eq!(
            snap.counter("degraded_periods").unwrap() as usize,
            result.faults.degraded_periods
        );
        // The supervisor's cumulative watchdog counters surface as gauges.
        assert!(snap.gauge("rejected_samples").unwrap() >= 1.0);
        assert!(snap.gauge("supervisor_degradations").unwrap() >= 1.0);
        assert!(snap.gauge("supervisor_reengagements").unwrap() >= 1.0);
    }

    #[test]
    fn ring_sink_sees_per_period_rows() {
        use crate::telemetry::RingBufferSink;
        let mut cl = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()))
            .local()
            .unwrap();
        cl.telemetry_sink(RingBufferSink::new(4));
        cl.run(10);
        // The attached sink received the schema and rows; its state is
        // observable through the loop's registry totals.
        assert_eq!(
            cl.telemetry()
                .columns()
                .iter()
                .filter(|c| *c == "periods")
                .count(),
            1
        );
        let snap = cl.telemetry().snapshot();
        assert_eq!(snap.counter("periods"), Some(10));
        assert_eq!(snap.counter("sink_errors"), Some(0));
    }

    #[test]
    fn run_metrics_view_matches_direct_metrics() {
        let mut cl = eucon_loop(0.5);
        let result = cl.run(150);
        let m = result.metrics();
        let direct = crate::metrics::window(&result.trace.utilization_series(0), 100, 150);
        assert_eq!(m.utilization(0, 100, 150), direct);
        assert!(m.acceptable(0, 100, 150));
        assert!(m.settling(0, 0.05, 0).is_some());
        assert_eq!(m.telemetry().counter("periods"), Some(150));
    }

    #[test]
    fn crash_is_annotated_and_counted() {
        let mut cl = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::SupervisedEucon {
                mpc: MpcConfig::simple(),
                supervisor: Default::default(),
            })
            .faults(FaultPlan::none().crash(1, 10, 20))
            .local()
            .unwrap();
        let result = cl.run(40);
        assert_eq!(result.faults.crashed_periods, 10);
        let steps = result.trace.steps();
        assert_eq!(steps[10].annotations.crashed, vec![1]);
        assert!(
            steps[10].seen()[1].is_nan(),
            "crashed monitor reports NaN to the controller"
        );
        assert!(
            steps[10].utilization[1].is_finite(),
            "the true trace stays physical"
        );
        assert!(steps[25].annotations.crashed.is_empty());
        assert_eq!(result.control_errors, 0, "supervisor absorbs the outage");
    }

    #[test]
    fn unsupervised_mpc_accumulates_errors_under_sensor_nan() {
        use eucon_sim::SensorFaultKind;
        let mut cl = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()))
            .faults(FaultPlan::none().sensor(0, 20, 30, SensorFaultKind::NaN))
            .local()
            .unwrap();
        let result = cl.run(40);
        assert_eq!(
            result.control_errors, 10,
            "raw MPC rejects every NaN period"
        );
        assert!(result.trace.steps()[20].annotations.control_error);
        // Rejection (satellite a) protects the optimizer: once the sensor
        // heals the loop keeps regulating instead of being NaN-poisoned.
        let tail = crate::metrics::window(&result.trace.utilization_series(0), 35, 40);
        assert!(tail.mean.is_finite());
        assert!(result.trace.steps().last().unwrap().rates.is_finite());
    }

    #[test]
    fn fault_free_runs_record_no_received_vector() {
        let mut cl = eucon_loop(0.5);
        let result = cl.run(20);
        assert!(result.trace.steps().iter().all(|s| s.received.is_none()));
        assert!(result.trace.steps().iter().all(|s| !s.annotations.any()));
        assert_eq!(result.faults, FaultSummary::default());
    }

    #[test]
    fn step_returns_latest() {
        let mut cl = eucon_loop(1.0);
        let s = cl.step();
        assert_eq!(s.time, 1000.0);
        assert_eq!(cl.periods_elapsed(), 1);
    }
}
