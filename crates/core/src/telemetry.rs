//! Closed-loop observability: one metric registry per loop, updated every
//! sampling period, exported through pluggable sinks.
//!
//! The metric layer itself lives in the `eucon-telemetry` crate (fixed
//! registry, histograms, sinks) and is re-exported here; this module adds
//! the loop-specific wiring — which counters, gauges and histograms a
//! [`ClosedLoop`] maintains and how the per-period observations flow into
//! them.  The registry is declared once at [`LoopBuilder::local`] time and
//! updated strictly in place, so the loop's zero-allocations-per-period
//! guarantee holds with telemetry at the default level (registry only, no
//! file sinks).
//!
//! See DESIGN.md §12 for the architecture and the exported schema.
//!
//! [`ClosedLoop`]: crate::ClosedLoop
//! [`LoopBuilder::local`]: crate::LoopBuilder::local

pub use eucon_telemetry::{
    CsvSink, Histogram, HistogramSummary, JsonlSink, MetricValue, Registry, RingBufferSink,
    Snapshot, TelemetrySink,
};

use eucon_control::ControllerTelemetry;
use eucon_math::Vector;
use eucon_sim::EngineCounters;
use eucon_telemetry::{CounterId, GaugeId, HistogramId, RegistryBuilder};

/// Wall-clock nanoseconds spent in each phase of one sampling period.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PeriodTimings {
    /// Fault injection + advancing the plant to the period boundary.
    pub simulate_ns: u64,
    /// Sampling the monitors, sensor corruption, feedback lanes.
    pub sample_ns: u64,
    /// The controller update (includes the QP solve).
    pub control_ns: u64,
    /// Quantization and the command lanes.
    pub actuate_ns: u64,
}

/// One sampling period's transport activity in a distributed loop —
/// per-period deltas plus the period's end-to-end lane round-trip
/// samples.  Absent (`None`) in a single-process loop; the net metrics
/// then stay at zero.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NetPeriod<'a> {
    /// Frames accepted for sending this period (reports + commands).
    pub sent: u64,
    /// Frames delivered this period.
    pub received: u64,
    /// Frames lost this period (middleware losses, backpressure
    /// evictions, send timeouts, partition drops).
    pub lost: u64,
    /// Connections re-established this period.
    pub reconnects: u64,
    /// Malformed frames encountered this period.
    pub decode_errors: u64,
    /// Lanes whose report did not arrive, making the controller reuse
    /// the last delivered value.
    pub stale_reuse: u64,
    /// End-to-end lane round trips completed this period (report sent →
    /// matching rate command received), in nanoseconds.
    pub rtt_ns: &'a [u64],
    /// Wall time of the report exchange (send, gate tick, drain).
    pub exchange_reports_ns: u64,
    /// Wall time of the command exchange (0 when no command crossed the
    /// lanes this period).
    pub exchange_commands_ns: u64,
    /// A receive window closed with a frame written to a transport still
    /// unseen — a genuinely late frame, never a modelled loss.
    pub recv_window_expired: bool,
}

/// One sampling period's runtime-membership activity — per-period deltas
/// plus the period's plant-model update latencies.  Absent (`None`) in a
/// loop without a churn plan; the churn metrics then stay at zero.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChurnPeriod<'a> {
    /// Arrivals admitted this period.
    pub admitted: u64,
    /// Arrivals rejected this period.
    pub rejected: u64,
    /// Arrivals deferred this period.
    pub deferred: u64,
    /// Tasks departed this period.
    pub departed: u64,
    /// Mode changes applied this period.
    pub mode_changes: u64,
    /// Plant-model membership updates this period.
    pub model_updates: u64,
    /// Latency of each plant-model membership update this period, in
    /// nanoseconds.
    pub update_ns: &'a [u64],
}

/// Everything the loop observed in one sampling period, handed to
/// [`LoopTelemetry::record_period`] as one bundle.
pub(crate) struct PeriodObservation<'a> {
    /// Sampling-period index (0-based).
    pub period: u64,
    /// Simulation time at the end of the period.
    pub time: f64,
    /// True per-processor utilizations.
    pub utilization: &'a Vector,
    /// The set points the controller tracks.
    pub set_points: &'a Vector,
    /// The controller's self-reported internals.
    pub controller: ControllerTelemetry,
    /// The controller update returned an error this period.
    pub control_error: bool,
    /// Processors crashed this period.
    pub crashed: usize,
    /// The engine's cumulative counters (deltas derived here).
    pub engine: EngineCounters,
    /// Phase timings for the span histograms.
    pub timings: PeriodTimings,
    /// Transport activity (distributed loops only).
    pub net: Option<NetPeriod<'a>>,
    /// Runtime-membership activity (loops with a churn plan only).
    pub churn: Option<ChurnPeriod<'a>>,
}

/// The closed loop's metric registry plus its sinks: declared at build,
/// fed once per period, flushed at the end of a run.
pub(crate) struct LoopTelemetry {
    registry: Registry,
    sinks: Vec<Box<dyn TelemetrySink>>,
    // Counters (cumulative over the run).
    c_periods: CounterId,
    c_control_errors: CounterId,
    c_degraded: CounterId,
    c_mode_transitions: CounterId,
    c_crashed: CounterId,
    c_warm_hits: CounterId,
    c_cold_retries: CounterId,
    c_relaxed: CounterId,
    c_sink_errors: CounterId,
    c_engine_events: CounterId,
    c_engine_resched: CounterId,
    c_engine_guard: CounterId,
    c_engine_stale: CounterId,
    // Transport counters (all zero in a single-process loop).
    c_frames_sent: CounterId,
    c_frames_received: CounterId,
    c_frames_lost: CounterId,
    c_lane_reconnects: CounterId,
    c_frame_decode_errors: CounterId,
    c_stale_reuse: CounterId,
    c_window_expired: CounterId,
    // Runtime-membership counters (all zero in a churn-free loop).
    c_tasks_admitted: CounterId,
    c_tasks_rejected: CounterId,
    c_tasks_deferred: CounterId,
    c_tasks_departed: CounterId,
    c_task_mode_changes: CounterId,
    c_model_updates: CounterId,
    // Gauges (the period's point-in-time values).
    g_u: Vec<GaugeId>,
    g_err: Vec<GaugeId>,
    g_qp_iterations: GaugeId,
    g_active_set: GaugeId,
    g_active_churn: GaugeId,
    g_stale_max: GaugeId,
    g_queue_peak: GaugeId,
    // The supervisor's own cumulative counters arrive pre-accumulated in
    // [`ControllerTelemetry`], so they export as gauges, not counters.
    g_rejected: GaugeId,
    g_degradations: GaugeId,
    g_reengagements: GaugeId,
    // Histograms (distributions over the run).
    h_tracking: HistogramId,
    h_overshoot: HistogramId,
    h_qp_iters: HistogramId,
    h_qp_warm_retained: HistogramId,
    h_simulate: HistogramId,
    h_sample: HistogramId,
    h_control: HistogramId,
    h_actuate: HistogramId,
    h_lane_rtt: HistogramId,
    h_exchange_reports: HistogramId,
    h_exchange_commands: HistogramId,
    h_model_update: HistogramId,
    // State for turning cumulative inputs into per-period increments.
    last_engine: EngineCounters,
    was_degraded: bool,
}

/// Span-histogram bounds: 1 µs .. 100 ms in decades (nanoseconds).
const SPAN_BOUNDS: [f64; 6] = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8];
/// Utilization-error bounds: the paper's ±0.02 acceptability band sits in
/// the second bucket.
const ERROR_BOUNDS: [f64; 6] = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5];
/// QP active-set iteration bounds (a warm-started steady state solves in
/// 0 iterations).
const ITER_BOUNDS: [f64; 7] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// `{prefix}{idx}` without the `format!` machinery — registries are
/// rebuilt per loop, and benchmark iterations rebuild the loop.
fn indexed_name(prefix: &str, idx: usize) -> String {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut v = idx;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let tail = std::str::from_utf8(&digits[i..]).expect("ascii digits");
    let mut s = String::with_capacity(prefix.len() + tail.len());
    s.push_str(prefix);
    s.push_str(tail);
    s
}

impl LoopTelemetry {
    /// Declares the full metric set for a loop over `num_procs`
    /// processors.  All storage is allocated here, once.
    pub(crate) fn new(num_procs: usize) -> Self {
        let mut b = RegistryBuilder::new();
        let c_periods = b.counter("periods");
        let c_control_errors = b.counter("control_errors");
        let c_degraded = b.counter("degraded_periods");
        let c_mode_transitions = b.counter("mode_transitions");
        let c_crashed = b.counter("crashed_periods");
        let c_warm_hits = b.counter("qp_warm_hits");
        let c_cold_retries = b.counter("qp_cold_retries");
        let c_relaxed = b.counter("qp_relaxed");
        let c_sink_errors = b.counter("sink_errors");
        let c_engine_events = b.counter("engine_events");
        let c_engine_resched = b.counter("engine_reschedules");
        let c_engine_guard = b.counter("engine_guard_deferrals");
        let c_engine_stale = b.counter("engine_stale_wakeups");
        let c_frames_sent = b.counter("frames_sent");
        let c_frames_received = b.counter("frames_received");
        let c_frames_lost = b.counter("frames_lost");
        let c_lane_reconnects = b.counter("lane_reconnects");
        let c_frame_decode_errors = b.counter("frame_decode_errors");
        let c_stale_reuse = b.counter("stale_report_reuse");
        let c_window_expired = b.counter("recv_window_expired");
        let c_tasks_admitted = b.counter("tasks_admitted");
        let c_tasks_rejected = b.counter("tasks_rejected");
        let c_tasks_deferred = b.counter("tasks_deferred");
        let c_tasks_departed = b.counter("tasks_departed");
        let c_task_mode_changes = b.counter("task_mode_changes");
        let c_model_updates = b.counter("model_updates");
        let g_u = (0..num_procs)
            .map(|p| b.gauge(indexed_name("u_p", p + 1)))
            .collect();
        let g_err = (0..num_procs)
            .map(|p| b.gauge(indexed_name("err_p", p + 1)))
            .collect();
        let g_qp_iterations = b.gauge("qp_iterations");
        let g_active_set = b.gauge("qp_active_set");
        let g_active_churn = b.gauge("qp_active_churn");
        let g_stale_max = b.gauge("stale_max");
        let g_queue_peak = b.gauge("engine_queue_peak");
        let g_rejected = b.gauge("rejected_samples");
        let g_degradations = b.gauge("supervisor_degradations");
        let g_reengagements = b.gauge("supervisor_reengagements");
        let h_tracking = b.histogram("tracking_error", &ERROR_BOUNDS);
        let h_overshoot = b.histogram("overshoot", &ERROR_BOUNDS);
        let h_qp_iters = b.histogram("qp_iterations_hist", &ITER_BOUNDS);
        let h_qp_warm_retained = b.histogram("qp_warm_retained", &ITER_BOUNDS);
        let h_simulate = b.histogram("span_simulate_ns", &SPAN_BOUNDS);
        let h_sample = b.histogram("span_sample_ns", &SPAN_BOUNDS);
        let h_control = b.histogram("span_control_ns", &SPAN_BOUNDS);
        let h_actuate = b.histogram("span_actuate_ns", &SPAN_BOUNDS);
        let h_lane_rtt = b.histogram("lane_rtt_ns", &SPAN_BOUNDS);
        let h_exchange_reports = b.histogram("span_exchange_reports_ns", &SPAN_BOUNDS);
        let h_exchange_commands = b.histogram("span_exchange_commands_ns", &SPAN_BOUNDS);
        let h_model_update = b.histogram("model_update_ns", &SPAN_BOUNDS);
        LoopTelemetry {
            registry: b.build(),
            sinks: Vec::new(),
            c_periods,
            c_control_errors,
            c_degraded,
            c_mode_transitions,
            c_crashed,
            c_warm_hits,
            c_cold_retries,
            c_relaxed,
            c_sink_errors,
            c_engine_events,
            c_engine_resched,
            c_engine_guard,
            c_engine_stale,
            c_frames_sent,
            c_frames_received,
            c_frames_lost,
            c_lane_reconnects,
            c_frame_decode_errors,
            c_stale_reuse,
            c_window_expired,
            c_tasks_admitted,
            c_tasks_rejected,
            c_tasks_deferred,
            c_tasks_departed,
            c_task_mode_changes,
            c_model_updates,
            g_u,
            g_err,
            g_qp_iterations,
            g_active_set,
            g_active_churn,
            g_stale_max,
            g_queue_peak,
            g_rejected,
            g_degradations,
            g_reengagements,
            h_tracking,
            h_overshoot,
            h_qp_iters,
            h_qp_warm_retained,
            h_simulate,
            h_sample,
            h_control,
            h_actuate,
            h_lane_rtt,
            h_exchange_reports,
            h_exchange_commands,
            h_model_update,
            last_engine: EngineCounters::default(),
            was_degraded: false,
        }
    }

    /// Attaches a sink and sends it the schema.  Sink failures never fail
    /// the loop — they are counted in `sink_errors`.
    pub(crate) fn add_sink(&mut self, mut sink: Box<dyn TelemetrySink>) {
        if sink.begin(self.registry.columns()).is_err() {
            self.registry.inc(self.c_sink_errors);
        }
        self.sinks.push(sink);
    }

    /// Folds one period's observation into the registry and pushes the
    /// export row to every sink.  Allocation-free (the sinks installed by
    /// default — none — and the registry both update in place).
    pub(crate) fn record_period(&mut self, obs: PeriodObservation<'_>) {
        let reg = &mut self.registry;
        reg.inc(self.c_periods);
        if obs.control_error {
            reg.inc(self.c_control_errors);
        }
        let ct = obs.controller;
        if ct.degraded {
            reg.inc(self.c_degraded);
        }
        if ct.degraded != self.was_degraded {
            reg.inc(self.c_mode_transitions);
            self.was_degraded = ct.degraded;
        }
        reg.add(self.c_crashed, obs.crashed as u64);
        if ct.warm_start {
            reg.inc(self.c_warm_hits);
        }
        if ct.cold_retry {
            reg.inc(self.c_cold_retries);
        }
        if ct.relaxed_utilization {
            reg.inc(self.c_relaxed);
        }
        let d = obs.engine.delta(&self.last_engine);
        self.last_engine = obs.engine;
        reg.add(self.c_engine_events, d.events);
        reg.add(self.c_engine_resched, d.reschedules);
        reg.add(self.c_engine_guard, d.guard_deferrals);
        reg.add(self.c_engine_stale, d.stale_wakeups);
        for p in 0..self.g_u.len() {
            let u = obs.utilization[p];
            let e = u - obs.set_points[p];
            reg.set(self.g_u[p], u);
            reg.set(self.g_err[p], e);
            reg.observe(self.h_tracking, e.abs());
            reg.observe(self.h_overshoot, e.max(0.0));
        }
        reg.set(self.g_qp_iterations, ct.qp_iterations as f64);
        reg.set(self.g_active_set, ct.active_set_size as f64);
        reg.set(self.g_active_churn, ct.active_churn as f64);
        reg.set(self.g_stale_max, ct.stale_max as f64);
        reg.set(self.g_queue_peak, obs.engine.queue_peak as f64);
        reg.set(self.g_rejected, ct.rejected_samples as f64);
        reg.set(self.g_degradations, ct.degradations as f64);
        reg.set(self.g_reengagements, ct.reengagements as f64);
        reg.observe(self.h_qp_iters, ct.qp_iterations as f64);
        reg.observe(self.h_qp_warm_retained, ct.warm_retained as f64);
        reg.observe(self.h_simulate, obs.timings.simulate_ns as f64);
        reg.observe(self.h_sample, obs.timings.sample_ns as f64);
        reg.observe(self.h_control, obs.timings.control_ns as f64);
        reg.observe(self.h_actuate, obs.timings.actuate_ns as f64);
        if let Some(net) = obs.net {
            reg.add(self.c_frames_sent, net.sent);
            reg.add(self.c_frames_received, net.received);
            reg.add(self.c_frames_lost, net.lost);
            reg.add(self.c_lane_reconnects, net.reconnects);
            reg.add(self.c_frame_decode_errors, net.decode_errors);
            reg.add(self.c_stale_reuse, net.stale_reuse);
            reg.add(self.c_window_expired, u64::from(net.recv_window_expired));
            reg.observe(self.h_exchange_reports, net.exchange_reports_ns as f64);
            if net.exchange_commands_ns > 0 {
                reg.observe(self.h_exchange_commands, net.exchange_commands_ns as f64);
            }
            for &rtt in net.rtt_ns {
                reg.observe(self.h_lane_rtt, rtt as f64);
            }
        }
        if let Some(ch) = obs.churn {
            reg.add(self.c_tasks_admitted, ch.admitted);
            reg.add(self.c_tasks_rejected, ch.rejected);
            reg.add(self.c_tasks_deferred, ch.deferred);
            reg.add(self.c_tasks_departed, ch.departed);
            reg.add(self.c_task_mode_changes, ch.mode_changes);
            reg.add(self.c_model_updates, ch.model_updates);
            for &ns in ch.update_ns {
                reg.observe(self.h_model_update, ns as f64);
            }
        }
        if !self.sinks.is_empty() {
            let row = self.registry.export_row();
            let mut errs = 0u64;
            for sink in &mut self.sinks {
                if sink.record(obs.period, obs.time, row).is_err() {
                    errs += 1;
                }
            }
            if errs > 0 {
                self.registry.add(self.c_sink_errors, errs);
            }
        }
    }

    /// Flushes every sink (safe to call more than once).
    pub(crate) fn flush(&mut self) {
        let mut errs = 0u64;
        for sink in &mut self.sinks {
            if sink.finish().is_err() {
                errs += 1;
            }
        }
        if errs > 0 {
            self.registry.add(self.c_sink_errors, errs);
        }
    }

    /// Read-only view of the live registry.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Owned snapshot of the current metric state.
    pub(crate) fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs<'a>(u: &'a Vector, b: &'a Vector, period: u64) -> PeriodObservation<'a> {
        PeriodObservation {
            period,
            time: 1000.0 * (period + 1) as f64,
            utilization: u,
            set_points: b,
            controller: ControllerTelemetry::default(),
            control_error: false,
            crashed: 0,
            engine: EngineCounters::default(),
            timings: PeriodTimings::default(),
            net: None,
            churn: None,
        }
    }

    #[test]
    fn cumulative_inputs_become_per_period_increments() {
        let u = Vector::from_slice(&[0.8, 0.9]);
        let b = Vector::from_slice(&[0.828, 0.828]);
        let mut lt = LoopTelemetry::new(2);
        let mut o = obs(&u, &b, 0);
        o.engine.events = 100;
        lt.record_period(o);
        let mut o = obs(&u, &b, 1);
        o.engine.events = 150;
        lt.record_period(o);
        let snap = lt.snapshot();
        assert_eq!(snap.counter("periods"), Some(2));
        // Cumulative totals survive as cumulative counters, not as
        // double-counted sums of the raw inputs (100 + 150).
        assert_eq!(snap.counter("engine_events"), Some(150));
        assert_eq!(snap.gauge("u_p2"), Some(0.9));
        let t = snap.histogram("tracking_error").unwrap();
        assert_eq!(t.count, 4, "one observation per processor per period");
    }

    #[test]
    fn mode_transitions_count_edges_not_periods() {
        let u = Vector::from_slice(&[0.8]);
        let b = Vector::from_slice(&[0.828]);
        let mut lt = LoopTelemetry::new(1);
        for (k, degraded) in [false, true, true, true, false, false].iter().enumerate() {
            let mut o = obs(&u, &b, k as u64);
            o.controller.degraded = *degraded;
            lt.record_period(o);
        }
        let snap = lt.snapshot();
        assert_eq!(snap.counter("degraded_periods"), Some(3));
        assert_eq!(
            snap.counter("mode_transitions"),
            Some(2),
            "one trip + one recovery"
        );
    }

    #[test]
    fn sinks_receive_every_period_and_schema() {
        let u = Vector::from_slice(&[0.5]);
        let b = Vector::from_slice(&[0.828]);
        let mut lt = LoopTelemetry::new(1);
        lt.add_sink(Box::new(RingBufferSink::new(8)));
        for k in 0..3 {
            lt.record_period(obs(&u, &b, k));
        }
        lt.flush();
        // Registry state and the pushed rows must agree.
        assert_eq!(
            lt.registry().columns().len(),
            lt.snapshot().entries().len() + 2 * 12
        );
        assert_eq!(lt.snapshot().counter("sink_errors"), Some(0));
    }

    #[test]
    fn net_metrics_flow_into_counters_and_rtt_histogram() {
        let u = Vector::from_slice(&[0.5]);
        let b = Vector::from_slice(&[0.828]);
        let mut lt = LoopTelemetry::new(1);
        let rtts = [1_000u64, 2_000_000];
        let mut o = obs(&u, &b, 0);
        o.net = Some(NetPeriod {
            sent: 4,
            received: 3,
            lost: 1,
            reconnects: 1,
            decode_errors: 0,
            stale_reuse: 2,
            rtt_ns: &rtts,
            exchange_reports_ns: 30_000,
            exchange_commands_ns: 20_000,
            recv_window_expired: true,
        });
        lt.record_period(o);
        let snap = lt.snapshot();
        assert_eq!(snap.counter("frames_sent"), Some(4));
        assert_eq!(snap.counter("frames_received"), Some(3));
        assert_eq!(snap.counter("frames_lost"), Some(1));
        assert_eq!(snap.counter("lane_reconnects"), Some(1));
        assert_eq!(snap.counter("stale_report_reuse"), Some(2));
        assert_eq!(snap.histogram("lane_rtt_ns").unwrap().count, 2);
        assert_eq!(snap.counter("recv_window_expired"), Some(1));
        let span = snap.histogram("span_exchange_reports_ns").unwrap();
        assert_eq!((span.count, span.max), (1, 30_000.0));
        assert_eq!(
            snap.histogram("span_exchange_commands_ns").unwrap().count,
            1
        );
    }

    #[test]
    fn churn_metrics_flow_into_counters_and_update_histogram() {
        let u = Vector::from_slice(&[0.5]);
        let b = Vector::from_slice(&[0.828]);
        let mut lt = LoopTelemetry::new(1);
        let updates = [5_000u64, 40_000];
        let mut o = obs(&u, &b, 0);
        o.churn = Some(ChurnPeriod {
            admitted: 2,
            rejected: 1,
            deferred: 1,
            departed: 1,
            mode_changes: 3,
            model_updates: 2,
            update_ns: &updates,
        });
        lt.record_period(o);
        // A churn-free period leaves the counters untouched.
        lt.record_period(obs(&u, &b, 1));
        let snap = lt.snapshot();
        assert_eq!(snap.counter("tasks_admitted"), Some(2));
        assert_eq!(snap.counter("tasks_rejected"), Some(1));
        assert_eq!(snap.counter("tasks_deferred"), Some(1));
        assert_eq!(snap.counter("tasks_departed"), Some(1));
        assert_eq!(snap.counter("task_mode_changes"), Some(3));
        assert_eq!(snap.counter("model_updates"), Some(2));
        assert_eq!(snap.histogram("model_update_ns").unwrap().count, 2);
    }

    #[test]
    fn failing_sinks_are_counted_not_fatal() {
        struct Broken;
        impl TelemetrySink for Broken {
            fn begin(&mut self, _c: &[String]) -> std::io::Result<()> {
                Err(std::io::Error::other("begin"))
            }
            fn record(&mut self, _p: u64, _t: f64, _v: &[f64]) -> std::io::Result<()> {
                Err(std::io::Error::other("record"))
            }
            fn finish(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("finish"))
            }
        }
        let u = Vector::from_slice(&[0.5]);
        let b = Vector::from_slice(&[0.828]);
        let mut lt = LoopTelemetry::new(1);
        lt.add_sink(Box::new(Broken));
        lt.record_period(obs(&u, &b, 0));
        lt.flush();
        assert_eq!(lt.snapshot().counter("sink_errors"), Some(3));
        assert_eq!(lt.snapshot().counter("periods"), Some(1));
    }
}
