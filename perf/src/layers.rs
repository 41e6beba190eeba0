//! The traced run: the period hand-composed from the layers' public
//! calls, with a span around each, plus the fixed-size micro rows of the
//! ledger.
//!
//! Spans are recorded from here — around the calls into each layer —
//! and kept in memory until the run ends.  End-to-end metrics never come
//! from this module.

use std::io::Write;
use std::time::{Duration, Instant};

use eucon::core::DEFAULT_SAMPLING_PERIOD;
use eucon::prelude::*;

use crate::e2e::{self, tail_start, timed_step, Acc, Folded, Pacer, Round};
use crate::metrics::PER_LAYER;
use crate::micro;
use crate::stats::{median, percentile, Fnv, MinFold};
use crate::watchdog::Watchdog;
use crate::workloads::{cores, fleet_threads, Mode, Workload, ALL};

/// One traced interval.  `period` identifies the span that caused it
/// (the composed period it belongs to); the `"period"` span itself is the
/// root of each tree.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub period: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer times of one composed round, one entry per timed period.
#[derive(Debug, Default)]
pub struct Composed {
    pub period_ns: Vec<u64>,
    pub advance_ns: Vec<u64>,
    pub sample_ns: Vec<u64>,
    pub update_ns: Vec<u64>,
    pub apply_ns: Vec<u64>,
    pub qp_iters: Vec<u64>,
    pub warm_hits: u64,
    pub cold_retries: u64,
    pub control_errors: u64,
    pub events: u64,
    pub stale_wakeups: u64,
    pub queue_peak: usize,
    pub digest: u64,
    pub ctrl_build_s: f64,
}

/// A workload's loop as the four public calls `ClosedLoop::step` makes
/// on the fault-free path — `advance_to`, `sample_into`, `update`,
/// `apply_rates` — stepped one period at a time with each call timed.
/// Generic over the plant so the same code measures `Box<dyn Plant>`
/// (what every loop drives) and a concrete `SimPlant` (the direct call
/// the `Plant` seam replaced).
pub struct Composition<P: Plant + ?Sized> {
    plant: Box<P>,
    ctrl: Box<dyn RateController>,
    u: Vector,
    digest: Fnv,
    period: usize,
    /// Engine counters when the first timed period began.
    before: Option<eucon::sim::EngineCounters>,
    epoch: Instant,
    out: Composed,
}

impl Composition<dyn Plant> {
    /// Through the `Plant` trait object, as every loop does.
    pub fn dynamic(w: &Workload, seed: u64, epoch: Instant) -> Result<Self, eucon::Error> {
        let set = w.shape.task_set();
        let plant = SimPlantFactory.build_plant(&set, &w.shape.sim_config(seed))?;
        Composition::start(w, plant, &set, epoch)
    }
}

impl Composition<SimPlant> {
    /// On the concrete simulator plant: static dispatch.
    pub fn direct(w: &Workload, seed: u64, epoch: Instant) -> Result<Self, eucon::Error> {
        let set = w.shape.task_set();
        let plant = Box::new(SimPlant::build(set.clone(), w.shape.sim_config(seed)));
        Composition::start(w, plant, &set, epoch)
    }
}

impl<P: Plant + ?Sized> Composition<P> {
    fn start(
        w: &Workload,
        mut plant: Box<P>,
        set: &TaskSet,
        epoch: Instant,
    ) -> Result<Self, eucon::Error> {
        let set_points = rms_set_points(set);
        let t_build = Instant::now();
        let ctrl = w.shape.controller().build(set, &set_points)?;
        let ctrl_build_s = t_build.elapsed().as_secs_f64();
        plant.apply_rates(ctrl.rates());
        let mut out = Composed {
            ctrl_build_s,
            ..Composed::default()
        };
        for v in [
            &mut out.period_ns,
            &mut out.advance_ns,
            &mut out.sample_ns,
            &mut out.update_ns,
            &mut out.apply_ns,
            &mut out.qp_iters,
        ] {
            v.reserve_exact(w.periods);
        }
        Ok(Composition {
            plant,
            ctrl,
            u: Vector::zeros(set_points.len()),
            digest: Fnv::default(),
            period: 0,
            before: None,
            epoch,
            out,
        })
    }

    /// One period.  A timed period is recorded (and, with `spans`,
    /// traced); an untimed one only advances the loop.
    pub fn period(&mut self, timed: bool, spans: Option<&mut Vec<Span>>) {
        self.period += 1;
        if timed && self.before.is_none() {
            self.before = Some(self.plant.counters());
        }
        let t_end = self.period as f64 * DEFAULT_SAMPLING_PERIOD;
        let t0 = Instant::now();
        self.plant.advance_to(t_end);
        let t1 = Instant::now();
        self.plant.sample_into(&mut self.u);
        let t2 = Instant::now();
        let failed = self.ctrl.update(&self.u).is_err();
        let t3 = Instant::now();
        self.plant.apply_rates(self.ctrl.rates());
        let t4 = Instant::now();
        if let (true, Some(spans)) = (timed, spans) {
            let id = self.out.period_ns.len() as u32 + 1;
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            for (name, a, b) in [
                ("period", t0, t4),
                ("advance", t0, t1),
                ("sample", t1, t2),
                ("update", t2, t3),
                ("apply", t3, t4),
            ] {
                spans.push(Span {
                    name,
                    period: id,
                    start_ns: ns(a),
                    end_ns: ns(b),
                });
            }
        }
        // --- off the clock ---
        self.digest.slice(self.u.as_slice());
        self.out.control_errors += u64::from(failed);
        if timed {
            let out = &mut self.out;
            out.period_ns.push((t4 - t0).as_nanos() as u64);
            out.advance_ns.push((t1 - t0).as_nanos() as u64);
            out.sample_ns.push((t2 - t1).as_nanos() as u64);
            out.update_ns.push((t3 - t2).as_nanos() as u64);
            out.apply_ns.push((t4 - t3).as_nanos() as u64);
            let t = self.ctrl.telemetry();
            out.qp_iters.push(t.qp_iterations as u64);
            out.warm_hits += u64::from(t.warm_start && !t.cold_retry);
            out.cold_retries += u64::from(t.cold_retry);
        }
    }

    pub fn finish(mut self) -> Composed {
        let now = self.plant.counters();
        let delta = now.delta(&self.before.unwrap_or(now));
        self.out.events = delta.events;
        self.out.stale_wakeups = delta.stale_wakeups;
        self.out.queue_peak = delta.queue_peak;
        self.out.digest = self.digest.0;
        self.out
    }
}

/// Periods one side runs before the other takes its turn.
const CHUNK: usize = 50;

/// Runs two loops that do the same work in alternating chunks of
/// [`CHUNK`] periods.  The host slows down for seconds at a time; two
/// rounds run back to back would each see a different host, and a
/// comparison between them would measure that.  `a` and `b` receive the
/// period index, counted from 0 with the warm-up included.
pub fn lockstep(total: usize, mut a: impl FnMut(usize), mut b: impl FnMut(usize)) {
    let mut done = 0;
    while done < total {
        let upto = total.min(done + CHUNK);
        (done..upto).for_each(&mut a);
        (done..upto).for_each(&mut b);
        done = upto;
    }
}

/// One traced cycle: `base`'s `ClosedLoop`, untraced, and its hand
/// composition, traced into `spans`, in lockstep.
fn traced_cycle(
    base: &Workload,
    seed: u64,
    epoch: Instant,
    spans: &mut Vec<Span>,
    dog: &Watchdog,
) -> Result<(Round, Composed), eucon::Error> {
    let t_start = Instant::now();
    let mut lp = base.shape.builder(seed).record_trace(false).local()?;
    let mut acc = Acc::new(lp.set_points().len(), tail_start(base.warm, base.periods));
    let setup_s = t_start.elapsed().as_secs_f64();
    let mut comp = Composition::dynamic(base, seed, epoch)?;
    spans.clear();
    spans.reserve(5 * base.periods);
    let mut step_ns = Vec::with_capacity(base.periods);
    let mut allocs = 0;
    lockstep(
        base.warm + base.periods,
        |k| {
            let before = crate::alloc::count();
            let ns = timed_step!(lp, acc);
            if k >= base.warm {
                step_ns.push(ns);
                allocs += crate::alloc::count() - before;
            }
            dog.tick();
        },
        |k| {
            comp.period(k >= base.warm, Some(&mut *spans));
            dog.tick();
        },
    );
    let round = Round::new(
        lp.into_result(),
        &acc,
        step_ns,
        setup_s,
        allocs,
        Default::default(),
    );
    Ok((round, comp.finish()))
}

/// The ledger of one traced run: `(metric name, value)` in table order.
pub type Ledger = Vec<(&'static str, f64)>;

pub struct Traced {
    pub ledger: Ledger,
    pub attempted: u64,
    pub failed: u64,
    pub faults: Vec<String>,
    /// Spans of the last hand-composed round.
    pub spans: Vec<Span>,
}

/// The local loop with `w`'s plant and controller: what the composition
/// is compared against, and what a net or fleet workload adds to.  The
/// net and fleet workloads close over MEDIUM, so theirs is
/// `local_medium`, rounds and all.
fn base_of(w: &Workload) -> Workload {
    match w.mode {
        Mode::Local => *w,
        _ => ALL[0],
    }
}

/// The four layer calls of the composed period and the period around
/// them, each folded across rounds.
#[derive(Default)]
struct LayerFolds {
    period: MinFold,
    advance: MinFold,
    sample: MinFold,
    update: MinFold,
    apply: MinFold,
}

impl LayerFolds {
    fn push(&mut self, c: &Composed) {
        self.period.push(&c.period_ns);
        self.advance.push(&c.advance_ns);
        self.sample.push(&c.sample_ns);
        self.update.push(&c.update_ns);
        self.apply.push(&c.apply_ns);
    }
}

pub fn run(w: &Workload, seed: u64, budget: Duration, quick: bool, dog: &Watchdog) -> Traced {
    let epoch = Instant::now();
    let shrink = |w: Workload| if quick { w.quick() } else { w };
    let (base, own) = (shrink(base_of(w)), shrink(*w));
    let mut out = Traced {
        ledger: Ledger::new(),
        attempted: 0,
        failed: 0,
        faults: Vec::new(),
        spans: Vec::new(),
    };
    let mut rows = Ledger::with_capacity(PER_LAYER.len());
    let mut put = |name: &'static str, v: f64| rows.push((name, v));

    // --- loop rows: the base loop untraced and hand-composed, in turn ---
    let mut steps = Folded::default();
    let mut layers = LayerFolds::default();
    let mut first: Option<(Round, Composed)> = None;
    let mut build_ms = Vec::new();
    let mut spans_us = [f64::INFINITY; 4];
    let mut stale_wakeups = 0;
    let mut errors = 0;
    // Two fifths of the run's time here and a fifth on the mode rows:
    // with the fixed rows' 12 s a traced run then takes about as long as
    // an untraced one.
    let mut pacer = Pacer::new(budget.mul_f64(0.4));
    while out.faults.is_empty() && pacer.another(steps.steps.rounds) {
        let periods = 2 * (base.warm + base.periods) as u64;
        dog.arm(2.0 * base.expected_round_s, periods);
        out.attempted += 2 * base.periods as u64;
        let cycle = traced_cycle(&base, seed, epoch, &mut out.spans, dog);
        dog.disarm();
        match cycle {
            Ok((r, c)) => {
                steps.push(&r.step_ns, r.setup_s);
                layers.push(&c);
                build_ms.push(c.ctrl_build_s * 1e3);
                for (best, us) in spans_us.iter_mut().zip(r.spans_us) {
                    *best = best.min(us);
                }
                stale_wakeups += c.stale_wakeups + r.engine.stale_wakeups;
                errors += c.control_errors + r.control_errors;
                let digest = first.as_ref().map_or(r.digest, |(r0, _)| r0.digest);
                if r.digest != digest || c.digest != digest {
                    out.faults
                        .push("hand-composed period's digest differs from ClosedLoop's".into());
                }
                first.get_or_insert((r, c));
            }
            Err(e) => out.faults.push(format!("traced cycle failed: {e}")),
        }
    }
    if let Some((round, composed)) = &first {
        let advance = layers.advance.summary();
        let update = layers.update.summary();
        let sample = layers.sample.summary().p50_us;
        let apply = layers.apply.summary().p50_us;
        let step = steps.steps.summary();
        let n = composed.period_ns.len() as f64;
        let layer_sum = advance.p50_us + sample + update.p50_us + apply;
        let layer_sum_ratio = layer_sum / step.p50_us;
        let mut iters = composed.qp_iters.clone();
        iters.sort_unstable();

        put("sim.advance_us", advance.p50_us);
        put("sim.advance_p99_us", advance.p99_us);
        put("sim.sample_us", sample);
        put("sim.apply_rates_us", apply);
        put("sim.events_per_period", composed.events as f64 / n);
        put(
            "sim.ns_per_event",
            advance.sum_s * 1e9 / composed.events.max(1) as f64,
        );
        put("sim.queue_peak", composed.queue_peak as f64);
        put("sim.stale_wakeups", stale_wakeups as f64);
        put("control.update_us", update.p50_us);
        put("control.update_p99_us", update.p99_us);
        put("control.update_max_us", update.max_us);
        put("control.build_ms", median(&build_ms));
        put("qp.iters_p50", percentile(&iters, 0.5) as f64);
        put("qp.iters_max", *iters.last().expect("non-empty") as f64);
        put("qp.warm_hit_ratio", composed.warm_hits as f64 / n);
        put("qp.cold_retry_ratio", composed.cold_retries as f64 / n);
        put("core.step_us", step.p50_us);
        put("core.step_p99_us", step.p99_us);
        put("core.step_p99_raw_us", median(&steps.raw_p99_us));
        put("core.step_max_us", step.max_us);
        put("core.loop_overhead_us", step.p50_us - layer_sum);
        put("core.layer_sum_ratio", layer_sum_ratio);
        put(
            "core.tracing_overhead_pct",
            (layers.period.summary().p50_us - step.p50_us) / step.p50_us * 100.0,
        );
        put("core.span_simulate_us", spans_us[0]);
        put("core.span_sample_us", spans_us[1]);
        put("core.span_control_us", spans_us[2]);
        put("core.span_actuate_us", spans_us[3]);
        put("core.track_err_tail", round.track_err_tail);
        put("core.miss_ratio", round.miss_ratio);
        if !(0.9..=1.1).contains(&layer_sum_ratio) {
            out.faults.push(format!(
                "core.layer_sum_ratio {layer_sum_ratio:.3} is outside [0.9, 1.1]: \
                 the rows do not add up"
            ));
        }

        // --- what the workload's own mode adds to its base loop ---
        let mut own_steps = MinFold::default();
        let mut own_first: Option<Round> = None;
        // At least two rounds, and as many as a fifth of the run's
        // time holds: the fold needs them on a noisy host.
        let mut pacer = Pacer::new(budget.mul_f64(0.2));
        let mut net_failed = false;
        while matches!(own.mode, Mode::NetIdeal | Mode::NetLossy)
            && !net_failed
            && pacer.another(own_steps.rounds)
        {
            dog.arm(own.expected_round_s, (own.warm + own.periods) as u64);
            out.attempted += own.periods as u64;
            match e2e::step_round(&own, seed, dog) {
                Ok(r) => {
                    own_steps.push(&r.step_ns);
                    errors += r.control_errors + r.net.decode_errors;
                    own_first.get_or_insert(r);
                }
                Err(e) => {
                    out.faults.push(format!("net round failed: {e}"));
                    net_failed = true;
                }
            }
            dog.disarm();
        }
        let own_step = match own_steps.rounds {
            0 => step.p50_us,
            _ => own_steps.summary().p50_us,
        };
        // A fleet has no stepping loop of its own: its rows are its
        // base loop's.
        let (own_round, own) = match &own_first {
            Some(r) => (r, own),
            None => (round, base),
        };
        let total = (own.warm + own.periods) as f64;
        put(
            "core.allocs_per_period",
            own_round.allocs as f64 / own.periods as f64,
        );
        put("core.net_overhead_us", own_step - step.p50_us);
        put("core.recv_wait_share", 1.0 - step.p50_us / own_step);
        put("net.frames_per_period", own_round.net.sent as f64 / total);
        put(
            "net.bytes_per_period",
            own_round.net.bytes_sent as f64 / total,
        );
        put("net.decode_errors", own_round.net.decode_errors as f64);
        put(
            "net.stale_ratio",
            own_round.stale_reuse as f64 / (total * own_round.lanes as f64),
        );
    }

    // --- the fixed-size rows: the same in every traced run ---
    dog.arm(micro::EXPECTED_S, 1);
    match micro::measure(seed, quick, epoch, dog) {
        Ok(fixed) => rows.extend(fixed),
        Err(e) => out.faults.push(format!("fixed rows failed: {e}")),
    }
    dog.disarm();
    rows.push(("core.cores", cores() as f64));
    rows.push(("core.threads", fleet_threads(cores()) as f64));

    // Every row of the table, in table order; a row nobody measured is a
    // fault, not a silent zero.
    out.ledger = PER_LAYER
        .iter()
        .map(|m| match rows.iter().find(|(name, _)| *name == m.name) {
            Some(row) => *row,
            None => {
                out.faults.push(format!("{} was not measured", m.name));
                (m.name, 0.0)
            }
        })
        .collect();
    out.failed = e2e::settle(&mut out.attempted, errors, &mut out.faults);
    out
}

/// Writes the spans of the last composed round, one JSON object a line.
pub fn write_spans(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.name == "period" {
            "null"
        } else {
            "\"period\""
        };
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"name\":\"{}\",\"period\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.period, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_alternates_in_chunks_and_covers_every_period_once() {
        let order = std::cell::RefCell::new(Vec::new());
        lockstep(
            CHUNK + 3,
            |k| order.borrow_mut().push(('a', k)),
            |k| order.borrow_mut().push(('b', k)),
        );
        let order = order.into_inner();
        assert_eq!(order.len(), 2 * (CHUNK + 3));
        assert_eq!(order[0], ('a', 0));
        assert_eq!(order[CHUNK - 1], ('a', CHUNK - 1));
        assert_eq!(order[CHUNK], ('b', 0));
        assert_eq!(order[2 * CHUNK], ('a', CHUNK));
        assert_eq!(order.last(), Some(&('b', CHUNK + 2)));
    }

    #[test]
    fn the_composition_is_the_computation_closed_loop_runs() {
        let w = ALL[0].quick();
        let dog = Watchdog::start(|_, _| {});
        let mut spans = Vec::new();
        let (round, composed) =
            traced_cycle(&w, 5, Instant::now(), &mut spans, &dog).expect("cycle");
        assert_eq!(round.digest, composed.digest);
        assert_eq!(round.step_ns.len(), w.periods);
        assert_eq!(composed.period_ns.len(), w.periods);
        assert_eq!(spans.len(), 5 * w.periods);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans[0].name, "period");
        assert_eq!((spans[0].period, spans[5].period), (1, 2));
        assert_eq!(round.control_errors + composed.control_errors, 0);
        assert!(composed.events > 0);
        // Static dispatch changes nothing but the call.
        let mut direct = Composition::direct(&w, 5, Instant::now()).expect("direct");
        (0..w.warm + w.periods).for_each(|k| direct.period(k >= w.warm, None));
        assert_eq!(direct.finish().digest, composed.digest);
        // Another seed is another trajectory.
        let mut other = Composition::dynamic(&w, 6, Instant::now()).expect("dynamic");
        (0..w.warm + w.periods).for_each(|k| other.period(k >= w.warm, None));
        assert_ne!(other.finish().digest, composed.digest);
    }

    #[test]
    fn spans_are_written_one_object_a_line() {
        let dir = std::env::temp_dir().join(format!("perf-spans-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let spans = [
            Span {
                name: "period",
                period: 1,
                start_ns: 10,
                end_ns: 90,
            },
            Span {
                name: "advance",
                period: 1,
                start_ns: 10,
                end_ns: 70,
            },
        ];
        write_spans(&path, "w", &spans).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"workload":"w","name":"period","period":1,"parent":null,"start_ns":10,"end_ns":90}"#
        );
        assert!(lines[1].contains(r#""name":"advance","period":1,"parent":"period""#));
    }
}
