//! The untraced run: rounds of identical work, timed from outside.
//!
//! Closed loop, one caller thread: the next `step()` is issued when the
//! previous one returns.  The timed region is the `step()` call alone;
//! the returned step record is read after the stop timestamp.  A round
//! builds a fresh loop with the run's seed, warms it up off the clock
//! and then times every period; rounds repeat until the run's time is
//! spent and are folded period by period (see `stats::fold_min`).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eucon::net::TransportStats;
use eucon::prelude::*;
use eucon::sim::{DeadlineStats, EngineCounters};

use crate::stats::{summarize, Fnv, MinFold, Summary};
use crate::watchdog::Watchdog;
use crate::workloads::{Mode, Shape, Workload, FLEET_E2E_THREADS, FLEET_PERIODS, TRACK_GATE};

/// Share of the timed periods, at the end of a round, over which the
/// tracking error is averaged.
const TAIL_SHARE: f64 = 0.3;

/// What is read from each step record, after the clock has stopped.
pub struct Acc {
    pub digest: Fnv,
    seen: usize,
    tail_from: usize,
    tail_sum: Vec<f64>,
    tail_n: usize,
}

impl Acc {
    /// `tail_from` counts from the first observed period, warm-up
    /// included.
    pub fn new(processors: usize, tail_from: usize) -> Self {
        Acc {
            digest: Fnv::default(),
            seen: 0,
            tail_from,
            tail_sum: vec![0.0; processors],
            tail_n: 0,
        }
    }

    pub fn observe(&mut self, utilization: &[f64]) {
        self.digest.slice(utilization);
        if self.seen >= self.tail_from {
            for (s, &u) in self.tail_sum.iter_mut().zip(utilization) {
                *s += u;
            }
            self.tail_n += 1;
        }
        self.seen += 1;
    }

    /// Worst processor's |tail-mean utilization − set point|.
    pub fn track_err_tail(&self, set_points: &[f64]) -> f64 {
        self.tail_sum
            .iter()
            .zip(set_points)
            .map(|(s, b)| (s / self.tail_n.max(1) as f64 - b).abs())
            .fold(0.0, f64::max)
    }
}

/// First observed period of the tracking-error tail for a run of
/// `warm` untimed and `periods` timed periods.
pub fn tail_start(warm: usize, periods: usize) -> usize {
    warm + periods - (TAIL_SHARE * periods as f64).ceil() as usize
}

/// Times one `step()` of whichever loop type a finisher returned and
/// feeds the step record to the accumulator afterwards.  A macro rather
/// than a trait, so the harness names no loop type.
macro_rules! timed_step {
    ($lp:expr, $acc:expr) => {{
        let t0 = std::time::Instant::now();
        let step = $lp.step();
        let dt = t0.elapsed();
        $acc.observe(step.utilization.as_slice());
        dt.as_nanos() as u64
    }};
}
pub(crate) use timed_step;

/// One round's observations.
#[derive(Debug, Clone)]
pub struct Round {
    /// Build plus warm-up: everything before the first timed period.
    pub setup_s: f64,
    pub step_ns: Vec<u64>,
    pub digest: u64,
    pub track_err_tail: f64,
    pub miss_ratio: f64,
    pub control_errors: u64,
    /// Allocations the measuring thread made during the timed periods.
    pub allocs: u64,
    pub stale_reuse: u64,
    pub lanes: usize,
    pub net: TransportStats,
    pub engine: EngineCounters,
    /// Means of the loop's own simulate / sample / control / actuate span
    /// histograms, microseconds.
    pub spans_us: [f64; 4],
}

impl Round {
    /// Reads a finished loop's result into the round's record.
    pub fn new(
        result: RunResult,
        acc: &Acc,
        step_ns: Vec<u64>,
        setup_s: f64,
        allocs: u64,
        net: TransportStats,
    ) -> Self {
        let span = |name: &str| {
            let h = result.telemetry.histogram(name);
            h.map_or(0.0, |h| h.mean() / 1e3)
        };
        Round {
            setup_s,
            step_ns,
            digest: acc.digest.0,
            track_err_tail: acc.track_err_tail(result.set_points.as_slice()),
            miss_ratio: result.deadlines.miss_ratio(),
            control_errors: result.control_errors as u64,
            allocs,
            stale_reuse: result.telemetry.counter("stale_report_reuse").unwrap_or(0),
            lanes: result.set_points.len(),
            net,
            engine: result.engine,
            spans_us: [
                span("span_simulate_ns"),
                span("span_sample_ns"),
                span("span_control_ns"),
                span("span_actuate_ns"),
            ],
        }
    }
}

/// Runs one round of a stepping workload (every mode but the fleet).
pub fn step_round(w: &Workload, seed: u64, dog: &Watchdog) -> Result<Round, eucon::Error> {
    let t_start = Instant::now();
    let builder = w.shape.builder(seed).record_trace(false);
    macro_rules! drive {
        ($lp:ident, $net:expr) => {{
            let mut acc = Acc::new($lp.set_points().len(), tail_start(w.warm, w.periods));
            for _ in 0..w.warm {
                timed_step!($lp, acc);
                dog.tick();
            }
            let setup_s = t_start.elapsed().as_secs_f64();
            let mut step_ns = Vec::with_capacity(w.periods);
            let allocs = crate::alloc::count();
            for _ in 0..w.periods {
                step_ns.push(timed_step!($lp, acc));
                dog.tick();
            }
            let allocs = crate::alloc::count() - allocs;
            let net: TransportStats = $net;
            Ok(Round::new(
                $lp.into_result(),
                &acc,
                step_ns,
                setup_s,
                allocs,
                net,
            ))
        }};
    }
    match w.mode {
        Mode::Local => {
            let mut lp = builder.local()?;
            drive!(lp, TransportStats::default())
        }
        Mode::NetIdeal | Mode::NetLossy => {
            let mut lp = builder.distributed(w.net_config(seed))?;
            drive!(lp, lp.transport_stats())
        }
        Mode::Fleet => unreachable!("fleet rounds go through fleet_batch"),
    }
}

/// Decides whether another round fits: at least `MIN_ROUNDS` (digests
/// are compared across rounds), then as many as end inside the budget,
/// judging by the longest round so far.
pub struct Pacer {
    start: Instant,
    budget: Duration,
    longest: Duration,
    lap: Instant,
}

impl Pacer {
    const MIN_ROUNDS: usize = 2;

    pub fn new(budget: Duration) -> Self {
        let now = Instant::now();
        Pacer {
            start: now,
            budget,
            longest: Duration::ZERO,
            lap: now,
        }
    }

    /// Call before each round, with the number of rounds done.
    pub fn another(&mut self, done: usize) -> bool {
        let now = Instant::now();
        if done > 0 {
            self.longest = self.longest.max(now - self.lap);
        }
        self.lap = now;
        done < Self::MIN_ROUNDS || now - self.start + self.longest <= self.budget
    }
}

/// What a run reports as failed: countable errors fail the periods they
/// hit; any other fault means the run's outputs cannot be trusted and
/// fails it whole.  Records the error count among the faults.
pub fn settle(attempted: &mut u64, errors: u64, faults: &mut Vec<String>) -> u64 {
    *attempted = (*attempted).max(1);
    let failed = if faults.is_empty() {
        errors.min(*attempted)
    } else {
        *attempted
    };
    if errors > 0 {
        faults.push(format!("{errors} controller or frame decode errors"));
    }
    failed
}

/// A run's rounds, folded as they arrive.
#[derive(Debug, Default)]
pub struct Folded {
    pub steps: MinFold,
    /// Each round's own median and 99th percentile, microseconds.
    pub raw_p50_us: Vec<f64>,
    pub raw_p99_us: Vec<f64>,
    pub setup_s: Vec<f64>,
}

impl Folded {
    pub fn push(&mut self, step_ns: &[u64], setup_s: f64) {
        let s = summarize(step_ns);
        self.raw_p50_us.push(s.p50_us);
        self.raw_p99_us.push(s.p99_us);
        self.setup_s.push(setup_s);
        self.steps.push(step_ns);
    }

    pub fn best_setup_s(&self) -> f64 {
        self.setup_s.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Everything one untraced run of a workload produced.
#[derive(Debug)]
pub struct EndToEnd {
    pub threads: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct (empty when it is).
    pub faults: Vec<String>,
    pub trace_digest: u64,
    pub folded: Folded,
    pub track_err_tail: f64,
    pub miss_ratio: f64,
    pub rss_peak_mb: f64,
    /// Fleet runs only: best batch's aggregate throughput.
    pub fleet_periods_per_s: Option<f64>,
}

impl EndToEnd {
    /// Timed periods per second of step time, best observation of every
    /// period (fleet: of the best batch's wall time).
    pub fn periods_per_s(&self, folded: &Summary) -> f64 {
        self.fleet_periods_per_s
            .unwrap_or(folded.count as f64 / folded.sum_s)
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs rounds of `w` until `budget` is spent — at least two, so digests
/// can be compared across rounds — and folds them.
pub fn run(w: &Workload, seed: u64, budget: Duration, dog: &Watchdog) -> EndToEnd {
    let mut out = EndToEnd {
        threads: 1,
        attempted: 0,
        failed: 0,
        faults: Vec::new(),
        trace_digest: 0,
        folded: Folded::default(),
        track_err_tail: 1.0,
        miss_ratio: 1.0,
        rss_peak_mb: 0.0,
        fleet_periods_per_s: None,
    };
    let mut fleet = match w.mode {
        Mode::Fleet => match FleetProbe::new(w, seed) {
            Ok(probe) => {
                out.threads = probe.threads;
                Some(probe)
            }
            Err(e) => {
                out.faults.push(format!("fleet reference loop: {e}"));
                None
            }
        },
        _ => None,
    };
    let round_periods = (w.warm + w.periods) as u64;
    let mut pacer = Pacer::new(budget);
    let mut errors = 0u64;
    while out.faults.is_empty() && pacer.another(out.folded.steps.rounds) {
        dog.arm(w.expected_round_s, round_periods);
        out.attempted += w.periods as u64;
        let round = match &mut fleet {
            Some(probe) => probe.batch(),
            None => step_round(w, seed, dog).map(|r| {
                errors += r.control_errors + r.net.decode_errors;
                if out.folded.steps.rounds == 0 {
                    out.trace_digest = r.digest;
                    out.track_err_tail = r.track_err_tail;
                    out.miss_ratio = r.miss_ratio;
                } else if r.digest != out.trace_digest {
                    out.faults
                        .push("trace digests differ between rounds".into());
                }
                (r.step_ns, r.setup_s)
            }),
        };
        dog.disarm();
        match round {
            Ok((step_ns, setup_s)) => out.folded.push(&step_ns, setup_s),
            Err(e) => out.faults.push(format!("round failed: {e}")),
        }
    }
    if let Some(probe) = &fleet {
        errors += probe.control_errors;
        out.trace_digest = probe.reference.digest;
        out.track_err_tail = probe.reference.track_err_tail;
        out.miss_ratio = probe.reference.miss_ratio;
        out.fleet_periods_per_s = Some(probe.best_periods_per_s);
        if !probe.digests_match {
            out.faults
                .push("fleet digests differ from the reference loop".into());
        }
    }
    if w.gate_tracking && out.track_err_tail > TRACK_GATE {
        out.faults.push(format!(
            "track_err_tail {:.4} exceeds {TRACK_GATE}",
            out.track_err_tail
        ));
    }
    if w.mode == Mode::NetIdeal && out.faults.is_empty() {
        // Ideal lanes are pinned bit-identical to the local loop.
        let local = Workload {
            mode: Mode::Local,
            ..*w
        };
        dog.arm(w.expected_round_s, round_periods);
        match step_round(&local, seed, dog) {
            Ok(r) if r.digest == out.trace_digest => {}
            Ok(_) => out
                .faults
                .push("trace digest differs from the local loop's".into()),
            Err(e) => out
                .faults
                .push(format!("local reference round failed: {e}")),
        }
        dog.disarm();
    }
    out.failed = settle(&mut out.attempted, errors, &mut out.faults);
    out.rss_peak_mb = rss_peak_mb();
    out
}

/// The single-loop computation every replica of a fleet batch repeats:
/// the digest the fleet runner takes per loop (time, utilizations and
/// rates of every step) and that loop's quality figures.
pub struct FleetReference {
    pub digest: u64,
    pub track_err_tail: f64,
    pub miss_ratio: f64,
}

pub fn fleet_reference(seed: u64) -> Result<FleetReference, eucon::Error> {
    let mut lp = Shape::Medium.builder(seed).record_trace(false).local()?;
    let mut acc = Acc::new(lp.set_points().len(), tail_start(0, FLEET_PERIODS));
    let mut digest = Fnv::default();
    for _ in 0..FLEET_PERIODS {
        let step = lp.step();
        digest.f64(step.time);
        digest.slice(step.utilization.as_slice());
        digest.slice(step.rates.as_slice());
        acc.observe(step.utilization.as_slice());
    }
    let result = lp.into_result();
    Ok(FleetReference {
        digest: digest.0,
        track_err_tail: acc.track_err_tail(result.set_points.as_slice()),
        miss_ratio: result.deadlines.miss_ratio(),
    })
}

/// When one fleet loop was built and when each of its periods began,
/// nanoseconds since the batch started.
#[derive(Debug, Default)]
struct LoopTimes {
    built_ns: u64,
    period_start_ns: Vec<u64>,
}

/// The simulator plant with a clock on it: the fleet's period times seen
/// from inside a worker, through the public `Plant` seam.  `advance_to`
/// opens every period, so consecutive entries are one full period apart
/// — control, actuation, telemetry and the runner's digest included.
struct ProbePlant {
    inner: SimPlant,
    epoch: Instant,
    times: LoopTimes,
    sink: Arc<Mutex<Vec<LoopTimes>>>,
}

impl Plant for ProbePlant {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn num_processors(&self) -> usize {
        self.inner.num_processors()
    }
    fn num_tasks(&self) -> usize {
        self.inner.num_tasks()
    }
    fn advance_to(&mut self, t_end: f64) {
        // Pre-sized at build time: no allocation on the loop's hot path.
        self.times
            .period_start_ns
            .push(self.epoch.elapsed().as_nanos() as u64);
        self.inner.advance_to(t_end);
    }
    fn sample_into(&mut self, out: &mut Vector) {
        self.inner.sample_into(out);
    }
    fn apply_rates(&mut self, rates: &Vector) {
        self.inner.apply_rates(rates);
    }
    fn rates_in_force(&self) -> &[f64] {
        self.inner.rates_in_force()
    }
    fn deadline_stats(&self) -> DeadlineStats {
        self.inner.deadline_stats()
    }
    fn counters(&self) -> EngineCounters {
        self.inner.counters()
    }
}

impl Drop for ProbePlant {
    fn drop(&mut self) {
        // A poisoned sink means another worker panicked; the batch is
        // lost either way and `Drop` must not add a second panic.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(std::mem::take(&mut self.times));
        }
    }
}

struct ProbeFactory {
    epoch: Instant,
    sink: Arc<Mutex<Vec<LoopTimes>>>,
}

impl PlantFactory for ProbeFactory {
    fn build_plant(
        &self,
        set: &TaskSet,
        sim: &SimConfig,
    ) -> Result<Box<dyn Plant>, eucon::core::CoreError> {
        let built_ns = self.epoch.elapsed().as_nanos() as u64;
        Ok(Box::new(ProbePlant {
            inner: SimPlant::build(set.clone(), sim.clone()),
            epoch: self.epoch,
            times: LoopTimes {
                built_ns,
                period_start_ns: Vec::with_capacity(FLEET_PERIODS),
            },
            sink: Arc::clone(&self.sink),
        }))
    }

    fn label(&self) -> &'static str {
        "sim+clock"
    }
}

/// Result of one fleet batch run through the probe.
pub struct FleetBatch {
    pub elapsed_s: f64,
    pub periods: u64,
    /// Period times of every loop, concatenated (loops in completion
    /// order: replicas are identical, so position `i` is the same work
    /// in every batch).
    pub period_ns: Vec<u64>,
    /// Everything before a loop's first period, summed over the batch:
    /// describing the fleet, preparing the shared model, building each
    /// loop.
    pub setup_s: f64,
    pub control_errors: u64,
    pub digests_match: bool,
}

pub fn fleet_batch(
    seed: u64,
    loops: usize,
    threads: usize,
    reference: u64,
) -> Result<FleetBatch, eucon::Error> {
    let sink = Arc::new(Mutex::new(Vec::with_capacity(loops)));
    let epoch = Instant::now();
    let report = Shape::Medium
        .builder(seed)
        .plant(ProbeFactory {
            epoch,
            sink: Arc::clone(&sink),
        })
        .fleet(loops)
        .threads(threads)
        .run(FLEET_PERIODS)?;
    let times = std::mem::take(&mut *sink.lock().expect("fleet workers have all been joined"));
    let first_build = times.iter().map(|t| t.built_ns).min().unwrap_or(0);
    let mut setup_ns = first_build;
    let mut period_ns = Vec::with_capacity(loops * FLEET_PERIODS);
    for t in &times {
        let first = t.period_start_ns.first().copied().unwrap_or(t.built_ns);
        setup_ns += first - t.built_ns;
        period_ns.extend(t.period_start_ns.windows(2).map(|w| w[1] - w[0]));
    }
    Ok(FleetBatch {
        elapsed_s: report.elapsed_secs,
        periods: report.total_periods,
        period_ns,
        setup_s: setup_ns as f64 / 1e9,
        control_errors: report.control_errors,
        digests_match: times.len() == loops
            && report.digests.len() == loops
            && report.digests.iter().all(|&d| d == reference),
    })
}

/// Repeats fleet batches for [`run`].
struct FleetProbe {
    seed: u64,
    loops: usize,
    threads: usize,
    reference: FleetReference,
    best_periods_per_s: f64,
    control_errors: u64,
    digests_match: bool,
}

impl FleetProbe {
    fn new(w: &Workload, seed: u64) -> Result<Self, eucon::Error> {
        Ok(FleetProbe {
            seed,
            loops: w.periods / FLEET_PERIODS,
            threads: FLEET_E2E_THREADS,
            reference: fleet_reference(seed)?,
            best_periods_per_s: 0.0,
            control_errors: 0,
            digests_match: true,
        })
    }

    fn batch(&mut self) -> Result<(Vec<u64>, f64), eucon::Error> {
        let b = fleet_batch(self.seed, self.loops, self.threads, self.reference.digest)?;
        self.best_periods_per_s = self.best_periods_per_s.max(b.periods as f64 / b.elapsed_s);
        self.control_errors += b.control_errors;
        self.digests_match &= b.digests_match;
        Ok((b.period_ns, b.setup_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_covers_the_last_thirty_percent_of_the_timed_periods() {
        assert_eq!(tail_start(200, 4000), 3000);
        assert_eq!(tail_start(0, 100), 70);
        let mut acc = Acc::new(2, 2);
        for u in [[9.0, 9.0], [9.0, 9.0], [0.5, 0.7], [0.7, 0.9]] {
            acc.observe(&u);
        }
        // Tail means 0.6 and 0.8 against set points 0.7: worst is 0.1.
        assert!((acc.track_err_tail(&[0.7, 0.7]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn folded_keeps_the_best_of_every_period_and_round_summaries() {
        let mut f = Folded::default();
        f.push(&[5000, 9000, 7000], 0.3);
        f.push(&[6000, 2000, 8000], 0.2);
        assert_eq!(f.steps.best_ns, vec![5000, 2000, 7000]);
        assert_eq!(f.steps.rounds, 2);
        assert_eq!(f.raw_p50_us, vec![7.0, 6.0]);
        assert_eq!(f.best_setup_s(), 0.2);
        assert_eq!(f.steps.summary().p50_us, 5.0);
    }

    #[test]
    fn fleet_batch_sees_every_period_of_every_loop_and_matches_the_reference() {
        let reference = fleet_reference(3).expect("reference");
        let b = fleet_batch(3, 4, 2, reference.digest).expect("batch");
        assert!(b.digests_match);
        assert_eq!(b.periods, 4 * FLEET_PERIODS as u64);
        assert_eq!(b.period_ns.len(), 4 * (FLEET_PERIODS - 1));
        assert!(b.setup_s > 0.0);
        assert!(reference.track_err_tail < 0.2);
        let other = fleet_batch(3, 2, 1, reference.digest ^ 1).expect("batch");
        assert!(!other.digests_match);
    }
}
