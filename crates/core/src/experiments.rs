//! Declarative experiment runners for the paper's evaluation (§7).
//!
//! Each public function corresponds to a reusable experimental protocol;
//! `eucon_bench::reproduce` and the integration tests are thin
//! wrappers over these.

use eucon_sim::{EtfProfile, ExecModel, SimConfig};
use eucon_tasks::TaskSet;
use rayon::prelude::*;

use crate::metrics::{self, SeriesStats};
use crate::{ControllerSpec, CoreError, LoopBuilder, RunResult};

/// One point of an execution-time-factor sweep (Figures 4 and 5).
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The execution-time factor of this run.
    pub etf: f64,
    /// Mean/deviation of each processor's utilization over the
    /// measurement window.
    pub stats: Vec<SeriesStats>,
    /// Whether each processor satisfied the paper's acceptability
    /// criterion against its set point.
    pub acceptable: Vec<bool>,
}

/// Protocol of a steady-execution-time run (Experiment I).
#[derive(Debug, Clone)]
pub struct SteadyRun {
    /// Workload to simulate.
    pub set: TaskSet,
    /// Controller under test.
    pub controller: ControllerSpec,
    /// Job-level execution-time randomness.
    pub exec_model: ExecModel,
    /// Number of sampling periods to run.
    pub periods: usize,
    /// Measurement window `[from, to)` in periods, excluding the
    /// transient (the paper uses `[100, 300]`).
    pub window: (usize, usize),
    /// RNG seed.
    pub seed: u64,
}

impl SteadyRun {
    /// The paper's Experiment I protocol on a workload: 300 periods,
    /// window `[100, 300)`.
    pub fn paper(set: TaskSet, controller: ControllerSpec, exec_model: ExecModel) -> Self {
        SteadyRun {
            set,
            controller,
            exec_model,
            periods: 300,
            window: (100, 300),
            seed: 1,
        }
    }

    /// Runs one constant-etf experiment and returns the full trace.
    ///
    /// # Errors
    ///
    /// Propagates loop-construction failures.
    pub fn run(&self, etf: f64) -> Result<RunResult, CoreError> {
        let cfg = SimConfig::constant_etf(etf)
            .exec_model(self.exec_model)
            .seed(self.seed);
        let mut cl = LoopBuilder::new(self.set.clone())
            .sim_config(cfg)
            .controller(self.controller.clone())
            .local()?;
        Ok(cl.run(self.periods))
    }

    /// Sweeps the execution-time factor (Figures 4 / 5): one run per
    /// factor, reporting windowed statistics per processor.
    ///
    /// The runs are independent (each gets its own simulator and
    /// controller, seeded identically), so they are fanned out across
    /// threads; results come back in `etfs` order regardless of which
    /// run finishes first.  Thread count follows `RAYON_NUM_THREADS`.
    ///
    /// # Errors
    ///
    /// Propagates loop-construction failures.
    pub fn sweep(&self, etfs: &[f64]) -> Result<Vec<SweepPoint>, CoreError> {
        etfs.par_iter()
            .map(|&etf| {
                let result = self.run(etf)?;
                let (from, to) = self.window;
                let n = result.set_points.len();
                let stats: Vec<SeriesStats> = (0..n)
                    .map(|p| metrics::window(&result.trace.utilization_series(p), from, to))
                    .collect();
                let acceptable = stats
                    .iter()
                    .zip(result.set_points.iter())
                    .map(|(s, &b)| metrics::acceptable(*s, b))
                    .collect();
                Ok(SweepPoint {
                    etf,
                    stats,
                    acceptable,
                })
            })
            .collect()
    }
}

/// Protocol of the varying-execution-times stress test (Experiment II,
/// Figures 6–8): etf starts at 0.5, jumps to 0.9 at `100·Ts` (an 80%
/// increase in execution times) and drops to 0.33 at `200·Ts` (a 67%
/// decrease).
#[derive(Debug, Clone)]
pub struct VaryingRun {
    /// Workload to simulate.
    pub set: TaskSet,
    /// Controller under test.
    pub controller: ControllerSpec,
    /// Job-level execution-time randomness.
    pub exec_model: ExecModel,
    /// Sampling period (time units).
    pub ts: f64,
    /// Number of sampling periods (the paper runs 300).
    pub periods: usize,
    /// RNG seed.
    pub seed: u64,
}

impl VaryingRun {
    /// The paper's Experiment II protocol.
    pub fn paper(set: TaskSet, controller: ControllerSpec, exec_model: ExecModel) -> Self {
        VaryingRun {
            set,
            controller,
            exec_model,
            ts: crate::DEFAULT_SAMPLING_PERIOD,
            periods: 300,
            seed: 1,
        }
    }

    /// The paper's step profile for this run's sampling period.
    pub fn profile(&self) -> EtfProfile {
        EtfProfile::steps(&[(0.0, 0.5), (100.0 * self.ts, 0.9), (200.0 * self.ts, 0.33)])
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Propagates loop-construction failures.
    pub fn run(&self) -> Result<RunResult, CoreError> {
        let cfg = SimConfig {
            exec_model: self.exec_model,
            etf: self.profile(),
            seed: self.seed,
            release_guard: Default::default(),
            processor_speeds: None,
        };
        let mut cl = LoopBuilder::new(self.set.clone())
            .sim_config(cfg)
            .controller(self.controller.clone())
            .sampling_period(self.ts)
            .local()?;
        Ok(cl.run(self.periods))
    }

    /// Settling time (in periods) of a processor's utilization after the
    /// disturbance at period `event`: how long until it re-enters and
    /// holds within `±band` of the set point for 10 consecutive periods,
    /// measured up to the next event.
    pub fn settling_after(
        result: &RunResult,
        processor: usize,
        event: usize,
        until: usize,
        band: f64,
    ) -> Option<usize> {
        let series = result.trace.utilization_series(processor);
        let series = &series[..until.min(series.len())];
        let target = result.set_points[processor];
        metrics::settling_hold(series, target, band, event, 10).map(|k| k - event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_control::MpcConfig;
    use eucon_tasks::workloads;

    fn quick_steady(controller: ControllerSpec) -> SteadyRun {
        SteadyRun {
            set: workloads::simple(),
            controller,
            exec_model: ExecModel::Constant,
            periods: 120,
            window: (80, 120),
            seed: 1,
        }
    }

    #[test]
    fn sweep_reports_per_processor_stats() {
        let run = quick_steady(ControllerSpec::Eucon(MpcConfig::simple()));
        let points = run.sweep(&[0.5, 1.0]).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.stats.len(), 2);
            assert_eq!(p.acceptable.len(), 2);
            // EUCON at feasible etf tracks 0.828.
            assert!(
                (p.stats[0].mean - 0.828).abs() < 0.05,
                "etf {}: {:?}",
                p.etf,
                p.stats
            );
        }
    }

    #[test]
    fn paper_protocol_defaults() {
        let run = SteadyRun::paper(
            workloads::simple(),
            ControllerSpec::Open,
            ExecModel::Constant,
        );
        assert_eq!(run.periods, 300);
        assert_eq!(run.window, (100, 300));
    }

    #[test]
    fn varying_profile_matches_paper() {
        let run = VaryingRun::paper(
            workloads::simple(),
            ControllerSpec::Eucon(MpcConfig::simple()),
            ExecModel::Constant,
        );
        let p = run.profile();
        assert_eq!(p.value_at(50_000.0), 0.5);
        assert_eq!(p.value_at(150_000.0), 0.9);
        assert_eq!(p.value_at(250_000.0), 0.33);
    }

    #[test]
    fn varying_run_reconverges() {
        let mut run = VaryingRun::paper(
            workloads::simple(),
            ControllerSpec::Eucon(MpcConfig::simple()),
            ExecModel::Constant,
        );
        run.periods = 300;
        let result = run.run().unwrap();
        // After the step at 100, P1 re-settles within a few tens of
        // periods (paper: within 20 Ts).
        let settle = VaryingRun::settling_after(&result, 0, 105, 200, 0.05);
        assert!(settle.is_some(), "must re-settle after the 0.9 step");
        assert!(settle.unwrap() < 60, "settling too slow: {:?}", settle);
    }
}
