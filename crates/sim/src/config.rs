//! Simulation configuration: execution-time models and the execution-time
//! factor profile.

use crate::SimError;

/// Stochastic model for actual subtask execution times.
///
/// The paper's simulator draws actual execution times around a mean of
/// `etf(t) · c_ij` (§7.1): SIMPLE uses constant times, MEDIUM uses a
/// uniform random distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ExecModel {
    /// Every job of a subtask takes exactly its mean execution time.
    Constant,
    /// Job execution times are uniform in `mean · [1 − h, 1 + h]`.
    Uniform {
        /// Half-width `h` of the relative uniform band, in `(0, 1)`.
        half_width: f64,
    },
    /// Job execution times alternate between two modes — the paper's
    /// motivating data-dependent workloads ("the execution times of
    /// visual tracking applications can vary significantly as a function
    /// of the number of potential targets").  With probability `p_high`
    /// a job takes `mean · high`, otherwise `mean · low`.
    ///
    /// Build with [`ExecModel::bimodal`] to keep the long-run average at
    /// `mean`.
    Bimodal {
        /// Relative execution time of the cheap mode (e.g. no targets).
        low: f64,
        /// Relative execution time of the expensive mode (targets in view).
        high: f64,
        /// Probability of the expensive mode, in `[0, 1]`.
        p_high: f64,
    },
}

impl ExecModel {
    /// A mean-preserving bimodal model: the expensive mode costs
    /// `high_over_low` times the cheap one and occurs with probability
    /// `p_high`; the two modes are scaled so the long-run average equals
    /// the configured mean.
    ///
    /// # Panics
    ///
    /// Panics unless `high_over_low > 1` and `0 < p_high < 1`.
    pub fn bimodal(high_over_low: f64, p_high: f64) -> Self {
        assert!(high_over_low > 1.0, "the expensive mode must cost more");
        assert!(
            (0.0..1.0).contains(&p_high) && p_high > 0.0,
            "p_high must be in (0, 1)"
        );
        // E[x] = low·(1−p) + low·ratio·p = 1 ⇒ low = 1/(1 − p + ratio·p).
        let low = 1.0 / (1.0 - p_high + high_over_low * p_high);
        ExecModel::Bimodal {
            low,
            high: low * high_over_low,
            p_high,
        }
    }

    /// Draws an actual execution time for the given mean.
    ///
    /// `unit` must be uniform in `[0, 1)`; the caller provides it so the
    /// model itself stays deterministic and RNG-agnostic.
    pub fn sample(&self, mean: f64, unit: f64) -> f64 {
        match *self {
            ExecModel::Constant => mean,
            ExecModel::Uniform { half_width } => {
                let lo = mean * (1.0 - half_width);
                let hi = mean * (1.0 + half_width);
                (lo + unit * (hi - lo)).max(f64::MIN_POSITIVE)
            }
            ExecModel::Bimodal { low, high, p_high } => {
                let factor = if unit < p_high { high } else { low };
                (mean * factor).max(f64::MIN_POSITIVE)
            }
        }
    }
}

// Not derived: `Constant` is a deliberate semantic default (the paper's
// SIMPLE experiments), not just the first variant.
#[allow(clippy::derivable_impls)]
impl Default for ExecModel {
    fn default() -> Self {
        ExecModel::Constant
    }
}

/// Piecewise-constant execution-time factor profile `etf(t)`.
///
/// The execution-time factor (paper §7.1) scales every subtask's actual
/// mean execution time relative to its design-time estimate:
/// `mean_ij(t) = etf(t) · c_ij`.  Experiment I uses constant profiles;
/// Experiment II uses the step profile 0.5 → 0.9 at `100·Ts` → 0.33 at
/// `200·Ts`.
///
/// # Example
///
/// ```
/// use eucon_sim::EtfProfile;
///
/// let profile = EtfProfile::steps(&[(0.0, 0.5), (100_000.0, 0.9), (200_000.0, 0.33)]);
/// assert_eq!(profile.value_at(50_000.0), 0.5);
/// assert_eq!(profile.value_at(150_000.0), 0.9);
/// assert_eq!(profile.value_at(250_000.0), 0.33);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EtfProfile {
    /// `(start_time, factor)` pairs, sorted by time.
    steps: Vec<(f64, f64)>,
}

impl EtfProfile {
    /// A constant factor for the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not a positive finite number.
    pub fn constant(factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "etf must be positive and finite"
        );
        EtfProfile {
            steps: vec![(0.0, factor)],
        }
    }

    /// A step profile from `(start_time, factor)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty, not sorted by strictly increasing time,
    /// does not start at time 0, or contains a non-positive factor.
    pub fn steps(steps: &[(f64, f64)]) -> Self {
        assert!(!steps.is_empty(), "profile needs at least one step");
        assert_eq!(steps[0].0, 0.0, "profile must start at time 0");
        for w in steps.windows(2) {
            assert!(w[0].0 < w[1].0, "step times must be strictly increasing");
        }
        for &(_, f) in steps {
            assert!(f > 0.0 && f.is_finite(), "etf must be positive and finite");
        }
        EtfProfile {
            steps: steps.to_vec(),
        }
    }

    /// The factor in effect at time `t` (clamped to the first step for
    /// negative times).
    pub fn value_at(&self, t: f64) -> f64 {
        let mut current = self.steps[0].1;
        for &(start, f) in &self.steps {
            if t >= start {
                current = f;
            } else {
                break;
            }
        }
        current
    }
}

impl Default for EtfProfile {
    fn default() -> Self {
        EtfProfile::constant(1.0)
    }
}

/// Variant of the release-guard synchronization protocol (Sun & Liu).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ReleaseGuard {
    /// Rule 1 + rule 2: a guarded subtask may release early when its
    /// processor is idle.  Prevents transient overloads from permanently
    /// phase-shifting downstream subtasks (measured in EXPERIMENTS.md:
    /// 43% end-to-end misses in Experiment II without rule 2, 2–3% with
    /// it).  The default.
    #[default]
    IdleRelease,
    /// Rule 1 only: consecutive releases of a subtask are always spaced
    /// at least one period apart — strictly periodic, at the price of
    /// unrecoverable phase drift after overloads.
    Strict,
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Stochastic execution-time model.
    pub exec_model: ExecModel,
    /// Execution-time factor profile.
    pub etf: EtfProfile,
    /// RNG seed for the execution-time draws.
    pub seed: u64,
    /// Release-guard variant (default: idle-time release).
    pub release_guard: ReleaseGuard,
    /// Optional per-processor speed factors: the execution time of a job
    /// on processor `i` is additionally multiplied by `speeds[i]`.
    ///
    /// Models heterogeneous platforms — and realizes *asymmetric*
    /// utilization gains `G = diag(g_i)`, the general case of the paper's
    /// stability analysis (a factor of 2 on one processor makes `g` twice
    /// the global etf there).  `None` means a homogeneous platform.
    pub processor_speeds: Option<Vec<f64>>,
}

impl SimConfig {
    /// Configuration with a constant execution-time factor and
    /// deterministic execution times.
    pub fn constant_etf(factor: f64) -> Self {
        SimConfig {
            exec_model: ExecModel::Constant,
            etf: EtfProfile::constant(factor),
            seed: 0,
            release_guard: ReleaseGuard::IdleRelease,
            processor_speeds: None,
        }
    }

    /// Chooses the release-guard variant.
    pub fn release_guard(mut self, guard: ReleaseGuard) -> Self {
        self.release_guard = guard;
        self
    }

    /// Checks the configuration against the deployed processor count:
    /// the [`ExecModel`]'s parameters lie in their documented ranges, and
    /// [`SimConfig::processor_speeds`], when set, holds one positive,
    /// finite factor per processor.
    ///
    /// The fields are public, so a model or list that never passed
    /// through a constructor's assert can reach a loop; the loop builders
    /// in `eucon-core` call this (beside [`FaultPlan::validate`]) so it
    /// fails the build with a typed error instead of panicking mid-run
    /// or silently drawing non-finite execution times.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidExecModel`] for a `Uniform` half-width that is
    /// not in `(0, 1)`, a `Bimodal` `low` or `high` that is not positive
    /// and finite, or a `p_high` outside `[0, 1]`; then
    /// [`SimError::WrongArity`] for a speed list of the wrong length, else
    /// [`SimError::InvalidFactor`] for the first speed that is not
    /// positive and finite.
    ///
    /// [`FaultPlan::validate`]: crate::FaultPlan::validate
    pub fn validate(&self, num_processors: usize) -> Result<(), SimError> {
        let bad = |what, value| Err(SimError::InvalidExecModel { what, value });
        match self.exec_model {
            ExecModel::Constant => {}
            ExecModel::Uniform { half_width } => {
                if !(half_width > 0.0 && half_width < 1.0) {
                    return bad("half_width", half_width);
                }
            }
            ExecModel::Bimodal { low, high, p_high } => {
                for (what, mode) in [("low", low), ("high", high)] {
                    if !(mode > 0.0 && mode.is_finite()) {
                        return bad(what, mode);
                    }
                }
                if !(0.0..=1.0).contains(&p_high) {
                    return bad("p_high", p_high);
                }
            }
        }
        let Some(speeds) = &self.processor_speeds else {
            return Ok(());
        };
        if speeds.len() != num_processors {
            return Err(SimError::WrongArity {
                what: "processor_speeds",
                got: speeds.len(),
                num_processors,
            });
        }
        match speeds.iter().find(|&&s| !(s > 0.0 && s.is_finite())) {
            Some(&value) => Err(SimError::InvalidFactor { value }),
            None => Ok(()),
        }
    }

    /// Sets per-processor speed factors (see
    /// [`SimConfig::processor_speeds`]).  The count is checked against
    /// the deployment by [`SimConfig::validate`].
    ///
    /// # Panics
    ///
    /// Panics if any factor is not a positive finite number.
    pub fn processor_speeds(mut self, speeds: Vec<f64>) -> Self {
        assert!(
            speeds.iter().all(|&s| s > 0.0 && s.is_finite()),
            "speed factors must be positive and finite"
        );
        self.processor_speeds = Some(speeds);
        self
    }

    /// Sets the execution-time model.
    pub fn exec_model(mut self, model: ExecModel) -> Self {
        self.exec_model = model;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution-time factor profile.
    pub fn etf(mut self, profile: EtfProfile) -> Self {
        self.etf = profile;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::constant_etf(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model_returns_mean() {
        assert_eq!(ExecModel::Constant.sample(42.0, 0.77), 42.0);
    }

    #[test]
    fn uniform_model_spans_band() {
        let m = ExecModel::Uniform { half_width: 0.5 };
        assert_eq!(m.sample(10.0, 0.0), 5.0);
        assert_eq!(m.sample(10.0, 0.5), 10.0);
        assert!((m.sample(10.0, 1.0) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_model_never_returns_zero() {
        let m = ExecModel::Uniform { half_width: 1.0 };
        assert!(m.sample(10.0, 0.0) > 0.0);
    }

    #[test]
    fn bimodal_modes_and_mean() {
        let m = ExecModel::bimodal(4.0, 0.25);
        let ExecModel::Bimodal { low, high, p_high } = m else {
            panic!("constructor must build the bimodal variant");
        };
        assert!((high / low - 4.0).abs() < 1e-12);
        // Mean preserved: E[factor] = 1.
        let mean = low * (1.0 - p_high) + high * p_high;
        assert!((mean - 1.0).abs() < 1e-12);
        // Sampling picks the expensive mode below p_high.
        assert_eq!(m.sample(10.0, 0.1), 10.0 * high);
        assert_eq!(m.sample(10.0, 0.9), 10.0 * low);
    }

    #[test]
    #[should_panic(expected = "cost more")]
    fn bimodal_ratio_validated() {
        let _ = ExecModel::bimodal(1.0, 0.5);
    }

    #[test]
    fn constant_profile() {
        let p = EtfProfile::constant(0.5);
        assert_eq!(p.value_at(0.0), 0.5);
        assert_eq!(p.value_at(1e9), 0.5);
        assert_eq!(p.value_at(-5.0), 0.5);
    }

    #[test]
    fn step_profile_switches_at_boundaries() {
        let p = EtfProfile::steps(&[(0.0, 0.5), (100.0, 0.9), (200.0, 0.33)]);
        assert_eq!(p.value_at(99.999), 0.5);
        assert_eq!(p.value_at(100.0), 0.9);
        assert_eq!(p.value_at(199.999), 0.9);
        assert_eq!(p.value_at(200.0), 0.33);
    }

    #[test]
    #[should_panic(expected = "start at time 0")]
    fn profile_must_start_at_zero() {
        let _ = EtfProfile::steps(&[(1.0, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn profile_times_must_increase() {
        let _ = EtfProfile::steps(&[(0.0, 0.5), (0.0, 0.9)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_factor_rejected() {
        let _ = EtfProfile::constant(0.0);
    }

    #[test]
    fn config_builders() {
        let cfg = SimConfig::constant_etf(0.5)
            .exec_model(ExecModel::Uniform { half_width: 0.2 })
            .seed(7);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.etf.value_at(0.0), 0.5);
        assert!(matches!(cfg.exec_model, ExecModel::Uniform { .. }));
        assert_eq!(SimConfig::default().etf.value_at(0.0), 1.0);
        assert!(cfg.processor_speeds.is_none());
    }

    #[test]
    fn processor_speeds_builder() {
        let cfg = SimConfig::constant_etf(1.0).processor_speeds(vec![1.0, 2.0]);
        assert_eq!(cfg.processor_speeds, Some(vec![1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn invalid_speed_rejected() {
        let _ = SimConfig::constant_etf(1.0).processor_speeds(vec![0.0]);
    }

    #[test]
    fn validate_checks_the_speed_list_against_the_deployment() {
        let with = |speeds: Vec<f64>| SimConfig {
            processor_speeds: Some(speeds),
            ..SimConfig::default()
        };
        assert_eq!(SimConfig::default().validate(3), Ok(()));
        assert_eq!(with(vec![1.0, 2.0]).validate(2), Ok(()));
        assert_eq!(
            with(vec![1.0]).validate(2),
            Err(SimError::WrongArity {
                what: "processor_speeds",
                got: 1,
                num_processors: 2,
            })
        );
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let err = with(vec![1.0, bad]).validate(2).unwrap_err();
            assert!(matches!(err, SimError::InvalidFactor { .. }), "{bad}");
        }
    }
}
