//! Supervisory control: sensor validation, a watchdog, and graceful
//! degradation around any [`RateController`].
//!
//! The EUCON loop assumes monitors always report sane utilizations and the
//! controller always returns (§4).  Deployed systems get neither: monitors
//! freeze, report NaN after a crash, or go out of range, and an
//! optimization-based controller can fail when its inputs are garbage.
//! Following the fallback-law pattern of Hosseinzadeh et al. (2022) and
//! the graceful-degradation argument of imprecise-computation scheduling,
//! [`Supervised`] wraps a primary controller with three layers:
//!
//! 1. **Sensor validation** — non-finite or out-of-`[0, u_max]` samples
//!    never reach the primary law; the last good value is substituted and
//!    a per-processor staleness counter advances.
//! 2. **Watchdog** — after `max_control_errors` consecutive primary-law
//!    failures, or once any processor's staleness reaches `max_stale`,
//!    the wrapper *degrades*: the primary law is benched and a safe-mode
//!    law slews rates exponentially toward known-safe rates (design-time
//!    rates or `Rmin`), which no fault can destabilize.
//! 3. **Re-engagement** — after `reengage_hold` consecutive healthy
//!    periods the primary law is [`RateController::reset`] to the current
//!    rates (no pre-fault momentum) and takes over again.
//!
//! The wrapper's own output is always finite and inside the rate box,
//! whatever the inner controller or the sensors do.

use eucon_math::Vector;
use eucon_tasks::TaskSet;

use crate::{ControlError, ControlMode, ControllerTelemetry, RateController};

/// Thresholds and gains of the supervisory wrapper.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Consecutive primary-controller errors that trigger safe mode.
    pub max_control_errors: usize,
    /// Consecutive invalid samples on one processor that trigger safe
    /// mode (the monitor is considered dead, not just noisy).
    pub max_stale: usize,
    /// Consecutive fully-healthy periods required before the primary law
    /// is re-engaged.
    pub reengage_hold: usize,
    /// Fraction of the remaining gap to the safe rates closed per period
    /// while degraded, in `(0, 1]` (exponential slew — bounded moves, no
    /// overshoot).
    pub slew: f64,
    /// Upper bound of the valid utilization range (samples outside
    /// `[0, u_max]` are rejected; 1.5 tolerates monitor overshoot while
    /// catching sign flips and garbage).
    pub u_max: f64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_control_errors: 3,
            max_stale: 5,
            reengage_hold: 5,
            slew: 0.25,
            u_max: 1.5,
        }
    }
}

impl SupervisorConfig {
    /// Checks every field: positive thresholds, a slew in `(0, 1]` and a
    /// positive finite `u_max`.
    ///
    /// # Errors
    ///
    /// [`ControlError::Config`] naming the first field out of its domain.
    pub fn validate(&self) -> Result<(), ControlError> {
        let counts = [
            ("max_control_errors", self.max_control_errors),
            ("max_stale", self.max_stale),
            ("reengage_hold", self.reengage_hold),
        ];
        let msg = if let Some((field, _)) = counts.iter().find(|(_, v)| *v == 0) {
            format!("{field} must be at least 1, got 0")
        } else if !(self.slew > 0.0 && self.slew <= 1.0) {
            format!("slew must be in (0, 1], got {}", self.slew)
        } else if !(self.u_max > 0.0 && self.u_max.is_finite()) {
            format!("u_max must be positive and finite, got {}", self.u_max)
        } else {
            return Ok(());
        };
        Err(ControlError::Config(msg))
    }

    /// Sets the consecutive-error threshold.
    pub fn max_control_errors(mut self, n: usize) -> Self {
        self.max_control_errors = n;
        self
    }

    /// Sets the per-processor staleness threshold.
    pub fn max_stale(mut self, m: usize) -> Self {
        self.max_stale = m;
        self
    }

    /// Sets the healthy-period hold before re-engagement.
    pub fn reengage_hold(mut self, h: usize) -> Self {
        self.reengage_hold = h;
        self
    }

    /// Sets the safe-mode slew fraction.
    pub fn slew(mut self, s: f64) -> Self {
        self.slew = s;
        self
    }
}

/// Counters accumulated by a [`Supervised`] wrapper over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Samples rejected by validation (non-finite or out of range).
    pub rejected_samples: usize,
    /// Samples flagged as stale lane reuses (the feedback lane lost or
    /// delayed the report and the loop substituted the last delivered
    /// value; see [`RateController::note_stale`]).
    pub stale_reports: usize,
    /// Errors returned by the primary controller (absorbed, not
    /// propagated).
    pub control_errors: usize,
    /// Times the watchdog entered safe mode.
    pub degradations: usize,
    /// Periods spent in safe mode.
    pub degraded_periods: usize,
    /// Times the primary law was reset and re-engaged.
    pub reengagements: usize,
}

/// A supervisory wrapper around any [`RateController`]: validates
/// sensors, absorbs controller failures, degrades to a safe fallback law
/// and re-engages the primary law once health returns.
///
/// # Example
///
/// ```
/// use eucon_control::{
///     MpcConfig, MpcController, RateController, Supervised, SupervisorConfig,
/// };
/// use eucon_math::Vector;
/// use eucon_tasks::{rms_set_points, workloads};
///
/// # fn main() -> Result<(), eucon_control::ControlError> {
/// let set = workloads::simple();
/// let b = rms_set_points(&set);
/// let mpc = MpcController::new(&set, b, MpcConfig::simple())?;
/// let mut sup = Supervised::new(mpc, &set, SupervisorConfig::default())?;
/// // A NaN sample never reaches the MPC and never produces a bad rate.
/// sup.update(&Vector::from_slice(&[f64::NAN, 0.5]))?;
/// assert!(sup.rates().iter().all(|ri| ri.is_finite()));
/// assert_eq!(sup.report().rejected_samples, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Supervised<C> {
    inner: C,
    cfg: SupervisorConfig,
    rmin: Vector,
    rmax: Vector,
    /// Rates the fallback law slews toward — safe by construction
    /// (design-time rates, or `Rmin` as the most conservative choice).
    safe_rates: Vector,
    /// Rates currently commanded by the wrapper (the loop actuates these,
    /// never the inner controller's directly).
    rates: Vector,
    /// Validated samples handed to the primary law.
    sanitized: Vector,
    last_good: Vector,
    seen_valid: Vec<bool>,
    stale: Vec<usize>,
    /// Lanes flagged stale for the upcoming update (set by `note_stale`,
    /// consumed and cleared by `update`).
    lane_stale: Vec<bool>,
    consecutive_errors: usize,
    healthy_streak: usize,
    degraded: bool,
    report: SupervisorReport,
}

impl<C: RateController> Supervised<C> {
    /// Wraps `inner` for the given task set.  The fallback law defaults
    /// to slewing toward `Rmin`; see [`Supervised::safe_rates`] for
    /// a design-rate fallback.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::Config`] when `cfg` fails
    /// [`SupervisorConfig::validate`], and
    /// [`ControlError::DimensionMismatch`] when the inner controller's
    /// rate vector does not match the task set.
    pub fn new(inner: C, set: &TaskSet, cfg: SupervisorConfig) -> Result<Self, ControlError> {
        cfg.validate()?;
        let (rmin, rmax) = set.rate_bounds();
        let m = set.num_tasks();
        let n = set.num_processors();
        if inner.rates().len() != m {
            return Err(ControlError::DimensionMismatch(format!(
                "inner controller commands {} rates for {m} tasks",
                inner.rates().len()
            )));
        }
        let rates = inner.rates().clone();
        Ok(Supervised {
            inner,
            cfg,
            safe_rates: rmin.clone(),
            rmin,
            rmax,
            rates,
            sanitized: Vector::zeros(n),
            last_good: Vector::zeros(n),
            seen_valid: vec![false; n],
            stale: vec![0; n],
            lane_stale: vec![false; n],
            consecutive_errors: 0,
            healthy_streak: 0,
            degraded: false,
            report: SupervisorReport::default(),
        })
    }

    /// Replaces the fallback target rates (e.g. OPEN's design rates, so
    /// safe mode holds the design point instead of throttling to the
    /// floor).  Values are clamped into the rate box.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match, or any rate is non-finite.
    pub fn safe_rates(mut self, safe: Vector) -> Self {
        assert_eq!(safe.len(), self.rates.len(), "one safe rate per task");
        assert!(safe.is_finite(), "safe rates must be finite");
        self.safe_rates =
            Vector::from_iter((0..safe.len()).map(|t| safe[t].clamp(self.rmin[t], self.rmax[t])));
        self
    }

    /// The wrapper's accumulated counters.
    pub fn report(&self) -> SupervisorReport {
        self.report
    }

    /// Whether the watchdog currently holds the loop in safe mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The wrapped primary controller (read-only).
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps the primary controller, discarding supervision state.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Enters safe mode (idempotent within a period).
    fn degrade(&mut self) {
        if !self.degraded {
            self.degraded = true;
            self.report.degradations += 1;
        }
    }
}

impl<C: RateController> RateController for Supervised<C> {
    /// Never fails for correctly-sized input: sensor faults and primary
    /// controller errors are absorbed by the watchdog, and the returned
    /// rates are always finite and inside the rate box.
    fn update(&mut self, u: &Vector) -> Result<(), ControlError> {
        if u.len() != self.last_good.len() {
            return Err(ControlError::DimensionMismatch(format!(
                "{} utilization samples for {} processors",
                u.len(),
                self.last_good.len()
            )));
        }

        // 1. Sensor validation: substitute last-good for invalid samples.
        let mut all_valid = true;
        for p in 0..u.len() {
            let v = u[p];
            let lane_stale = std::mem::replace(&mut self.lane_stale[p], false);
            if lane_stale {
                // The lane reused an old value: the sample is finite but
                // carries no fresh information.  Advance the staleness
                // counter (a dead lane trips the watchdog like a dead
                // monitor), but the value itself is safe to forward.
                all_valid = false;
                self.stale[p] += 1;
                self.report.stale_reports += 1;
                self.sanitized[p] = if v.is_finite() && (0.0..=self.cfg.u_max).contains(&v) {
                    v
                } else if self.seen_valid[p] {
                    self.last_good[p]
                } else {
                    0.0
                };
            } else if v.is_finite() && (0.0..=self.cfg.u_max).contains(&v) {
                self.last_good[p] = v;
                self.seen_valid[p] = true;
                self.stale[p] = 0;
                self.sanitized[p] = v;
            } else {
                all_valid = false;
                self.stale[p] += 1;
                self.report.rejected_samples += 1;
                // Before any valid sample exists, 0 is the conservative
                // substitute: the primary law raises rates slowly from
                // there instead of acting on garbage.
                self.sanitized[p] = if self.seen_valid[p] {
                    self.last_good[p]
                } else {
                    0.0
                };
            }
        }
        if self.stale.iter().any(|&s| s >= self.cfg.max_stale) {
            self.degrade();
        }

        // 2. Primary law, guarded by the watchdog.  A non-finite rate
        // command is a controller fault even if the call "succeeded".
        if !self.degraded {
            let healthy =
                self.inner.update(&self.sanitized).is_ok() && self.inner.rates().is_finite();
            if healthy {
                self.consecutive_errors = 0;
                let r = self.inner.rates();
                for t in 0..self.rates.len() {
                    self.rates[t] = r[t].clamp(self.rmin[t], self.rmax[t]);
                }
            } else {
                self.report.control_errors += 1;
                self.consecutive_errors += 1;
                if self.consecutive_errors >= self.cfg.max_control_errors {
                    self.degrade();
                }
                // Until the watchdog trips, hold the previous rates.
            }
        }

        // 3. Safe mode: slew toward the safe rates; re-engage on health.
        if self.degraded {
            self.report.degraded_periods += 1;
            for t in 0..self.rates.len() {
                let step = self.cfg.slew * (self.safe_rates[t] - self.rates[t]);
                self.rates[t] = (self.rates[t] + step).clamp(self.rmin[t], self.rmax[t]);
            }
            self.healthy_streak = if all_valid {
                self.healthy_streak + 1
            } else {
                0
            };
            if self.healthy_streak >= self.cfg.reengage_hold {
                self.inner.reset(&self.rates);
                self.degraded = false;
                self.consecutive_errors = 0;
                self.healthy_streak = 0;
                self.report.reengagements += 1;
            }
        }

        Ok(())
    }

    fn rates(&self) -> &Vector {
        &self.rates
    }

    fn name(&self) -> &'static str {
        "SUPERVISED"
    }

    fn mode(&self) -> ControlMode {
        if self.degraded {
            ControlMode::Degraded
        } else {
            ControlMode::Nominal
        }
    }

    /// The primary law's telemetry (QP internals when it is an MPC) with
    /// the watchdog's own counters layered on top.
    fn telemetry(&self) -> ControllerTelemetry {
        ControllerTelemetry {
            degraded: self.degraded,
            rejected_samples: self.report.rejected_samples as u64,
            stale_max: self.stale.iter().copied().max().unwrap_or(0),
            degradations: self.report.degradations as u64,
            reengagements: self.report.reengagements as u64,
            ..self.inner.telemetry()
        }
    }

    fn reset(&mut self, rates: &Vector) {
        for t in 0..self.rates.len() {
            self.rates[t] = rates[t].clamp(self.rmin[t], self.rmax[t]);
        }
        self.inner.reset(&self.rates);
        self.stale.iter_mut().for_each(|s| *s = 0);
        self.lane_stale.iter_mut().for_each(|s| *s = false);
        self.consecutive_errors = 0;
        self.healthy_streak = 0;
        self.degraded = false;
    }

    fn note_stale(&mut self, processor: usize) {
        if let Some(flag) = self.lane_stale.get_mut(processor) {
            *flag = true;
        }
    }

    /// Departures are honored even in safe mode (a task that left the
    /// plant must leave the model), shrinking the wrapper's own per-task
    /// state alongside the primary law's plant model.
    fn membership_retain(&mut self, keep: &[bool]) -> Result<(), ControlError> {
        if keep.len() != self.rates.len() {
            return Err(ControlError::DimensionMismatch(format!(
                "{} keep flags for {} tasks",
                keep.len(),
                self.rates.len()
            )));
        }
        self.inner.membership_retain(keep)?;
        let subset =
            |v: &Vector| Vector::from_iter((0..keep.len()).filter(|&t| keep[t]).map(|t| v[t]));
        self.rmin = subset(&self.rmin);
        self.rmax = subset(&self.rmax);
        self.safe_rates = subset(&self.safe_rates);
        self.rates = subset(&self.rates);
        Ok(())
    }

    /// Admissions are frozen while the watchdog holds the loop in safe
    /// mode: a degraded system must not take on new load.
    fn membership_admit(
        &mut self,
        f_col: &[f64],
        rate_min: f64,
        rate_max: f64,
        initial_rate: f64,
    ) -> Result<(), ControlError> {
        if self.degraded {
            return Err(ControlError::Unsupported(
                "safe mode: admissions are frozen until the primary law re-engages".into(),
            ));
        }
        self.inner
            .membership_admit(f_col, rate_min, rate_max, initial_rate)?;
        let r0 = initial_rate.clamp(rate_min, rate_max);
        self.rmin.push(rate_min);
        self.rmax.push(rate_max);
        // The most conservative safe rate for a task nobody has vetted
        // under faults is its floor.
        self.safe_rates.push(rate_min);
        self.rates.push(r0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MpcConfig, MpcController};
    use eucon_tasks::{rms_set_points, workloads};

    fn supervised_mpc(cfg: SupervisorConfig) -> Supervised<MpcController> {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let mpc = MpcController::new(&set, b, MpcConfig::simple()).unwrap();
        Supervised::new(mpc, &set, cfg).unwrap()
    }

    fn in_box(r: &Vector) -> bool {
        let set = workloads::simple();
        set.tasks().iter().enumerate().all(|(t, task)| {
            r[t].is_finite() && r[t] >= task.rate_min() - 1e-12 && r[t] <= task.rate_max() + 1e-12
        })
    }

    #[test]
    fn healthy_samples_pass_through_to_the_primary_law() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let mut raw = MpcController::new(&set, b, MpcConfig::simple()).unwrap();
        let mut sup = supervised_mpc(SupervisorConfig::default());
        let u = Vector::from_slice(&[0.4, 0.4]);
        for _ in 0..20 {
            raw.update(&u).unwrap();
            sup.update(&u).unwrap();
            assert!(
                sup.rates().approx_eq(raw.rates(), 1e-12),
                "transparent when healthy"
            );
        }
        assert_eq!(sup.report(), SupervisorReport::default());
        assert_eq!(sup.mode(), ControlMode::Nominal);
    }

    #[test]
    fn invalid_samples_are_substituted_not_forwarded() {
        let mut sup = supervised_mpc(SupervisorConfig::default());
        sup.update(&Vector::from_slice(&[0.5, 0.5])).unwrap();
        for bad in [f64::NAN, f64::INFINITY, -0.2, 7.0] {
            sup.update(&Vector::from_slice(&[bad, 0.5])).unwrap();
            assert!(
                in_box(sup.rates()),
                "bad sample {bad} leaked: {}",
                sup.rates()
            );
        }
        assert_eq!(sup.report().rejected_samples, 4);
        // Interleaved valid samples keep staleness below the threshold.
        assert!(!sup.is_degraded());
        assert_eq!(sup.report().control_errors, 0, "MPC never saw garbage");
    }

    #[test]
    fn dead_sensor_degrades_and_recovery_reengages() {
        let cfg = SupervisorConfig::default().max_stale(4).reengage_hold(3);
        let mut sup = supervised_mpc(cfg);
        for _ in 0..10 {
            sup.update(&Vector::from_slice(&[0.5, 0.5])).unwrap();
        }
        // Monitor on P1 dies: NaN forever.
        for k in 0..4 {
            sup.update(&Vector::from_slice(&[f64::NAN, 0.5])).unwrap();
            assert_eq!(sup.is_degraded(), k == 3, "degrades exactly at M = 4");
        }
        assert_eq!(sup.report().degradations, 1);
        // While dead, rates slew toward the safe rates (Rmin by default).
        let mut prev_gap = f64::INFINITY;
        for _ in 0..20 {
            sup.update(&Vector::from_slice(&[f64::NAN, 0.5])).unwrap();
            let r = sup.rates().clone();
            assert!(in_box(&r));
            let gap: f64 = (0..r.len()).map(|t| (r[t] - sup.safe_rates[t]).abs()).sum();
            assert!(gap <= prev_gap + 1e-12, "monotone approach to safe rates");
            prev_gap = gap;
        }
        assert!(prev_gap < 1e-3, "converged to the safe rates: {prev_gap}");
        // Monitor comes back: three healthy periods re-engage the MPC.
        for _ in 0..3 {
            assert!(sup.is_degraded());
            sup.update(&Vector::from_slice(&[0.3, 0.3])).unwrap();
        }
        assert!(!sup.is_degraded());
        assert_eq!(sup.report().reengagements, 1);
        // Re-engaged MPC raises rates from the floor again.
        let before = sup.rates().sum();
        sup.update(&Vector::from_slice(&[0.3, 0.3])).unwrap();
        assert!(sup.rates().sum() > before, "primary law back in charge");
    }

    /// A primary law that always fails, for watchdog tests.
    struct Dead {
        rates: Vector,
    }

    impl RateController for Dead {
        fn update(&mut self, _u: &Vector) -> Result<(), ControlError> {
            Err(ControlError::DimensionMismatch("dead".into()))
        }
        fn rates(&self) -> &Vector {
            &self.rates
        }
        fn name(&self) -> &'static str {
            "dead"
        }
    }

    #[test]
    fn repeated_controller_errors_trip_the_watchdog() {
        let set = workloads::simple();
        let dead = Dead {
            rates: set.initial_rates(),
        };
        let cfg = SupervisorConfig::default().max_control_errors(3);
        let mut sup = Supervised::new(dead, &set, cfg).unwrap();
        let u = Vector::from_slice(&[0.5, 0.5]);
        for k in 0..3 {
            sup.update(&u).unwrap();
            assert!(
                in_box(sup.rates()),
                "update stays total while errors accumulate"
            );
            assert_eq!(sup.is_degraded(), k == 2, "degrades at N = 3");
        }
        assert_eq!(sup.report().control_errors, 3);
        // The inner law keeps failing, so even with healthy sensors the
        // wrapper stays in (or re-enters) safe mode and drives to Rmin.
        for _ in 0..40 {
            sup.update(&u).unwrap();
            assert!(in_box(sup.rates()));
        }
        let (rmin, _) = set.rate_bounds();
        assert!(
            sup.rates().approx_eq(&rmin, 1e-2),
            "safe mode parks at Rmin: {} vs {}",
            sup.rates(),
            rmin
        );
    }

    /// A primary law that returns NaN rates (worse than failing).
    struct Lying {
        rates: Vector,
    }

    impl RateController for Lying {
        fn update(&mut self, _u: &Vector) -> Result<(), ControlError> {
            self.rates = self.rates.map(|_| f64::NAN);
            Ok(())
        }
        fn rates(&self) -> &Vector {
            &self.rates
        }
        fn name(&self) -> &'static str {
            "lying"
        }
    }

    #[test]
    fn non_finite_inner_rates_count_as_errors() {
        let set = workloads::simple();
        let lying = Lying {
            rates: set.initial_rates(),
        };
        let mut sup = Supervised::new(lying, &set, SupervisorConfig::default()).unwrap();
        for _ in 0..10 {
            sup.update(&Vector::from_slice(&[0.5, 0.5])).unwrap();
            assert!(sup.rates().is_finite(), "NaN must never escape the wrapper");
        }
        assert!(sup.is_degraded());
        assert!(sup.report().control_errors >= 3);
    }

    #[test]
    fn safe_rates_can_be_design_rates() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let open = crate::OpenLoop::design(&set, &b).unwrap();
        let design = open.rates().clone();
        let mpc = MpcController::new(&set, b, MpcConfig::simple()).unwrap();
        let mut sup = Supervised::new(mpc, &set, SupervisorConfig::default().max_stale(2))
            .unwrap()
            .safe_rates(design.clone());
        for _ in 0..60 {
            sup.update(&Vector::from_slice(&[f64::NAN, f64::NAN]))
                .unwrap();
        }
        assert!(sup.is_degraded());
        assert!(
            sup.rates().approx_eq(&design, 1e-3),
            "fallback holds the design point"
        );
    }

    #[test]
    fn stale_lane_trips_the_watchdog_like_a_dead_monitor() {
        let cfg = SupervisorConfig::default().max_stale(4).reengage_hold(3);
        let mut sup = supervised_mpc(cfg);
        for _ in 0..5 {
            sup.update(&Vector::from_slice(&[0.5, 0.5])).unwrap();
        }
        // P1's feedback lane dies: the loop keeps substituting the last
        // delivered value (finite, in range) but flags every reuse.
        for k in 0..4 {
            sup.note_stale(0);
            sup.update(&Vector::from_slice(&[0.5, 0.5])).unwrap();
            assert_eq!(sup.is_degraded(), k == 3, "trips exactly at M = 4");
        }
        assert_eq!(sup.report().stale_reports, 4);
        assert_eq!(
            sup.report().rejected_samples,
            0,
            "stale reuses are not invalid samples"
        );
        // The lane heals: fresh samples re-engage the primary law.
        for _ in 0..3 {
            sup.update(&Vector::from_slice(&[0.4, 0.5])).unwrap();
        }
        assert!(!sup.is_degraded());
        assert_eq!(sup.report().reengagements, 1);
    }

    #[test]
    fn interleaved_fresh_reports_keep_a_flaky_lane_engaged() {
        let mut sup = supervised_mpc(SupervisorConfig::default().max_stale(3));
        sup.update(&Vector::from_slice(&[0.5, 0.5])).unwrap();
        // 50% lane loss: staleness never accumulates to the threshold.
        for k in 0..20 {
            if k % 2 == 0 {
                sup.note_stale(1);
            }
            sup.update(&Vector::from_slice(&[0.5, 0.5])).unwrap();
        }
        assert!(!sup.is_degraded());
        assert_eq!(sup.report().stale_reports, 10);
    }

    #[test]
    fn dimension_mismatch_still_reported() {
        let mut sup = supervised_mpc(SupervisorConfig::default());
        assert!(matches!(
            sup.update(&Vector::zeros(5)),
            Err(ControlError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn config_validated() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let mpc = MpcController::new(&set, b, MpcConfig::simple()).unwrap();
        let cases = [
            ("slew", SupervisorConfig::default().slew(0.0)),
            ("slew", SupervisorConfig::default().slew(f64::NAN)),
            (
                "u_max",
                SupervisorConfig {
                    u_max: f64::NAN,
                    ..SupervisorConfig::default()
                },
            ),
            ("max_stale", SupervisorConfig::default().max_stale(0)),
            (
                "max_control_errors",
                SupervisorConfig::default().max_control_errors(0),
            ),
            (
                "reengage_hold",
                SupervisorConfig::default().reengage_hold(0),
            ),
        ];
        for (field, cfg) in cases {
            match Supervised::new(mpc.clone(), &set, cfg.clone()) {
                Err(ControlError::Config(msg)) => assert!(msg.starts_with(field), "{msg}"),
                other => panic!("{cfg:?}: {:?}", other.map(|_| ())),
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Under arbitrary fault sequences — NaN, ±∞, negative and
            // out-of-range samples injected at random — the supervised
            // controller never emits a non-finite or out-of-box rate.
            #[test]
            fn rates_stay_finite_and_bounded_under_any_faults(
                seed in 0u64..30,
                fault_mask in 0u32..4096,
            ) {
                let mut sup = supervised_mpc(SupervisorConfig::default());
                let garbage = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 99.0];
                for k in 0..24usize {
                    let mut u = Vector::from_slice(&[
                        0.3 + 0.05 * ((k + seed as usize) % 7) as f64,
                        0.4 + 0.05 * ((k * 3 + seed as usize) % 5) as f64,
                    ]);
                    if fault_mask & (1 << (k % 12)) != 0 {
                        let which = (seed as usize + k) % garbage.len();
                        u[(k + seed as usize) % 2] = garbage[which];
                    }
                    sup.update(&u).unwrap();
                    prop_assert!(in_box(sup.rates()), "period {k}: {}", sup.rates());
                    prop_assert!(sup.rates().is_finite());
                }
            }
        }
    }
}
