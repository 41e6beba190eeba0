//! Fault injection: scripted and stochastic infrastructure failures.
//!
//! The paper assumes ideal infrastructure (§4, §6): monitors never lie,
//! rate commands always arrive, processors never crash.  This module
//! scripts exactly those failures so the robustness of the control loop —
//! and of the supervisory wrapper in `eucon-control` — can be measured:
//!
//! * **processor crash + recovery** — a crashed processor executes
//!   nothing and reports `u = 0`; queued jobs miss deadlines
//!   ([`FaultPlan::crash`], or stochastic via [`FaultPlan::random_crashes`]);
//! * **execution-time bursts** — a transient etf spike on one processor
//!   ([`FaultPlan::burst`]);
//! * **sensor faults** — a processor's utilization sample is frozen at
//!   its pre-fault value, replaced by NaN, or forced out of range
//!   ([`FaultPlan::sensor`]);
//! * **lane partitions** — a processor's feedback lane cut off from the
//!   controller for a window ([`FaultPlan::partition`]).  A partition
//!   acts on lanes, so only a distributed loop (`eucon-core`'s
//!   `LoopBuilder::distributed`) accepts one.  Delayed or lost reports
//!   and commands are lane effects too, not faults: a distributed
//!   loop's `NetConfig::report_lanes` / `command_lanes`.
//!
//! A [`FaultPlan`] is pure configuration; a [`FaultInjector`] is its
//! seeded runtime state, stepped once per sampling period by the closed
//! loop.  All stochastic draws are deterministic given the plan's seed.
//!
//! Plans are built fluently **without panicking**; call
//! [`FaultPlan::validate`] (the loop builders in `eucon-core` do this for
//! you) to reject malformed plans — out-of-range processors, empty or
//! inverted windows, ambiguous same-kind overlaps, out-of-range
//! probabilities — with a typed [`SimError`](crate::SimError) instead of
//! a crash mid-experiment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;
use eucon_math::Vector;

/// How a stuck or corrupted utilization sensor misreports.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SensorFaultKind {
    /// The sample freezes at the last pre-fault value (a stuck monitor).
    Frozen,
    /// The sample is replaced by NaN (a crashed monitor process).
    NaN,
    /// The sample is replaced by a constant bogus value (e.g. `-1.0` or
    /// `9.9`), modelling a corrupted report.
    Stuck(f64),
}

/// A fault window on one processor, active for sampling periods
/// `from ≤ k < until` (`until = usize::MAX` means "never repaired").
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window {
    processor: usize,
    from: usize,
    until: usize,
}

impl Window {
    fn active(&self, period: usize) -> bool {
        (self.from..self.until).contains(&period)
    }
}

/// Stochastic crash model: per period, a healthy processor crashes with
/// probability `crash`, and a crashed one recovers with probability
/// `recover` (geometric outage lengths — a memoryless MTBF/MTTR model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomCrashes {
    /// Per-period crash probability of a healthy processor, in `[0, 1)`.
    pub crash: f64,
    /// Per-period recovery probability of a crashed processor, in `(0, 1]`.
    pub recover: f64,
}

/// A scripted (and optionally stochastic) fault scenario.
///
/// Built fluently and handed to the closed loop; see the crate docs of
/// `eucon-core` for the wiring.
///
/// # Example
///
/// ```
/// use eucon_sim::{FaultPlan, SensorFaultKind};
///
/// // P2 crashes at period 60 and recovers at 100; P1's sensor reads
/// // NaN for ten periods; every processor crashes at random (seeded).
/// let plan = FaultPlan::none()
///     .crash(1, 60, 100)
///     .sensor(0, 20, 30, SensorFaultKind::NaN)
///     .random_crashes(0.01, 0.2)
///     .seed(7);
/// assert!(!plan.is_empty());
/// assert_eq!(plan.validate(2), Ok(()));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    crashes: Vec<Window>,
    bursts: Vec<(Window, f64)>,
    sensors: Vec<(Window, SensorFaultKind)>,
    /// Windows during which a processor's feedback lane is partitioned
    /// from the controller: no utilization report arrives (the controller
    /// reuses the last delivered value) and no rate command arrives (the
    /// processor's tasks keep their in-force rates).  The processor itself
    /// keeps executing — only the network between it and the controller
    /// is down.
    partitions: Vec<Window>,
    random_crashes: Option<RandomCrashes>,
    /// Seed for every stochastic draw (random crashes).
    seed: u64,
}

impl FaultPlan {
    /// The empty plan: no faults (the paper's idealization).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.bursts.is_empty()
            && self.sensors.is_empty()
            && self.partitions.is_empty()
            && self.random_crashes.is_none()
    }

    /// Crashes `processor` for sampling periods `from ≤ k < until`.
    ///
    /// Never panics; [`FaultPlan::validate`] rejects empty windows and
    /// out-of-range processors.
    pub fn crash(mut self, processor: usize, from: usize, until: usize) -> Self {
        self.crashes.push(Window {
            processor,
            from,
            until,
        });
        self
    }

    /// Multiplies execution times on `processor` by `factor` for periods
    /// `from ≤ k < until` (a transient execution-time burst).
    ///
    /// Overlapping bursts on one processor are legal and compound
    /// multiplicatively.  Never panics; [`FaultPlan::validate`] rejects
    /// empty windows, out-of-range processors and non-positive factors.
    pub fn burst(mut self, processor: usize, from: usize, until: usize, factor: f64) -> Self {
        self.bursts.push((
            Window {
                processor,
                from,
                until,
            },
            factor,
        ));
        self
    }

    /// Corrupts the utilization sensor of `processor` for periods
    /// `from ≤ k < until`.
    ///
    /// Never panics; [`FaultPlan::validate`] rejects empty windows,
    /// out-of-range processors and same-processor overlaps.
    pub fn sensor(
        mut self,
        processor: usize,
        from: usize,
        until: usize,
        kind: SensorFaultKind,
    ) -> Self {
        self.sensors.push((
            Window {
                processor,
                from,
                until,
            },
            kind,
        ));
        self
    }

    /// Partitions `processor`'s feedback lane from the controller for
    /// sampling periods `from ≤ k < until`: both directions of the lane
    /// are dead (reports out, commands in), while the processor itself
    /// keeps executing on its in-force rates.
    ///
    /// Never panics; [`FaultPlan::validate`] rejects empty windows and
    /// out-of-range processors.
    pub fn partition(mut self, processor: usize, from: usize, until: usize) -> Self {
        self.partitions.push(Window {
            processor,
            from,
            until,
        });
        self
    }

    /// Whether the plan contains any lane-partition windows (a loop
    /// without lanes rejects such a plan).
    pub fn has_partitions(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// Adds memoryless random crashes on every processor.
    ///
    /// Never panics; [`FaultPlan::validate`] rejects `crash` outside
    /// `[0, 1)` and `recover` outside `(0, 1]`.
    pub fn random_crashes(mut self, crash: f64, recover: f64) -> Self {
        self.random_crashes = Some(RandomCrashes { crash, recover });
        self
    }

    /// Seeds the plan's stochastic draws.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the assembled plan against a deployment of
    /// `num_processors` processors.
    ///
    /// Checks, in order: every window's processor is in range; every
    /// window is non-empty (`from < until`); crash, sensor and partition
    /// windows do not overlap another window of the same kind on the same
    /// processor (bursts are exempt — overlapping bursts compound by
    /// design); burst factors are positive and finite; random-crash
    /// probabilities are in `[0, 1)` / `(0, 1]`.
    ///
    /// The loop builders in `eucon-core` call this before constructing a
    /// [`FaultInjector`], so a malformed plan fails the build with a typed
    /// error instead of panicking mid-run.
    ///
    /// # Errors
    ///
    /// The first [`SimError`] found, in the order above.
    pub fn validate(&self, num_processors: usize) -> Result<(), SimError> {
        let bursts: Vec<Window> = self.bursts.iter().map(|&(w, _)| w).collect();
        let sensors: Vec<Window> = self.sensors.iter().map(|&(w, _)| w).collect();
        // Same-kind overlap on one processor is ambiguous for crashes,
        // sensors and partitions; bursts compound and are exempt.
        check_windows("crash", &self.crashes, num_processors, true)?;
        check_windows("burst", &bursts, num_processors, false)?;
        check_windows("sensor", &sensors, num_processors, true)?;
        check_windows("partition", &self.partitions, num_processors, true)?;
        for &(_, factor) in &self.bursts {
            if !(factor > 0.0 && factor.is_finite()) {
                return Err(SimError::InvalidFactor { value: factor });
            }
        }
        if let Some(rc) = self.random_crashes {
            if !(0.0..1.0).contains(&rc.crash) {
                return Err(SimError::InvalidProbability {
                    what: "crash",
                    value: rc.crash,
                });
            }
            if !(rc.recover > 0.0 && rc.recover <= 1.0) {
                return Err(SimError::InvalidProbability {
                    what: "recovery",
                    value: rc.recover,
                });
            }
        }
        Ok(())
    }
}

/// Range + emptiness checks for one fault kind's windows; when
/// `exclusive`, also rejects same-processor overlaps.
fn check_windows(
    fault: &'static str,
    windows: &[Window],
    num_processors: usize,
    exclusive: bool,
) -> Result<(), SimError> {
    for w in windows {
        if w.processor >= num_processors {
            return Err(SimError::ProcessorOutOfRange {
                fault,
                processor: w.processor,
                num_processors,
            });
        }
        if w.from >= w.until {
            return Err(SimError::EmptyWindow {
                fault,
                processor: w.processor,
                from: w.from,
                until: w.until,
            });
        }
    }
    if exclusive {
        for p in 0..num_processors {
            let mut ws: Vec<&Window> = windows.iter().filter(|w| w.processor == p).collect();
            ws.sort_by_key(|w| w.from);
            for pair in ws.windows(2) {
                if pair[1].from < pair[0].until {
                    return Err(SimError::OverlappingWindows {
                        fault,
                        processor: p,
                        first: (pair[0].from, pair[0].until),
                        second: (pair[1].from, pair[1].until),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Runtime state of a [`FaultPlan`], stepped once per sampling period.
///
/// The closed loop calls [`FaultInjector::begin_period`] before advancing
/// the plant and [`FaultInjector::corrupt_sensors`] on the sampled
/// utilization vector.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    num_processors: usize,
    /// Stochastic crash state per processor (scripted windows are
    /// stateless and evaluated per period).
    random_down: Vec<bool>,
    /// Value a frozen sensor is pinned to, captured at fault onset.
    frozen: Vec<Option<f64>>,
    sensor_fault_periods: usize,
}

impl FaultInjector {
    /// Creates the runtime state for `num_processors` processors.
    pub fn new(plan: FaultPlan, num_processors: usize) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(plan.seed),
            plan,
            num_processors,
            random_down: vec![false; num_processors],
            frozen: vec![None; num_processors],
            sensor_fault_periods: 0,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advances stochastic fault state to `period` and returns the set of
    /// processors that must be down during it.
    ///
    /// Call exactly once per period, with strictly increasing `period`
    /// values, before advancing the plant — the stochastic draws are
    /// consumed in order.
    pub fn begin_period(&mut self, period: usize) -> Vec<usize> {
        if let Some(rc) = self.plan.random_crashes {
            for p in 0..self.num_processors {
                let flip = if self.random_down[p] {
                    self.rng.gen::<f64>() < rc.recover
                } else {
                    self.rng.gen::<f64>() < rc.crash
                };
                if flip {
                    self.random_down[p] = !self.random_down[p];
                }
            }
        }
        (0..self.num_processors)
            .filter(|&p| {
                self.random_down[p]
                    || self
                        .plan
                        .crashes
                        .iter()
                        .any(|w| w.processor == p && w.active(period))
            })
            .collect()
    }

    /// The execution-time multiplier each processor must run at during
    /// `period` (compounding overlapping bursts).
    pub fn speed_factor(&self, period: usize, processor: usize) -> f64 {
        self.plan
            .bursts
            .iter()
            .filter(|(w, _)| w.processor == processor && w.active(period))
            .map(|&(_, f)| f)
            .product()
    }

    /// Applies the active sensor faults for `period` to the freshly
    /// sampled utilization vector, in place.
    ///
    /// # Panics
    ///
    /// Panics if `u` does not have one entry per processor.
    pub fn corrupt_sensors(&mut self, period: usize, u: &mut Vector) {
        assert_eq!(u.len(), self.num_processors, "one sample per processor");
        let mut any = false;
        for p in 0..self.num_processors {
            let mut faulted = false;
            for &(w, kind) in &self.plan.sensors {
                if w.processor != p || !w.active(period) {
                    continue;
                }
                faulted = true;
                match kind {
                    SensorFaultKind::Frozen => {
                        let pin = *self.frozen[p].get_or_insert(u[p]);
                        u[p] = pin;
                    }
                    SensorFaultKind::NaN => u[p] = f64::NAN,
                    SensorFaultKind::Stuck(v) => u[p] = v,
                }
            }
            if !faulted {
                self.frozen[p] = None;
            }
            any |= faulted;
        }
        if any {
            self.sensor_fault_periods += 1;
        }
    }

    /// Whether `processor`'s feedback lane is partitioned from the
    /// controller during `period` (scripted windows; stateless query).
    pub fn lane_partitioned(&self, period: usize, processor: usize) -> bool {
        self.plan
            .partitions
            .iter()
            .any(|w| w.processor == processor && w.active(period))
    }

    /// Number of periods in which at least one sensor misreported.
    pub fn sensor_fault_periods(&self) -> usize {
        self.sensor_fault_periods
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let mut inj = FaultInjector::new(plan, 2);
        assert!(inj.begin_period(0).is_empty());
        assert_eq!(inj.speed_factor(0, 0), 1.0);
        let mut u = Vector::from_slice(&[0.5, 0.6]);
        inj.corrupt_sensors(0, &mut u);
        assert_eq!(u.as_slice(), &[0.5, 0.6]);
        assert_eq!(inj.sensor_fault_periods(), 0);
    }

    #[test]
    fn scripted_crash_window_is_half_open() {
        let mut inj = FaultInjector::new(FaultPlan::none().crash(1, 60, 100), 3);
        assert!(inj.begin_period(59).is_empty());
        assert_eq!(inj.begin_period(60), vec![1]);
        assert_eq!(inj.begin_period(99), vec![1]);
        assert!(inj.begin_period(100).is_empty());
    }

    #[test]
    fn bursts_compound() {
        let plan = FaultPlan::none()
            .burst(0, 10, 20, 2.0)
            .burst(0, 15, 25, 3.0);
        let inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.speed_factor(5, 0), 1.0);
        assert_eq!(inj.speed_factor(12, 0), 2.0);
        assert_eq!(inj.speed_factor(17, 0), 6.0);
        assert_eq!(inj.speed_factor(22, 0), 3.0);
    }

    #[test]
    fn frozen_sensor_pins_the_onset_value_and_clears() {
        let plan = FaultPlan::none().sensor(0, 2, 4, SensorFaultKind::Frozen);
        let mut inj = FaultInjector::new(plan, 1);
        for (k, (fresh, want)) in [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3), (0.4, 0.3), (0.5, 0.5)]
            .iter()
            .enumerate()
        {
            let mut u = Vector::from_slice(&[*fresh]);
            inj.corrupt_sensors(k, &mut u);
            assert_eq!(u[0], *want, "period {k}");
        }
        assert_eq!(inj.sensor_fault_periods(), 2);
    }

    #[test]
    fn nan_and_stuck_sensors() {
        let plan = FaultPlan::none()
            .sensor(0, 0, 10, SensorFaultKind::NaN)
            .sensor(1, 0, 10, SensorFaultKind::Stuck(9.9));
        let mut inj = FaultInjector::new(plan, 2);
        let mut u = Vector::from_slice(&[0.5, 0.5]);
        inj.corrupt_sensors(3, &mut u);
        assert!(u[0].is_nan());
        assert_eq!(u[1], 9.9);
    }

    #[test]
    fn random_crashes_are_deterministic_and_recover() {
        let mk = || {
            let mut inj =
                FaultInjector::new(FaultPlan::none().random_crashes(0.05, 0.3).seed(5), 4);
            (0..500)
                .map(|k| inj.begin_period(k).len())
                .collect::<Vec<_>>()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b, "seeded draws must be reproducible");
        let total_down: usize = a.iter().sum();
        assert!(total_down > 0, "crashes must occur");
        assert!(
            *a.iter().max().unwrap() <= 4 && a.contains(&0),
            "processors recover"
        );
    }

    #[test]
    fn partition_windows_are_half_open_and_per_processor() {
        let plan = FaultPlan::none().partition(1, 30, 60);
        assert!(!plan.is_empty());
        assert!(plan.has_partitions());
        let inj = FaultInjector::new(plan, 3);
        assert!(!inj.lane_partitioned(29, 1));
        assert!(inj.lane_partitioned(30, 1));
        assert!(inj.lane_partitioned(59, 1));
        assert!(!inj.lane_partitioned(60, 1));
        assert!(!inj.lane_partitioned(40, 0), "other lanes unaffected");
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        let plan = FaultPlan::none()
            .crash(1, 60, 100)
            .crash(1, 120, 140)
            .burst(0, 10, 20, 2.0)
            .burst(0, 15, 25, 3.0) // overlapping bursts compound: legal
            .sensor(2, 0, 30, SensorFaultKind::NaN)
            .partition(0, 5, 9)
            .random_crashes(0.05, 0.3);
        assert_eq!(plan.validate(3), Ok(()));
        assert_eq!(FaultPlan::none().validate(0), Ok(()));
    }

    #[test]
    fn empty_window_rejected() {
        let err = FaultPlan::none().crash(0, 10, 10).validate(2).unwrap_err();
        assert_eq!(
            err,
            SimError::EmptyWindow {
                fault: "crash",
                processor: 0,
                from: 10,
                until: 10,
            }
        );
        // Inverted windows are the same rejection.
        let err = FaultPlan::none()
            .sensor(1, 20, 10, SensorFaultKind::Frozen)
            .validate(2)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::EmptyWindow {
                fault: "sensor",
                ..
            }
        ));
    }

    #[test]
    fn out_of_range_processor_rejected() {
        let err = FaultPlan::none()
            .partition(5, 0, 10)
            .validate(3)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ProcessorOutOfRange {
                fault: "partition",
                processor: 5,
                num_processors: 3,
            }
        );
    }

    #[test]
    fn overlapping_exclusive_windows_rejected_but_bursts_exempt() {
        let err = FaultPlan::none()
            .crash(1, 10, 30)
            .crash(1, 20, 40)
            .validate(2)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::OverlappingWindows {
                fault: "crash",
                processor: 1,
                first: (10, 30),
                second: (20, 40),
            }
        );
        // Same windows on *different* processors are fine.
        assert_eq!(
            FaultPlan::none()
                .crash(0, 10, 30)
                .crash(1, 20, 40)
                .validate(2),
            Ok(())
        );
        // Overlapping bursts compound by design and must stay legal.
        assert_eq!(
            FaultPlan::none()
                .burst(0, 10, 30, 2.0)
                .burst(0, 20, 40, 3.0)
                .validate(1),
            Ok(())
        );
        // Back-to-back half-open windows share an endpoint, not a period.
        assert_eq!(
            FaultPlan::none()
                .crash(0, 10, 20)
                .crash(0, 20, 30)
                .validate(1),
            Ok(())
        );
    }

    #[test]
    fn bad_burst_factor_rejected() {
        for bad in [0.0, -2.0, f64::INFINITY, f64::NAN] {
            let err = FaultPlan::none()
                .burst(0, 0, 5, bad)
                .validate(1)
                .unwrap_err();
            assert!(matches!(err, SimError::InvalidFactor { .. }), "{bad}");
        }
    }

    #[test]
    fn random_crash_probabilities_validated() {
        let err = FaultPlan::none()
            .random_crashes(1.5, 0.5)
            .validate(1)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidProbability {
                what: "crash",
                value: 1.5,
            }
        );
        let err = FaultPlan::none()
            .random_crashes(0.1, 0.0)
            .validate(1)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidProbability {
                what: "recovery",
                value: 0.0,
            }
        );
        assert!(FaultPlan::none()
            .random_crashes(0.0, 1.0)
            .validate(1)
            .is_ok());
    }
}
