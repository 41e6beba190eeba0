//! Integration of rate adaptation with admission control.
//!
//! Rate adaptation has a limit: when the overload is so severe that every
//! task already runs at `Rmin` and utilization still exceeds the set
//! points, no rate controller can help (paper §6.2: *"If the problem is
//! infeasible ... the system may switch to a different control adaptation
//! mechanism (e.g., admission control or task reallocation).  The
//! integration of multiple adaptation mechanisms is part of our future
//! work."*).
//!
//! The closed loop's [`AdmissionController`] implements that integration
//! inside the one feedback loop: a supervisor that suspends tasks when
//! rate adaptation is exhausted and re-admits them once headroom returns.
//!
//! Policy (DESIGN.md §15, "Load shedding"):
//!
//! * **suspend** — if some processor stays above `B + margin` for
//!   `patience` consecutive periods while every live task contributing
//!   to it is pinned at `Rmin`, suspend the task with the largest
//!   estimated utilization contribution to the worst processor (never
//!   the last live task);
//! * **re-admit** — if every processor stays below `B − headroom` for
//!   `patience` consecutive periods, re-admit the most recently suspended
//!   task at its minimum rate (LIFO keeps reconfiguration local).
//!
//! Each decision drops or adds one column of the controller's plant
//! model, through the same update a departure or an arrival takes: the
//! model is rebuilt by the controller's construction path and its warm
//! state migrates.
//!
//! # Runtime churn
//!
//! Beyond load-shedding, this module also hosts the **runtime-membership**
//! side of admission control: a [`ChurnPlan`] scripts task arrivals,
//! departures and mode changes at given sampling periods, and the same
//! [`AdmissionController`] executes it inside `ClosedLoop` — testing each
//! arrival against a utilization budget (paper §6.2's pointer to admission
//! control), growing/shrinking the MPC plant model via
//! [`RateController::membership_admit`] /
//! [`RateController::membership_retain`](eucon_control::RateController::membership_retain)
//! (a rebuild by the controller's construction path; warm state migrates),
//! and deferring or rejecting arrivals the system cannot absorb.  Safe
//! mode freezes admissions: while a supervisory wrapper reports
//! [`ControlMode::Degraded`](eucon_control::ControlMode::Degraded), every
//! arrival is deferred until the primary law re-engages (or the deferral
//! limit rejects it).
//!
//! [`RateController::membership_admit`]: eucon_control::RateController::membership_admit

use eucon_math::Vector;
use eucon_tasks::{Task, TaskId, TaskSet};

use crate::plant::Plant;
use crate::CoreError;

/// Tunable thresholds of the admission supervisor.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionPolicy {
    /// Overload margin above the set point that triggers suspension
    /// consideration.
    pub margin: f64,
    /// Consecutive periods a condition must hold before acting.
    pub patience: usize,
    /// Required distance below the set points before re-admission.
    pub readmit_headroom: f64,
    /// Admission budget for runtime arrivals, as a fraction of each
    /// processor's set point: an arrival is admitted only if
    /// `u[p] + f_col[p] · r0 ≤ admit_threshold · B[p]` on every processor
    /// it touches (the paper's §6.2 utilization-threshold admission test).
    pub admit_threshold: f64,
    /// How many periods an arrival may be deferred (over budget, or safe
    /// mode freezing admissions) before it is rejected outright.
    pub defer_limit: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            margin: 0.05,
            patience: 5,
            readmit_headroom: 0.1,
            admit_threshold: 1.0,
            defer_limit: 3,
        }
    }
}

impl AdmissionPolicy {
    /// Rejects thresholds no comparison can honour: `NaN` compares false
    /// both ways (a `NaN` budget admits every arrival, a `NaN` margin
    /// never sheds), a negative headroom re-admits into overload, and
    /// zero patience acts on a streak that never started — any sample
    /// above `B + margin` would suspend a task without the exhaustion
    /// test being consulted.
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        let (m, h, a) = (self.margin, self.readmit_headroom, self.admit_threshold);
        let fields = [
            ("margin", m, m >= 0.0),
            ("readmit_headroom", h, h >= 0.0),
            ("admit_threshold", a, a > 0.0),
            ("patience", self.patience as f64, self.patience > 0),
        ];
        match fields.iter().find(|(_, v, ok)| !(*ok && v.is_finite())) {
            Some((field, v, _)) => Err(CoreError::Config(format!(
                "admission policy: {field} = {v} is out of range"
            ))),
            None => Ok(()),
        }
    }
}

/// Why a runtime arrival was rejected (or is being deferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Projected utilization would exceed the admission budget on some
    /// processor (`u[p] + f_col[p] · r0 > admit_threshold · B[p]`).
    OverBudget,
    /// The controller cannot grow its plant model (no per-task model) —
    /// a task nobody can control must not enter the plant.
    ControllerRefused,
    /// Admissions were frozen in safe mode past the deferral limit.
    Degraded,
}

/// An admission decision taken by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionEvent {
    /// A task was suspended at the given sampling period.
    Suspended {
        /// Sampling period of the decision.
        period: usize,
        /// The suspended task.
        task: TaskId,
    },
    /// A task was re-admitted at the given sampling period.
    Readmitted {
        /// Sampling period of the decision.
        period: usize,
        /// The re-admitted task.
        task: TaskId,
    },
    /// A runtime arrival passed the admission test and joined the plant.
    Admitted {
        /// Sampling period of the decision.
        period: usize,
        /// The id the simulator assigned the new task.
        task: TaskId,
    },
    /// A runtime arrival was rejected.
    Rejected {
        /// Sampling period of the decision.
        period: usize,
        /// Why it was turned away.
        reason: RejectReason,
    },
    /// A runtime arrival was deferred (logged once, on first deferral).
    Deferred {
        /// Sampling period of the first deferral.
        period: usize,
    },
    /// A task departed at runtime (in-flight jobs drain cleanly).
    Departed {
        /// Sampling period of the departure.
        period: usize,
        /// The departed task.
        task: TaskId,
    },
    /// A task switched execution mode at runtime.
    ModeChanged {
        /// Sampling period of the mode change.
        period: usize,
        /// The task that changed mode.
        task: TaskId,
    },
}

/// A scripted runtime-membership change.
///
/// Task ids in [`ChurnEvent::Departure`] and [`ChurnEvent::ModeChange`]
/// are **plan-space** ids: the initial tasks keep their ids, and each
/// [`ChurnEvent::Arrival`] in the plan is assigned the next sequential id
/// in plan order — the same numbering the simulator uses when every
/// arrival is admitted.  If an arrival is rejected at runtime, later
/// events that target it become no-ops (the admission controller keeps a
/// plan-id → sim-id map).
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEvent {
    /// A new task arrives and requests admission.
    Arrival {
        /// Sampling period of the arrival.
        period: usize,
        /// The arriving task (subtasks, rate box, initial rate).
        task: Task,
    },
    /// A task departs permanently; in-flight jobs drain cleanly.
    Departure {
        /// Sampling period of the departure.
        period: usize,
        /// Plan-space id of the departing task.
        task: TaskId,
    },
    /// A task switches execution mode: future jobs take
    /// `scale ×` their estimated execution time.
    ModeChange {
        /// Sampling period of the mode change.
        period: usize,
        /// Plan-space id of the task.
        task: TaskId,
        /// New execution-time multiplier (`1.0` = nominal).
        scale: f64,
    },
}

impl ChurnEvent {
    /// The sampling period at which the event fires.
    pub fn period(&self) -> usize {
        match self {
            ChurnEvent::Arrival { period, .. }
            | ChurnEvent::Departure { period, .. }
            | ChurnEvent::ModeChange { period, .. } => *period,
        }
    }
}

/// A scripted sequence of runtime-membership changes, executed by the
/// closed loop's [`AdmissionController`].
///
/// Built fluently ([`ChurnPlan::arrival`], [`ChurnPlan::departure`],
/// [`ChurnPlan::mode_change`]) or generated stochastically
/// ([`ChurnPlan::poisson`]).  An **empty plan is byte-identical to no
/// plan at all**: the loop builder only engages the churn machinery for
/// non-empty plans, so churn-free runs keep their golden traces
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnPlan {
    events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// The empty plan: a static task set.
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// Whether the plan contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Schedules a task arrival at `period`.
    pub fn arrival(mut self, period: usize, task: Task) -> Self {
        self.events.push(ChurnEvent::Arrival { period, task });
        self
    }

    /// Schedules the departure of plan-space task `task` at `period`.
    pub fn departure(mut self, period: usize, task: TaskId) -> Self {
        self.events.push(ChurnEvent::Departure { period, task });
        self
    }

    /// Schedules a mode change of plan-space task `task` at `period`.
    pub fn mode_change(mut self, period: usize, task: TaskId, scale: f64) -> Self {
        self.events.push(ChurnEvent::ModeChange {
            period,
            task,
            scale,
        });
        self
    }

    /// Validates the plan against the initial task set: arrival subtasks
    /// name deployed processors, departure / mode-change targets are
    /// plan-space ids that exist (initial tasks plus scheduled arrivals),
    /// and mode scales are positive and finite.
    ///
    /// The loop builders call this, so a malformed plan fails the build
    /// with a typed error instead of panicking mid-run.
    ///
    /// # Errors
    ///
    /// [`CoreError::Task`] for out-of-range arrival processors,
    /// [`CoreError::Config`] for dangling ids or bad mode scales.
    pub fn validate(&self, set: &TaskSet) -> Result<(), CoreError> {
        let id_space = set.num_tasks()
            + self
                .events
                .iter()
                .filter(|e| matches!(e, ChurnEvent::Arrival { .. }))
                .count();
        for ev in &self.events {
            match ev {
                ChurnEvent::Arrival { task, .. } => {
                    for s in task.subtasks() {
                        if s.processor.0 >= set.num_processors() {
                            return Err(CoreError::Task(
                                eucon_tasks::TaskError::ProcessorOutOfRange {
                                    processor: s.processor.0,
                                    num_processors: set.num_processors(),
                                },
                            ));
                        }
                    }
                }
                ChurnEvent::Departure { period, task } => {
                    if task.0 >= id_space {
                        return Err(CoreError::Config(format!(
                            "churn departure at period {period} targets task {} \
                             but only {id_space} plan-space ids exist",
                            task.0
                        )));
                    }
                }
                ChurnEvent::ModeChange {
                    period,
                    task,
                    scale,
                } => {
                    if task.0 >= id_space {
                        return Err(CoreError::Config(format!(
                            "churn mode change at period {period} targets task {} \
                             but only {id_space} plan-space ids exist",
                            task.0
                        )));
                    }
                    if !(*scale > 0.0 && scale.is_finite()) {
                        return Err(CoreError::Config(format!(
                            "churn mode change at period {period} has \
                             non-positive or non-finite scale {scale}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Generates a stochastic churn plan: per sampling period in
    /// `1..periods`, a new task arrives with probability `p_arrival`
    /// (cloning a uniformly drawn template from `set`) and a uniformly
    /// drawn live task departs with probability `p_departure`
    /// (Bernoulli-thinned Poisson processes — geometric inter-event
    /// times).  The last live task never departs.
    ///
    /// Deterministic given `seed`; probabilities are clamped into
    /// `[0, 1]`.
    pub fn poisson(
        set: &TaskSet,
        periods: usize,
        p_arrival: f64,
        p_departure: f64,
        seed: u64,
    ) -> Self {
        let p_arrival = p_arrival.clamp(0.0, 1.0);
        let p_departure = p_departure.clamp(0.0, 1.0);
        let mut rng = SplitMix64::new(seed);
        let templates = set.tasks();
        let mut alive: Vec<TaskId> = (0..set.num_tasks()).map(TaskId).collect();
        let mut next_id = set.num_tasks();
        let mut plan = ChurnPlan::default();
        for period in 1..periods {
            if !templates.is_empty() && rng.f64() < p_arrival {
                let t = templates[rng.below(templates.len())].clone();
                plan.events.push(ChurnEvent::Arrival { period, task: t });
                alive.push(TaskId(next_id));
                next_id += 1;
            }
            if alive.len() > 1 && rng.f64() < p_departure {
                let victim = alive.swap_remove(rng.below(alive.len()));
                plan.events.push(ChurnEvent::Departure {
                    period,
                    task: victim,
                });
            }
        }
        plan
    }
}

/// Minimal inline PRNG for [`ChurnPlan::poisson`] (Vigna's SplitMix64) —
/// plan generation is configuration, not simulation, so it does not share
/// the simulator's `StdRng` stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; modulo bias is irrelevant here).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Cumulative runtime-membership activity of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnSummary {
    /// Arrivals that passed the admission test.
    pub admitted: u64,
    /// Arrivals turned away for good.
    pub rejected: u64,
    /// Arrival-periods spent deferred (one arrival deferred for three
    /// periods counts three).
    pub deferred: u64,
    /// Tasks departed.
    pub departed: u64,
    /// Mode changes applied.
    pub mode_changes: u64,
    /// Tasks the load-shedding supervisor suspended.
    pub suspended: u64,
    /// Suspended tasks it re-admitted.
    pub readmitted: u64,
    /// Plant-model membership updates the controller absorbed (model
    /// rebuilt, warm state migrated): one per column added or dropped.
    pub model_updates: u64,
}

impl ChurnSummary {
    pub(crate) fn add(&mut self, other: &ChurnSummary) {
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.deferred += other.deferred;
        self.departed += other.departed;
        self.mode_changes += other.mode_changes;
        self.suspended += other.suspended;
        self.readmitted += other.readmitted;
        self.model_updates += other.model_updates;
    }
}

/// An arrival waiting out a deferral (over budget or safe mode).
#[derive(Debug, Clone)]
pub(crate) struct PendingArrival {
    pub(crate) plan_id: usize,
    pub(crate) task: Task,
    pub(crate) age: usize,
}

/// `task`'s estimated utilization per unit rate on processor `p`: its
/// entry of the subtask allocation matrix `F`.
pub(crate) fn load_on(task: &Task, p: usize) -> f64 {
    let on_p = task.subtasks().iter().filter(|s| s.processor.0 == p);
    on_p.fold(0.0, |f, s| f + s.estimated_time)
}

/// A load-shedding decision due this period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shed {
    Suspend(TaskId),
    Readmit(TaskId),
}

/// The membership decisions of a closed loop: executes a [`ChurnPlan`]
/// (admission test, deferral queue, plan-id → sim-id map) and supervises
/// load shedding (overload / headroom streaks, the stack of suspended
/// tasks), with the per-period telemetry deltas of both.  The loop itself
/// drives the plant and controller; this type owns the decisions' state.
///
/// Constructed by the loop builders when a non-empty plan (or an explicit
/// admission policy) is supplied; not built directly.
#[derive(Debug)]
pub struct AdmissionController {
    pub(crate) policy: AdmissionPolicy,
    /// Scripted events, stably sorted by period.
    pub(crate) events: Vec<ChurnEvent>,
    pub(crate) cursor: usize,
    pub(crate) pending: Vec<PendingArrival>,
    /// Plan-space id → sim id (`None` = rejected arrival).
    pub(crate) plan_map: Vec<Option<TaskId>>,
    pub(crate) log: Vec<AdmissionEvent>,
    pub(crate) summary: ChurnSummary,
    /// This period's deltas (folded into telemetry each period).
    pub(crate) period_delta: ChurnSummary,
    /// Plant-model update latencies observed this period, in nanoseconds.
    pub(crate) update_ns: Vec<u64>,
    /// Scratch: the allocation-matrix column of the task being added.
    pub(crate) f_col: Vec<f64>,
    /// Scratch: the retain mask handed to the controller to drop a column.
    pub(crate) keep_scratch: Vec<bool>,
    /// Every sim task by id (its `F` column and rate box), grown on
    /// admission; the plant does not expose its task set.
    pub(crate) tasks: Vec<Task>,
    /// Stack of suspended tasks (most recent last).
    pub(crate) suspended: Vec<TaskId>,
    over_streak: usize,
    under_streak: usize,
}

impl AdmissionController {
    pub(crate) fn new(policy: AdmissionPolicy, plan: ChurnPlan, tasks: Vec<Task>) -> Self {
        let mut events = plan.events;
        events.sort_by_key(ChurnEvent::period);
        AdmissionController {
            policy,
            events,
            cursor: 0,
            pending: Vec::new(),
            plan_map: (0..tasks.len()).map(|t| Some(TaskId(t))).collect(),
            log: Vec::new(),
            summary: ChurnSummary::default(),
            period_delta: ChurnSummary::default(),
            update_ns: Vec::new(),
            f_col: Vec::new(),
            keep_scratch: Vec::new(),
            tasks,
            suspended: Vec::new(),
            over_streak: 0,
            under_streak: 0,
        }
    }

    /// Clears the per-period telemetry scratch.  Allocation-free.
    pub(crate) fn begin_period(&mut self) {
        self.period_delta = ChurnSummary::default();
        self.update_ns.clear();
    }

    /// Resolves a plan-space id to the sim id it was admitted under.
    pub(crate) fn resolve(&self, plan: TaskId) -> Option<TaskId> {
        self.plan_map.get(plan.0).copied().flatten()
    }

    /// Records a plant-model membership update and its latency.
    pub(crate) fn note_update(&mut self, ns: u64) {
        self.summary.model_updates += 1;
        self.period_delta.model_updates += 1;
        self.update_ns.push(ns);
    }

    /// All membership decisions taken so far, in order.
    pub fn log(&self) -> &[AdmissionEvent] {
        &self.log
    }

    /// Cumulative membership activity.
    pub fn summary(&self) -> ChurnSummary {
        self.summary
    }

    /// One period of the load-shedding supervisor: advances the overload
    /// and headroom streaks on the utilization sample `u` and returns the
    /// decision that fell due, if any.  Allocation-free.
    pub(crate) fn supervise(
        &mut self,
        u: &Vector,
        set_points: &Vector,
        plant: &dyn Plant,
    ) -> Option<Shed> {
        let rates = plant.rates_in_force();
        let (tasks, suspended) = (&self.tasks, &self.suspended);
        let live = |t: usize| !plant.is_departed(TaskId(t)) && !suspended.contains(&TaskId(t));

        // Overload: a processor above B + margin with its contributors
        // exhausted (at Rmin).
        let mut worst: Option<(usize, f64)> = None;
        for p in 0..u.len() {
            let excess = u[p] - (set_points[p] + self.policy.margin);
            if excess > 0.0 && worst.is_none_or(|(_, w)| excess > w) {
                worst = Some((p, excess));
            }
        }
        let exhausted_overload = worst.is_some_and(|(p, _)| {
            (0..tasks.len()).all(|t| {
                !live(t)
                    || load_on(&tasks[t], p) == 0.0
                    || rates[t] <= tasks[t].rate_min() * (1.0 + 1e-6)
            })
        });

        if exhausted_overload {
            self.over_streak += 1;
            self.under_streak = 0;
        } else {
            self.over_streak = 0;
            let all_headroom =
                (0..u.len()).all(|p| u[p] <= set_points[p] - self.policy.readmit_headroom);
            if all_headroom && !suspended.is_empty() {
                self.under_streak += 1;
            } else {
                self.under_streak = 0;
            }
        }

        if self.over_streak >= self.policy.patience {
            self.over_streak = 0;
            let (p, _) = worst?;
            // Never suspend the last live task.
            if (0..tasks.len()).filter(|&t| live(t)).count() <= 1 {
                return None;
            }
            let share = |t: usize| load_on(&tasks[t], p) * rates[t];
            (0..tasks.len())
                .filter(|&t| live(t) && load_on(&tasks[t], p) > 0.0)
                .max_by(|&a, &b| share(a).total_cmp(&share(b)))
                .map(|t| Shed::Suspend(TaskId(t)))
        } else if self.under_streak >= self.policy.patience {
            self.under_streak = 0;
            suspended.last().copied().map(Shed::Readmit)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_tasks::workloads;

    fn sample_task() -> Task {
        let r = 1.0 / 100.0;
        eucon_tasks::Task::builder(r / 2.0, r * 2.0, r)
            .subtask(eucon_tasks::ProcessorId(0), 10.0)
            .build()
            .unwrap()
    }

    #[test]
    fn churn_plan_validates_ids_processors_and_scales() {
        let set = workloads::simple(); // 3 tasks, 2 processors
        assert!(ChurnPlan::none().validate(&set).is_ok());
        // One arrival extends the plan-space to ids 0..=3.
        let plan = ChurnPlan::none()
            .arrival(10, sample_task())
            .departure(20, TaskId(3))
            .mode_change(30, TaskId(0), 2.0);
        assert!(plan.validate(&set).is_ok());
        // Dangling departure target.
        let plan = ChurnPlan::none().departure(20, TaskId(4));
        assert!(matches!(
            plan.validate(&set),
            Err(CoreError::Config(msg)) if msg.contains("task 4")
        ));
        // Arrival naming an undeployed processor.
        let bad = eucon_tasks::Task::builder(0.005, 0.02, 0.01)
            .subtask(eucon_tasks::ProcessorId(9), 10.0)
            .build()
            .unwrap();
        let plan = ChurnPlan::none().arrival(5, bad);
        assert!(matches!(plan.validate(&set), Err(CoreError::Task(_))));
        // Bad mode scale.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let plan = ChurnPlan::none().mode_change(5, TaskId(0), bad);
            assert!(plan.validate(&set).is_err(), "{bad}");
        }
    }

    #[test]
    fn poisson_plans_are_seed_deterministic_and_keep_one_task() {
        let set = workloads::simple();
        let a = ChurnPlan::poisson(&set, 500, 0.05, 0.05, 42);
        let b = ChurnPlan::poisson(&set, 500, 0.05, 0.05, 42);
        assert_eq!(a, b, "same seed, same plan");
        let c = ChurnPlan::poisson(&set, 500, 0.05, 0.05, 43);
        assert_ne!(a, c, "different seed, different plan");
        assert!(!a.is_empty(), "500 periods at 5% must produce events");
        assert!(a.validate(&set).is_ok(), "generated plans are well-formed");
        // Replaying departures against the alive set never empties it.
        let mut alive: std::collections::HashSet<usize> = (0..set.num_tasks()).collect();
        let mut next = set.num_tasks();
        for ev in a.events() {
            match ev {
                ChurnEvent::Arrival { .. } => {
                    alive.insert(next);
                    next += 1;
                }
                ChurnEvent::Departure { task, .. } => {
                    assert!(alive.remove(&task.0), "departs a live task");
                    assert!(!alive.is_empty(), "never departs the last task");
                }
                ChurnEvent::ModeChange { .. } => {}
            }
        }
    }

    #[test]
    fn admission_controller_sorts_events_and_maps_initial_ids() {
        let plan = ChurnPlan::none()
            .departure(30, TaskId(1))
            .arrival(10, sample_task());
        let tasks = workloads::simple().tasks().to_vec();
        let ac = AdmissionController::new(AdmissionPolicy::default(), plan, tasks);
        assert_eq!(ac.events[0].period(), 10, "events sorted by period");
        assert_eq!(ac.resolve(TaskId(2)), Some(TaskId(2)));
        assert_eq!(
            ac.resolve(TaskId(7)),
            None,
            "unknown plan ids resolve to None"
        );
        assert_eq!(ac.summary(), ChurnSummary::default());
        assert!(ac.log().is_empty());
    }
}
