//! Event-driven simulation engine: RMS processors, release guard,
//! utilization monitors and rate modulators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eucon_math::Vector;
use eucon_tasks::{ProcessorId, TaskError, TaskId, TaskSet};

use crate::event::{EventCore, FiredEvent};
use crate::{DeadlineStats, EngineCounters, SimConfig, SubtaskStats, TaskStats};

/// Slack used when comparing simulation times.
const TIME_EPS: f64 = 1e-9;

/// A released but not yet completed subtask job.
#[derive(Debug, Clone, Copy)]
struct Job {
    task: usize,
    index: usize,
    instance: u64,
    remaining: f64,
    /// Task period at release time — the RMS priority (smaller is higher).
    period: f64,
    release: f64,
    seq: u64,
}

/// Per-processor scheduler state: a preemptive fixed-priority (RMS) ready
/// queue with busy-time accounting.
///
/// The queue is kept sorted in *descending* dispatch order, so the running
/// job (the dispatch minimum) is always `ready.last()`: the scheduler
/// decision is a pointer read, arrival is a sorted insert, and completion
/// pops from the end — no rescans, no cached index to invalidate.  Job
/// priorities are snapshots taken at release, so a queued job's position
/// never changes while it waits.
#[derive(Debug, Default)]
struct ProcState {
    ready: Vec<Job>,
    /// Busy time accumulated in the current monitoring window.
    busy_window: f64,
    /// Busy time accumulated since the start of the run.
    busy_total: f64,
    last_update: f64,
    /// Crashed processors execute nothing: time passes but no job makes
    /// progress and no busy time accrues, so the monitor reports `u = 0`.
    crashed: bool,
}

/// RMS dispatch order: smallest period first, ties broken by earlier
/// release, then FIFO sequence.  `seq` is unique per job, so two distinct
/// jobs never compare equal.
fn dispatch_cmp(a: &Job, b: &Job) -> std::cmp::Ordering {
    a.period
        .total_cmp(&b.period)
        .then(a.release.total_cmp(&b.release))
        .then(a.seq.cmp(&b.seq))
}

impl ProcState {
    /// The job the processor is executing: the dispatch minimum, i.e. the
    /// tail of the descending-sorted queue.
    fn running(&self) -> Option<&Job> {
        self.ready.last()
    }

    /// Enqueues a job at its sorted position (prefix = lower priority,
    /// suffix = higher priority).
    fn push_job(&mut self, job: Job) {
        let at = self
            .ready
            .partition_point(|j| dispatch_cmp(j, &job).is_gt());
        self.ready.insert(at, job);
    }

    /// Removes and returns the running job.
    fn pop_running(&mut self) -> Job {
        self.ready
            .pop()
            .expect("pop_running requires a running job")
    }

    /// Advances the processor's clock to `t`, charging the elapsed time to
    /// the currently running job.  A crashed processor lets time pass
    /// without executing: queued jobs stall and accrue deadline misses.
    fn advance(&mut self, t: f64) {
        let delta = t - self.last_update;
        if delta > 0.0 {
            if !self.crashed {
                if let Some(job) = self.ready.last_mut() {
                    job.remaining = (job.remaining - delta).max(0.0);
                    self.busy_window += delta;
                    self.busy_total += delta;
                }
            }
            self.last_update = t;
        } else {
            self.last_update = self.last_update.max(t);
        }
    }
}

/// Release time and absolute deadline of a task's in-flight instances.
///
/// Instances get sequential ids at release, so a ring buffer indexed by
/// `instance - base` replaces the per-task hash map: O(1) insert and
/// removal with no hashing and no steady-state allocation.  Completions
/// can retire out of order (a rate change snapshots a shorter period into
/// a younger instance, which then overtakes an older one under RMS),
/// hence the `Option` slots; fully retired slots are popped from the
/// front to keep the ring as short as the task's in-flight window.
#[derive(Debug, Default)]
struct InflightRing {
    /// Instance id of `slots[0]`.
    base: u64,
    slots: std::collections::VecDeque<Option<(f64, f64)>>,
}

impl InflightRing {
    fn insert(&mut self, instance: u64, release: f64, deadline: f64) {
        if self.slots.is_empty() {
            self.base = instance;
        }
        debug_assert_eq!(
            self.base + self.slots.len() as u64,
            instance,
            "instances are created sequentially"
        );
        self.slots.push_back(Some((release, deadline)));
    }

    fn remove(&mut self, instance: u64) -> Option<(f64, f64)> {
        let idx = usize::try_from(instance.checked_sub(self.base)?).ok()?;
        let value = self.slots.get_mut(idx)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        value
    }
}

/// Event-driven simulator of a distributed real-time system running
/// end-to-end tasks (the paper's evaluation substrate, §7.1).
///
/// Per processor, subtasks are scheduled by preemptive rate-monotonic
/// scheduling (priority = current period at release).  Precedence
/// constraints between consecutive subtasks are enforced by the release
/// guard protocol (Sun & Liu, ICDCS 1996): a subtask instance is released
/// when its predecessor completes, but never earlier than one period after
/// the subtask's previous release — keeping every subtask periodic at the
/// task rate.
///
/// The *rate modulator* ([`Simulator::set_rates`]) and the *utilization
/// monitor* ([`Simulator::sample_utilizations`]) are the two interfaces the
/// EUCON feedback loop uses each sampling period.
///
/// Internally the engine runs on an indexed per-source event queue
/// (`EventCore`): each task owns one head-release slot, each processor
/// one tentative-completion slot, and each successor subtask a short
/// sorted list of release-guarded instances.  Rate changes and
/// preemptions *reschedule in place* instead of pushing tombstones, so
/// every popped event is live and queue memory stays `O(m + n + Σ
/// subtasks)` with no steady-state allocation.
///
/// # Example
///
/// ```
/// use eucon_sim::{SimConfig, Simulator};
/// use eucon_tasks::workloads;
///
/// let mut sim = Simulator::new(workloads::simple(), SimConfig::constant_etf(1.0));
/// sim.run_until(10_000.0);
/// let u = sim.sample_utilizations();
/// assert!(u.iter().all(|&ui| (0.0..=1.0).contains(&ui)));
/// ```
#[derive(Debug)]
pub struct Simulator {
    set: TaskSet,
    cfg: SimConfig,
    rng: StdRng,
    core: EventCore,
    now: f64,
    rates: Vec<f64>,
    next_instance: Vec<u64>,
    /// Last release time per (task, subtask index); `-inf` before first.
    sub_last_release: Vec<Vec<f64>>,
    /// Release time and absolute deadline of in-flight instances.
    inflight: Vec<InflightRing>,
    procs: Vec<ProcState>,
    /// Runtime per-processor execution-time multipliers (fault injection:
    /// transient bursts on top of the configured speeds); all 1.0 nominally.
    speed_override: Vec<f64>,
    suspended: Vec<bool>,
    /// Permanently departed tasks: the slot (and `TaskId`) stays so no
    /// index ever shifts, but no further instances release.
    departed: Vec<bool>,
    /// Per-task execution-time multipliers (mode changes); all 1.0
    /// nominally.  Applies to jobs released from now on.
    task_exec_scale: Vec<f64>,
    deadline_stats: DeadlineStats,
    task_stats: Vec<TaskStats>,
    subtask_stats: Vec<Vec<SubtaskStats>>,
    next_job_seq: u64,
    window_start: f64,
    events: u64,
    handoffs: u64,
    guard_deferrals: u64,
    stale_wakeups: u64,
}

impl Simulator {
    /// Creates a simulator and schedules the first release of every task
    /// at time 0.
    ///
    /// # Panics
    ///
    /// Panics if the task set is empty (see [`TaskSet::validate`]).
    pub fn new(set: TaskSet, cfg: SimConfig) -> Self {
        set.validate()
            .expect("simulator requires a non-empty task set");
        let m = set.num_tasks();
        let n = set.num_processors();
        let rates: Vec<f64> = set.initial_rates().into_vec();
        let sub_last_release: Vec<Vec<f64>> = set
            .tasks()
            .iter()
            .map(|t| vec![f64::NEG_INFINITY; t.len()])
            .collect();
        let set_subtask_stats: Vec<Vec<SubtaskStats>> = set
            .tasks()
            .iter()
            .map(|t| vec![SubtaskStats::default(); t.len()])
            .collect();
        let subtask_counts: Vec<usize> = set.tasks().iter().map(|t| t.len()).collect();
        let mut sim = Simulator {
            rng: StdRng::seed_from_u64(cfg.seed),
            core: EventCore::new(m, n, &subtask_counts),
            set,
            cfg,
            now: 0.0,
            rates,
            next_instance: vec![0; m],
            sub_last_release,
            inflight: (0..m).map(|_| InflightRing::default()).collect(),
            procs: (0..n).map(|_| ProcState::default()).collect(),
            speed_override: vec![1.0; n],
            suspended: vec![false; m],
            departed: vec![false; m],
            task_exec_scale: vec![1.0; m],
            deadline_stats: DeadlineStats::default(),
            task_stats: vec![TaskStats::default(); m],
            subtask_stats: set_subtask_stats,
            next_job_seq: 0,
            window_start: 0.0,
            events: 0,
            handoffs: 0,
            guard_deferrals: 0,
            stale_wakeups: 0,
        };
        for t in 0..m {
            sim.core.schedule_task_release(t, 0.0);
        }
        sim
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The task set being simulated.
    pub fn task_set(&self) -> &TaskSet {
        &self.set
    }

    /// Current task rates, borrowed without allocating.
    pub fn rates_slice(&self) -> &[f64] {
        &self.rates
    }

    /// Event-engine performance counters accumulated since construction.
    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            events: self.events,
            handoffs: self.handoffs,
            reschedules: self.core.reschedules(),
            guard_deferrals: self.guard_deferrals,
            stale_wakeups: self.stale_wakeups,
            queue_peak: self.core.peak(),
        }
    }

    /// End-to-end deadline statistics accumulated so far.
    pub fn deadline_stats(&self) -> DeadlineStats {
        self.deadline_stats
    }

    /// Per-task statistics accumulated so far.
    pub fn task_stats(&self) -> &[TaskStats] {
        &self.task_stats
    }

    /// Per-subtask subdeadline statistics, indexed `[task][subtask]`.
    ///
    /// The subdeadline of every subtask equals its period (paper §7.1).
    pub fn subtask_stats(&self) -> &[Vec<SubtaskStats>] {
        &self.subtask_stats
    }

    /// Overall subdeadline miss ratio across every subtask.
    pub fn subdeadline_miss_ratio(&self) -> f64 {
        let (mut completed, mut missed) = (0u64, 0u64);
        for per_task in &self.subtask_stats {
            for s in per_task {
                completed += s.completed;
                missed += s.missed;
            }
        }
        if completed == 0 {
            0.0
        } else {
            missed as f64 / completed as f64
        }
    }

    /// Fraction of total elapsed time each processor has been busy since
    /// the start of the run.
    pub fn total_utilizations(&self) -> Vector {
        if self.now <= 0.0 {
            return Vector::zeros(self.procs.len());
        }
        Vector::from_iter(self.procs.iter().map(|p| p.busy_total / self.now))
    }

    /// Sets the rate of one task, clamped into its acceptable range, and
    /// returns the applied value.
    ///
    /// This is the *rate modulator*: the new rate governs all future
    /// releases; the pending head release is rescheduled so a rate increase
    /// takes effect immediately (subject to the release guard).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a positive finite number or the id is out of
    /// range.
    pub fn set_rate(&mut self, task: TaskId, rate: f64) -> f64 {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be positive and finite"
        );
        let t = task.0;
        let clamped = self.set.task(task).clamp_rate(rate);
        self.rates[t] = clamped;
        // Reschedule the pending head release in place under the new
        // period, honouring the release guard on the head subtask.
        // Suspended or departed tasks keep the new rate but stay dormant
        // (their head release slot is empty).
        if !self.suspended[t] && !self.departed[t] {
            let last = self.sub_last_release[t][0];
            let next = if last.is_finite() {
                (last + 1.0 / clamped).max(self.now)
            } else {
                self.now
            };
            self.core.schedule_task_release(t, next);
        }
        clamped
    }

    /// Sets all task rates at once (each clamped into range).
    ///
    /// # Panics
    ///
    /// Panics if `rates.len()` differs from the task count.
    pub fn set_rates(&mut self, rates: &Vector) {
        assert_eq!(
            rates.len(),
            self.set.num_tasks(),
            "one rate per task required"
        );
        for t in 0..rates.len() {
            self.set_rate(TaskId(t), rates[t]);
        }
    }

    /// Suspends a task: no further instances are released until
    /// [`Simulator::resume_task`]; in-flight jobs drain normally.
    ///
    /// Used by admission control (paper §6.2 suggests switching to
    /// admission control when rate adaptation alone cannot resolve an
    /// overload).  Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn suspend_task(&mut self, task: TaskId) {
        assert!(task.0 < self.set.num_tasks(), "task id out of range");
        if !self.suspended[task.0] {
            self.suspended[task.0] = true;
            // Remove the pending head release (no tombstone left behind).
            self.core.cancel_task_release(task.0);
        }
    }

    /// Resumes a suspended task; the next instance releases immediately
    /// (subject to the release guard).  Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn resume_task(&mut self, task: TaskId) {
        assert!(task.0 < self.set.num_tasks(), "task id out of range");
        if self.suspended[task.0] && !self.departed[task.0] {
            self.suspended[task.0] = false;
            let last = self.sub_last_release[task.0][0];
            let next = if last.is_finite() {
                (last + 1.0 / self.rates[task.0]).max(self.now)
            } else {
                self.now
            };
            self.core.schedule_task_release(task.0, next);
        }
    }

    /// Whether a task is currently suspended.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn is_suspended(&self, task: TaskId) -> bool {
        self.suspended[task.0]
    }

    /// Admits a new task at runtime: appends it to the task set, grows
    /// every per-task state table and the event core, and schedules its
    /// first head release at the current time.  Successor subtasks are
    /// release-guarded exactly like any static task's.
    ///
    /// The returned id is stable forever — departures never shift ids.
    ///
    /// # Errors
    ///
    /// Returns the [`TaskSet::add_task`] error when a subtask references
    /// a processor outside the set.
    pub fn admit_task(&mut self, task: eucon_tasks::Task) -> Result<TaskId, TaskError> {
        let len = task.len();
        let rate = task.initial_rate();
        let id = self.set.add_task(task)?;
        debug_assert_eq!(id.0, self.rates.len());
        self.rates.push(rate);
        self.next_instance.push(0);
        self.sub_last_release.push(vec![f64::NEG_INFINITY; len]);
        self.inflight.push(InflightRing::default());
        self.suspended.push(false);
        self.departed.push(false);
        self.task_exec_scale.push(1.0);
        self.task_stats.push(TaskStats::default());
        self.subtask_stats.push(vec![SubtaskStats::default(); len]);
        let core_id = self.core.add_task(len);
        debug_assert_eq!(core_id, id.0);
        self.core.schedule_task_release(id.0, self.now);
        Ok(id)
    }

    /// Departs a task permanently: no further instances release, in-flight
    /// jobs drain normally (successor subtasks still fire), and the slot —
    /// hence every other task's id — stays where it is.  Idempotent;
    /// departed tasks cannot be resumed.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn depart_task(&mut self, task: TaskId) {
        assert!(task.0 < self.set.num_tasks(), "task id out of range");
        if !self.departed[task.0] {
            self.departed[task.0] = true;
            self.core.cancel_task_release(task.0);
        }
    }

    /// Whether a task has departed.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn is_departed(&self, task: TaskId) -> bool {
        self.departed[task.0]
    }

    /// Number of tasks that are neither suspended nor departed.
    pub fn active_tasks(&self) -> usize {
        (0..self.set.num_tasks())
            .filter(|&t| !self.suspended[t] && !self.departed[t])
            .count()
    }

    /// Switches a task to a new mode: jobs released from now on take
    /// `exec_scale ×` their estimated execution time.  `1.0` restores the
    /// nominal mode.  This is the plant-side half of a mode change; the
    /// controller sees it as a scaled allocation-matrix column.
    ///
    /// # Panics
    ///
    /// Panics unless `exec_scale` is positive and finite, or if the id is
    /// out of range.
    pub fn set_task_mode(&mut self, task: TaskId, exec_scale: f64) {
        assert!(
            exec_scale > 0.0 && exec_scale.is_finite(),
            "mode execution scale must be positive and finite"
        );
        self.task_exec_scale[task.0] = exec_scale;
    }

    /// The current mode execution-time multiplier of a task.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn task_mode(&self, task: TaskId) -> f64 {
        self.task_exec_scale[task.0]
    }

    /// Crashes a processor: from the current simulation time it executes
    /// nothing and accrues no busy time (its utilization monitor reports
    /// `u = 0`).  Releases keep arriving and queue up, so their jobs miss
    /// deadlines — the paper's infrastructure assumption turned off.
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn crash_processor(&mut self, p: ProcessorId) {
        assert!(p.0 < self.procs.len(), "processor id out of range");
        if !self.procs[p.0].crashed {
            self.procs[p.0].advance(self.now);
            self.procs[p.0].crashed = true;
            // Remove the pending completion of the interrupted job.
            self.core.cancel_completion(p.0);
        }
    }

    /// Recovers a crashed processor; the backlog that piled up during the
    /// outage resumes executing immediately (in RMS priority order).
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn recover_processor(&mut self, p: ProcessorId) {
        assert!(p.0 < self.procs.len(), "processor id out of range");
        if self.procs[p.0].crashed {
            self.procs[p.0].advance(self.now);
            self.procs[p.0].crashed = false;
            self.reschedule_completion(p.0);
        }
    }

    /// Whether a processor is currently crashed.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn is_crashed(&self, p: ProcessorId) -> bool {
        self.procs[p.0].crashed
    }

    /// Sets a runtime execution-time multiplier for one processor
    /// (fault injection: transient execution-time bursts).  Applies to
    /// jobs released from now on, multiplying the configured speed and
    /// etf profile; `1.0` restores nominal behaviour.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite, or if the id is out
    /// of range.
    pub fn set_speed_override(&mut self, p: ProcessorId, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "speed override must be positive and finite"
        );
        self.speed_override[p.0] = factor;
    }

    /// The current runtime execution-time multiplier of a processor.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn speed_override(&self, p: ProcessorId) -> f64 {
        self.speed_override[p.0]
    }

    /// Runs the simulation up to (and including) time `t_end`.
    ///
    /// # Panics
    ///
    /// Panics if `t_end` precedes the current time.
    pub fn run_until(&mut self, t_end: f64) {
        assert!(
            t_end >= self.now - TIME_EPS,
            "cannot run backwards: now = {}, requested {t_end}",
            self.now
        );
        // A request inside the tolerance must not move the clock back.
        let t_end = t_end.max(self.now);
        while let Some((time, fired)) = self.core.pop_before(t_end) {
            self.now = time.max(self.now);
            self.events += 1;
            match fired {
                FiredEvent::TaskRelease { task } => self.handle_head_release(task),
                FiredEvent::SubtaskRelease {
                    task,
                    index,
                    instance,
                } => {
                    self.handle_subtask_release(task, index, instance);
                }
                FiredEvent::Completion { processor } => self.handle_completion(processor),
            }
        }
        self.now = t_end;
        for p in 0..self.procs.len() {
            self.procs[p].advance(t_end);
        }
    }

    /// Reads the utilization of every processor over the window since the
    /// previous sample (the *utilization monitor*, `u_i(k)` in the paper)
    /// and starts a new window.
    ///
    /// Returns zeros if no time has elapsed since the last sample.
    pub fn sample_utilizations(&mut self) -> Vector {
        let mut u = Vector::zeros(self.procs.len());
        self.sample_utilizations_into(&mut u);
        u
    }

    /// Allocation-free variant of [`Simulator::sample_utilizations`]:
    /// writes the window utilizations into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the processor count.
    pub fn sample_utilizations_into(&mut self, out: &mut Vector) {
        assert_eq!(
            out.len(),
            self.procs.len(),
            "one utilization slot per processor required"
        );
        for p in 0..self.procs.len() {
            self.procs[p].advance(self.now);
        }
        let elapsed = self.now - self.window_start;
        let slots = out.as_mut_slice();
        if elapsed <= 0.0 {
            slots.fill(0.0);
        } else {
            for (slot, p) in slots.iter_mut().zip(&self.procs) {
                *slot = (p.busy_window / elapsed).min(1.0);
            }
        }
        for p in &mut self.procs {
            p.busy_window = 0.0;
        }
        self.window_start = self.now;
    }

    /// Number of jobs currently queued or running across all processors.
    pub fn backlog(&self) -> usize {
        self.procs.iter().map(|p| p.ready.len()).sum()
    }

    // ---- internal event handlers ----

    fn handle_head_release(&mut self, task: usize) {
        let instance = self.next_instance[task];
        self.next_instance[task] += 1;
        let rate = self.rates[task];
        let n_sub = self.set.tasks()[task].len();
        // End-to-end deadline d_i = n_i / r_i (paper §7.1).
        let deadline = self.now + n_sub as f64 / rate;
        self.inflight[task].insert(instance, self.now, deadline);
        self.release_job(task, 0, instance);
        // Next periodic release under the current rate.
        self.core.schedule_task_release(task, self.now + 1.0 / rate);
    }

    fn handle_subtask_release(&mut self, task: usize, index: usize, instance: u64) {
        // Release guard (Sun & Liu, rule 1): delay until one period after
        // this subtask's previous release so every subtask stays periodic.
        // Rule 2 (idle-time release): the subtask may be released early
        // when its processor is idle — the early work cannot interfere
        // with anything, and without this rule transient overloads would
        // push release phases permanently late.
        let last = self.sub_last_release[task][index];
        let guard = if last.is_finite() {
            last + 1.0 / self.rates[task]
        } else {
            self.now
        };
        if self.now + TIME_EPS < guard {
            let idle_release = self.cfg.release_guard == crate::ReleaseGuard::IdleRelease && {
                let p = self.set.tasks()[task].subtasks()[index].processor.0;
                self.procs[p].advance(self.now);
                self.procs[p].ready.is_empty()
            };
            if !idle_release {
                self.core.push_subtask(task, index, instance, guard);
                self.guard_deferrals += 1;
                return;
            }
        }
        self.release_job(task, index, instance);
    }

    fn release_job(&mut self, task: usize, index: usize, instance: u64) {
        self.sub_last_release[task][index] = self.now;
        let subtask = self.set.tasks()[task].subtasks()[index];
        let speed = self
            .cfg
            .processor_speeds
            .as_ref()
            .map_or(1.0, |s| s[subtask.processor.0]);
        // The per-task mode scale is 1.0 nominally — an exact
        // multiplicative identity, so mode-free runs stay bit-identical.
        let mean = speed
            * self.speed_override[subtask.processor.0]
            * self.cfg.etf.value_at(self.now)
            * subtask.estimated_time
            * self.task_exec_scale[task];
        // The constant model ignores the uniform draw entirely, so skip
        // the generator on that (hot) path.  The stream only ever feeds
        // execution sampling, so unconsumed draws are unobservable.
        let exec = match self.cfg.exec_model {
            crate::ExecModel::Constant => mean,
            ref model => model.sample(mean, self.rng.gen::<f64>()),
        };
        let job = Job {
            task,
            index,
            instance,
            remaining: exec,
            period: 1.0 / self.rates[task],
            release: self.now,
            seq: self.next_job_seq,
        };
        self.next_job_seq += 1;
        let p = subtask.processor.0;
        self.procs[p].advance(self.now);
        self.procs[p].push_job(job);
        self.reschedule_completion(p);
    }

    fn handle_completion(&mut self, p: usize) {
        self.procs[p].advance(self.now);
        let Some(running) = self.procs[p].running() else {
            return;
        };
        if running.remaining > TIME_EPS && self.now + running.remaining > self.now {
            // Stale wake-up after floating-point drift; reschedule — unless
            // the remainder is below the clock's resolution at `now` (past
            // t = 2^24 an ulp exceeds TIME_EPS), where re-arming would fire
            // at this same instant forever: the job completes here.
            self.stale_wakeups += 1;
            self.reschedule_completion(p);
            return;
        }
        let job = self.procs[p].pop_running();
        // Subdeadline bookkeeping: subdeadline = period at release.
        {
            let st = &mut self.subtask_stats[job.task][job.index];
            st.completed += 1;
            if self.now > job.release + job.period + TIME_EPS {
                st.missed += 1;
            }
        }
        let chain_len = self.set.tasks()[job.task].len();
        if job.index + 1 < chain_len {
            // Precedence: hand the instance to the successor subtask (the
            // release guard is applied when the event fires).
            let next = job.index + 1;
            if self.core.hand_off(job.task, next, job.instance, self.now) {
                // Nothing else is due, so the release is the next event:
                // fire it here, after the re-arm it would have followed.
                self.reschedule_completion(p);
                self.core.fire_hand_off();
                self.events += 1;
                self.handoffs += 1;
                return self.handle_subtask_release(job.task, next, job.instance);
            }
        } else if let Some((release, deadline)) = self.inflight[job.task].remove(job.instance) {
            let response = self.now - release;
            let stats = &mut self.task_stats[job.task];
            stats.completed += 1;
            stats.response_time_sum += response;
            stats.response_time_max = stats.response_time_max.max(response);
            if self.now <= deadline + TIME_EPS {
                self.deadline_stats.met += 1;
            } else {
                self.deadline_stats.missed += 1;
                stats.missed += 1;
            }
        }
        self.reschedule_completion(p);
    }

    /// Updates the processor's single completion slot to its currently
    /// running job: rescheduled in place with a fresh sequence number, or
    /// removed when the processor is crashed or idle.
    fn reschedule_completion(&mut self, p: usize) {
        if self.procs[p].crashed {
            self.core.cancel_completion(p);
            return;
        }
        match self.procs[p].running() {
            Some(job) => {
                let eta = self.now + job.remaining;
                self.core.schedule_completion(p, eta);
            }
            None => self.core.cancel_completion(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_tasks::{ProcessorId, Task};

    fn single_task_set(c: f64, period: f64) -> TaskSet {
        let r = 1.0 / period;
        let mut set = TaskSet::new(1);
        set.add_task(
            Task::builder(r / 10.0, r * 10.0, r)
                .subtask(ProcessorId(0), c)
                .build()
                .unwrap(),
        )
        .unwrap();
        set
    }

    #[test]
    fn ready_queue_stays_sorted_and_runs_the_minimum() {
        // The descending-sorted ready queue must always run the dispatch
        // minimum, matching a fresh scan, across arrivals (including ties
        // on period and release) and completions.
        let mk = |period: f64, release: f64, seq: u64| Job {
            task: 0,
            index: 0,
            instance: 0,
            remaining: 1.0,
            period,
            release,
            seq,
        };
        let scan_min = |p: &ProcState| {
            p.ready
                .iter()
                .min_by(|a, b| dispatch_cmp(a, b))
                .map(|j| j.seq)
        };
        let mut p = ProcState::default();
        assert!(p.running().is_none());
        // Arrivals: lower-priority first, a preempting one, a tie on
        // period broken by release, and a tie on both broken by seq.
        for job in [
            mk(5.0, 0.0, 0),
            mk(3.0, 1.0, 1),
            mk(4.0, 0.5, 2),
            mk(3.0, 1.0, 3),
        ] {
            p.push_job(job);
            assert_eq!(p.running().map(|j| j.seq), scan_min(&p));
            assert!(
                p.ready
                    .windows(2)
                    .all(|w| dispatch_cmp(&w[0], &w[1]).is_gt()),
                "queue must stay strictly descending"
            );
        }
        // Drain from the run position.
        let mut drained = Vec::new();
        while p.running().is_some() {
            assert_eq!(p.running().map(|j| j.seq), scan_min(&p));
            drained.push(p.pop_running().seq);
        }
        assert_eq!(drained, vec![1, 3, 2, 0], "drained in dispatch order");
        assert!(p.ready.is_empty());
    }

    #[test]
    fn inflight_ring_retires_out_of_order() {
        let mut ring = InflightRing::default();
        for i in 0..4u64 {
            ring.insert(i, i as f64, i as f64 + 10.0);
        }
        // Retire the middle first, then the front; the front pop must
        // advance past already-retired slots.
        assert_eq!(ring.remove(1), Some((1.0, 11.0)));
        assert_eq!(ring.remove(1), None, "double retire yields nothing");
        assert_eq!(ring.remove(0), Some((0.0, 10.0)));
        assert_eq!(ring.base, 2, "front retired slots are reclaimed");
        assert_eq!(ring.remove(3), Some((3.0, 13.0)));
        assert_eq!(ring.remove(2), Some((2.0, 12.0)));
        assert!(ring.slots.is_empty());
        // Reuse after drain restarts the ring at the next instance.
        ring.insert(4, 4.0, 14.0);
        assert_eq!(ring.remove(4), Some((4.0, 14.0)));
    }

    #[test]
    fn counters_track_engine_activity() {
        let set = eucon_tasks::workloads::medium();
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(10_000.0);
        let c = sim.counters();
        assert!(c.events > 1000, "medium runs thousands of events: {c:?}");
        assert!(c.reschedules > 0, "preemptions must reschedule in place");
        assert!(c.queue_peak >= 10, "queue holds at least one slot per task");
        // The queue is bounded by the per-source structure, not the event
        // count: no tombstone accumulation.
        assert!(
            c.queue_peak < 200,
            "queue must stay O(sources), got {}",
            c.queue_peak
        );
        assert_eq!(c.events_per_time(0.0), 0.0);
        assert!(c.events_per_time(10_000.0) > 0.1);
    }

    #[test]
    fn sample_into_matches_allocating_sampler() {
        let mk = || {
            let set = eucon_tasks::workloads::medium();
            Simulator::new(
                set,
                SimConfig::constant_etf(0.9)
                    .exec_model(crate::ExecModel::Uniform { half_width: 0.2 })
                    .seed(5),
            )
        };
        let mut a = mk();
        let mut b = mk();
        let mut buf = Vector::zeros(a.task_set().num_processors());
        for k in 1..=5 {
            a.run_until(k as f64 * 1000.0);
            b.run_until(k as f64 * 1000.0);
            let u = a.sample_utilizations();
            b.sample_utilizations_into(&mut buf);
            assert!(u.approx_eq(&buf, 0.0), "bit-identical samples");
        }
        // Zero-length window fills zeros.
        b.sample_utilizations_into(&mut buf);
        assert!(buf.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn single_task_utilization_is_c_over_period() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(10_000.0);
        let u = sim.sample_utilizations();
        assert!((u[0] - 0.2).abs() < 0.01, "expected ~0.2, got {}", u[0]);
    }

    #[test]
    fn etf_scales_utilization() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(2.0));
        sim.run_until(10_000.0);
        let u = sim.sample_utilizations();
        assert!((u[0] - 0.4).abs() < 0.01, "expected ~0.4, got {}", u[0]);
    }

    #[test]
    fn overload_caps_utilization_at_one() {
        // Demand 2.0 > 1: the processor saturates and the backlog grows.
        let set = single_task_set(200.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(5_000.0);
        let u = sim.sample_utilizations();
        assert!((u[0] - 1.0).abs() < 1e-9);
        assert!(sim.backlog() > 10, "queue should build up under overload");
    }

    #[test]
    fn rate_change_takes_effect() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(10_000.0);
        let _ = sim.sample_utilizations();
        // Halve the rate → utilization halves.
        sim.set_rate(TaskId(0), 0.005);
        sim.run_until(30_000.0);
        let u = sim.sample_utilizations();
        assert!((u[0] - 0.1).abs() < 0.01, "expected ~0.1, got {}", u[0]);
    }

    #[test]
    fn set_rate_clamps_to_task_range() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        let applied = sim.set_rate(TaskId(0), 100.0);
        assert!((applied - 0.1).abs() < 1e-12, "clamped to Rmax = 10/period");
        let applied = sim.set_rate(TaskId(0), 1e-9);
        assert!((applied - 0.001).abs() < 1e-12, "clamped to Rmin");
    }

    #[test]
    fn two_processor_chain_executes_in_order() {
        // One end-to-end task over two processors: both see equal
        // utilization, and deadlines (2 periods end-to-end) are met at low
        // load.
        let r = 1.0 / 100.0;
        let mut set = TaskSet::new(2);
        set.add_task(
            Task::builder(r / 10.0, r * 10.0, r)
                .subtask(ProcessorId(0), 10.0)
                .subtask(ProcessorId(1), 10.0)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(20_000.0);
        let u = sim.sample_utilizations();
        assert!((u[0] - 0.1).abs() < 0.01);
        assert!((u[1] - 0.1).abs() < 0.01);
        let d = sim.deadline_stats();
        assert!(d.completed() > 150);
        assert_eq!(d.missed, 0);
    }

    #[test]
    fn release_guard_keeps_successor_periodic() {
        // Head subtask is tiny, successor is released at completion times
        // which jitter; the guard must keep inter-release gaps ≥ period.
        let r = 1.0 / 50.0;
        let mut set = TaskSet::new(2);
        set.add_task(
            Task::builder(r / 10.0, r * 10.0, r)
                .subtask(ProcessorId(0), 5.0)
                .subtask(ProcessorId(1), 20.0)
                .build()
                .unwrap(),
        )
        .unwrap();
        // Competing high-priority load on P0 creates completion jitter.
        let r2 = 1.0 / 23.0;
        set.add_task(
            Task::builder(r2 / 10.0, r2 * 10.0, r2)
                .subtask(ProcessorId(0), 8.0)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut sim = Simulator::new(
            set,
            SimConfig::constant_etf(1.0)
                .exec_model(crate::ExecModel::Uniform { half_width: 0.5 })
                .seed(42),
        );
        sim.run_until(30_000.0);
        // The guard is validated structurally: inter-release spacing of the
        // successor is tracked inside the engine; we assert the observable
        // consequence — the successor completed about `duration/period`
        // instances, never more.
        let completed = sim.task_stats()[0].completed;
        assert!(completed <= 600, "guard must prevent bursts: {completed}");
        assert!(completed >= 550, "successor should keep up: {completed}");
    }

    #[test]
    fn rms_priority_preempts_longer_period_task() {
        // A short-period task must always meet deadlines even when a
        // long-period hog shares the processor.
        let fast = 1.0 / 20.0;
        let slow = 1.0 / 200.0;
        let mut set = TaskSet::new(1);
        set.add_task(
            Task::builder(fast / 2.0, fast * 2.0, fast)
                .subtask(ProcessorId(0), 5.0)
                .build()
                .unwrap(),
        )
        .unwrap();
        set.add_task(
            Task::builder(slow / 2.0, slow * 2.0, slow)
                .subtask(ProcessorId(0), 100.0)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(20_000.0);
        // Utilization = 5/20 + 100/200 = 0.75; fast task misses nothing
        // under RMS despite the hog.
        let u = sim.sample_utilizations();
        assert!((u[0] - 0.75).abs() < 0.01);
        assert_eq!(sim.task_stats()[0].missed, 0, "fast task must never miss");
    }

    #[test]
    fn strict_guard_enforces_exact_periodicity() {
        // With the strict guard, a successor's completions over a horizon
        // can never exceed horizon/period + 1 even when the predecessor
        // floods it (completions arrive early and must wait).
        let r = 1.0 / 50.0;
        let mut set = TaskSet::new(2);
        set.add_task(
            Task::builder(r / 10.0, r * 10.0, r)
                .subtask(ProcessorId(0), 1.0) // trivially fast head
                .subtask(ProcessorId(1), 5.0)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut sim = Simulator::new(
            set,
            SimConfig::constant_etf(1.0).release_guard(crate::ReleaseGuard::Strict),
        );
        sim.run_until(10_000.0);
        let completed = sim.task_stats()[0].completed;
        assert!(
            completed <= 201,
            "strict spacing bounds completions: {completed}"
        );
        assert!(
            completed >= 195,
            "successor keeps up in steady state: {completed}"
        );
    }

    #[test]
    fn guard_deferrals_counted_under_jittered_strict_guard() {
        // Under the strict guard with jittered execution, any head
        // completion arriving earlier than one period after the
        // successor's previous release must be deferred — and counted.
        let r = 1.0 / 50.0;
        let mut set = TaskSet::new(2);
        set.add_task(
            Task::builder(r / 10.0, r * 10.0, r)
                .subtask(ProcessorId(0), 5.0)
                .subtask(ProcessorId(1), 20.0)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut sim = Simulator::new(
            set,
            SimConfig::constant_etf(1.0)
                .exec_model(crate::ExecModel::Uniform { half_width: 0.5 })
                .seed(9)
                .release_guard(crate::ReleaseGuard::Strict),
        );
        sim.run_until(30_000.0);
        let c = sim.counters();
        assert!(
            c.guard_deferrals > 0,
            "jittered completions must defer: {c:?}"
        );
    }

    #[test]
    fn strict_guard_accumulates_phase_drift_after_overload() {
        // Demonstrates why the idle-release rule matters: a transient
        // overload phase-shifts the strict-guard successor permanently,
        // so end-to-end deadlines (d = 2 periods) keep missing after the
        // overload clears; idle release recovers.
        let run = |guard: crate::ReleaseGuard| {
            let r = 1.0 / 100.0;
            let mut set = TaskSet::new(2);
            set.add_task(
                Task::builder(r / 10.0, r * 10.0, r)
                    .subtask(ProcessorId(0), 30.0)
                    .subtask(ProcessorId(1), 30.0)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            // Saturating overload for the first 20 periods (etf 5 →
            // demand 1.5 per processor builds a real backlog), then calm.
            let profile = crate::EtfProfile::steps(&[(0.0, 5.0), (2_000.0, 0.5)]);
            let cfg = SimConfig {
                exec_model: crate::ExecModel::Constant,
                etf: profile,
                seed: 0,
                release_guard: guard,
                processor_speeds: None,
            };
            let mut sim = Simulator::new(set, cfg);
            // Let the backlog drain before measuring steady state.
            sim.run_until(8_000.0);
            let before = sim.deadline_stats();
            sim.run_until(60_000.0);
            let after = sim.deadline_stats();
            // Miss ratio over the post-overload interval only.
            (after.missed - before.missed) as f64
                / (after.completed() - before.completed()).max(1) as f64
        };
        let strict = run(crate::ReleaseGuard::Strict);
        let idle = run(crate::ReleaseGuard::IdleRelease);
        assert!(idle < 0.02, "idle release recovers: {idle:.3}");
        assert!(
            strict > idle + 0.05,
            "strict guard must show persistent drift: strict {strict:.3} vs idle {idle:.3}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let set = eucon_tasks::workloads::medium();
            let mut sim = Simulator::new(
                set,
                SimConfig::constant_etf(0.8)
                    .exec_model(crate::ExecModel::Uniform { half_width: 0.3 })
                    .seed(123),
            );
            sim.run_until(50_000.0);
            (sim.sample_utilizations(), sim.deadline_stats())
        };
        let (u1, d1) = mk();
        let (u2, d2) = mk();
        assert!(u1.approx_eq(&u2, 0.0));
        assert_eq!(d1, d2);
    }

    #[test]
    fn sampling_windows_are_independent() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(10_000.0);
        let u1 = sim.sample_utilizations();
        sim.run_until(20_000.0);
        let u2 = sim.sample_utilizations();
        assert!((u1[0] - u2[0]).abs() < 0.02, "steady state: windows agree");
        // Zero-length window yields zeros, not NaN.
        let u3 = sim.sample_utilizations();
        assert_eq!(u3[0], 0.0);
    }

    #[test]
    fn total_utilization_tracks_whole_run() {
        let set = single_task_set(50.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        assert_eq!(sim.total_utilizations()[0], 0.0);
        sim.run_until(10_000.0);
        assert!((sim.total_utilizations()[0] - 0.5).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "cannot run backwards")]
    fn run_backwards_panics() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(100.0);
        sim.run_until(50.0);
    }

    #[test]
    fn run_until_within_tolerance_never_moves_the_clock_back() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(100.0);
        sim.run_until(100.0 - 5e-10);
        assert!(sim.now() >= 100.0, "clock went back to {}", sim.now());
    }

    #[test]
    fn suspend_stops_releases_and_resume_restarts() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(10_000.0);
        let _ = sim.sample_utilizations();
        assert!(!sim.is_suspended(TaskId(0)));
        sim.suspend_task(TaskId(0));
        assert!(sim.is_suspended(TaskId(0)));
        // Drain in-flight work, then the processor goes idle.
        sim.run_until(11_000.0);
        let _ = sim.sample_utilizations();
        sim.run_until(21_000.0);
        let u = sim.sample_utilizations();
        assert!(u[0] < 1e-9, "suspended task must not execute, got {}", u[0]);

        sim.resume_task(TaskId(0));
        sim.run_until(31_000.0);
        let u = sim.sample_utilizations();
        assert!(
            (u[0] - 0.2).abs() < 0.02,
            "resumed task runs again, got {}",
            u[0]
        );
    }

    #[test]
    fn suspend_is_idempotent_and_rate_changes_stay_dormant() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.suspend_task(TaskId(0));
        sim.suspend_task(TaskId(0));
        // Rate change while suspended must not wake the task.
        sim.set_rate(TaskId(0), 0.02);
        sim.run_until(10_000.0);
        let u = sim.sample_utilizations();
        assert!(u[0] < 1e-9);
        // Resume picks up the new rate.
        sim.resume_task(TaskId(0));
        sim.resume_task(TaskId(0));
        sim.run_until(30_000.0);
        let u = sim.sample_utilizations();
        assert!(
            (u[0] - 0.4).abs() < 0.05,
            "20 exec / 50 period = 0.4, got {}",
            u[0]
        );
    }

    #[test]
    fn admitted_task_releases_and_executes() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(10_000.0);
        let _ = sim.sample_utilizations();
        // Admit a second task mid-run: same shape, same processor.
        let r = 1.0 / 100.0;
        let id = sim
            .admit_task(
                Task::builder(r / 10.0, r * 10.0, r)
                    .subtask(ProcessorId(0), 20.0)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(id, TaskId(1));
        assert_eq!(sim.task_set().num_tasks(), 2);
        assert_eq!(sim.active_tasks(), 2);
        sim.run_until(30_000.0);
        let u = sim.sample_utilizations();
        assert!(
            (u[0] - 0.4).abs() < 0.02,
            "two tasks at 0.2 each, got {}",
            u[0]
        );
        assert!(sim.task_stats()[1].completed > 150, "new task runs");
    }

    #[test]
    fn admitted_task_rejects_bad_processor() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        let r = 1.0 / 100.0;
        let err = sim.admit_task(
            Task::builder(r / 10.0, r * 10.0, r)
                .subtask(ProcessorId(7), 20.0)
                .build()
                .unwrap(),
        );
        assert!(err.is_err());
        assert_eq!(
            sim.task_set().num_tasks(),
            1,
            "failed admit leaves no trace"
        );
    }

    #[test]
    fn departed_task_drains_in_flight_and_never_returns() {
        // Two-processor chain so departure leaves a successor in flight.
        let r = 1.0 / 100.0;
        let mut set = TaskSet::new(2);
        set.add_task(
            Task::builder(r / 10.0, r * 10.0, r)
                .subtask(ProcessorId(0), 10.0)
                .subtask(ProcessorId(1), 10.0)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(10_005.0); // head of instance ~100 just released
        let completed_at_depart = sim.task_stats()[0].completed;
        sim.depart_task(TaskId(0));
        sim.depart_task(TaskId(0)); // idempotent
        assert!(sim.is_departed(TaskId(0)));
        assert_eq!(sim.active_tasks(), 0);
        let _ = sim.sample_utilizations();
        sim.run_until(11_000.0);
        // The in-flight instance drained through its successor.
        assert!(sim.task_stats()[0].completed >= completed_at_depart);
        // Resume and rate changes cannot wake a departed task.
        sim.resume_task(TaskId(0));
        sim.set_rate(TaskId(0), 0.02);
        let _ = sim.sample_utilizations();
        sim.run_until(25_000.0);
        let u = sim.sample_utilizations();
        assert!(u[0] < 1e-9, "departed task must stay gone, got {}", u[0]);
        assert!(u[1] < 1e-9);
    }

    #[test]
    fn readmission_after_departure_uses_a_fresh_slot() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(5_000.0);
        sim.depart_task(TaskId(0));
        let r = 1.0 / 100.0;
        let id = sim
            .admit_task(
                Task::builder(r / 10.0, r * 10.0, r)
                    .subtask(ProcessorId(0), 20.0)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(id, TaskId(1), "slots are never recycled");
        let _ = sim.sample_utilizations();
        sim.run_until(25_000.0);
        let u = sim.sample_utilizations();
        assert!((u[0] - 0.2).abs() < 0.02, "replacement runs, got {}", u[0]);
    }

    #[test]
    fn mode_change_scales_execution_demand() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(10_000.0);
        let _ = sim.sample_utilizations();
        sim.set_task_mode(TaskId(0), 2.0);
        assert_eq!(sim.task_mode(TaskId(0)), 2.0);
        sim.run_until(30_000.0);
        let u = sim.sample_utilizations();
        assert!((u[0] - 0.4).abs() < 0.02, "2x mode: {}", u[0]);
        sim.set_task_mode(TaskId(0), 1.0);
        sim.run_until(60_000.0);
        let u = sim.sample_utilizations();
        assert!((u[0] - 0.2).abs() < 0.02, "nominal mode restored: {}", u[0]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn mode_scale_validated() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.set_task_mode(TaskId(0), 0.0);
    }

    #[test]
    fn crash_stops_execution_and_recovery_drains_backlog() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(10_000.0);
        let _ = sim.sample_utilizations();
        let before = sim.deadline_stats();

        assert!(!sim.is_crashed(ProcessorId(0)));
        sim.crash_processor(ProcessorId(0));
        sim.crash_processor(ProcessorId(0)); // idempotent
        assert!(sim.is_crashed(ProcessorId(0)));
        sim.run_until(15_000.0);
        let u = sim.sample_utilizations();
        assert!(
            u[0] < 1e-9,
            "crashed processor must report u = 0, got {}",
            u[0]
        );
        assert!(sim.backlog() >= 40, "releases pile up: {}", sim.backlog());

        sim.recover_processor(ProcessorId(0));
        sim.recover_processor(ProcessorId(0)); // idempotent
        assert!(!sim.is_crashed(ProcessorId(0)));
        // 50 queued jobs × 20 each = 1000 time units of catch-up work
        // followed by the periodic load: the window saturates first, and
        // the queued instances complete past their deadlines.
        sim.run_until(16_000.0);
        let u = sim.sample_utilizations();
        assert!(
            (u[0] - 1.0).abs() < 1e-9,
            "catch-up saturates, got {}",
            u[0]
        );
        sim.run_until(30_000.0);
        let after = sim.deadline_stats();
        assert!(
            after.missed > before.missed + 30,
            "outage jobs must miss deadlines: {} -> {}",
            before.missed,
            after.missed
        );
        let u = sim.sample_utilizations();
        assert!((u[0] - 0.2).abs() < 0.05, "steady state restored: {}", u[0]);
    }

    #[test]
    fn crash_preserves_interrupted_job_progress() {
        // A job interrupted mid-execution resumes where it stopped (the
        // outage adds latency, not work).
        let set = single_task_set(50.0, 1_000.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(25.0); // halfway through the first job
        sim.crash_processor(ProcessorId(0));
        sim.run_until(1_000.0);
        sim.recover_processor(ProcessorId(0));
        // Remaining 25 units finish 25 after recovery.
        sim.run_until(1_030.0);
        assert_eq!(sim.task_stats()[0].completed, 1);
    }

    #[test]
    fn speed_override_scales_utilization() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.set_speed_override(ProcessorId(0), 3.0);
        assert_eq!(sim.speed_override(ProcessorId(0)), 3.0);
        sim.run_until(10_000.0);
        let u = sim.sample_utilizations();
        assert!((u[0] - 0.6).abs() < 0.01, "3x burst: {}", u[0]);
        sim.set_speed_override(ProcessorId(0), 1.0);
        sim.run_until(30_000.0);
        let u = sim.sample_utilizations();
        assert!((u[0] - 0.2).abs() < 0.02, "burst cleared: {}", u[0]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn speed_override_validated() {
        let set = single_task_set(20.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.set_speed_override(ProcessorId(0), f64::NAN);
    }

    #[test]
    fn deadline_misses_recorded_under_overload() {
        let set = single_task_set(150.0, 100.0);
        let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
        sim.run_until(10_000.0);
        let d = sim.deadline_stats();
        assert!(d.missed > 0, "overload must produce misses");
        assert!(d.miss_ratio() > 0.5);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Long-run utilization of a single periodic task equals
            // etf · c / period, for arbitrary feasible parameters.
            #[test]
            fn utilization_law(
                c in 5.0..50.0f64,
                period in 100.0..400.0f64,
                etf in 0.2..1.5f64,
            ) {
                prop_assume!(etf * c / period < 0.95);
                let set = single_task_set(c, period);
                let mut sim = Simulator::new(set, SimConfig::constant_etf(etf));
                sim.run_until(50_000.0);
                let u = sim.sample_utilizations();
                let expected = etf * c / period;
                prop_assert!(
                    (u[0] - expected).abs() < 0.03,
                    "u = {}, expected {expected}", u[0]
                );
            }

            // Utilization measurements stay within [0, 1] and busy-time
            // accounting is consistent with the all-time totals, for
            // random multi-task workloads.
            #[test]
            fn accounting_invariants(seed in 0u64..50) {
                let set = eucon_tasks::workloads::RandomWorkload::new(3, 8)
                    .seed(seed)
                    .generate();
                let cfg = SimConfig::constant_etf(0.8)
                    .exec_model(crate::ExecModel::Uniform { half_width: 0.4 })
                    .seed(seed);
                let mut sim = Simulator::new(set, cfg);
                let mut windows = Vec::new();
                for k in 1..=10 {
                    sim.run_until(k as f64 * 1000.0);
                    windows.push(sim.sample_utilizations());
                }
                for w in &windows {
                    for &u in w.iter() {
                        prop_assert!((0.0..=1.0).contains(&u));
                    }
                }
                // Mean of the window samples equals the all-time busy
                // fraction.
                let total = sim.total_utilizations();
                for p in 0..3 {
                    let mean: f64 =
                        windows.iter().map(|w| w[p]).sum::<f64>() / windows.len() as f64;
                    prop_assert!((mean - total[p]).abs() < 1e-9);
                }
            }

            // Completion counts never exceed what the release rate allows.
            #[test]
            fn completions_bounded_by_rate(seed in 0u64..30) {
                let set = eucon_tasks::workloads::RandomWorkload::new(2, 5)
                    .seed(seed)
                    .generate();
                let horizon = 30_000.0;
                let rates = set.initial_rates();
                let mut sim = Simulator::new(set, SimConfig::constant_etf(0.5).seed(seed));
                sim.run_until(horizon);
                for (t, stats) in sim.task_stats().iter().enumerate() {
                    let max_releases = (horizon * rates[t]).ceil() as u64 + 1;
                    prop_assert!(
                        stats.completed <= max_releases,
                        "T{}: {} completions exceed {} possible releases",
                        t + 1, stats.completed, max_releases
                    );
                }
            }

            // Random rate-change / suspend / crash sequences never drive
            // the indexed queue out of order: the event core asserts
            // (time, seq)-monotone pops in debug builds, and the engine's
            // accounting must survive arbitrary reschedule churn.
            #[test]
            fn rate_churn_never_reorders_events(
                seed in 0u64..40,
                ops in proptest::collection::vec((0u8..5, 0usize..8, 0.3f64..3.0), 40),
            ) {
                let set = eucon_tasks::workloads::RandomWorkload::new(3, 8)
                    .seed(seed)
                    .generate();
                let cfg = SimConfig::constant_etf(0.8)
                    .exec_model(crate::ExecModel::Uniform { half_width: 0.4 })
                    .seed(seed);
                let mut sim = Simulator::new(set, cfg);
                let mut t = 0.0;
                for (kind, which, factor) in ops {
                    t += 150.0;
                    // Every pop inside run_until is checked against the
                    // monotonicity invariant in EventCore::pop.
                    sim.run_until(t);
                    let task = TaskId(which % 8);
                    match kind {
                        0 => {
                            let r = sim.rates_slice()[task.0];
                            let _ = sim.set_rate(task, r * factor);
                        }
                        1 => sim.suspend_task(task),
                        2 => sim.resume_task(task),
                        3 => sim.crash_processor(ProcessorId(which % 3)),
                        _ => sim.recover_processor(ProcessorId(which % 3)),
                    }
                }
                sim.run_until(t + 2_000.0);
                let u = sim.sample_utilizations();
                for &ui in u.iter() {
                    prop_assert!((0.0..=1.0).contains(&ui));
                }
                let c = sim.counters();
                prop_assert!(c.events > 0);
                // No tombstone accumulation: the tombstone heap grew with
                // every reschedule (thousands under this much churn); the
                // indexed queue stays near the source count plus the
                // in-flight successor window, however many reschedules
                // happen.
                prop_assert!(
                    c.queue_peak < 200,
                    "queue must not grow with reschedule churn: peak {} after {} reschedules",
                    c.queue_peak,
                    c.reschedules
                );
            }
        }
    }
}
