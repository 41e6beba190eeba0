//! Run-time statistics collected by the simulator.

/// End-to-end deadline bookkeeping (soft deadlines, paper §3.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineStats {
    /// Task instances that completed by their end-to-end deadline.
    pub met: u64,
    /// Task instances that completed after their end-to-end deadline.
    pub missed: u64,
}

impl DeadlineStats {
    /// Deadline miss ratio in `[0, 1]`; zero when nothing completed.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.met + self.missed;
        if total == 0 {
            0.0
        } else {
            self.missed as f64 / total as f64
        }
    }

    /// Total completed instances.
    pub fn completed(&self) -> u64 {
        self.met + self.missed
    }
}

/// Event-engine performance counters.
///
/// Exposed through [`crate::Simulator::counters`] so benchmarks and
/// regression tests can observe the engine's behaviour directly: how many
/// events it processed, how much of its work the indexed queue absorbed as
/// in-place reschedules (each of these was a tombstone in the old
/// engine's global queue), and how large the queue ever got.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events fired and processed (every one is live — the indexed queue
    /// never discards stale entries).
    pub events: u64,
    /// Successor releases among `events` that the completion handler ran
    /// in place because nothing else was due (no queue round trip).
    pub handoffs: u64,
    /// In-place reschedules of an already-queued event source (rate
    /// changes, completion updates after preemption).
    pub reschedules: u64,
    /// Subtask releases deferred by the release guard.
    pub guard_deferrals: u64,
    /// Completion wake-ups that found unfinished work after floating-point
    /// drift and had to be rescheduled.
    pub stale_wakeups: u64,
    /// High-water mark of simultaneously pending events.
    pub queue_peak: usize,
}

impl EngineCounters {
    /// Counter increments since an `earlier` snapshot of the same engine.
    ///
    /// The monotone counters come back as differences; `queue_peak` is a
    /// high-water mark, not a rate, so the current value carries over
    /// unchanged.  This is what per-period telemetry uses to turn the
    /// engine's cumulative totals into per-sampling-period activity.
    pub fn delta(&self, earlier: &EngineCounters) -> EngineCounters {
        EngineCounters {
            events: self.events.saturating_sub(earlier.events),
            handoffs: self.handoffs.saturating_sub(earlier.handoffs),
            reschedules: self.reschedules.saturating_sub(earlier.reschedules),
            guard_deferrals: self.guard_deferrals.saturating_sub(earlier.guard_deferrals),
            stale_wakeups: self.stale_wakeups.saturating_sub(earlier.stale_wakeups),
            queue_peak: self.queue_peak,
        }
    }

    /// Events processed per simulated time unit.
    pub fn events_per_time(&self, elapsed: f64) -> f64 {
        if elapsed <= 0.0 {
            0.0
        } else {
            self.events as f64 / elapsed
        }
    }
}

/// Per-task response-time statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskStats {
    /// Completed end-to-end instances.
    pub completed: u64,
    /// Instances that missed their end-to-end deadline.
    pub missed: u64,
    /// Sum of end-to-end response times (release of the head subtask to
    /// completion of the tail subtask).
    pub response_time_sum: f64,
    /// Largest observed end-to-end response time.
    pub response_time_max: f64,
}

impl TaskStats {
    /// Mean end-to-end response time; zero when nothing completed.
    pub fn mean_response_time(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.response_time_sum / self.completed as f64
        }
    }
}

/// Per-subtask subdeadline bookkeeping.
///
/// Under the paper's subdeadline assignment (§7.1), each subtask's
/// subdeadline equals its period; enforcing the RMS utilization bound on a
/// processor is supposed to make every subtask on it meet that
/// subdeadline.  These counters make that claim measurable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubtaskStats {
    /// Completed jobs of this subtask.
    pub completed: u64,
    /// Jobs that finished later than one period after their release.
    pub missed: u64,
}

impl SubtaskStats {
    /// Subdeadline miss ratio in `[0, 1]`; zero when nothing completed.
    pub fn miss_ratio(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.missed as f64 / self.completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_handles_empty() {
        assert_eq!(DeadlineStats::default().miss_ratio(), 0.0);
        let s = DeadlineStats { met: 3, missed: 1 };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(s.completed(), 4);
    }

    #[test]
    fn subtask_miss_ratio() {
        assert_eq!(SubtaskStats::default().miss_ratio(), 0.0);
        let s = SubtaskStats {
            completed: 10,
            missed: 3,
        };
        assert!((s.miss_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn mean_response_time_handles_empty() {
        assert_eq!(TaskStats::default().mean_response_time(), 0.0);
        let s = TaskStats {
            completed: 2,
            missed: 0,
            response_time_sum: 10.0,
            response_time_max: 7.0,
        };
        assert_eq!(s.mean_response_time(), 5.0);
    }
}
