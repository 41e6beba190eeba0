//! Turns a hung round into a failed run.
//!
//! The simulator can livelock (README, "Known hazard"); a benchmark that
//! wedges takes the whole pipeline with it.  Each workload process runs
//! one watchdog thread: the measuring thread arms it at the start of a
//! round with the round's period count and ticks it once per completed
//! period; if the round is still running after [`SLACK`] times the
//! workload's expected round time, the watchdog prints a result that
//! counts every unexecuted period of the round as failed and exits the
//! process with a nonzero code.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A round may take this many times its expected duration.
pub const SLACK: u32 = 20;

/// Exit code of a run the watchdog ended.
pub const EXIT_HUNG: i32 = 3;

#[derive(Default)]
struct Shared {
    /// Milliseconds since `epoch` at which the armed round expires
    /// (0 = disarmed).
    deadline_ms: AtomicU64,
    /// Periods of the armed round / completed so far in it / completed
    /// in earlier rounds.  Statistics only: `Relaxed` throughout.
    round_periods: AtomicU64,
    round_done: AtomicU64,
    earlier_done: AtomicU64,
}

pub struct Watchdog {
    shared: Arc<Shared>,
    epoch: Instant,
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

/// What the watchdog reports when it fires: `(attempted, failed)`.
fn verdict(shared: &Shared) -> (u64, u64) {
    let planned = shared.round_periods.load(Ordering::Relaxed);
    let done = shared.round_done.load(Ordering::Relaxed).min(planned);
    let earlier = shared.earlier_done.load(Ordering::Relaxed);
    (earlier + planned, planned - done)
}

impl Watchdog {
    /// Starts the watchdog thread.  `on_hang` receives `(attempted,
    /// failed)` and must print the run's result; the process exits with
    /// [`EXIT_HUNG`] right after it returns.
    pub fn start(on_hang: impl FnOnce(u64, u64) + Send + 'static) -> Self {
        let shared = Arc::new(Shared::default());
        let epoch = Instant::now();
        let (stop, stopped) = channel::<()>();
        let seen = Arc::clone(&shared);
        let thread = std::thread::spawn(move || loop {
            match stopped.recv_timeout(Duration::from_millis(50)) {
                Err(RecvTimeoutError::Timeout) => {}
                // The measuring thread finished (or dropped the handle).
                Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
            }
            let deadline = seen.deadline_ms.load(Ordering::Relaxed);
            if deadline != 0 && epoch.elapsed().as_millis() as u64 > deadline {
                let (attempted, failed) = verdict(&seen);
                on_hang(attempted, failed);
                std::process::exit(EXIT_HUNG);
            }
        });
        Watchdog {
            shared,
            epoch,
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Arms the watchdog for one round of `periods` periods that should
    /// take about `expected_s` seconds.
    pub fn arm(&self, expected_s: f64, periods: u64) {
        let budget = Duration::from_secs_f64(expected_s) * SLACK;
        self.shared.round_periods.store(periods, Ordering::Relaxed);
        self.shared.round_done.store(0, Ordering::Relaxed);
        let deadline = (self.epoch.elapsed() + budget).as_millis() as u64;
        self.shared
            .deadline_ms
            .store(deadline.max(1), Ordering::Relaxed);
    }

    /// One period of the armed round completed.
    pub fn tick(&self) {
        self.shared.round_done.fetch_add(1, Ordering::Relaxed);
    }

    /// The armed round finished in time.
    pub fn disarm(&self) {
        self.shared.deadline_ms.store(0, Ordering::Relaxed);
        let done = self.shared.round_done.swap(0, Ordering::Relaxed);
        self.shared.earlier_done.fetch_add(done, Ordering::Relaxed);
        self.shared.round_periods.store(0, Ordering::Relaxed);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            // A panic in the watchdog thread has already been printed;
            // there is nothing to add while dropping.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unexecuted_periods_of_the_hung_round_count_as_failed() {
        let s = Shared::default();
        s.earlier_done.store(8000, Ordering::Relaxed);
        s.round_periods.store(4200, Ordering::Relaxed);
        s.round_done.store(1200, Ordering::Relaxed);
        assert_eq!(verdict(&s), (12_200, 3000));
    }

    #[test]
    fn a_round_that_finishes_is_folded_into_the_earlier_count() {
        let dog = Watchdog::start(|_, _| panic!("must not fire"));
        dog.arm(0.5, 10);
        for _ in 0..10 {
            dog.tick();
        }
        dog.disarm();
        assert_eq!(dog.shared.earlier_done.load(Ordering::Relaxed), 10);
        assert_eq!(dog.shared.deadline_ms.load(Ordering::Relaxed), 0);
    }
}
