//! Indexed, per-source event core — the tombstone-free replacement for the
//! global `BinaryHeap` event queue.
//!
//! The engine's event set has fixed structure: each task has exactly one
//! live "next head release", each processor exactly one live tentative
//! completion, and each subtask a short list of release-guarded successor
//! instances.  Instead of pushing a fresh heap entry on every reschedule
//! and leaving the stale one to rot until pop (the version-tombstone
//! pattern), every *event source* is a fixed leaf of a tournament tree:
//! `keys[s]` is the source's next `(time, seq)` packed into one integer
//! ([`IDLE`] when nothing is queued), an inner node names the source with
//! the smaller key of its two children, and `tree[1]` is the next event.
//! Scheduling, rescheduling, cancelling and retiring a fired event are one
//! operation — store the leaf's key and replay its matches up to the root
//! ([`EventCore::replay`]) — and `pop` never discards anything.  Memory is
//! `O(m + n + Σ subtasks)` and the steady state allocates nothing.
//!
//! Determinism is inherited from the old queue: every (re)schedule stamps
//! a fresh monotone sequence number, and events are ordered by
//! `(time, seq)` — a strict total order, so the pop sequence does not
//! depend on the tree's shape or on which of two idle leaves wins a match.
//!
//! * **Branch-free replay.**  A heap's sifts branch on which child is
//!   smallest and on where the sift stops; both depend on the keys, no
//!   predictor learns them, and the mispredictions cost more than the
//!   queue's loads and compares together.  The replay walks the full
//!   leaf-to-root path (`log2` of the leaf count, whatever the keys) and
//!   meets one sibling per level — that subtree's winner, which a change
//!   to this leaf cannot have moved, so the sibling loads do not wait for
//!   the compare chain — and it must pick each match's winner with
//!   conditional moves: with a conditional jump per level the same tree
//!   measures 15 % slower on a 64-processor plant than the 4-ary heap it
//!   replaced (EXPERIMENTS.md, "Event-queue cost per event").
//! * **Hand-off.**  A completion hands its instance to the successor
//!   subtask at the current instant.  If no queued event is due by then,
//!   the pushed entry would be the very next pop, so
//!   [`EventCore::hand_off`] only takes the sequence number and the
//!   engine runs the release in place; on a tie the older event has the
//!   smaller `seq`, so the entry is queued.  The firing order is the same.

use std::hint::select_unpredictable;

/// An event popped from the [`EventCore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FiredEvent {
    /// Periodic release of a task's head subtask.
    TaskRelease { task: usize },
    /// Release-guarded release of a successor subtask instance.
    SubtaskRelease {
        task: usize,
        index: usize,
        instance: u64,
    },
    /// Tentative completion of the job running on a processor.
    Completion { processor: usize },
}

/// A pending successor-subtask release: `(time, seq, instance)`.
///
/// Entries of one subtask source are kept sorted by `(time, seq)`.  They
/// are *not* a FIFO: a guard-deferred instance (future release time) can
/// coexist with a later-arriving instance whose release time is earlier.
#[derive(Debug, Clone, Copy)]
struct Pending {
    time: f64,
    seq: u64,
    instance: u64,
}

/// What a source id denotes: an explicit table (one indexed load per
/// pop), because runtime task admission appends sources at the end of
/// the id space.
#[derive(Debug, Clone, Copy)]
enum SourceKind {
    /// Head-release source of a task.
    Task(u32),
    /// Tentative-completion source of a processor.
    Proc(u32),
    /// Release-guarded successor subtask `(task, index ≥ 1)`.
    Sub { task: u32, index: u32 },
}

/// Key of a source with nothing queued.  It orders after every real key:
/// its time half is a NaN bit pattern, and the NaN checks where times
/// enter (`upsert`, `push_subtask`) are what keep a NaN time from reading
/// as "nothing queued".
const IDLE: u128 = u128::MAX;

const SIGN: u64 = 1 << 63;

/// All ones below the sign bit when it is set, zero otherwise.
#[inline]
fn magnitude_if_negative(bits: u64) -> u64 {
    ((bits as i64 >> 63) as u64) >> 1
}

/// Packs `(time, seq)` so that one unsigned compare orders exactly like
/// `f64::total_cmp` on the times, then the sequence numbers: flip the
/// magnitude bits of negative times as `total_cmp` does, then the sign bit
/// (signed order → unsigned order).
#[inline]
fn key_of(time: f64, seq: u64) -> u128 {
    let bits = time.to_bits();
    ((bits ^ magnitude_if_negative(bits) ^ SIGN) as u128) << 64 | seq as u128
}

/// The time packed into `key`, bit for bit (neither flip touches the bit
/// the other one reads, so undoing them in reverse order is the inverse).
#[inline]
fn time_of(key: u128) -> f64 {
    let bits = (key >> 64) as u64 ^ SIGN;
    f64::from_bits(bits ^ magnitude_if_negative(bits))
}

/// Indexed earliest-first event queue: a tournament tree over
/// `(time, seq)` with one leaf per event source.  Source ids are looked
/// up, never computed: `kind` maps an id to what it denotes, and
/// `head_src` / `proc0` / `sub_base` map back.
#[derive(Debug)]
pub(crate) struct EventCore {
    /// Source id of the first processor (the initial task count —
    /// processor ids never move because growth only appends).
    proc0: u32,
    /// Kind of every source id.
    kind: Vec<SourceKind>,
    /// Head-release source id of each task (original tasks keep `t`,
    /// appended tasks get ids at the end of the id space).
    head_src: Vec<u32>,
    /// First subtask-source id of each task (successors only).
    sub_base: Vec<u32>,
    /// Next `(time, seq)` of each source ([`key_of`]), or [`IDLE`].  One
    /// entry per leaf: the source count rounded up to a power of two, the
    /// leaves past the last source idle until admission hands them out.
    keys: Vec<u128>,
    /// The tournament, `2 · keys.len()` entries: `tree[keys.len() + s]`
    /// is `s`, an inner node `j` holds whichever of `tree[2j]` and
    /// `tree[2j + 1]` has the smaller key, `tree[1]` is the next event
    /// (`tree[0]` is unused).
    tree: Vec<u32>,
    /// Pending instances per source id, sorted by `(time, seq)`; the
    /// front entry is the source's key.  Only subtask sources ever
    /// queue entries; task/processor slots stay empty (a few unused
    /// `Vec`s buy direct indexing by source id, which survives growth).
    pending: Vec<Vec<Pending>>,
    next_seq: u64,
    /// Live events (single-slot sources with a key + queued pending
    /// entries).
    live: usize,
    /// Largest live-event count ever observed.
    peak: usize,
    /// In-place reschedules of an already-queued source (each of these
    /// would have been a tombstone in the old queue).
    reschedules: u64,
    /// `(time, seq)` of the last popped event, for the monotonicity
    /// invariants (debug builds only).
    #[cfg(debug_assertions)]
    last_popped: (f64, u64),
}

impl EventCore {
    /// Creates a core for `num_tasks` tasks on `num_procs` processors,
    /// where task `t` has `subtask_counts[t]` subtasks (so
    /// `subtask_counts[t] − 1` successor sources).
    pub fn new(num_tasks: usize, num_procs: usize, subtask_counts: &[usize]) -> Self {
        assert_eq!(subtask_counts.len(), num_tasks);
        let mut kind = Vec::with_capacity(num_tasks + num_procs);
        let mut head_src = Vec::with_capacity(num_tasks);
        for t in 0..num_tasks {
            kind.push(SourceKind::Task(t as u32));
            head_src.push(t as u32);
        }
        for p in 0..num_procs {
            kind.push(SourceKind::Proc(p as u32));
        }
        let mut sub_base = Vec::with_capacity(num_tasks);
        let mut next = (num_tasks + num_procs) as u32;
        for (t, &len) in subtask_counts.iter().enumerate() {
            sub_base.push(next);
            for i in 1..len {
                kind.push(SourceKind::Sub {
                    task: t as u32,
                    index: i as u32,
                });
            }
            next += len.saturating_sub(1) as u32;
        }
        let total = next as usize;
        let mut core = EventCore {
            proc0: num_tasks as u32,
            kind,
            head_src,
            sub_base,
            keys: Vec::new(),
            tree: Vec::new(),
            pending: vec![Vec::new(); total],
            next_seq: 0,
            live: 0,
            peak: 0,
            reschedules: 0,
            #[cfg(debug_assertions)]
            last_popped: (f64::NEG_INFINITY, 0),
        };
        core.rebuild();
        core
    }

    /// Adds a task with `num_subtasks` subtasks at runtime, returning its
    /// id (always the next task index).  The new head-release and
    /// successor sources are appended to the end of the id space;
    /// existing ids, queued events and the `(time, seq)` pop order are
    /// untouched.
    pub fn add_task(&mut self, num_subtasks: usize) -> usize {
        assert!(num_subtasks >= 1, "a task has at least one subtask");
        let task = self.head_src.len();
        let head = self.kind.len() as u32;
        self.kind.push(SourceKind::Task(task as u32));
        self.head_src.push(head);
        self.sub_base.push(head + 1);
        for i in 1..num_subtasks {
            self.kind.push(SourceKind::Sub {
                task: task as u32,
                index: i as u32,
            });
        }
        let total = self.kind.len();
        self.pending.resize_with(total, Vec::new);
        // The new sources take over leaves that were idle padding, which
        // the tree already holds; only outgrowing the leaves rebuilds it.
        if total > self.keys.len() {
            self.rebuild();
        }
        task
    }

    /// Number of live events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Largest number of simultaneously live events so far.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// In-place reschedules performed so far (the old queue would have
    /// left one tombstone per reschedule).
    pub fn reschedules(&self) -> u64 {
        self.reschedules
    }

    /// Schedules (or reschedules) the next head release of `task`.
    pub fn schedule_task_release(&mut self, task: usize, time: f64) {
        self.upsert(self.head_src[task], time);
    }

    /// Cancels the pending head release of `task`, if any.
    pub fn cancel_task_release(&mut self, task: usize) {
        self.cancel(self.head_src[task]);
    }

    /// Schedules (or reschedules) the tentative completion of the job
    /// running on processor `p`.
    pub fn schedule_completion(&mut self, p: usize, time: f64) {
        self.upsert(self.proc_source(p), time);
    }

    /// Cancels the pending completion of processor `p`, if any.
    pub fn cancel_completion(&mut self, p: usize) {
        self.cancel(self.proc_source(p));
    }

    /// Queues a successor-subtask release (`index ≥ 1`) of `instance` at
    /// `time`.
    pub fn push_subtask(&mut self, task: usize, index: usize, instance: u64, time: f64) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let s = self.sub_source(task, index);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Pending {
            time,
            seq,
            instance,
        };
        let list = &mut self.pending[s as usize];
        // Sorted insert by (time, seq); lists are a handful of entries at
        // worst (bounded by the release-guard backlog of one subtask).
        let at = list.partition_point(|e| (e.time, e.seq) < (entry.time, entry.seq));
        list.insert(at, entry);
        self.live += 1;
        self.peak = self.peak.max(self.live);
        if at == 0 {
            // New front: the source's key changes (counted as a plain
            // schedule, not a reschedule — nothing was invalidated).
            self.replay(s, key_of(time, seq));
        }
    }

    /// Precedence hand-off of `instance` to successor subtask `index` at
    /// the current instant, accounted exactly like
    /// [`EventCore::push_subtask`].  `true` when no queued event is due by
    /// `now`: the entry would be the very next pop, so it is *not* queued
    /// — the caller runs the release, then [`EventCore::fire_hand_off`].
    /// On `false` (an older event ties at `now`) it is queued as usual.
    pub fn hand_off(&mut self, task: usize, index: usize, instance: u64, now: f64) -> bool {
        if self.peek_time().is_some_and(|earliest| earliest <= now) {
            self.push_subtask(task, index, instance, now);
            return false;
        }
        #[cfg(debug_assertions)]
        {
            debug_assert!(now >= self.last_popped.0, "hand-off into the past");
            self.last_popped = (now, self.next_seq);
        }
        self.next_seq += 1;
        self.live += 1;
        self.peak = self.peak.max(self.live);
        true
    }

    /// Retires the entry an in-place [`EventCore::hand_off`] kept counted
    /// while the caller re-armed the completion, as if it had been queued.
    pub fn fire_hand_off(&mut self) {
        self.live -= 1;
    }

    /// Time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        let key = self.keys[self.tree[1] as usize];
        (key != IDLE).then(|| time_of(key))
    }

    /// Pops the earliest event if it fires no later than `t_end`
    /// (fused peek + pop for the engine's main loop).
    pub fn pop_before(&mut self, t_end: f64) -> Option<(f64, FiredEvent)> {
        if self.peek_time()? > t_end {
            return None;
        }
        self.pop()
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(f64, FiredEvent)> {
        let s = self.tree[1] as usize;
        let key = self.keys[s];
        if key == IDLE {
            return None;
        }
        let at = (time_of(key), key as u64);
        #[cfg(debug_assertions)]
        {
            let (lt, lq) = self.last_popped;
            debug_assert!(
                at.0 > lt || (at.0 == lt && at.1 > lq),
                "event core must pop in (time, seq) order: {at:?} after {:?}",
                (lt, lq)
            );
            self.last_popped = at;
        }
        self.live -= 1;
        // The fired leaf is retired (or, for a subtask source, re-keyed to
        // its next entry) right away: deferring that until the handler's
        // re-arm overwrites the leaf measured no faster on MEDIUM and
        // slower on the 64-processor plant (EXPERIMENTS.md).
        let (fired, next) = match self.kind[s] {
            SourceKind::Task(task) => {
                let task = task as usize;
                (FiredEvent::TaskRelease { task }, IDLE)
            }
            SourceKind::Proc(p) => {
                let processor = p as usize;
                (FiredEvent::Completion { processor }, IDLE)
            }
            SourceKind::Sub { task, index } => {
                let entry = self.pending[s].remove(0);
                debug_assert_eq!((entry.time, entry.seq), at);
                let fired = FiredEvent::SubtaskRelease {
                    task: task as usize,
                    index: index as usize,
                    instance: entry.instance,
                };
                let front = self.pending[s].first();
                (fired, front.map_or(IDLE, |e| key_of(e.time, e.seq)))
            }
        };
        self.replay(s as u32, next);
        Some((at.0, fired))
    }

    // ---- source-id lookup ----

    fn proc_source(&self, p: usize) -> u32 {
        self.proc0 + p as u32
    }

    fn sub_source(&self, task: usize, index: usize) -> u32 {
        debug_assert!(index >= 1, "index 0 is the head release source");
        self.sub_base[task] + (index as u32 - 1)
    }

    // ---- tournament primitives ----

    /// Inserts or reschedules a single-slot source (task or processor)
    /// with a fresh sequence number.
    fn upsert(&mut self, s: u32, time: f64) {
        assert!(!time.is_nan(), "event time must not be NaN");
        if self.keys[s as usize] == IDLE {
            self.live += 1;
            self.peak = self.peak.max(self.live);
        } else {
            self.reschedules += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.replay(s, key_of(time, seq));
    }

    /// Removes a single-slot source if present.
    fn cancel(&mut self, s: u32) {
        if self.keys[s as usize] != IDLE {
            self.replay(s, IDLE);
            self.live -= 1;
        }
    }

    /// Sets source `s`'s key and replays its matches from the leaf to the
    /// root — every mutation of the queue is this.  The running winner
    /// travels in registers and meets, per level, the winner of the
    /// sibling subtree, which no change to `s` can have moved.
    ///
    /// The key is carried as its two `u64` halves and each of the three
    /// registers chosen by a scalar `select_unpredictable`, which compiles
    /// to three `cmov` per level.  An `if`, or one select on the `u128`,
    /// compiles to a conditional jump per level that no predictor learns
    /// (module docs); `.claude/skills/verify/SKILL.md` has the asm check
    /// to repeat after a toolchain bump.
    fn replay(&mut self, s: u32, key: u128) {
        #[cfg(debug_assertions)]
        {
            let (lt, lq) = self.last_popped;
            let (t, q) = (time_of(key), key as u64);
            debug_assert!(
                key == IDLE || t > lt || (t == lt && q > lq),
                "scheduled into the past: {:?} after {:?} fired",
                (t, q),
                (lt, lq)
            );
        }
        self.keys[s as usize] = key;
        let (mut w, mut hi, mut lo) = (s, (key >> 64) as u64, key as u64);
        let mut j = self.keys.len() + s as usize;
        while j > 1 {
            let sib = self.tree[j ^ 1];
            let sib_key = self.keys[sib as usize];
            let (shi, slo) = ((sib_key >> 64) as u64, sib_key as u64);
            let take = (shi < hi) | ((shi == hi) & (slo < lo));
            w = select_unpredictable(take, sib, w);
            hi = select_unpredictable(take, shi, hi);
            lo = select_unpredictable(take, slo, lo);
            j >>= 1;
            self.tree[j] = w;
        }
    }

    /// Sizes the tree for the current source count and plays every match
    /// bottom-up: construction, and admission past a power of two (which
    /// allocates anyway).  Queued keys are kept.
    fn rebuild(&mut self) {
        let cap = self.kind.len().next_power_of_two();
        self.keys.resize(cap, IDLE);
        self.tree.clear();
        self.tree.resize(cap, 0);
        self.tree.extend(0..cap as u32);
        for j in (1..cap).rev() {
            let (a, b) = (self.tree[2 * j], self.tree[2 * j + 1]);
            let b_wins = self.keys[b as usize] < self.keys[a as usize];
            self.tree[j] = if b_wins { b } else { a };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core3() -> EventCore {
        // 3 tasks on 2 processors; task 0 has 3 subtasks, task 1 has 1,
        // task 2 has 2 → successor sources: t0 ×2, t2 ×1.
        EventCore::new(3, 2, &[3, 1, 2])
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = core3();
        q.schedule_task_release(0, 5.0);
        q.schedule_task_release(1, 1.0);
        q.schedule_task_release(2, 3.0);
        let mut order = Vec::new();
        while let Some((t, _)) = q.pop() {
            order.push(t);
        }
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn simultaneous_events_pop_in_schedule_order() {
        let mut q = core3();
        for task in 0..3 {
            q.schedule_task_release(task, 2.0);
        }
        q.schedule_completion(1, 2.0);
        q.push_subtask(0, 1, 7, 2.0);
        let mut order = Vec::new();
        while let Some((_, e)) = q.pop() {
            order.push(e);
        }
        assert_eq!(
            order,
            vec![
                FiredEvent::TaskRelease { task: 0 },
                FiredEvent::TaskRelease { task: 1 },
                FiredEvent::TaskRelease { task: 2 },
                FiredEvent::Completion { processor: 1 },
                FiredEvent::SubtaskRelease {
                    task: 0,
                    index: 1,
                    instance: 7
                },
            ]
        );
    }

    #[test]
    fn reschedule_updates_in_place() {
        let mut q = core3();
        q.schedule_task_release(0, 10.0);
        q.schedule_task_release(1, 5.0);
        assert_eq!(q.len(), 2);
        // Move task 0 ahead of task 1: same source, no tombstone.
        q.schedule_task_release(0, 1.0);
        assert_eq!(q.len(), 2, "reschedule must not grow the queue");
        assert_eq!(q.reschedules(), 1);
        assert_eq!(q.pop().unwrap().1, FiredEvent::TaskRelease { task: 0 });
        assert_eq!(q.pop().unwrap().1, FiredEvent::TaskRelease { task: 1 });
    }

    #[test]
    fn reschedule_at_same_time_moves_behind_ties() {
        // The old queue invalidated + re-pushed, so a rescheduled event
        // fell behind other events at the same time.  The indexed core
        // must reproduce that order via the fresh sequence number.
        let mut q = core3();
        q.schedule_task_release(0, 2.0);
        q.schedule_task_release(1, 2.0);
        q.schedule_task_release(0, 2.0); // reschedule, same time
        assert_eq!(q.pop().unwrap().1, FiredEvent::TaskRelease { task: 1 });
        assert_eq!(q.pop().unwrap().1, FiredEvent::TaskRelease { task: 0 });
    }

    #[test]
    fn cancel_removes_without_tombstones() {
        let mut q = core3();
        q.schedule_task_release(0, 1.0);
        q.schedule_completion(0, 2.0);
        q.cancel_task_release(0);
        q.cancel_task_release(0); // idempotent
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, FiredEvent::Completion { processor: 0 });
        assert!(q.pop().is_none());
        q.cancel_completion(1); // absent: no-op
    }

    #[test]
    fn subtask_entries_sort_by_time_not_arrival() {
        let mut q = core3();
        // A guard-deferred instance at t=10 arrives before a completion-
        // driven instance at t=4: the earlier time must pop first.
        q.push_subtask(0, 1, 0, 10.0);
        q.push_subtask(0, 1, 1, 4.0);
        q.push_subtask(0, 2, 2, 6.0);
        let popped: Vec<(f64, FiredEvent)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            vec![
                (
                    4.0,
                    FiredEvent::SubtaskRelease {
                        task: 0,
                        index: 1,
                        instance: 1
                    }
                ),
                (
                    6.0,
                    FiredEvent::SubtaskRelease {
                        task: 0,
                        index: 2,
                        instance: 2
                    }
                ),
                (
                    10.0,
                    FiredEvent::SubtaskRelease {
                        task: 0,
                        index: 1,
                        instance: 0
                    }
                ),
            ]
        );
    }

    #[test]
    fn peek_matches_pop_and_peak_tracks_high_water() {
        let mut q = core3();
        assert_eq!(q.peek_time(), None);
        q.schedule_completion(0, 7.0);
        q.schedule_task_release(2, 9.0);
        assert_eq!(q.peek_time(), Some(7.0));
        assert_eq!(q.peak(), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, 7.0);
        assert_eq!(e, FiredEvent::Completion { processor: 0 });
        assert_eq!(q.len(), 1);
        assert_eq!(q.peak(), 2, "peak is a high-water mark");
    }

    #[test]
    fn nan_time_rejected() {
        // Load-bearing: `IDLE`'s time half is a NaN pattern, so a NaN that
        // got past these checks would read as "nothing queued".
        let entry_points: [fn(&mut EventCore); 3] = [
            |q| q.schedule_completion(0, f64::NAN),
            |q| q.schedule_task_release(0, f64::NAN),
            |q| q.push_subtask(0, 1, 0, f64::NAN),
        ];
        for enter in entry_points {
            let mut q = core3();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| enter(&mut q)))
                .expect_err("a NaN time must be rejected");
            let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(message.contains("NaN"), "panicked with {message:?}");
            assert_eq!((q.len(), q.peek_time()), (0, None));
        }
    }

    #[test]
    fn sub_sources_roundtrip_through_the_kind_table() {
        let q = EventCore::new(4, 3, &[2, 5, 1, 3]);
        for (task, len) in [(0usize, 2usize), (1, 5), (2, 1), (3, 3)] {
            for index in 1..len {
                let s = q.sub_source(task, index);
                match q.kind[s as usize] {
                    SourceKind::Sub { task: t, index: i } => {
                        assert_eq!((t as usize, i as usize), (task, index));
                    }
                    other => panic!("source {s} should be a subtask, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn added_task_gets_fresh_sources_and_pops_in_order() {
        let mut q = core3();
        q.schedule_task_release(0, 5.0);
        q.schedule_completion(1, 2.0);
        q.push_subtask(0, 1, 3, 4.0);
        // Admit a 3-subtask task at runtime; existing events are untouched.
        let t = q.add_task(3);
        assert_eq!(t, 3);
        q.schedule_task_release(t, 1.0);
        q.push_subtask(t, 1, 0, 3.0);
        q.push_subtask(t, 2, 0, 6.0);
        let popped: Vec<(f64, FiredEvent)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            vec![
                (1.0, FiredEvent::TaskRelease { task: 3 }),
                (2.0, FiredEvent::Completion { processor: 1 }),
                (
                    3.0,
                    FiredEvent::SubtaskRelease {
                        task: 3,
                        index: 1,
                        instance: 0
                    }
                ),
                (
                    4.0,
                    FiredEvent::SubtaskRelease {
                        task: 0,
                        index: 1,
                        instance: 3
                    }
                ),
                (5.0, FiredEvent::TaskRelease { task: 0 }),
                (
                    6.0,
                    FiredEvent::SubtaskRelease {
                        task: 3,
                        index: 2,
                        instance: 0
                    }
                ),
            ]
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn added_single_subtask_task_works() {
        let mut q = EventCore::new(1, 1, &[1]);
        let t = q.add_task(1);
        q.schedule_task_release(t, 2.0);
        q.schedule_task_release(0, 1.0);
        q.schedule_completion(0, 3.0);
        assert_eq!(q.pop().unwrap().1, FiredEvent::TaskRelease { task: 0 });
        assert_eq!(q.pop().unwrap().1, FiredEvent::TaskRelease { task: 1 });
        assert_eq!(q.pop().unwrap().1, FiredEvent::Completion { processor: 0 });
    }

    #[test]
    fn randomish_schedule_pops_sorted() {
        // Deterministic pseudo-random churn over every source kind; the
        // popped sequence must be sorted by (time, seq).
        let mut q = EventCore::new(5, 3, &[2, 3, 1, 2, 4]);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for round in 0..200 {
            let t = rnd() * 100.0;
            match round % 4 {
                0 => q.schedule_task_release(round % 5, t),
                1 => q.schedule_completion(round % 3, t),
                2 => {
                    let task = [0usize, 1, 3, 4][round % 4];
                    let index = 1 + round
                        % (match task {
                            1 => 2,
                            4 => 3,
                            _ => 1,
                        });
                    q.push_subtask(task, index, round as u64, t);
                }
                _ => q.cancel_completion(round % 3),
            }
        }
        let mut last = f64::NEG_INFINITY;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "out of order: {t} after {last}");
            last = t;
            n += 1;
        }
        assert!(n > 50);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn fired_source_can_be_rearmed_cancelled_or_left_idle() {
        let mut q = EventCore::new(1, 1, &[2]);
        q.schedule_task_release(0, 1.0);
        assert_eq!(q.pop().unwrap().1, FiredEvent::TaskRelease { task: 0 });
        // The source that just fired is idle again: cancels see nothing,
        // a peek and a pop find an empty queue, and it can be re-armed.
        q.cancel_task_release(0);
        q.cancel_completion(0);
        assert_eq!((q.len(), q.peek_time()), (0, None));
        assert!(q.pop().is_none());
        q.schedule_completion(0, 2.0);
        assert_eq!(q.pop().unwrap().1, FiredEvent::Completion { processor: 0 });
        q.schedule_completion(0, 3.0); // re-arms the source that just fired
        q.schedule_task_release(0, 2.5); // takes the root from it
        q.schedule_completion(0, 2.0); // rescheduled ahead of the new root
        assert_eq!(
            q.pop().unwrap(),
            (2.0, FiredEvent::Completion { processor: 0 })
        );
        // One entry queued and it is not due: the hand-off is in place and
        // leaves the queue as it was.
        assert!(q.hand_off(0, 1, 0, 2.0));
        q.fire_hand_off();
        assert!(!q.hand_off(0, 1, 1, 2.5), "the release at 2.5 is older");
        assert_eq!(q.pop().unwrap().1, FiredEvent::TaskRelease { task: 0 });
        assert_eq!(q.pop().unwrap().0, 2.5);
        // Nothing queued at all: in place again.
        assert!(q.hand_off(0, 1, 2, 2.5));
        q.fire_hand_off();
        assert_eq!((q.len(), q.peak(), q.reschedules()), (0, 2, 1));
    }

    #[test]
    fn growth_rebuilds_the_tree_with_events_queued() {
        // 2 tasks + 2 processors + 3 successors = 7 sources on 8 leaves.
        let mut subs = vec![3usize, 2];
        let mut q = EventCore::new(2, 2, &subs);
        let mut m = Naive::default();
        let (mut now, mut instance) = (0.0, 0);
        assert_eq!(q.keys.len(), 8);
        // Each round queues events on every source kind (later tasks
        // earlier, so the newest leaves win their way to the root), admits
        // tasks until the leaf count doubles and drains half, so the next
        // doubling runs over queued, fired and never-armed sources.  The
        // last round admits nothing: the newest tasks fire too.
        for leaves in [16, 32, 32] {
            for (task, &len) in subs.iter().enumerate() {
                let at = now + 100.0 - task as f64;
                q.schedule_task_release(task, at);
                m.upsert(at, FiredEvent::TaskRelease { task });
                for index in 1..len {
                    instance += 1;
                    let event = FiredEvent::SubtaskRelease {
                        task,
                        index,
                        instance,
                    };
                    q.push_subtask(task, index, instance, at + 0.25 * index as f64);
                    m.push(at + 0.25 * index as f64, event);
                }
            }
            for processor in 0..2 {
                let at = now + 50.0 + processor as f64;
                q.schedule_completion(processor, at);
                m.upsert(at, FiredEvent::Completion { processor });
            }
            while q.keys.len() < leaves {
                subs.push(1 + subs.len() % 3);
                assert_eq!(q.add_task(subs[subs.len() - 1]), subs.len() - 1);
            }
            assert_eq!((q.keys.len(), q.tree.len()), (leaves, 2 * leaves));
            for _ in 0..q.len() / 2 {
                let popped = q.pop();
                assert_eq!(popped, m.pop_before(f64::INFINITY));
                now = popped.unwrap().0;
            }
        }
        while let Some(popped) = q.pop() {
            assert_eq!(Some(popped), m.pop_before(f64::INFINITY));
        }
        assert!(m.live.is_empty());
        assert_eq!((q.peak(), q.reschedules()), (m.peak, m.reschedules));
    }

    /// The reference the core is checked against: a plain list of live
    /// events, scanned for its `(time, seq)` minimum.
    #[derive(Default)]
    struct Naive {
        live: Vec<(f64, u64, FiredEvent)>,
        next_seq: u64,
        peak: usize,
        reschedules: u64,
    }

    impl Naive {
        fn cancel(&mut self, event: FiredEvent) -> bool {
            let before = self.live.len();
            self.live.retain(|e| e.2 != event);
            self.live.len() < before
        }

        fn push(&mut self, time: f64, event: FiredEvent) {
            self.live.push((time, self.next_seq, event));
            self.next_seq += 1;
            self.peak = self.peak.max(self.live.len());
        }

        fn upsert(&mut self, time: f64, event: FiredEvent) {
            if self.cancel(event) {
                self.reschedules += 1;
            }
            self.push(time, event);
        }

        fn pop_before(&mut self, t_end: f64) -> Option<(f64, FiredEvent)> {
            let (at, _) = self
                .live
                .iter()
                .enumerate()
                .min_by(|a, b| (a.1 .0, a.1 .1).partial_cmp(&(b.1 .0, b.1 .1)).unwrap())?;
            if self.live[at].0 > t_end {
                return None;
            }
            let (time, _, event) = self.live.remove(at);
            Some((time, event))
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A time of every kind the key packing must order — signed
        /// zeros, subnormals, infinities, neighbours one ulp apart at the
        /// 2^24 scale, ordinary values — from a small domain, so equal
        /// times (decided by `seq`) are drawn often.
        fn time(class: u8, x: u64) -> f64 {
            let magnitude = match class {
                0 => 0.0,
                1 => f64::from_bits(1 + x / 2 % 4),
                2 => f64::INFINITY,
                3 => 16_777_216.0 + (x / 2 % 4) as f64 * 2f64.powi(-28),
                _ => (x / 2) as f64 * 0.125,
            };
            if x.is_multiple_of(2) {
                magnitude
            } else {
                -magnitude
            }
        }

        proptest! {
            #[test]
            fn packed_keys_order_like_total_cmp_then_seq(
                a in (0u8..5, 0u64..32, 0usize..3),
                b in (0u8..5, 0u64..32, 0usize..3),
            ) {
                let seqs = [0, 1, u64::MAX];
                let (ta, qa) = (time(a.0, a.1), seqs[a.2]);
                let (tb, qb) = (time(b.0, b.1), seqs[b.2]);
                prop_assert_eq!(
                    key_of(ta, qa) < key_of(tb, qb),
                    ta.total_cmp(&tb).then(qa.cmp(&qb)).is_lt()
                );
                prop_assert_eq!(time_of(key_of(ta, qa)).to_bits(), ta.to_bits());
                prop_assert!(key_of(ta, qa) < IDLE);
            }

            // Random interleavings of every entry point — including
            // cancels and reschedules of the source that just fired,
            // hand-offs that tie with an older event, and admissions that
            // rebuild the tree (8 → 16 → 32 leaves) with events queued —
            // pop the same `(time, event)` sequence as the naive list and
            // keep the same `len`, `peak` and `reschedules`.  Times never
            // precede the last fired event, which is the engine's contract.
            #[test]
            fn matches_a_naive_sorted_list(
                ops in proptest::collection::vec((0u8..10, 0usize..24, 0usize..4, 0u8..4), 300),
            ) {
                let mut subs = vec![3usize, 1, 2];
                let mut q = EventCore::new(3, 2, &subs);
                let mut m = Naive::default();
                let mut now = 0.0f64;
                let mut instance = 0u64;
                for (kind, a, b, d) in ops {
                    let at = now + d as f64 * 0.5;
                    let task = a % subs.len();
                    let p = a % 2;
                    // A (task, index ≥ 1) pair for the subtask entry points.
                    let chain = (0..subs.len()).map(|i| (a + i) % subs.len()).find(|&t| subs[t] > 1);
                    let sub = chain.map(|t| (t, 1 + b % (subs[t] - 1)));
                    match (kind, sub) {
                        (0, _) => {
                            q.schedule_task_release(task, at);
                            m.upsert(at, FiredEvent::TaskRelease { task });
                        }
                        (1, _) => {
                            q.schedule_completion(p, at);
                            m.upsert(at, FiredEvent::Completion { processor: p });
                        }
                        (2, _) => {
                            q.cancel_task_release(task);
                            m.cancel(FiredEvent::TaskRelease { task });
                        }
                        (3, _) => {
                            q.cancel_completion(p);
                            m.cancel(FiredEvent::Completion { processor: p });
                        }
                        (4, Some((task, index))) => {
                            instance += 1;
                            q.push_subtask(task, index, instance, at);
                            m.push(at, FiredEvent::SubtaskRelease { task, index, instance });
                        }
                        (5, Some((task, index))) => {
                            // What `handle_completion` does: hand off at
                            // the current instant, re-arm (or clear) the
                            // completion, then fire in place if told to.
                            instance += 1;
                            let event = FiredEvent::SubtaskRelease { task, index, instance };
                            let nothing_due = m.live.iter().all(|e| e.0 > now);
                            prop_assert_eq!(q.hand_off(task, index, instance, now), nothing_due);
                            m.push(now, event);
                            if b % 2 == 0 {
                                q.schedule_completion(p, at);
                                m.upsert(at, FiredEvent::Completion { processor: p });
                            } else {
                                q.cancel_completion(p);
                                m.cancel(FiredEvent::Completion { processor: p });
                            }
                            prop_assert_eq!(q.peak(), m.peak);
                            if nothing_due {
                                q.fire_hand_off();
                                prop_assert_eq!(m.pop_before(f64::INFINITY), Some((now, event)));
                            }
                        }
                        (6, _) if subs.len() < 24 => {
                            subs.push(1 + b % 3);
                            prop_assert_eq!(q.add_task(subs[subs.len() - 1]), subs.len() - 1);
                        }
                        (7, _) => {
                            let popped = q.pop_before(at);
                            prop_assert_eq!(popped, m.pop_before(at));
                            now = popped.map_or(now, |(t, _)| t);
                        }
                        _ => {
                            let popped = q.pop();
                            prop_assert_eq!(popped, m.pop_before(f64::INFINITY));
                            now = popped.map_or(now, |(t, _)| t);
                        }
                    }
                    prop_assert_eq!(
                        (q.len(), q.peak(), q.reschedules()),
                        (m.live.len(), m.peak, m.reschedules)
                    );
                }
                while let Some(popped) = q.pop() {
                    prop_assert_eq!(Some(popped), m.pop_before(f64::INFINITY));
                }
                prop_assert!(m.live.is_empty());
            }
        }
    }
}
