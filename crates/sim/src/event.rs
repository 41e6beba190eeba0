//! Indexed, per-source event core — the tombstone-free replacement for the
//! global `BinaryHeap` event queue.
//!
//! The engine's event set has fixed structure: each task has exactly one
//! live "next head release", each processor exactly one live tentative
//! completion, and each subtask a short list of release-guarded successor
//! instances.  Instead of pushing a fresh heap entry on every reschedule
//! and leaving the stale one to rot until pop (the version-tombstone
//! pattern), every *event source* owns one slot in an indexed 4-ary
//! min-heap with a position table: rescheduling is a decrease/increase-key
//! sift, cancellation is a removal, and `pop` never discards anything.
//! Memory is `O(m + n + Σ subtasks)` and the steady state allocates
//! nothing.
//!
//! Determinism is inherited from the old queue: every (re)schedule stamps
//! a fresh monotone sequence number, and events are ordered by
//! `(time, seq)` — a strict total order, so the pop sequence does not
//! depend on the heap's shape.  Two shortcuts lean on that:
//!
//! * **Root hole.**  A fired source is almost always re-armed by its own
//!   handler (the next head release, the next job's completion), so `pop`
//!   leaves the fired slot in `heap[0]` as a *hole* — source already
//!   [`ABSENT`] — instead of moving the last leaf up and sifting it down.
//!   The next insert of an absent source overwrites it and sifts down
//!   once; the next pop closes a hole nobody filled.  The stale root is
//!   never overtaken: queued keys were ordered after it, and new keys
//!   carry a later `seq` at a time no earlier than the event that fired
//!   (callers never schedule into the past), so sift-ups and removals
//!   stop below it.
//! * **Hand-off.**  A completion hands its instance to the successor
//!   subtask at the current instant.  If no queued event is due by then,
//!   the pushed entry would be the very next pop, so
//!   [`EventCore::hand_off`] only takes the sequence number and the
//!   engine runs the release in place; on a tie the older event has the
//!   smaller `seq`, so the entry is queued.  The firing order is the same.

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

/// Sentinel for "source not in the heap".
const ABSENT: u32 = u32::MAX;

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

/// Heap branching factor — purely a constant-factor knob, since the pop
/// sequence is independent of the heap's shape.  Four halves the sift
/// depth relative to a binary heap and keeps each node's children in
/// adjacent cache lines.
const ARITY: usize = 4;

/// A heap slot: the key is stored inline so sift comparisons touch only
/// the heap array itself (indirecting through per-source key arrays costs
/// two extra cache misses per comparison, which dominates at scale).
#[derive(Debug, Clone, Copy)]
struct Slot {
    time: f64,
    seq: u64,
    src: u32,
}

impl Slot {
    #[inline]
    fn less(&self, other: &Slot) -> bool {
        match self.time.total_cmp(&other.time) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.seq < other.seq,
        }
    }
}

/// Indexed earliest-first event queue: a 4-ary min-heap over
/// `(time, seq)` with one slot per event source.  Source ids are looked
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
    /// Heap of sources with inline keys, ordered by `(time, seq)`.
    heap: Vec<Slot>,
    /// Position of each source in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
    /// Pending instances per source id, sorted by `(time, seq)`; the
    /// front entry is the source's heap key.  Only subtask sources ever
    /// queue entries; task/processor slots stay empty (a few unused
    /// `Vec`s buy direct indexing by source id, which survives growth).
    pending: Vec<Vec<Pending>>,
    /// `heap[0]` belongs to the event that just fired: its source is
    /// already [`ABSENT`] and the next insert overwrites it (module docs).
    hole: bool,
    next_seq: u64,
    /// Live events (heap singletons + queued pending entries).
    live: usize,
    /// Largest live-event count ever observed.
    peak: usize,
    /// In-place reschedules of an already-queued source (each of these
    /// would have been a tombstone in the old queue).
    reschedules: u64,
    /// `(time, seq)` of the last popped event, for the monotonicity
    /// invariant (debug builds only).
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
        EventCore {
            proc0: num_tasks as u32,
            kind,
            head_src,
            sub_base,
            heap: Vec::with_capacity(total),
            pos: vec![ABSENT; total],
            pending: vec![Vec::new(); total],
            hole: false,
            next_seq: 0,
            live: 0,
            peak: 0,
            reschedules: 0,
            #[cfg(debug_assertions)]
            last_popped: (f64::NEG_INFINITY, 0),
        }
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
        self.pos.resize(total, ABSENT);
        self.pending.resize_with(total, Vec::new);
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
            // New front: the source's heap key changes (counted as a plain
            // schedule, not a reschedule — nothing was invalidated).
            let front = (time, seq);
            self.set_key(s, front.0, front.1);
        }
    }

    /// Precedence hand-off of `instance` to successor subtask `index` at
    /// the current instant, accounted exactly like
    /// [`EventCore::push_subtask`].  `true` when no queued event is due by
    /// `now`: the entry would be the very next pop, so it is *not* queued
    /// — the caller runs the release, then [`EventCore::fire_hand_off`].
    /// On `false` (an older event ties at `now`) it is queued as usual.
    pub fn hand_off(&mut self, task: usize, index: usize, instance: u64, now: f64) -> bool {
        // With the root a hole, the earliest live key is one of its children.
        let (from, to) = if self.hole { (1, 1 + ARITY) } else { (0, 1) };
        let earliest = &self.heap[from.min(self.heap.len())..to.min(self.heap.len())];
        if earliest.iter().any(|slot| slot.time <= now) {
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
    #[cfg(test)]
    pub fn peek_time(&mut self) -> Option<f64> {
        self.close_hole();
        self.heap.first().map(|slot| slot.time)
    }

    /// Pops the earliest event if it fires no later than `t_end`
    /// (fused peek + pop for the engine's main loop).
    pub fn pop_before(&mut self, t_end: f64) -> Option<(f64, FiredEvent)> {
        self.close_hole();
        if self.heap.first()?.time > t_end {
            return None;
        }
        self.pop()
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(f64, FiredEvent)> {
        self.close_hole();
        let &slot = self.heap.first()?;
        let s = slot.src as usize;
        let at = (slot.time, slot.seq);
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
        let fired = match self.kind[s] {
            SourceKind::Task(task) => {
                self.open_hole();
                FiredEvent::TaskRelease {
                    task: task as usize,
                }
            }
            SourceKind::Proc(p) => {
                self.open_hole();
                FiredEvent::Completion {
                    processor: p as usize,
                }
            }
            SourceKind::Sub { task, index } => {
                let entry = self.pending[s].remove(0);
                debug_assert_eq!((entry.time, entry.seq), at);
                match self.pending[s].first().map(|e| (e.time, e.seq)) {
                    Some((t, q)) => self.set_key(s as u32, t, q),
                    None => self.open_hole(),
                }
                FiredEvent::SubtaskRelease {
                    task: task as usize,
                    index: index as usize,
                    instance: entry.instance,
                }
            }
        };
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

    // ---- indexed-heap primitives ----

    /// Inserts or reschedules a single-slot source (task or processor)
    /// with a fresh sequence number.
    fn upsert(&mut self, s: u32, time: f64) {
        assert!(!time.is_nan(), "event time must not be NaN");
        if self.pos[s as usize] == ABSENT {
            self.live += 1;
            self.peak = self.peak.max(self.live);
        } else {
            self.reschedules += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.set_key(s, time, seq);
    }

    /// Removes a single-slot source if present.
    fn cancel(&mut self, s: u32) {
        if self.pos[s as usize] != ABSENT {
            self.remove(s);
            self.live -= 1;
        }
    }

    /// Sets a source's key and restores the heap order (inserting the
    /// source if absent).
    fn set_key(&mut self, s: u32, time: f64, seq: u64) {
        let slot = Slot { time, seq, src: s };
        debug_assert!(!self.hole || self.heap[0].less(&slot), "into the past");
        let i = self.pos[s as usize];
        if i != ABSENT {
            let i = i as usize;
            self.heap[i] = slot;
            // The key may have moved either way: try both directions (one
            // is a no-op).
            self.sift_up(i, slot);
            self.sift_down(self.pos[s as usize] as usize);
        } else if std::mem::take(&mut self.hole) {
            // Refill the fired root: the key it replaces was the minimum,
            // so the new one can only need to move down.
            self.heap[0] = slot;
            self.sift_down(0);
        } else {
            self.heap.push(slot);
            self.sift_up(self.heap.len() - 1, slot);
        }
    }

    /// Retires the fired root's source; its slot stays to be overwritten.
    fn open_hole(&mut self) {
        self.pos[self.heap[0].src as usize] = ABSENT;
        self.hole = true;
    }

    /// Removes a root hole nobody refilled.
    fn close_hole(&mut self) {
        if std::mem::take(&mut self.hole) {
            self.heap.swap_remove(0);
            if let Some(moved) = self.heap.first() {
                self.pos[moved.src as usize] = 0;
                self.sift_down(0);
            }
        }
    }

    /// Removes an arbitrary source from the heap.
    fn remove(&mut self, s: u32) {
        let i = self.pos[s as usize] as usize;
        self.pos[s as usize] = ABSENT;
        let last = self.heap.len() - 1;
        self.heap.swap_remove(i);
        if i <= last && i < self.heap.len() {
            let moved = self.heap[i];
            self.pos[moved.src as usize] = i as u32;
            self.sift_up(i, moved);
            self.sift_down(self.pos[moved.src as usize] as usize);
        }
    }

    /// Moves the slot at `i` (already equal to `slot`) toward the root
    /// until its parent is no greater.  Hole-based: ancestors shift down
    /// and positions are written once per visited level.
    fn sift_up(&mut self, mut i: usize, slot: Slot) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let p = self.heap[parent];
            if slot.less(&p) {
                self.heap[i] = p;
                self.pos[p.src as usize] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = slot;
        self.pos[slot.src as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let slot = self.heap[i];
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let last = (first + ARITY).min(n);
            let mut best = first;
            let mut b = self.heap[first];
            for c in first + 1..last {
                if self.heap[c].less(&b) {
                    best = c;
                    b = self.heap[c];
                }
            }
            if b.less(&slot) {
                self.heap[i] = b;
                self.pos[b.src as usize] = i as u32;
                i = best;
            } else {
                break;
            }
        }
        self.heap[i] = slot;
        self.pos[slot.src as usize] = i as u32;
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
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let mut q = core3();
        q.schedule_completion(0, f64::NAN);
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
    fn hole_in_a_heap_of_one_is_refilled_or_closed() {
        let mut q = EventCore::new(1, 1, &[2]);
        q.schedule_task_release(0, 1.0);
        assert_eq!(q.pop().unwrap().1, FiredEvent::TaskRelease { task: 0 });
        // The heap is now just the hole: cancels see nothing, a peek and a
        // pop close it, and an insert refills it.
        q.cancel_task_release(0);
        q.cancel_completion(0);
        assert_eq!((q.len(), q.peek_time()), (0, None));
        assert!(q.pop().is_none());
        q.schedule_completion(0, 2.0);
        assert_eq!(q.pop().unwrap().1, FiredEvent::Completion { processor: 0 });
        q.schedule_completion(0, 3.0); // refills the hole
        q.schedule_task_release(0, 2.5); // no hole left: a plain push
        q.schedule_completion(0, 2.0); // reschedule past the new root
        assert_eq!(
            q.pop().unwrap(),
            (2.0, FiredEvent::Completion { processor: 0 })
        );
        // Hole open over a one-entry heap: nothing is due, so the hand-off
        // is in place and touches nothing.
        assert!(q.hand_off(0, 1, 0, 2.0));
        q.fire_hand_off();
        assert!(!q.hand_off(0, 1, 1, 2.5), "the release at 2.5 is older");
        assert_eq!(q.pop().unwrap().1, FiredEvent::TaskRelease { task: 0 });
        assert_eq!(q.pop().unwrap().0, 2.5);
        assert_eq!((q.len(), q.peak(), q.reschedules()), (0, 2, 1));
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

        proptest! {
            // Random interleavings of every entry point — including
            // cancels and reschedules while the root is a hole, and
            // hand-offs that tie with an older event — pop the same
            // `(time, event)` sequence as the naive list and keep the
            // same `len`, `peak` and `reschedules`.  Times never precede
            // the last fired event, which is the engine's contract.
            #[test]
            fn matches_a_naive_sorted_list(
                ops in proptest::collection::vec((0u8..10, 0usize..8, 0usize..4, 0u8..4), 300),
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
                        (6, _) if subs.len() < 8 => {
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
