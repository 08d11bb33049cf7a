//! The event queue (§2.2).
//!
//! "The events are maintained in a heap, sorted by their scheduled time. The
//! simulation runs by selecting the first event from the heap … After
//! completion of an operation, the operation completion time is added to an
//! exponentially distributed value with mean equal to process time and an
//! event is scheduled at that newly calculated time."
//!
//! Ties are broken by a monotone sequence number so runs are deterministic.
//!
//! Two interchangeable backends implement this contract behind
//! [`EventQueueKind`]: the paper's binary heap (O(log n), the reference)
//! and the calendar queue in [`crate::calendar`] (amortized O(1) at
//! million-user densities). Both pop in exactly ascending
//! `(time, seq, user)` order, so the choice is invisible to digests,
//! goldens, and metrics sidecars — pinned by `tests/engine_digest.rs` and
//! the differential battery in `crates/sim/tests/queue_equiv.rs`.

use crate::calendar::CalendarQueue;
use readopt_disk::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies one user (one parallel event stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserId(pub u32);

/// A scheduled user event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Which user acts.
    pub user: UserId,
}

/// Which scheduling structure backs an [`EventQueue`].
///
/// Selected by `SimConfig::event_queue` / `repro --event-queue`. Both
/// backends are observably identical (same pop order, same results, same
/// sidecar bytes); they differ only in asymptotics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventQueueKind {
    /// Binary min-heap keyed `(time, seq, user)` — the paper's structure
    /// and the reference semantics. O(log n) per operation.
    #[default]
    Heap,
    /// Sliding calendar queue with an overflow heap and an arena-backed
    /// wheel (see [`crate::calendar`]). Amortized O(1) per operation.
    Calendar,
}

/// The two concrete scheduling structures.
#[derive(Debug)]
enum Backend {
    Heap(BinaryHeap<Reverse<(SimTime, u64, u32)>>),
    Calendar(CalendarQueue),
}

/// Min-queue of events ordered by `(time, insertion sequence, user)`,
/// backed by either structure in [`EventQueueKind`].
#[derive(Debug)]
pub struct EventQueue {
    backend: Backend,
    seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue on the default (heap) backend.
    pub fn new() -> Self {
        EventQueue::with_kind(EventQueueKind::Heap)
    }

    /// An empty queue on the chosen backend.
    pub fn with_kind(kind: EventQueueKind) -> Self {
        let backend = match kind {
            EventQueueKind::Heap => Backend::Heap(BinaryHeap::new()),
            EventQueueKind::Calendar => Backend::Calendar(CalendarQueue::new()),
        };
        EventQueue { backend, seq: 0 }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> EventQueueKind {
        match self.backend {
            Backend::Heap(_) => EventQueueKind::Heap,
            Backend::Calendar(_) => EventQueueKind::Calendar,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(h) => h.len(),
            Backend::Calendar(c) => c.len(),
        }
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `user` to act at `time`.
    pub fn schedule(&mut self, time: SimTime, user: UserId) {
        let seq = self.seq;
        self.seq += 1;
        self.schedule_with_seq(time, user, seq);
    }

    /// Schedules `user` at `time` under an already assigned sequence
    /// number (a restored checkpoint entry keeps its original stamp).
    fn schedule_with_seq(&mut self, time: SimTime, user: UserId, seq: u64) {
        match &mut self.backend {
            Backend::Heap(h) => h.push(Reverse((time, seq, user.0))),
            Backend::Calendar(c) => c.insert(time, seq, user.0),
        }
    }

    /// The earliest pending event time, if any. `&mut` because the
    /// calendar backend memoizes its bucket-cursor advance while peeking
    /// (observationally pure — the answer never changes).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.backend {
            Backend::Heap(h) => h.peek().map(|Reverse((t, _, _))| *t),
            Backend::Calendar(c) => c.peek_time(),
        }
    }

    /// The full ordering key `(time, seq)` of the earliest pending event.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        match &mut self.backend {
            Backend::Heap(h) => h.peek().map(|Reverse((t, s, _))| (*t, *s)),
            Backend::Calendar(c) => c.peek_key(),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        match &mut self.backend {
            Backend::Heap(h) => h.pop().map(|Reverse((time, _, user))| Event { time, user: UserId(user) }),
            Backend::Calendar(c) => c.pop(),
        }
    }

    /// Drains every pending event in pop order, returning the
    /// `(time, seq, user)` entries plus the sequence counter — the
    /// checkpoint form of the queue. The calendar backend is not cloneable
    /// (its bucket cursor is lazy), so a checkpoint empties the queue and
    /// the caller immediately rebuilds it via [`Self::restore_entries`].
    pub fn drain_entries(&mut self) -> (Vec<(SimTime, u64, u32)>, u64) {
        let mut out = Vec::with_capacity(self.len());
        while let Some((time, seq)) = self.peek_key() {
            let Some(ev) = self.pop() else { break };
            out.push((time, seq, ev.user.0));
        }
        (out, self.seq)
    }

    /// Refills the queue from a [`Self::drain_entries`] snapshot,
    /// preserving each entry's original sequence stamp so the pop order
    /// (ties included) is exactly what it was when the snapshot was taken.
    /// Entries must arrive in strictly ascending `(time, seq)` order (the
    /// drain order) with every stamp below `next_seq`; anything else means
    /// the snapshot is corrupt.
    pub fn restore_entries(
        &mut self,
        entries: &[(SimTime, u64, u32)],
        next_seq: u64,
    ) -> Result<(), String> {
        if !self.is_empty() {
            return Err("restoring into a non-empty event queue".into());
        }
        // Validate everything first: a failed restore must leave the queue
        // untouched, not half-filled.
        let mut prev: Option<(SimTime, u64)> = None;
        for &(time, seq, _) in entries {
            if seq >= next_seq {
                return Err(format!("event seq {seq} at or past the counter {next_seq}"));
            }
            if prev.is_some_and(|p| p >= (time, seq)) {
                return Err(format!("event entries out of pop order at seq {seq}"));
            }
            prev = Some((time, seq));
        }
        for &(time, seq, user) in entries {
            self.schedule_with_seq(time, UserId(user), seq);
        }
        self.seq = next_seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [EventQueueKind; 2] = [EventQueueKind::Heap, EventQueueKind::Calendar];

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn pops_in_time_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(t(30.0), UserId(3));
            q.schedule(t(10.0), UserId(1));
            q.schedule(t(20.0), UserId(2));
            let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.user.0).collect();
            assert_eq!(order, vec![1, 2, 3], "{kind:?}");
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(t(5.0), UserId(9));
            q.schedule(t(5.0), UserId(4));
            q.schedule(t(5.0), UserId(7));
            let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.user.0).collect();
            assert_eq!(order, vec![9, 4, 7], "FIFO among equal timestamps ({kind:?})");
        }
    }

    #[test]
    fn ties_break_by_time_then_seq_then_user() {
        // Regression: the ordering key is the full (time, seq, user)
        // tuple. Equal (time, seq) pairs never arise through `schedule` or
        // a validated restore, but the third field must still break them
        // identically on every backend (ascending user), or a backend swap
        // could silently reorder equal-time events.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule_with_seq(t(5.0), UserId(8), 7);
            q.schedule_with_seq(t(5.0), UserId(2), 7); // exact (time, seq) tie
            q.schedule_with_seq(t(5.0), UserId(5), 3); // lower seq wins first
            q.schedule_with_seq(t(1.0), UserId(9), 99); // earlier time wins all
            let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.user.0).collect();
            assert_eq!(order, vec![9, 5, 2, 8], "time, then seq, then user ({kind:?})");
        }
    }

    #[test]
    fn peek_matches_pop() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            assert_eq!(q.peek_time(), None);
            q.schedule(t(2.0), UserId(0));
            q.schedule(t(1.0), UserId(1));
            assert_eq!(q.peek_time(), Some(t(1.0)), "{kind:?}");
            assert_eq!(q.pop().unwrap().user, UserId(1), "{kind:?}");
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            assert_eq!(q.kind(), kind);
        }
    }

    /// Drains `q` by popping, as `(time, user)` pairs.
    fn pop_all(q: &mut EventQueue) -> Vec<(SimTime, u32)> {
        std::iter::from_fn(|| q.pop()).map(|e| (e.time, e.user.0)).collect()
    }

    /// Draining to checkpoint form and restoring must reproduce the exact
    /// pop order, `(time, seq)` ties included, on either backend, and new
    /// schedules must continue the sequence after the restored counter.
    #[test]
    fn drain_restore_roundtrip_preserves_pop_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            // Six distinct times over 100 events: many exact-time ties.
            for i in 0u64..100 {
                q.schedule(SimTime::from_us((i * 2654435761) % 6 * 50), UserId((i % 13) as u32));
            }
            // Pop a few first so the snapshot is mid-run, not pristine.
            for _ in 0..17 {
                q.pop();
            }
            let (entries, seq) = q.drain_entries();
            assert_eq!(entries.len(), 83, "{kind:?}");
            assert!(q.is_empty(), "draining empties the queue ({kind:?})");
            assert!(entries.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
            q.restore_entries(&entries, seq).expect("restore original");
            let reference = pop_all(&mut q);
            let expected: Vec<(SimTime, u32)> = entries.iter().map(|e| (e.0, e.2)).collect();
            assert_eq!(reference, expected, "drain order is pop order ({kind:?})");
            for to in KINDS {
                let mut restored = EventQueue::with_kind(to);
                restored.restore_entries(&entries, seq).expect("restore");
                assert_eq!(restored.len(), 83);
                assert_eq!(pop_all(&mut restored), reference, "{kind:?} -> {to:?}");
            }
            // A fresh schedule at an already-queued time pops after every
            // restored entry at that time: its seq continues the counter.
            let mut restored = EventQueue::with_kind(kind);
            restored.restore_entries(&entries, seq).expect("restore");
            let tied = entries[0].0;
            restored.schedule(tied, UserId(99));
            let order = pop_all(&mut restored);
            let last_at_tied = order.iter().rposition(|&(t, _)| t == tied).unwrap();
            assert_eq!(order[last_at_tied], (tied, 99), "{kind:?}");
        }
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(t(10.0), UserId(0));
            q.schedule(t(5.0), UserId(1));
            let (entries, seq) = q.drain_entries();
            assert_eq!(entries[0].0, t(5.0), "drain order is pop order");
            // Non-empty target.
            let mut busy = EventQueue::with_kind(kind);
            busy.schedule(t(1.0), UserId(0));
            assert!(busy.restore_entries(&entries, seq).is_err(), "{kind:?}");
            assert_eq!(busy.len(), 1, "a failed restore adds nothing");
            // Seq at or past the counter.
            let mut fresh = EventQueue::with_kind(kind);
            assert!(fresh.restore_entries(&entries, 1).is_err(), "{kind:?}");
            // Out of pop order.
            let mut swapped = entries.clone();
            swapped.swap(0, 1);
            assert!(fresh.restore_entries(&swapped, seq).is_err(), "{kind:?}");
            assert!(fresh.is_empty(), "failed restore leaves nothing committed");
            fresh.restore_entries(&entries, seq).expect("the intact snapshot restores");
            assert_eq!(pop_all(&mut fresh), vec![(t(5.0), 1), (t(10.0), 0)]);
        }
    }
}
