//! A deterministic future-event queue.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for the
//! same instant are delivered in the order they were scheduled, which keeps
//! whole-simulation runs bit-for-bit reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;
use crate::window::IdWindow;

/// Identifies a scheduled event so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// A heap entry. `seq` is both the FIFO tie-breaker and the event's id.
#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A future-event list keyed by simulated time.
///
/// # Examples
///
/// ```
/// use pilgrim_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "later");
/// q.schedule(SimTime::from_millis(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_millis(1), "sooner"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    /// One slot per id still in the heap, `true` once cancelled (to be
    /// dropped when it reaches the head). Ids are issued densely, so the
    /// window spans from the oldest id still in the heap to the newest.
    ids: IdWindow<bool>,
    /// Number of ids not cancelled, maintained incrementally so `len` is
    /// O(1).
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            ids: IdWindow::new(),
            live: 0,
        }
    }

    /// Schedules `payload` for delivery at `time` and returns a handle that
    /// can later be passed to [`EventQueue::cancel`].
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.ids.push(false);
        self.heap.push(Reverse(Scheduled { time, seq, payload }));
        self.live += 1;
        EventId(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet been delivered or cancelled;
    /// unknown and already-delivered ids are harmless no-ops. Cancellation
    /// is lazy: the slot is skipped when it reaches the head.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.ids.get_mut(id.0) {
            Some(cancelled @ false) => {
                *cancelled = true;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// The delivery time of the earliest pending event.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|Reverse(s)| s.time)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        self.pop_head()
    }

    /// Removes and returns the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if self.next_time()? <= now {
            self.pop_head()
        } else {
            None
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Delivers the heap's head, which the caller has made sure is pending
    /// (by [`Self::skip_cancelled`]).
    fn pop_head(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.ids.remove(s.seq);
        self.live -= 1;
        Some((s.time, s.payload))
    }

    fn skip_cancelled(&mut self) {
        while let Some(Reverse(s)) = self.heap.peek() {
            // Every id in the heap is inside the window.
            if self.ids.get(s.seq) != Some(&true) {
                break;
            }
            let seq = s.seq;
            self.heap.pop();
            self.ids.remove(seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, ensure, ensure_eq, int_range, vecs, zip};
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn cancel_after_delivery_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(a));
        // A fresh event must still be deliverable afterwards.
        q.schedule(t(2), "b");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "x");
        assert!(q.pop_due(t(4)).is_none());
        assert_eq!(q.pop_due(t(5)).unwrap().1, "x");
    }

    #[test]
    fn next_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.next_time(), Some(t(2)));
    }

    #[test]
    fn unknown_id_cancel_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(99)));
    }

    #[test]
    fn cancel_after_pop_with_other_events_live() {
        // Regression: cancelling an already-delivered id while other events
        // are pending used to corrupt the live count and poison later
        // delivery with a stale cancellation mark.
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(a), "cancel after delivery is a no-op");
        assert_eq!(q.len(), 1, "live count must be unaffected");
        assert_eq!(q.pop().unwrap().1, "b", "b must still be delivered");
        assert!(!q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_of_unknown_id_is_false_and_harmless() {
        let mut q = EventQueue::new();
        q.schedule(t(1), "a");
        assert!(!q.cancel(EventId(12345)), "never-scheduled id");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(EventId(0)), "id already delivered");
    }

    #[test]
    fn fifo_ordering_survives_interleaved_cancellation() {
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..6).map(|i| q.schedule(t(7), i)).collect();
        assert!(q.cancel(ids[0]));
        assert!(q.cancel(ids[3]));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 4, 5], "schedule order minus cancelled");
    }

    #[test]
    fn pop_due_at_exact_deadline_drains_everything_due() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "exact1");
        q.schedule(t(5), "exact2");
        q.schedule(t(5) + SimDuration::from_micros(1), "just after");
        // Exactly-at-deadline events are due, in FIFO order.
        assert_eq!(q.pop_due(t(5)).unwrap().1, "exact1");
        assert_eq!(q.pop_due(t(5)).unwrap().1, "exact2");
        assert!(q.pop_due(t(5)).is_none(), "1us later is not yet due");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(t(6)).unwrap().1, "just after");
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(t(5), 2);
        q.schedule(t(5) + SimDuration::from_micros(1), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.is_empty());
    }

    /// The queue under test beside the obvious model of it: pending
    /// `(time, id)` pairs kept in delivery order, from which a cancel
    /// removes its entry at once. Each step runs on both and compares.
    #[derive(Default)]
    struct Modelled {
        q: EventQueue<u64>,
        pending: Vec<(SimTime, u64)>,
        issued: u64,
        cancelled: Vec<u64>,
        delivered: Vec<u64>,
    }

    impl Modelled {
        fn schedule(&mut self, ms: u64) -> Result<(), String> {
            let (at, id) = (t(ms), self.issued);
            ensure_eq(self.q.schedule(at, id), EventId(id))?;
            let pos = self.pending.partition_point(|&(time, _)| time <= at);
            self.pending.insert(pos, (at, id));
            self.issued += 1;
            Ok(())
        }

        fn cancel(&mut self, id: u64) -> Result<(), String> {
            let pos = self.pending.iter().position(|&(_, p)| p == id);
            ensure_eq(self.q.cancel(EventId(id)), pos.is_some())?;
            if let Some(pos) = pos {
                self.pending.remove(pos);
                self.cancelled.push(id);
            }
            Ok(())
        }

        /// `pop_due(now)`, or `pop()` when `now` is `None`; true when an
        /// event was delivered.
        fn pop(&mut self, now: Option<SimTime>) -> Result<bool, String> {
            let got = match now {
                Some(now) => self.q.pop_due(now),
                None => self.q.pop(),
            };
            let want = match self.pending.first() {
                Some(&(at, _)) if now.is_none_or(|now| at <= now) => Some(self.pending.remove(0)),
                _ => None,
            };
            ensure_eq(got, want)?;
            self.delivered.extend(want.map(|(_, id)| id));
            Ok(want.is_some())
        }
    }

    /// Random `schedule` / `cancel` / `pop` / `pop_due` / `next_time`
    /// scripts against a sorted-`Vec` model. Cancels aim at pending,
    /// cancelled, delivered, not-yet-issued and far-off ids; two events
    /// scheduled first and due last pin the window's front while bursts of
    /// up to a thousand later ids come and go behind them. A window whose
    /// `base` and front drift apart, or a cancel that takes a retired slot
    /// for a pending one, returns a different answer here.
    #[test]
    fn queue_matches_a_sorted_vec_model() {
        const LAST: u64 = 10_000;
        let ops = vecs(
            zip(int_range(0, 9), zip(int_range(0, 100), int_range(0, 25))),
            60,
        );
        check("event queue == sorted vec", &ops, |ops| {
            let mut m = Modelled::default();
            m.schedule(LAST)?;
            m.schedule(LAST)?;
            for &(op, (a, b)) in ops {
                let (a, b) = (a as u64, b as u64);
                match op {
                    0 | 1 => m.schedule(b)?,
                    2 => m.schedule(LAST + b)?,
                    3 | 4 => {
                        let pick = |ids: &[u64]| ids.get(b as usize % ids.len().max(1)).copied();
                        let live: Vec<u64> = m.pending.iter().map(|&(_, id)| id).collect();
                        let target = match a % 5 {
                            0 => pick(&live),
                            1 => pick(&m.cancelled),
                            2 => pick(&m.delivered),
                            3 => Some(m.issued + b),
                            _ => Some(u64::MAX - b),
                        };
                        m.cancel(target.unwrap_or(m.issued))?;
                    }
                    5 => drop(m.pop(None)?),
                    6 => drop(m.pop(Some(t(b)))?),
                    7 => ensure_eq(m.q.next_time(), m.pending.first().map(|&(at, _)| at))?,
                    _ => {
                        // A burst: many short-lived ids retire behind
                        // whatever older ids are still pending.
                        for i in 0..a * 10 {
                            m.schedule(b + i % 3)?;
                        }
                        while m.pop(Some(t(b + 1)))? {}
                    }
                }
                ensure_eq(m.q.len(), m.pending.len())?;
                ensure_eq(m.q.is_empty(), m.pending.is_empty())?;
                ensure_eq(m.q.ids.next_id(), m.issued)?;
            }
            while m.pop(None)? {}
            ensure_eq(m.q.next_time(), None)?;
            for id in 0..m.issued {
                ensure(
                    !m.q.cancel(EventId(id)),
                    format!("retired id {id} cancelled"),
                )?;
            }
            // Everything has left the heap, so nothing holds the window.
            ensure_eq((m.q.ids.next_id(), m.q.ids.span()), (m.issued, 0))
        });
    }
}
