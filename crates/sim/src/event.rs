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

/// A heap entry: the delivery order alone, 16 bytes whatever the payload.
/// The time is the high half and the sequence number — both the FIFO
/// tie-breaker and the event's id — the low, so one integer comparison
/// orders two entries by `(time, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    fn new(time: SimTime, seq: u64) -> Key {
        Key(u128::from(time.as_micros()) << 64 | u128::from(seq))
    }

    fn time(self) -> SimTime {
        SimTime::from_micros((self.0 >> 64) as u64)
    }

    fn seq(self) -> u64 {
        self.0 as u64
    }
}

/// What [`EventQueue::ids`] holds for an id whose payload was cancelled.
const CANCELLED: u32 = u32::MAX;

/// A future-event list keyed by simulated time.
///
/// The heap orders keys only; payloads sit in a slab beside it, so a sift
/// moves 16 bytes, and a delivered or cancelled payload leaves the slab at
/// once — a far-future event pins a key and an id slot, never payload
/// memory.
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
    heap: BinaryHeap<Reverse<Key>>,
    /// One slot per id still in the heap: its payload's slab slot, or
    /// [`CANCELLED`] (the key is dropped when it reaches the head). Ids
    /// are issued densely, so the window spans from the oldest id still
    /// in the heap to the newest.
    ids: IdWindow<u32>,
    /// The pending payloads; `None` is a free slot.
    slab: Vec<Option<E>>,
    /// The free slots of `slab`, reused before it grows.
    free: Vec<u32>,
    /// Keys in the heap whose id is [`CANCELLED`]: while there are none,
    /// the head needs no look-up to be known pending.
    stale: usize,
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
            slab: Vec::new(),
            free: Vec::new(),
            stale: 0,
        }
    }

    /// Schedules `payload` for delivery at `time` and returns a handle that
    /// can later be passed to [`EventQueue::cancel`].
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let slot = match self.free.pop() {
            Some(slot) => {
                match &mut self.slab[slot as usize] {
                    free @ None => *free = Some(payload),
                    Some(_) => unreachable!("a free slot is empty"),
                }
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&s| s != CANCELLED)
                    .expect("too many pending events");
                self.slab.push(Some(payload));
                slot
            }
        };
        let seq = self.ids.push(slot);
        self.heap.push(Reverse(Key::new(time, seq)));
        EventId(seq)
    }

    /// Cancels a previously scheduled event, dropping its payload now.
    ///
    /// Returns `true` if the event had not yet been delivered or cancelled;
    /// unknown and already-delivered ids are harmless no-ops. The key is
    /// shed lazily, when it reaches the head.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.ids.get_mut(id.0) {
            Some(slot) if *slot != CANCELLED => {
                let slot = std::mem::replace(slot, CANCELLED);
                self.release(slot);
                self.stale += 1;
                true
            }
            _ => false,
        }
    }

    /// The delivery time of the earliest pending event.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|Reverse(k)| k.time())
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

    /// Number of pending (non-cancelled) events: the slab's occupied slots.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties slab slot `slot` and returns what it held.
    fn release(&mut self, slot: u32) -> E {
        self.free.push(slot);
        self.slab[slot as usize]
            .take()
            .expect("a live id names an occupied slot")
    }

    /// Delivers the heap's head, which the caller has made sure is pending
    /// (by [`Self::skip_cancelled`]).
    fn pop_head(&mut self) -> Option<(SimTime, E)> {
        let Reverse(k) = self.heap.pop()?;
        let slot = self.ids.remove(k.seq()).expect("every key's id is held");
        Some((k.time(), self.release(slot)))
    }

    fn skip_cancelled(&mut self) {
        while self.stale > 0 {
            let Some(&Reverse(k)) = self.heap.peek() else {
                break;
            };
            // Every id in the heap is inside the window.
            if self.ids.get(k.seq()) != Some(&CANCELLED) {
                break;
            }
            self.heap.pop();
            self.ids.remove(k.seq());
            self.stale -= 1;
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
                ensure_eq(m.q.slab.iter().flatten().count(), m.q.len())?;
                let stale =
                    m.q.heap
                        .iter()
                        .filter(|Reverse(k)| m.q.ids.get(k.seq()) == Some(&CANCELLED));
                ensure_eq(stale.count(), m.q.stale)?;
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
            ensure_eq((m.q.ids.next_id(), m.q.ids.span()), (m.issued, 0))?;
            ensure_eq((m.q.free.len(), m.q.stale), (m.q.slab.len(), 0))
        });
    }

    /// A payload that counts its own drops.
    struct Counted<'a>(&'a std::cell::Cell<usize>);

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    /// A cancelled payload is dropped by `cancel` itself, not when its key
    /// surfaces: here the far-future key behind it is never popped.
    #[test]
    fn a_cancelled_payload_is_dropped_at_cancel() {
        let drops = std::cell::Cell::new(0);
        let mut q = EventQueue::new();
        let far = q.schedule(t(1_000_000), Counted(&drops));
        let near = q.schedule(t(1), Counted(&drops));
        assert!(q.cancel(far));
        assert_eq!(drops.get(), 1, "dropped while its key is still queued");
        assert_eq!((q.len(), q.slab.iter().flatten().count()), (1, 1));
        assert!(!q.cancel(far));
        assert_eq!(drops.get(), 1, "a second cancel drops nothing");
        // The freed slot is reused before the slab grows.
        q.schedule(t(2), Counted(&drops));
        assert_eq!(q.slab.len(), 2);
        drop(q.pop());
        assert_eq!(drops.get(), 2, "a delivered payload goes to the caller");
        assert!(!q.cancel(near), "already delivered");
        assert_eq!(q.len(), 1);
        drop(q);
        assert_eq!(drops.get(), 3, "the rest go with the queue");
    }

    /// The heap moves keys, never payloads, and a key orders like the
    /// `(time, seq)` pair it packs.
    #[test]
    fn a_heap_entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Reverse<Key>>(), 16);
        let pairs = [
            (0, 0),
            (0, u64::MAX),
            (1, 0),
            (u64::MAX, 0),
            (u64::MAX, u64::MAX),
        ];
        for (a, b) in pairs.iter().flat_map(|a| pairs.iter().map(move |b| (a, b))) {
            let key = |&(us, seq): &(u64, u64)| Key::new(SimTime::from_micros(us), seq);
            assert_eq!(key(a).cmp(&key(b)), a.cmp(b), "{a:?} vs {b:?}");
            assert_eq!((key(a).time().as_micros(), key(a).seq()), *a);
        }
    }
}
