//! The one bounded FIFO: keeps the newest items, counts what it drops.

use crate::chunked::Chunked;

/// A bounded FIFO: pushing onto a full ring evicts the oldest item. The
/// tracer's two rings, the time-series sample times and the RPC
/// endpoint's ten-slot buffers of recent outcomes (§4.3) are each one.
///
/// A ring is its [`Chunked`] store plus a head index. The store grows by
/// use, never to `capacity` ahead of it, and holds at most one partial
/// chunk beyond what the ring holds; once full, a push overwrites the
/// oldest slot in place, so nothing held is ever copied. The `g`-th
/// oldest item sits in [`slot(g)`](Ring::slot), so a caller can keep
/// storage of its own in the same physical order.
///
/// # Examples
///
/// ```
/// use pilgrim_sim::Ring;
/// let mut ring = Ring::new(3);
/// let evicted: Vec<_> = (0..5).filter_map(|i| ring.push(i)).collect();
/// assert_eq!((evicted, ring[0], ring.evicted()), (vec![0, 1], 2, 2));
/// ring.set_capacity(0);
/// assert!(ring.iter().eq(&[4]) && ring.capacity() == 1);
/// ```
#[derive(Debug)]
pub struct Ring<T> {
    items: Chunked<T>,
    /// Slot of the oldest item: 0 until the ring fills.
    head: usize,
    /// At least 1: the ring keeps the item it was last given.
    capacity: usize,
    evicted: u64,
}

impl<T> Ring<T> {
    /// An empty ring of `capacity` items (held as 1 when 0).
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            items: Chunked::default(),
            head: 0,
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// The budget the ring enforces: at least 1.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items dropped so far, by a push or by a shrink.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Appends `item` as the newest; a full ring hands back its oldest.
    /// Always inlined, so that an item built by the caller is written
    /// straight into its slot: the tracer's push was ≈ 10 ns slower per
    /// event with its record passed through the stack.
    #[inline(always)]
    pub fn push(&mut self, item: T) -> Option<T> {
        let full = self.items.len() >= self.capacity;
        match self.items.get_mut(self.head) {
            Some(oldest) if full => {
                let oldest = std::mem::replace(oldest, item);
                self.head = self.slot(1);
                self.evicted += 1;
                Some(oldest)
            }
            _ => {
                self.items.push(item);
                None
            }
        }
    }

    /// Resizes the ring, dropping oldest items first if it shrinks. A
    /// budget of 0 is held as 1.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        let excess = self.len().saturating_sub(self.capacity);
        // Rebuilt in slot order, so a ring with room grows at its end
        // again: the newer slots `[0, head)` move behind the older ones.
        let mut held = std::mem::take(&mut self.items).into_iter();
        let mut newer = Chunked::default();
        held.by_ref()
            .take(self.head)
            .for_each(|item| newer.push(item));
        held.chain(newer)
            .skip(excess)
            .for_each(|item| self.items.push(item));
        self.head = 0;
        self.evicted += excess as u64;
    }

    /// The physical slot of the `g`-th oldest item, for `g < len`.
    pub fn slot(&self, g: usize) -> usize {
        let p = self.head + g;
        let len = self.items.len();
        if p < len {
            p
        } else {
            p - len
        }
    }

    /// The `g`-th oldest item.
    pub fn get(&self, g: usize) -> Option<&T> {
        (g < self.items.len()).then(|| &self.items[self.slot(g)])
    }

    /// Every item, oldest first: the slots `[head, len)`, then `[0, head)`.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + Clone {
        let older = self.items.slices(self.head..self.items.len());
        older.chain(self.items.slices(0..self.head)).flatten()
    }
}

/// `ring[g]` is the `g`-th oldest item; past the newest it panics.
impl<T> std::ops::Index<usize> for Ring<T> {
    type Output = T;
    fn index(&self, g: usize) -> &T {
        assert!(g < self.items.len(), "ring index {g} out of range");
        &self.items[self.slot(g)]
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::check::{check, choice, ensure, ensure_eq, int_range, vecs, zip};
    use crate::chunked::CHUNK;

    #[test]
    fn eviction_drops_oldest_first_and_shrinking_drops_from_the_front() {
        let mut ring = Ring::new(3);
        let evictees: Vec<Option<u32>> = (0..7).map(|i| ring.push(i)).collect();
        assert_eq!(
            evictees,
            [None, None, None, Some(0), Some(1), Some(2), Some(3)]
        );
        assert!(ring.iter().copied().eq([4, 5, 6]), "oldest evicted first");
        ring.push(7);
        assert!(
            ring.iter().copied().eq([5, 6, 7]),
            "pushing rotates the window"
        );
        ring.set_capacity(1);
        assert!(
            ring.iter().copied().eq([7]),
            "shrinking drops from the front"
        );
        assert_eq!(ring.evicted(), 7);
        ring.set_capacity(4);
        (8..11).for_each(|i| assert_eq!(ring.push(i), None));
        assert!(ring.iter().copied().eq(7..11), "growing keeps what is held");
    }

    /// A budget of 0 is held — and reported — as 1: the getter says what
    /// the ring does.
    #[test]
    fn a_ring_enforces_the_capacity_it_reports() {
        for (asked, held) in [(0, 1), (1, 1), (2, 2)] {
            let mut ring = Ring::new(asked);
            assert_eq!(ring.capacity(), held);
            for i in 0..5 {
                ring.push(i);
                assert_eq!(ring.len(), held.min(i + 1));
            }
            assert_eq!(ring.iter().last(), Some(&4), "the newest survives");
        }
        let mut ring = Ring::new(8);
        for i in 0..6 {
            ring.push(i);
        }
        ring.set_capacity(0);
        assert_eq!((ring.capacity(), ring.len()), (1, 1));
    }

    /// Past the newest, `slot` would wrap onto a held item: `ring[g]`
    /// refuses instead.
    #[test]
    #[should_panic(expected = "ring index 2 out of range")]
    fn indexing_past_the_newest_panics() {
        let mut ring = Ring::new(2);
        for i in 0..3 {
            ring.push(i);
        }
        let _ = ring[2];
    }

    /// `capacity` bounds the ring; it is not its size. The store holds
    /// the ring's length rounded up to one chunk, wrapped or not.
    #[test]
    fn a_ring_allocates_by_use() {
        let bound = |ring: &Ring<u64>| ring.len().next_multiple_of(CHUNK);
        let mut ring = Ring::new(usize::MAX);
        for i in 0..5u64 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 5);
        assert!(ring.items.allocated() < 64);
        for i in 5..70_000u64 {
            ring.push(i);
            assert!(ring.items.allocated() <= bound(&ring), "at {i}");
        }
        let mut ring = Ring::new(600);
        for i in 0..3_000u64 {
            ring.push(i);
            assert!(ring.items.allocated() <= bound(&ring), "at {i}");
        }
        assert_eq!((ring.len(), ring.items.allocated()), (600, 768));
        ring.set_capacity(257);
        assert!(ring.iter().copied().eq(2_743..3_000));
        assert!(ring.items.allocated() <= bound(&ring));
    }

    /// The old tracer ring, kept as the model: a `VecDeque` and a
    /// capacity, with the evictions it popped counted.
    struct Model {
        items: VecDeque<u64>,
        capacity: usize,
        evicted: u64,
    }

    impl Model {
        fn set_capacity(&mut self, capacity: usize) {
            self.capacity = capacity.max(1);
            while self.items.len() > self.capacity {
                self.items.pop_front();
                self.evicted += 1;
            }
        }

        fn push(&mut self, item: u64) -> Option<u64> {
            let oldest = if self.items.len() >= self.capacity {
                self.evicted += 1;
                self.items.pop_front()
            } else {
                None
            };
            self.items.push_back(item);
            oldest
        }
    }

    /// Capacities on and around the 256-item chunk boundary.
    const CAPACITIES: [usize; 7] = [0, 1, 9, 255, 256, 257, 600];

    #[test]
    fn ring_matches_a_vecdeque_model() {
        // (capacity, [(op, value)]): ops 0–2 push `value` fresh items, 3
        // sets the capacity to `CAPACITIES[value % 7]`. Up to 60 batches of
        // up to 120 pushes wrap even the 600-slot ring several times.
        let script = zip(
            choice(CAPACITIES.to_vec()),
            vecs(zip(int_range(0, 4), int_range(0, 120)), 60),
        );
        check("ring == vecdeque", &script, |(capacity, ops)| {
            let mut next = 0u64;
            let mut ring = Ring::new(*capacity);
            let mut model = Model {
                items: VecDeque::new(),
                capacity: 0,
                evicted: 0,
            };
            model.set_capacity(*capacity);
            for &(op, value) in ops {
                if op < 3 {
                    for _ in 0..value {
                        next += 1;
                        ensure_eq(ring.push(next), model.push(next))?;
                    }
                } else {
                    let capacity = CAPACITIES[value as usize % CAPACITIES.len()];
                    ring.set_capacity(capacity);
                    model.set_capacity(capacity);
                }
                ensure(ring.iter().eq(model.items.iter()), "iter")?;
                ensure(
                    ring.iter().rev().eq(model.items.iter().rev()),
                    "iter().rev()",
                )?;
                ensure_eq(
                    (ring.len(), ring.is_empty(), ring.capacity(), ring.evicted()),
                    (
                        model.items.len(),
                        model.items.is_empty(),
                        model.capacity,
                        model.evicted,
                    ),
                )?;
                ensure(
                    ring.items.allocated() <= ring.len().next_multiple_of(CHUNK),
                    "the store holds at most one partial chunk beyond the ring",
                )?;
                for g in 0..ring.len() + 2 {
                    ensure_eq(ring.get(g), model.items.get(g))?;
                    if g < ring.len() {
                        ensure_eq(ring.get(g), Some(&ring.items[ring.slot(g)]))?;
                        ensure_eq(&ring[g], &ring.items[ring.slot(g)])?;
                    }
                }
            }
            Ok(())
        });
    }
}
