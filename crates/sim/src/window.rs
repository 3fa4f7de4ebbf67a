//! A table keyed by ids that are issued in increasing order and retire
//! roughly in the order they were issued: event ids, call counters,
//! process ids. No hashing, and memory proportional to the span between
//! the oldest live id and the newest — not to the ids ever issued.

use std::collections::VecDeque;

/// A sliding window of slots indexed by `id - base`.
///
/// The front is trimmed as ids retire, so a lookup is one subtraction and
/// one bounds check. An id that stays live while later ones come and go
/// pins the front: the slots behind it are holes until it retires.
///
/// # Examples
///
/// ```
/// use pilgrim_sim::IdWindow;
/// let mut w = IdWindow::starting_at(1);
/// let (a, b) = (w.push("a"), w.push("b"));
/// assert_eq!((a, b), (1, 2));
/// assert_eq!(w.remove(a), Some("a"));
/// assert_eq!(w.get(a), None);
/// assert_eq!(w.get(b), Some(&"b"));
/// ```
#[derive(Debug, Clone)]
pub struct IdWindow<T> {
    /// The id `slots[0]` describes. Every id below it is vacant.
    base: u64,
    /// Ids `base .. base + slots.len()`; `None` is a hole. The front slot,
    /// when there is one, is occupied.
    slots: VecDeque<Option<T>>,
    /// Occupied slots.
    live: usize,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        Self::starting_at(0)
    }
}

impl<T> IdWindow<T> {
    /// An empty window whose first [`push`](Self::push) occupies id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty window whose first [`push`](Self::push) occupies `first`.
    pub fn starting_at(first: u64) -> Self {
        IdWindow {
            base: first,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// The id the next [`push`](Self::push) occupies: one past the highest
    /// id ever held.
    pub fn next_id(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Stores `value` under [`next_id`](Self::next_id) and returns that id
    /// — the dense case, where the window itself issues the ids.
    pub fn push(&mut self, value: T) -> u64 {
        let id = self.next_id();
        self.slots.push_back(Some(value));
        self.live += 1;
        id
    }

    /// Stores `value` under `id`, which someone else issued: ids skipped
    /// since the last insertion become holes. Returns the value `id` held.
    ///
    /// # Panics
    ///
    /// When `id` is below an id still held — ids must arrive increasing,
    /// so the front of the window never has to grow backwards.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id;
        }
        assert!(id >= self.base, "id {id} below the window's front");
        while self.next_id() <= id {
            self.slots.push_back(None);
        }
        let old = self.slots[(id - self.base) as usize].replace(value);
        self.live += usize::from(old.is_none());
        old
    }

    fn index(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// The value under `id`; `None` for retired, skipped and unissued ids.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.index(id)?)?.as_ref()
    }

    /// Mutable access to the value under `id`.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.index(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Retires `id`, returning what it held, and slides the front past
    /// every leading hole.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.index(id)?;
        let value = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// Number of ids held.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no id is held.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots the window spans, holes included — what it costs in memory.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// The held ids and their values, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.base..)
            .zip(&self.slots)
            .filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_removal_trims_only_leading_holes() {
        let mut w = IdWindow::new();
        for i in 0..5u64 {
            assert_eq!(w.push(i * 10), i);
        }
        assert_eq!(w.remove(2), Some(20));
        assert_eq!(w.remove(1), Some(10));
        assert_eq!(
            (w.len(), w.span()),
            (3, 5),
            "holes behind a live front stay"
        );
        assert_eq!(w.remove(1), None, "already retired");
        assert_eq!(w.remove(0), Some(0));
        assert_eq!(
            (w.len(), w.span()),
            (2, 2),
            "front slid past ids 0, 1 and 2"
        );
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(3, &30), (4, &40)]);
        assert_eq!(w.remove(4), Some(40));
        assert_eq!(w.span(), 2, "a trailing hole is not trimmed");
        assert_eq!(w.remove(3), Some(30));
        assert_eq!((w.len(), w.span(), w.next_id()), (0, 0, 5));
        assert_eq!(w.push(50), 5, "ids are never reissued");
    }

    #[test]
    fn pinned_front_with_a_thousand_later_ids_coming_and_going() {
        let mut w = IdWindow::starting_at(1);
        let pin = w.push(u64::MAX);
        for round in 0..10u64 {
            let ids: Vec<u64> = (0..1000).map(|i| w.push(round * 1000 + i)).collect();
            assert_eq!(w.len(), 1001);
            // Retire them newest first, so nothing trims until the end.
            for (i, id) in ids.iter().enumerate().rev() {
                assert_eq!(w.get(*id), Some(&(round * 1000 + i as u64)));
                assert_eq!(w.remove(*id), Some(round * 1000 + i as u64));
            }
            assert_eq!(w.len(), 1);
            assert_eq!(w.get(pin), Some(&u64::MAX));
        }
        assert_eq!(w.span(), 10_001, "the pinned front holds every later slot");
        assert_eq!(w.remove(pin), Some(u64::MAX));
        assert_eq!((w.span(), w.next_id()), (0, 10_002));
    }

    #[test]
    fn lookup_below_base_and_above_the_tail_is_none() {
        let mut w = IdWindow::starting_at(100);
        assert_eq!(w.get(100), None, "nothing issued yet");
        let a = w.push('a');
        let b = w.push('b');
        w.remove(a);
        for id in [0, 99, a, b + 1, u64::MAX] {
            assert_eq!(w.get(id), None, "id {id}");
            assert_eq!(w.get_mut(id), None, "id {id}");
            assert_eq!(w.remove(id), None, "id {id}");
        }
        assert_eq!(w.get_mut(b), Some(&mut 'b'));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn sparse_insert_pads_holes_and_an_empty_window_jumps() {
        let mut w = IdWindow::new();
        assert_eq!(w.insert(7, "a"), None);
        assert_eq!(
            w.span(),
            1,
            "an empty window starts at the first id it is given"
        );
        assert_eq!(w.insert(10, "b"), None);
        assert_eq!((w.len(), w.span()), (2, 4));
        assert_eq!(w.get(8), None);
        assert_eq!(w.insert(10, "c"), Some("b"));
        assert_eq!(w.len(), 2);
        assert_eq!(w.remove(7), Some("a"));
        assert_eq!(w.span(), 1, "holes 8 and 9 went with the front");
        assert_eq!(w.remove(10), Some("c"));
        assert_eq!(w.insert(1000, "d"), None);
        assert_eq!((w.span(), w.next_id()), (1, 1001));
    }

    #[test]
    #[should_panic(expected = "below the window's front")]
    fn insert_below_a_live_front_is_a_caller_bug() {
        let mut w = IdWindow::new();
        w.insert(5, ());
        w.insert(4, ());
    }
}
