//! A sequence in fixed chunks: the store for records addressed by
//! position that grow by appending — a node's process table and the
//! stimulus journal, kept for the life of a world, and every
//! [`Ring`](crate::Ring), which overwrites its slots in place once full.

/// Records per chunk.
pub(crate) const CHUNK: usize = 256;

/// A sequence in chunks of 256 records that grows only at its end: record
/// `i` lives in chunk `i / 256` at `i % 256`.
///
/// The first chunk is `head`, a `Vec` that grows by doubling up to exactly
/// 256 records, so a sequence that never passes it is the one `Vec` it
/// would otherwise be, allocation for allocation. Every later chunk is
/// allocated at 256 records. No chunk is reallocated once full, so a
/// record is not copied again after its chunk fills, and the unused
/// capacity is at most one partial chunk — where one `Vec` of every record
/// ever made would carry up to half its length in doubling slack.
///
/// # Examples
///
/// ```
/// use pilgrim_sim::Chunked;
/// let mut log = Chunked::default();
/// for i in 0..1_000u32 {
///     log.push(i);
/// }
/// assert_eq!(log.len(), 1_000);
/// assert_eq!(log.get(700), Some(&700));
/// assert_eq!(log.chunks().count(), 4);
/// assert!(log.iter().copied().eq(0..1_000));
/// ```
pub struct Chunked<T> {
    head: Vec<T>,
    tail: Vec<Vec<T>>,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked {
            head: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Chunked<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> Chunked<T> {
    /// How many records the sequence holds.
    pub fn len(&self) -> usize {
        let tail = self
            .tail
            .last()
            .map_or(0, |last| (self.tail.len() - 1) * CHUNK + last.len());
        self.head.len() + tail
    }

    /// Whether the sequence holds no record.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// The record at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        match i.checked_sub(CHUNK) {
            None => self.head.get(i),
            Some(s) => self.tail.get(s / CHUNK)?.get(s % CHUNK),
        }
    }

    /// The record at position `i`, mutably.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        match i.checked_sub(CHUNK) {
            None => self.head.get_mut(i),
            Some(s) => self.tail.get_mut(s / CHUNK)?.get_mut(s % CHUNK),
        }
    }

    /// Appends a record at position [`len`](Chunked::len).
    pub fn push(&mut self, record: T) {
        let head = &mut self.head;
        if head.len() < CHUNK {
            if head.len() == head.capacity() {
                head.reserve_exact(head.len().max(4).min(CHUNK - head.len()));
            }
            head.push(record);
            return;
        }
        match self.tail.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(record),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(record);
                self.tail.push(chunk);
            }
        }
    }

    /// The chunks in order.
    pub fn chunks(&self) -> impl Iterator<Item = &[T]> {
        self.slices(0..self.len())
    }

    /// The records at positions `range`, in order, as one slice per chunk
    /// the range touches. Panics if the range ends past
    /// [`len`](Chunked::len).
    pub fn slices(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl DoubleEndedIterator<Item = &[T]> + Clone {
        let std::ops::Range { start, end } = range;
        (start / CHUNK..end.div_ceil(CHUNK)).map(move |c| {
            let chunk = match c.checked_sub(1) {
                None => &self.head,
                Some(t) => &self.tail[t],
            };
            let base = c * CHUNK;
            &chunk[start.max(base) - base..end.min(base + CHUNK) - base]
        })
    }

    /// Every record in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks().flatten()
    }
}

/// `log[i]` is the record at position `i`; past the last it panics.
impl<T> std::ops::Index<usize> for Chunked<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        match i.checked_sub(CHUNK) {
            None => &self.head[i],
            Some(s) => &self.tail[s / CHUNK][s % CHUNK],
        }
    }
}

/// Every record by value, in order; each chunk is freed once emptied.
impl<T> IntoIterator for Chunked<T> {
    type Item = T;
    type IntoIter =
        std::iter::Flatten<std::iter::Chain<std::iter::Once<Vec<T>>, std::vec::IntoIter<Vec<T>>>>;
    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.head).chain(self.tail).flatten()
    }
}

#[cfg(test)]
impl<T> Chunked<T> {
    /// Records the chunks have room for.
    pub(crate) fn allocated(&self) -> usize {
        self.head.capacity() + self.tail.iter().map(Vec::capacity).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_survive_chunk_boundaries_and_capacity_is_one_partial_chunk() {
        let mut log = Chunked::default();
        assert!(log.is_empty());
        for i in 0..(3 * CHUNK + 17) {
            log.push(i);
            assert_eq!(log.len(), i + 1);
            assert_eq!(log.get(i), Some(&i));
        }
        assert!(!log.is_empty());
        assert_eq!(log.get(log.len()), None);
        assert_eq!(log.get(usize::MAX), None);
        *log.get_mut(CHUNK).expect("in the first tail chunk") = 0;
        assert_eq!(log.get(CHUNK), Some(&0));
        let lens: Vec<usize> = log.chunks().map(<[usize]>::len).collect();
        assert_eq!(lens, [CHUNK, CHUNK, CHUNK, 17]);
        assert_eq!(log.head.capacity(), CHUNK, "the head stops at one chunk");
        assert!(log.tail.iter().all(|c| c.capacity() == CHUNK));
        assert_eq!(log.iter().count(), log.len());
        assert_eq!(format!("{:?}", Chunked::<u8>::default()), "[]");
        // Record `CHUNK` was overwritten with 0 above.
        let held = |i: usize| if i == CHUNK { 0 } else { i };
        let len = log.len();
        let ranges = [
            (0, 0),
            (5, 9),
            (CHUNK - 1, CHUNK + 1),
            (CHUNK, 2 * CHUNK),
            (2 * CHUNK + 3, len),
            (len, len),
        ];
        for (start, end) in ranges {
            let slices = log.slices(start..end);
            assert!(slices.clone().all(|s| s.len() <= CHUNK));
            assert!(slices.clone().flatten().copied().eq((start..end).map(held)));
            let back = slices.rev().flat_map(|s| s.iter().rev()).copied();
            assert!(back.eq((start..end).rev().map(held)), "{start}..{end}");
        }
        assert_eq!(
            log.slices(CHUNK..2 * CHUNK).count(),
            1,
            "a whole chunk is one slice"
        );
        assert!((0..len).all(|i| log[i] == held(i)));
        assert!(log.into_iter().eq((0..len).map(held)));
    }

    #[test]
    #[should_panic]
    fn indexing_past_the_last_record_panics() {
        let mut log = Chunked::default();
        (0..=CHUNK).for_each(|i| log.push(i));
        let _ = log[CHUNK + 1];
    }
}
