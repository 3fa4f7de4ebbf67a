//! An append-only sequence in fixed chunks: the store for records that are
//! kept for the life of a world and addressed by position — a node's
//! process table, the stimulus journal.

/// Records per chunk.
const CHUNK: usize = 256;

/// An append-only sequence in chunks of 256 records: record `i` lives in
/// chunk `i / 256` at `i % 256`.
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
        std::iter::once(self.head.as_slice()).chain(self.tail.iter().map(Vec::as_slice))
    }

    /// Every record in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks().flatten()
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
    }
}
