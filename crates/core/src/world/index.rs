//! The pump's activity index: which stations have work, and when — so a
//! window costs O(active stations), not a scan of every node and
//! endpoint. The world holds two: one over `Node::next_activity`, one
//! over `RpcEndpoint::next_timer`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pilgrim_sim::SimTime;

/// Cached next-event time per station plus a lazy min-heap over them.
///
/// * [`set`](Self::set) is the only writer; the cache is exact as long as
///   it is called whenever a station's next-event time may have moved.
///   The heap is never repaired: a superseded entry stops matching the
///   cache and is shed when it surfaces.
/// * [`drain_due`](Self::drain_due) pops a station's live entry but keeps
///   its cached time, so the station is out of the heap until it is `set`
///   again. The pump refreshes every station it touched before the window
///   ends, restoring "every cached time has a heap entry" — what
///   [`validate`](Self::validate) asserts between windows.
/// * Two `set`s of one time leave two live entries, so `drain_due` can
///   name a station twice; callers sort and dedup.
#[derive(Debug, Default)]
pub(super) struct ActivityIndex {
    /// Cached next-event time per station. `None` = quiescent.
    next: Vec<Option<SimTime>>,
    /// Lazy min-heap over `(time, station)`. An entry is live iff it
    /// matches `next` when it reaches the top.
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Stations with `next[i].is_some()` — O(1) idleness.
    active: usize,
    /// The pump's per-window station list, parked here between windows
    /// so its allocation is reused.
    scratch: Vec<usize>,
}

impl ActivityIndex {
    /// Forgets everything; `stations` stations, all quiescent.
    pub(super) fn reset(&mut self, stations: usize) {
        self.next.clear();
        self.next.resize(stations, None);
        self.heap.clear();
        self.active = 0;
    }

    /// Records station `i`'s next-event time (`None` = quiescent).
    pub(super) fn set(&mut self, i: usize, t: Option<SimTime>) {
        if self.next[i].is_some() {
            self.active -= 1;
        }
        self.next[i] = t;
        if let Some(t) = t {
            self.active += 1;
            self.heap.push(Reverse((t, i)));
        }
    }

    /// The live heap top, shedding stale entries above it.
    fn peek_live(&mut self) -> Option<(SimTime, usize)> {
        while let Some(&Reverse((t, i))) = self.heap.peek() {
            if self.next[i] == Some(t) {
                return Some((t, i));
            }
            self.heap.pop();
        }
        None
    }

    /// Earliest cached time still in the heap.
    pub(super) fn live_min(&mut self) -> Option<SimTime> {
        self.peek_live().map(|(t, _)| t)
    }

    /// Pops every live entry at or before `upto` and appends its station
    /// to `out` (unsorted, possibly repeated).
    pub(super) fn drain_due(&mut self, upto: SimTime, out: &mut Vec<usize>) {
        while let Some((t, i)) = self.peek_live() {
            if t > upto {
                break;
            }
            self.heap.pop();
            out.push(i);
        }
    }

    /// Number of stations with a cached time.
    pub(super) fn active(&self) -> usize {
        self.active
    }

    /// Lends out the (emptied) per-window station list.
    pub(super) fn take_scratch(&mut self) -> Vec<usize> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch
    }

    /// Takes the station list back at the end of the window.
    pub(super) fn put_scratch(&mut self, scratch: Vec<usize>) {
        self.scratch = scratch;
    }

    /// Asserts the cache equals `fresh` (every station queried anew, in
    /// order), every cached time has a heap entry, and the count matches.
    pub(super) fn validate(&self, what: &str, fresh: impl Iterator<Item = Option<SimTime>>) {
        let mut active = 0;
        for (i, t) in fresh.enumerate() {
            assert_eq!(self.next[i], t, "{what} {i}: cached time out of sync");
            if let Some(t) = t {
                active += 1;
                assert!(
                    self.heap.iter().any(|&Reverse(e)| e == (t, i)),
                    "{what} {i}: live entry missing from heap"
                );
            }
        }
        assert_eq!(self.active, active, "active {what} count drifted");
    }
}

#[cfg(test)]
mod tests {
    use pilgrim_sim::check::{check, ensure_eq, int_range, vecs, zip};
    use pilgrim_sim::SimDuration;

    use super::*;

    fn at(us: u64) -> Option<SimTime> {
        Some(SimTime::from_micros(us))
    }

    fn drained(ix: &mut ActivityIndex, upto: u64) -> Vec<usize> {
        let mut out = ix.take_scratch();
        ix.drain_due(SimTime::from_micros(upto), &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn empty_index_is_idle() {
        let mut ix = ActivityIndex::default();
        ix.reset(3);
        assert_eq!(ix.active(), 0);
        assert_eq!(ix.live_min(), None);
        assert!(drained(&mut ix, u64::MAX).is_empty());
        ix.validate("station", [None, None, None].into_iter());
    }

    #[test]
    fn superseded_entries_are_shed_not_reported() {
        let mut ix = ActivityIndex::default();
        ix.reset(2);
        ix.set(0, at(5));
        ix.set(0, at(50)); // the (5, 0) entry is now stale
        ix.set(1, at(20));
        ix.set(1, None); // and so is (20, 1)
        assert_eq!(ix.active(), 1);
        assert_eq!(ix.live_min(), at(50));
        assert!(drained(&mut ix, 49).is_empty());
        assert_eq!(drained(&mut ix, 50), vec![0]);
    }

    #[test]
    fn drain_is_inclusive_and_leaves_later_entries() {
        let mut ix = ActivityIndex::default();
        ix.reset(4);
        for (i, us) in [30, 10, 20, 40].into_iter().enumerate() {
            ix.set(i, at(us));
        }
        assert_eq!(drained(&mut ix, 20), vec![1, 2]);
        assert_eq!(ix.live_min(), at(30));
        assert_eq!(ix.active(), 4, "draining does not touch the cache");
    }

    #[test]
    fn drained_station_rejoins_on_set() {
        let mut ix = ActivityIndex::default();
        ix.reset(1);
        ix.set(0, at(7));
        assert_eq!(drained(&mut ix, 7), vec![0]);
        assert_eq!(ix.live_min(), None, "out of the heap until re-armed");
        ix.set(0, at(7));
        assert_eq!(ix.live_min(), at(7));
        ix.validate("station", [at(7)].into_iter());
    }

    #[test]
    fn repeated_set_of_one_time_reports_the_station_twice() {
        let mut ix = ActivityIndex::default();
        ix.reset(1);
        ix.set(0, at(3));
        ix.set(0, at(3));
        let mut out = Vec::new();
        ix.drain_due(SimTime::from_micros(3), &mut out);
        assert_eq!(out, vec![0, 0], "callers dedup");
        assert_eq!(ix.active(), 1);
    }

    #[test]
    fn scratch_comes_back_empty_with_its_allocation() {
        let mut ix = ActivityIndex::default();
        let mut s = ix.take_scratch();
        s.extend(0..100);
        let cap = s.capacity();
        ix.put_scratch(s);
        let s = ix.take_scratch();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), cap);
    }

    #[test]
    fn reset_forgets_cache_and_heap() {
        let mut ix = ActivityIndex::default();
        ix.reset(2);
        ix.set(0, at(1));
        ix.set(1, at(2));
        ix.reset(3);
        assert_eq!(ix.active(), 0);
        assert_eq!(ix.live_min(), None);
        ix.validate("station", [None, None, None].into_iter());
    }

    #[test]
    #[should_panic(expected = "cached time out of sync")]
    fn validate_catches_a_stale_cache() {
        let mut ix = ActivityIndex::default();
        ix.reset(1);
        ix.set(0, at(9));
        ix.validate("station", [at(10)].into_iter());
    }

    #[test]
    #[should_panic(expected = "live entry missing from heap")]
    fn validate_catches_a_drained_but_unrefreshed_station() {
        let mut ix = ActivityIndex::default();
        ix.reset(1);
        ix.set(0, at(9));
        drained(&mut ix, 9);
        ix.validate("station", [at(9)].into_iter());
    }

    /// Random `set` / `live_min` / `drain_due` scripts against the
    /// obvious model: a `Vec<Option<SimTime>>` scanned in full. Times
    /// come from a small range so stations collide, re-arm to earlier and
    /// later times and go quiescent with entries still in the heap; a
    /// `live_min` or `drain_due` that trusted the heap top without the
    /// stale-entry check reports those superseded times and fails here.
    #[test]
    fn index_matches_a_full_scan_model() {
        const STATIONS: i64 = 6;
        let ops = vecs(
            zip(
                int_range(0, 3),
                zip(int_range(0, STATIONS - 1), int_range(0, 24)),
            ),
            80,
        );
        check("activity index == full scan", &ops, |ops| {
            let mut ix = ActivityIndex::default();
            ix.reset(STATIONS as usize);
            let mut model: Vec<Option<SimTime>> = vec![None; STATIONS as usize];
            for &(op, (station, v)) in ops {
                let (station, t) = (station as usize, SimTime::from_micros(v as u64));
                match op {
                    0 => {
                        // Arm, or go quiescent on a multiple of five.
                        let t = (v % 5 != 0).then_some(t);
                        ix.set(station, t);
                        model[station] = t;
                    }
                    1 => ensure_eq(ix.live_min(), model.iter().flatten().min().copied())?,
                    _ => {
                        let want: Vec<usize> = (0..model.len())
                            .filter(|&i| model[i].is_some_and(|m| m <= t))
                            .collect();
                        ensure_eq(drained(&mut ix, v as u64), want.clone())?;
                        // The pump's half of the contract: every drained
                        // station is refreshed before the next query —
                        // here to a later time, or to quiescence.
                        for i in want {
                            let again = (i % 2 == 0).then(|| t + SimDuration::from_micros(3));
                            ix.set(i, again);
                            model[i] = again;
                        }
                    }
                }
                ensure_eq(ix.active(), model.iter().flatten().count())?;
                ix.validate("station", model.iter().copied());
            }
            Ok(())
        });
    }
}
