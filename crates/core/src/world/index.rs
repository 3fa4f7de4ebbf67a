//! The pump's activity index: which stations have work, and when — so a
//! window costs O(active stations), not a scan of every node and
//! endpoint. The world holds two: one over `Node::next_activity`, one
//! over `RpcEndpoint::next_timer`.

use std::cmp::Ordering;

use pilgrim_sim::SimTime;

/// `pos` / `slot` value of a station that is not in that container.
const UNLISTED: u32 = u32::MAX;

/// Cached next-event time per station, held in one of two containers
/// chosen by the writer from what the station is doing:
///
/// * a **parked** station ([`set`](Self::set)) waits for a future event —
///   a timer deadline. There are many of them and they rarely change, so
///   they sit in an indexed min-heap with one entry per station: a re-key
///   sifts that entry in place, a station going quiescent or runnable
///   takes it out.
/// * a **runnable** station ([`set_runnable`](Self::set_runnable)) has
///   work at its own clock and is re-keyed at every sync point it steps
///   in. There are few of them and they always change, so they sit in a
///   dense unordered list where a re-key is one store and
///   [`live_min`](Self::live_min) / [`drain_due`](Self::drain_due) scan.
///
/// The choice moves cost only; every query answers as if there were one
/// container. The rest of the contract:
///
/// * `set` / `set_runnable` are the only writers; the cache is exact as
///   long as one is called whenever a station's next-event time may have
///   moved.
/// * [`drain_due`](Self::drain_due) takes a station out of its container
///   but keeps its cached time, so the station is in neither until it is
///   written again. The pump refreshes every station it touched before
///   the window ends, restoring "every cached time is in exactly one
///   container, once" — what [`validate`](Self::validate) asserts
///   between windows.
#[derive(Debug, Default)]
pub(super) struct ActivityIndex {
    /// Cached next-event time per station. `None` = quiescent.
    next: Vec<Option<SimTime>>,
    /// Min-heap over the parked stations' `(time, station)`, the key held
    /// inline so a sift compares without reading `next`.
    heap: Vec<(SimTime, u32)>,
    /// Station → its position in `heap`, or [`UNLISTED`].
    slot: Vec<u32>,
    /// The runnable stations, unordered; their times are in `next`.
    runnable: Vec<usize>,
    /// Station → its slot in `runnable`, or [`UNLISTED`].
    pos: Vec<u32>,
    /// Stations with `next[i].is_some()` — O(1) idleness.
    active: usize,
    /// The pump's per-window station list, parked here between windows
    /// so its allocation is reused.
    scratch: Vec<usize>,
}

impl ActivityIndex {
    /// Forgets everything; `stations` stations, all quiescent.
    pub(super) fn reset(&mut self, stations: usize) {
        assert!(stations < UNLISTED as usize, "too many stations to index");
        self.next.clear();
        self.next.resize(stations, None);
        self.heap.clear();
        self.slot.clear();
        self.slot.resize(stations, UNLISTED);
        self.runnable.clear();
        self.pos.clear();
        self.pos.resize(stations, UNLISTED);
        self.active = 0;
    }

    /// Records parked station `i`'s next-event time (`None` = quiescent).
    pub(super) fn set(&mut self, i: usize, t: Option<SimTime>) {
        // Already parked at `t`, or quiescent in neither container: the
        // common refresh of a station whose deadline did not move.
        let parked = self.slot[i] != UNLISTED;
        if self.next[i] == t && self.pos[i] == UNLISTED && parked == t.is_some() {
            return;
        }
        self.unlist(i);
        self.cache(i, t);
        match (t, self.slot[i]) {
            (Some(t), UNLISTED) => {
                self.heap.push((t, i as u32));
                self.sift_up(self.heap.len() - 1);
            }
            (Some(t), at) => {
                let at = at as usize;
                let old = self.heap[at];
                self.heap[at].0 = t;
                self.resift(at, old);
            }
            (None, _) => self.unpark(i),
        }
    }

    /// Records that station `i` has work now, at its own clock `t`.
    pub(super) fn set_runnable(&mut self, i: usize, t: SimTime) {
        self.unpark(i);
        self.cache(i, Some(t));
        if self.pos[i] == UNLISTED {
            self.pos[i] = self.runnable.len() as u32;
            self.runnable.push(i);
        }
    }

    fn cache(&mut self, i: usize, t: Option<SimTime>) {
        self.active -= usize::from(self.next[i].is_some());
        self.active += usize::from(t.is_some());
        self.next[i] = t;
    }

    /// Takes station `i` out of the runnable list, if it is in it.
    fn unlist(&mut self, i: usize) {
        let at = self.pos[i];
        if at == UNLISTED {
            return;
        }
        self.pos[i] = UNLISTED;
        self.runnable.swap_remove(at as usize);
        if let Some(&moved) = self.runnable.get(at as usize) {
            self.pos[moved] = at;
        }
    }

    /// Takes station `i` out of the parked heap, if it is in it: the last
    /// entry fills its place and sifts whichever way it must.
    fn unpark(&mut self, i: usize) {
        let at = self.slot[i];
        if at == UNLISTED {
            return;
        }
        self.slot[i] = UNLISTED;
        let last = self.heap.pop().expect("a parked station has an entry");
        let at = at as usize;
        if at < self.heap.len() {
            let gone = std::mem::replace(&mut self.heap[at], last);
            self.slot[last.1 as usize] = at as u32;
            self.resift(at, gone);
        }
    }

    /// Restores heap order after the entry at `at` replaced `old`.
    fn resift(&mut self, at: usize, old: (SimTime, u32)) {
        match self.heap[at].cmp(&old) {
            Ordering::Less => self.sift_up(at),
            Ordering::Greater => self.sift_down(at),
            Ordering::Equal => {}
        }
    }

    /// Puts `entry` at heap position `at` and records where it is.
    fn place(&mut self, at: usize, entry: (SimTime, u32)) {
        self.heap[at] = entry;
        self.slot[entry.1 as usize] = at as u32;
    }

    fn sift_up(&mut self, mut at: usize) {
        let entry = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.heap[parent] <= entry {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, entry);
    }

    fn sift_down(&mut self, mut at: usize) {
        let entry = self.heap[at];
        let len = self.heap.len();
        loop {
            let left = 2 * at + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right] < self.heap[left] {
                right
            } else {
                left
            };
            if entry <= self.heap[child] {
                break;
            }
            self.place(at, self.heap[child]);
            at = child;
        }
        self.place(at, entry);
    }

    /// Earliest cached time still in a container.
    pub(super) fn live_min(&self) -> Option<SimTime> {
        let parked = self.heap.first().map(|&(t, _)| t);
        let runnable = self.runnable.iter().filter_map(|&i| self.next[i]).min();
        parked.into_iter().chain(runnable).min()
    }

    /// Takes every station due at or before `upto` out of its container
    /// and appends it to `out`, unsorted, each station once.
    pub(super) fn drain_due(&mut self, upto: SimTime, out: &mut Vec<usize>) {
        self.drain(upto, true, out);
    }

    /// [`drain_due`](Self::drain_due) for a window that ends at `end`:
    /// parked stations due at or before `end`, runnable ones strictly
    /// before it. A runnable station whose clock is already `end` has
    /// nothing to do in the window (stepping a node to its own clock runs
    /// nothing), so it stays listed for the next one. A parked station
    /// due at `end` is taken: its visit pops what became runnable there.
    pub(super) fn drain_window(&mut self, end: SimTime, out: &mut Vec<usize>) {
        self.drain(end, false, out);
    }

    /// Takes the parked stations due at or before `upto`, and the
    /// runnable ones due before it or, if `runnable_at_upto`, at it.
    fn drain(&mut self, upto: SimTime, runnable_at_upto: bool, out: &mut Vec<usize>) {
        while let Some(&(t, i)) = self.heap.first() {
            if t > upto {
                break;
            }
            self.unpark(i as usize);
            out.push(i as usize);
        }
        let mut at = 0;
        while let Some(&i) = self.runnable.get(at) {
            if self.next[i].is_some_and(|t| t < upto || (runnable_at_upto && t == upto)) {
                self.unlist(i); // swaps the last station into `at`
                out.push(i);
            } else {
                at += 1;
            }
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
    /// order); every cached time is in exactly one container — the
    /// runnable list, or the heap under that time, once; the list, the
    /// heap and their position tables agree; the heap is ordered; and the
    /// count matches.
    pub(super) fn validate(&self, what: &str, fresh: impl Iterator<Item = Option<SimTime>>) {
        let (mut active, mut listed, mut parked) = (0, 0, 0);
        for (i, t) in fresh.enumerate() {
            assert_eq!(self.next[i], t, "{what} {i}: cached time out of sync");
            let at = self.pos[i];
            if at != UNLISTED {
                listed += 1;
                assert_eq!(
                    self.runnable.get(at as usize),
                    Some(&i),
                    "{what} {i}: runnable list and positions disagree"
                );
                assert!(t.is_some(), "{what} {i}: quiescent but listed runnable");
                assert_eq!(
                    self.slot[i], UNLISTED,
                    "{what} {i}: runnable station in the parked heap"
                );
            }
            let slot = self.slot[i];
            if slot != UNLISTED {
                parked += 1;
                assert_eq!(
                    self.heap.get(slot as usize).map(|&(_, s)| s as usize),
                    Some(i),
                    "{what} {i}: parked heap and positions disagree"
                );
                assert!(t.is_some(), "{what} {i}: quiescent but parked");
            }
            if let Some(t) = t {
                active += 1;
                assert!(
                    at != UNLISTED || self.heap.get(slot as usize) == Some(&(t, i as u32)),
                    "{what} {i}: live entry missing from heap and runnable list"
                );
            }
        }
        assert_eq!(self.runnable.len(), listed, "stray runnable {what}");
        assert_eq!(self.heap.len(), parked, "stray parked {what}");
        for c in 1..self.heap.len() {
            assert!(
                self.heap[(c - 1) / 2] <= self.heap[c],
                "{what} heap out of order at {c}"
            );
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

    fn us(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// What `drain_due(upto)` names, sorted; each station at most once.
    fn drained(ix: &mut ActivityIndex, upto: u64) -> Vec<usize> {
        let mut out = ix.take_scratch();
        ix.drain_due(SimTime::from_micros(upto), &mut out);
        out.sort_unstable();
        assert!(
            out.windows(2).all(|w| w[0] != w[1]),
            "a station named twice: {out:?}"
        );
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
    fn a_rekey_moves_the_one_entry_and_quiescence_removes_it() {
        let mut ix = ActivityIndex::default();
        ix.reset(2);
        ix.set(0, at(5));
        ix.set(0, at(50)); // re-keyed in place, no stale (5, 0) left
        ix.set(1, at(20));
        ix.set(1, None); // (20, 1) leaves the heap
        assert_eq!(ix.heap, vec![(us(50), 0)]);
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
    fn repeated_set_of_one_time_reports_the_station_once() {
        let mut ix = ActivityIndex::default();
        ix.reset(2);
        ix.set(0, at(3));
        ix.set(0, at(3));
        ix.set(1, at(3));
        ix.set_runnable(1, us(3)); // leaves the heap for the list
        assert_eq!(ix.heap, vec![(us(3), 0)]);
        let mut out = Vec::new();
        ix.drain_due(SimTime::from_micros(3), &mut out);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(ix.active(), 2);
    }

    /// Re-keys up and down, removals from the middle and from the end
    /// keep the heap ordered and its position table exact.
    #[test]
    fn the_parked_heap_re_keys_in_place() {
        let mut ix = ActivityIndex::default();
        ix.reset(8);
        let mut model = [None; 8];
        for (i, t) in [70, 10, 60, 20, 50, 30, 40, 80].into_iter().enumerate() {
            ix.set(i, at(t));
            model[i] = at(t);
        }
        for (i, t) in [
            (0, Some(5)),
            (1, Some(90)),
            (4, None),
            (7, None),
            (3, Some(25)),
        ] {
            ix.set(i, t.and_then(at));
            model[i] = t.and_then(at);
            ix.validate("station", model.iter().copied());
        }
        assert_eq!(ix.heap.len(), 6);
        assert_eq!(ix.live_min(), at(5));
        assert_eq!(drained(&mut ix, 40), vec![0, 3, 5, 6]);
        assert_eq!(ix.live_min(), at(60));
    }

    /// The runnable list answers the same queries as the heap: inclusive
    /// drain, later stations left in place, out until written again.
    #[test]
    fn runnable_stations_drain_like_parked_ones() {
        let mut ix = ActivityIndex::default();
        ix.reset(5);
        for (i, t) in [30, 10, 20, 40].into_iter().enumerate() {
            ix.set_runnable(i, us(t));
        }
        ix.set(4, at(15));
        assert_eq!(ix.live_min(), at(10));
        assert_eq!(drained(&mut ix, 20), vec![1, 2, 4]);
        assert_eq!(ix.live_min(), at(30));
        assert_eq!(ix.active(), 5, "draining does not touch the cache");
        ix.set_runnable(1, us(10));
        assert_eq!(ix.live_min(), at(10));
        ix.set(2, None);
        ix.set(4, at(60));
        ix.validate(
            "station",
            [at(30), at(10), None, at(40), at(60)].into_iter(),
        );
    }

    /// A window drains a runnable station only before its end, a parked
    /// one at its end too; what a window leaves stays listed, and the next
    /// window, or an inclusive drain, takes it.
    #[test]
    fn a_window_drains_runnable_stations_strictly_before_its_end() {
        let mut ix = ActivityIndex::default();
        ix.reset(4);
        ix.set_runnable(0, us(10));
        ix.set_runnable(1, us(20));
        ix.set(2, at(20));
        ix.set_runnable(3, us(30));
        let mut out = Vec::new();
        ix.drain_window(us(20), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 2], "the runnable station at the end stays");
        assert_eq!(ix.runnable.len(), 2);
        assert_eq!(ix.live_min(), at(20));
        assert_eq!(ix.active(), 4, "draining does not touch the cache");
        out.clear();
        ix.drain_window(us(21), &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(drained(&mut ix, 30), vec![3], "an inclusive drain takes it");
        assert_eq!(ix.live_min(), None);
    }

    /// A re-key of a listed station is a store: one list slot, the new
    /// time, and none of the old ones reported.
    #[test]
    fn runnable_rekey_supersedes_in_place() {
        let mut ix = ActivityIndex::default();
        ix.reset(2);
        ix.set_runnable(0, us(5));
        ix.set_runnable(0, us(9));
        ix.set_runnable(1, us(7));
        assert_eq!(ix.runnable, vec![0, 1]);
        assert!(ix.heap.is_empty());
        assert_eq!(ix.active(), 2);
        assert_eq!(drained(&mut ix, 6), Vec::<usize>::new());
        assert_eq!(ix.live_min(), at(7));
        let mut out = Vec::new();
        ix.drain_due(us(9), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1], "each named once");
    }

    /// A station that changes container at one time value is still found
    /// by every query, whichever way it moved, and drains out of both.
    #[test]
    fn a_station_changes_container_at_the_same_time_value() {
        let mut ix = ActivityIndex::default();
        ix.reset(2);
        ix.set(0, at(8));
        ix.set_runnable(0, us(8));
        ix.set_runnable(1, us(8));
        ix.set(1, at(8)); // station 1 has left the list
        assert_eq!(ix.runnable, vec![0]);
        assert_eq!(ix.active(), 2);
        ix.validate("station", [at(8), at(8)].into_iter());
        assert_eq!(drained(&mut ix, 8), vec![0, 1]);
        assert_eq!(ix.live_min(), None, "both out of both containers");
        // Runnable → quiescent while drained: nothing left to take out.
        ix.set(0, None);
        ix.set(1, None);
        assert_eq!(ix.active(), 0);
        ix.validate("station", [None, None].into_iter());
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
    fn reset_forgets_cache_heap_and_list() {
        let mut ix = ActivityIndex::default();
        ix.reset(2);
        ix.set(0, at(1));
        ix.set_runnable(1, us(2));
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

    #[test]
    #[should_panic(expected = "live entry missing from heap and runnable list")]
    fn validate_catches_a_drained_but_unrefreshed_runnable_station() {
        let mut ix = ActivityIndex::default();
        ix.reset(1);
        ix.set_runnable(0, us(9));
        drained(&mut ix, 9);
        ix.validate("station", [at(9)].into_iter());
    }

    /// Random `set` / `set_runnable` / `live_min` / `drain_due` scripts
    /// against the obvious model: a `Vec<Option<SimTime>>` scanned in
    /// full. Times come from a small range so stations collide, re-arm to
    /// earlier and later times, go quiescent from the heap and change
    /// container — at a new time, at the same time, while drained, while
    /// still listed. A sift that forgot to re-home an entry it moved, a
    /// station left in the heap when it turned runnable, or a swap-remove
    /// that forgot to re-home the station it moved, fails here; `drained`
    /// fails on a station named twice.
    #[test]
    fn index_matches_a_full_scan_model() {
        const STATIONS: i64 = 6;
        let ops = vecs(
            zip(
                int_range(0, 5),
                zip(int_range(0, STATIONS - 1), int_range(0, 24)),
            ),
            80,
        );
        check("activity index == full scan", &ops, |ops| {
            let mut ix = ActivityIndex::default();
            ix.reset(STATIONS as usize);
            let mut model: Vec<Option<SimTime>> = vec![None; STATIONS as usize];
            // Which container the script last put each station in.
            let mut listed = vec![false; STATIONS as usize];
            for &(op, (station, v)) in ops {
                let (station, t) = (station as usize, SimTime::from_micros(v as u64));
                match op {
                    0 => {
                        // Park, or go quiescent on a multiple of five —
                        // whatever the station was before.
                        let t = (v % 5 != 0).then_some(t);
                        ix.set(station, t);
                        model[station] = t;
                        listed[station] = false;
                    }
                    1 => {
                        // Become runnable, or re-key if already listed
                        // (drained or not).
                        ix.set_runnable(station, t);
                        model[station] = Some(t);
                        listed[station] = true;
                    }
                    2 => {
                        // Change container at the same time value.
                        if let Some(same) = model[station] {
                            if listed[station] {
                                ix.set(station, Some(same));
                            } else {
                                ix.set_runnable(station, same);
                            }
                            listed[station] = !listed[station];
                        }
                    }
                    3 => ensure_eq(ix.live_min(), model.iter().flatten().min().copied())?,
                    _ => {
                        let want: Vec<usize> = (0..model.len())
                            .filter(|&i| model[i].is_some_and(|m| m <= t))
                            .collect();
                        ensure_eq(drained(&mut ix, v as u64), want.clone())?;
                        // The pump's half of the contract: every drained
                        // station is refreshed before the next query —
                        // runnable again at a later clock, parked at a
                        // later deadline, or quiescent.
                        for i in want {
                            let later = t + SimDuration::from_micros(3);
                            match (i + v as usize) % 3 {
                                0 => {
                                    ix.set_runnable(i, later);
                                    model[i] = Some(later);
                                    listed[i] = true;
                                }
                                1 => {
                                    ix.set(i, Some(later));
                                    model[i] = Some(later);
                                    listed[i] = false;
                                }
                                _ => {
                                    ix.set(i, None);
                                    model[i] = None;
                                    listed[i] = false;
                                }
                            }
                        }
                    }
                }
                ensure_eq(ix.active(), model.iter().flatten().count())?;
                ensure_eq(ix.runnable.len(), listed.iter().filter(|&&l| l).count())?;
                let parked = (0..model.len()).filter(|&i| model[i].is_some() && !listed[i]);
                ensure_eq(ix.heap.len(), parked.count())?;
                ix.validate("station", model.iter().copied());
            }
            Ok(())
        });
    }
}
