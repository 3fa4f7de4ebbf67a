//! The benchmark's counting allocator.
//!
//! Counting sits behind a static flag: with the flag down (the timed
//! pass) every call costs one relaxed load on top of the system
//! allocator. With it up (the counted warm-up unit and the traced pass)
//! the allocator keeps exact totals and the live-bytes high-water mark.
//! A unit builds its world from nothing and drops it before the flag
//! goes down again, so "live" never sees a free of memory it did not see
//! allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(by: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(by as u64, Relaxed);
    let live = LIVE.fetch_add(by as i64, Relaxed) + by as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counters are side effects on atomics only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Totals since the matching [`start`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// High-water mark of live bytes.
    pub peak: u64,
}

/// Zeroes the counters and raises the flag.
pub fn start() {
    CALLS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Totals so far, flag left as it is (for deltas inside a counted unit).
pub fn read() -> Totals {
    Totals {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak: PEAK.load(Relaxed).max(0) as u64,
    }
}

/// Live bytes right now (meaningful only between [`start`] and [`stop`]).
pub fn live() -> i64 {
    LIVE.load(Relaxed)
}

/// Lowers the flag and returns the totals.
pub fn stop() -> Totals {
    ON.store(false, Relaxed);
    read()
}
