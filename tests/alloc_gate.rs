//! Host-allocation gate for the pump → node path.
//!
//! ROADMAP aim 1 prices the simulator in host cost per unit of simulated
//! work, and the paper's first requirement (§1, §3) is that a program not
//! under the debugger's control pays nothing for being debuggable. Wall
//! time cannot be gated on a shared runner; allocator calls can, exactly.
//! This binary installs its own counting `#[global_allocator]` (an
//! integration test is its own binary, so nothing else is affected) and
//! pins two properties of a debugger-less world with dormant agents:
//!
//! * a window in which nodes only execute plain instructions allocates
//!   nothing at all — not in the pump, not in the node scheduler, not in
//!   the VM, not in the time-series sample that ends it — once the
//!   world's buffers have grown;
//! * a fork → sleep → exit process lifecycle costs a small, fixed number
//!   of allocations, none of them in a per-process table kept for a
//!   debugger that is not there.
//!
//! Counts are per thread (tests run on parallel threads; a world stepped
//! with `step_threads = 1` allocates only on the thread that drives it).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pilgrim::{SimDuration, SimTime, Value, World};

thread_local! {
    /// Allocator calls made by this thread. Const-initialised and without
    /// a destructor, so touching it never allocates.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only side effect is a thread-local counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) this thread makes
/// while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// A world shaped like the benchmark's `compute` / `sparse-250k` units:
/// no debugger station, agents linked in but dormant, trace filter empty
/// (the flight recorder keeps its default categories). The time-series
/// store samples at every sync point into a 64-row ring, so after the
/// warm-up the ring is full and every measured window includes a sample
/// that overwrites a row.
fn world(nodes: u32, source: &str) -> World {
    let w = World::builder()
        .nodes(nodes)
        .program(source)
        .debugger(false)
        .coarse_window(1, 64)
        .seed(0xa110c)
        .build()
        .expect("gate world builds");
    w.tracer().set_filter(&[]);
    w
}

const SPIN: &str = "\
main = proc (n: int)
 total: int := 0
 for i: int := 1 to n do
  total := total + i % 7
 end
end";

/// Four nodes spin a plain loop — arithmetic, locals, a branch. After a
/// warm-up that lets every buffer reach its size (the step lists, the
/// outcall buffer), further windows must not touch the allocator.
#[test]
fn plain_instruction_windows_allocate_nothing() {
    let mut w = world(4, SPIN);
    for node in 0..4 {
        w.spawn(node, "main", vec![Value::Int(10_000_000)]);
    }
    w.run_for(SimDuration::from_secs(1));
    let sync_points = |w: &World| w.blackbox_snapshot("alloc gate").sync_index;
    let before = sync_points(&w);
    let calls = allocations(|| w.run_for(SimDuration::from_secs(1)));
    let windows = sync_points(&w) - before;
    assert!(windows > 100, "only {windows} windows measured");
    for node in 0..4 {
        let (runnable, _, _) = w.node(node).state_counts();
        assert_eq!(
            runnable, 1,
            "node {node} stopped spinning: nothing measured"
        );
    }
    assert_eq!(
        calls, 0,
        "{calls} allocations in {windows} plain-instruction windows"
    );
}

const LIFECYCLE: &str = "\
worker = proc (k: int) returns (int)
 sleep(k)
 return (k)
end
main = proc (n: int)
 d: int := 5 + my_node() * 3
 for i: int := 1 to n do
  fork worker(d)
 end
end";

/// `sparse-250k` in small: each node forks a crowd of workers that sleep
/// and exit. The whole run — spawn, fork, park, wake, reap, every window
/// in between — divided by the processes it created.
#[test]
fn a_process_lifecycle_costs_at_most_six_allocations() {
    const NODES: u32 = 8;
    const WORKERS: i64 = 2_000;
    let mut w = world(NODES, LIFECYCLE);
    let calls = allocations(|| {
        for node in 0..NODES {
            w.spawn(node, "main", vec![Value::Int(WORKERS)]);
        }
        w.run_until_idle(SimTime::from_secs(60));
    });
    assert!(w.now() < SimTime::from_secs(60), "the workers must drain");
    let mut processes = 0;
    for node in 0..NODES {
        assert_eq!(w.node(node).state_counts(), (0, 0, 0), "node {node}");
        processes += w.node(node).pids().len() as u64;
    }
    assert_eq!(processes, u64::from(NODES) * (WORKERS as u64 + 1));
    let per_process = calls as f64 / processes as f64;
    println!("{calls} allocations for {processes} processes: {per_process:.2} each");
    assert!(
        per_process <= 6.0,
        "{per_process:.2} allocations per fork → sleep → exit lifecycle"
    );
}
