//! Golden "semantics lock" over the simulation hot path.
//!
//! One multi-node scenario exercising every timing-sensitive subsystem at
//! once — a timer expiry (sleep), a cross-node RPC, and a debugger
//! breakpoint hit + resume — under a pinned seed. The full `vm` + `clock`
//! trace, the consoles, and the final per-node clocks are asserted against
//! a committed snapshot. Any change to instruction costs, scheduling
//! order, packet sizing, or delivery order shows up here as a diff, which
//! is exactly the point: the hot-path refactors (zero-clone dispatch, the
//! slot arena, event-queue bookkeeping) must reproduce this run
//! bit-for-bit.
//!
//! A change that moves semantics *on purpose* (e.g. a new wire-size
//! model) re-derives the snapshot with `sh scripts/pins.sh`, which
//! rewrites it from the digest this test prints, and says so in the same
//! commit.

use pilgrim::{DebugEvent, SimDuration, SimTime, TraceCategory, World};

const NODE0: &str = "\
ping = proc (x: int) returns (int)
 fail(\"only node 1 implements ping\")
end

main = proc ()
 sleep(5)
 r: int := call ping(21) at 1
 print(\"got \" || int$unparse(r))
end";

const NODE1: &str = "\
ping = proc (x: int) returns (int)
 print(\"ping \" || int$unparse(x))
 return (x * 2)
end";

fn run_scenario() -> World {
    let mut w = World::builder()
        .nodes(2)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .build()
        .expect("scenario builds");
    w.debug_connect(&[0, 1], false).unwrap();
    w.break_at_proc(1, "ping").unwrap();
    w.spawn(0, "main", vec![]);

    let ev = w.wait_for_stop(SimDuration::from_secs(10)).unwrap();
    let DebugEvent::BreakpointHit {
        node, proc, pid, ..
    } = &ev
    else {
        panic!("expected breakpoint hit, got {ev:?}");
    };
    assert_eq!(node.0, 1);
    assert_eq!(proc, "ping");

    let pid = *pid;
    let bp = w.debugger().unwrap().breakpoints()[0].bp;
    w.clear_breakpoint(1, bp).unwrap();
    w.continue_process(1, pid).unwrap();
    w.debug_resume_all().unwrap();
    w.run_until_idle(SimTime::from_secs(30));
    w
}

/// Renders the scenario's observable behaviour as one stable string:
/// the vm/clock trace lines, both consoles, and the final node clocks.
fn digest(w: &World) -> String {
    let mut out = String::new();
    let mut n = 0usize;
    w.tracer().for_each(|e| {
        if matches!(e.category, TraceCategory::Vm | TraceCategory::Clock) {
            out.push_str(&e.to_string());
            out.push('\n');
            n += 1;
        }
    });
    out.push_str(&format!("vm+clock events: {n}\n"));
    for i in 0..2 {
        for line in w.console(i) {
            out.push_str(&format!("console n{i}: {line}\n"));
        }
    }
    for i in 0..2 {
        out.push_str(&format!(
            "final clock n{i}: {} (logical {})\n",
            w.node(i).clock(),
            w.node(i).logical_now()
        ));
    }
    out.push_str(&format!("world now: {}\n", w.now()));
    out
}

// Captured from the seed-42 run before the hot-path refactor (and after
// the wire-size remodel). `sh scripts/pins.sh` rewrites it from the digest
// this test prints between the markers below.
const SNAPSHOT: &str = include_str!("semantics_lock.snapshot.txt");

#[test]
fn pinned_seed_scenario_matches_committed_snapshot() {
    let d = digest(&run_scenario());
    println!("----- digest -----\n{d}----- end digest -----");
    assert_eq!(
        d, SNAPSHOT,
        "simulation semantics drifted from the committed snapshot"
    );
}

#[test]
fn scenario_is_deterministic_across_runs() {
    let a = digest(&run_scenario());
    let b = digest(&run_scenario());
    assert_eq!(a, b);
}
