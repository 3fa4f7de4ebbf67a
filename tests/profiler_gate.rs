//! Profiler and watchpoint determinism gates.
//!
//! Profiling is an observer: it must never perturb what it observes, and
//! in a deterministic simulation it must itself be deterministic. These
//! tests pin both properties — identical runs produce byte-identical
//! folded-stack profiles (including under record/replay), turning the
//! profiler on leaves the event trace untouched, and a metric watchpoint
//! halts the world at the exact sync point where the metric first moves,
//! at the same instant on every run.

use pilgrim::replay::{replay, Artifact};
use pilgrim::{DebugEvent, NodeConfig, Pid, SimDuration, SimTime, SpawnOpts, Value, World};
use pilgrim_mayflower::Node;
use pilgrim_sim::check::{check_n, choice, ensure_eq, int_range, vecs, zip};
use pilgrim_sim::Tracer;

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

/// The semantics-lock scenario (sleep + cross-node RPC + breakpoint
/// hit/resume, pinned seed), optionally profiled.
fn lock_scenario(profile: bool) -> World {
    let mut w = World::builder()
        .nodes(2)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .node_config(NodeConfig {
            profile_vm: profile,
            ..Default::default()
        })
        .build()
        .expect("scenario builds");
    w.debug_connect(&[0, 1], false).unwrap();
    w.break_at_proc(1, "ping").unwrap();
    w.spawn(0, "main", vec![]);
    let ev = w.wait_for_stop(SimDuration::from_secs(10)).unwrap();
    let DebugEvent::BreakpointHit { pid, .. } = ev else {
        panic!("expected breakpoint hit, got {ev:?}");
    };
    let bp = w.debugger().unwrap().breakpoints()[0].bp;
    w.clear_breakpoint(1, bp).unwrap();
    w.continue_process(1, pid).unwrap();
    w.debug_resume_all().unwrap();
    w.run_until_idle(SimTime::from_secs(30));
    w
}

#[test]
fn profiled_lock_scenario_folds_byte_identically_twice() {
    let first = lock_scenario(true).folded_stacks();
    let second = lock_scenario(true).folded_stacks();
    assert!(!first.is_empty(), "profiled run produced no stacks");
    assert_eq!(first, second, "identical runs profiled differently");
    // The profile covers both sides of the RPC.
    assert!(first.contains("node0;main"), "{first}");
    assert!(first.contains("node1;"), "{first}");
    // Folded lines are sorted, so the document equals its sorted self.
    let mut lines: Vec<&str> = first.lines().collect();
    let rendered = lines.join("\n");
    lines.sort_unstable();
    assert_eq!(lines.join("\n"), rendered, "folded lines not sorted");
}

#[test]
fn replay_reproduces_the_embedded_profile() {
    let world = lock_scenario(true);
    let folded = world.folded_stacks();
    let text = world.record().render();
    drop(world);

    let artifact = Artifact::parse(&text).expect("artifact parses");
    assert_eq!(
        artifact.profile.as_deref(),
        Some(folded.as_str()),
        "profiled recordings embed the folded snapshot"
    );
    let report = replay(&artifact).expect("replay runs");
    assert!(report.divergence.is_none());
    assert_eq!(
        report.profile_identical,
        Some(true),
        "replayed profile differs from the recorded one"
    );
}

#[test]
fn unprofiled_recordings_have_no_profile_section() {
    let artifact = lock_scenario(false).record();
    assert!(artifact.profile.is_none());
    let report = replay(&Artifact::parse(&artifact.render()).unwrap()).unwrap();
    assert_eq!(report.profile_identical, None);
}

#[test]
fn profiling_does_not_perturb_the_trace() {
    // The observer effect gate: the event trace of a profiled run must be
    // byte-identical to the unprofiled run's.
    let plain = lock_scenario(false).trace_jsonl();
    let profiled = lock_scenario(true).trace_jsonl();
    assert_eq!(plain, profiled, "profiling changed observable behaviour");
}

// ---------------------------------------------------------------------
// Burst stepping ≡ single stepping
// ---------------------------------------------------------------------

/// The worker kinds a generated node world forks: CPU-bound recursion,
/// loops that read and print the clock, sleeps, timed semaphore waits and
/// signals, a contended mutex, forks, the two-phase allocator, system
/// calls and an `own` variable inside hot loops, faults after a hot prefix
/// and a breakpoint inside a hot loop — every way an instruction can or
/// cannot end a burst.
const WORKERS: &str = "\
own shared: int := 0
own tally: int := 0

fib = proc (n: int) returns (int)
 if n < 2 then
  return (n)
 end
 return (fib(n - 1) + fib(n - 2))
end

fibber = proc (n: int) returns (int)
 return (fib(n))
end

ticker = proc (rounds: int) returns (int)
 acc: int := 0
 for i: int := 1 to rounds do
  t: int := 0
  while t < 40 do
   t := t + 1
  end
  print(\"tick \" || int$unparse(now()))
  acc := acc + now()
 end
 return (acc)
end

sleeper = proc (ms: int) returns (int)
 sleep(ms)
 print(\"woke \" || int$unparse(now()))
 return (now())
end

waiter = proc (s: sem, ms: int) returns (int)
 ok: bool := sem$wait(s, ms)
 if ok then
  print(\"signalled\")
  return (1)
 end
 print(\"timed out\")
 return (0)
end

signaller = proc (s: sem, spins: int) returns (int)
 t: int := 0
 while t < spins do
  t := t + 1
 end
 sem$signal(s)
 return (spins)
end

locker = proc (m: mutex, rounds: int) returns (int)
 for i: int := 1 to rounds do
  mutex$lock(m)
  c: int := shared
  t: int := 0
  while t < 25 do
   t := t + 1
  end
  shared := c + 1
  mutex$unlock(m)
 end
 return (shared)
end

forker = proc (n: int) returns (int)
 for i: int := 1 to n do
  fork fibber(i + 3)
 end
 return (n)
end

relay = proc (s: sem, n: int) returns (int)
 sem$signal(s)
 fork fibber(n)
 sem$signal(s)
 return (n)
end

builder = proc (n: int) returns (int)
 xs: array[int] := array$new()
 for i: int := 1 to n do
  append(xs, i)
  ys: array[int] := array$new()
  append(ys, i)
 end
 return (len(xs))
end

clocker = proc (rounds: int) returns (int)
 acc: int := 0
 for i: int := 1 to rounds do
  t: int := 0
  while t < 15 do
   t := t + 1
  end
  acc := acc + now() * 3 + random(1000)
 end
 return (acc)
end

tallier = proc (rounds: int) returns (int)
 for i: int := 1 to rounds do
  tally := tally + i
  t: int := 0
  while t < 10 do
   t := t + 1
  end
 end
 return (tally)
end

runaway = proc (n: int) returns (int)
 return (runaway(n + 1))
end

divider = proc (spins: int) returns (int)
 t: int := 0
 while t < spins do
  t := t + 1
 end
 return (spins / (t - spins))
end

trapper = proc (spins: int) returns (int)
 t: int := 0
 hit: int := 0
 while t < spins do
  t := t + 1
  if t = spins then
   hit := t
  end
 end
 return (hit)
end
";

/// The line of `WORKERS` (1-based) where [`node_run`] plants a breakpoint,
/// inside `trapper`'s loop.
fn trap_line() -> u32 {
    let at = WORKERS.lines().position(|l| l == "   hit := t");
    at.expect("trapper's marked line") as u32 + 1
}

/// `WORKERS` plus a `main` that forks one worker per `(kind, p)` pair,
/// between a waiter that is parked by then and the relay that wakes it
/// and forks in the same slice (the one place queue order depends on a
/// wake-up being applied before the instructions after it).
fn node_world_source(workers: &[(i64, i64)]) -> String {
    let mut main = String::from(
        "main = proc ()\n s: sem := sem$create(0)\n m: mutex := mutex$create()\n fork waiter(s, 0 - 1)\n",
    );
    for &(kind, p) in workers {
        let call = match kind {
            0 => format!("fibber({})", 3 + p % 10),
            1 => format!("ticker({p})"),
            2 => format!("sleeper({p})"),
            // -1 waits forever, 0 polls, the rest time out or are signalled.
            3 => format!("waiter(s, {})", p - 2),
            4 => format!("signaller(s, {})", p * 30),
            5 => format!("locker(m, {p})"),
            6 => format!("forker({})", p % 5),
            7 => format!("builder({})", p * 3),
            8 => format!("clocker({})", p * 4),
            9 => format!("tallier({})", p * 50),
            // Runaway recursion overflows the stack; the division faults
            // after a hot prefix.
            10 if p % 2 == 0 => format!("runaway({p})"),
            10 => format!("divider({})", p * 40),
            _ => format!("trapper({})", p * 25),
        };
        main.push_str(&format!(" fork {call}\n"));
    }
    main.push_str(" fork relay(s, 9)\nend\n");
    format!("{WORKERS}\n{main}")
}

/// Everything a node run can show: the trace, the console with its
/// timestamps, the instruction count, the clocks, each exit value and
/// every outcall (a trap's address and clock, a fault's, an exit's).
struct NodeRun {
    /// The clock each `advance_to` returned at. The last is the final
    /// clock; the rest compare between runs with the same windows only.
    window_clocks: Vec<SimTime>,
    trace: String,
    console: Vec<(SimTime, String)>,
    steps: u64,
    exits: Vec<(Pid, Option<Vec<Value>>)>,
    outcalls: Vec<String>,
    /// [`Node::vm_profile`]: empty unless the run was profiled.
    profile: Vec<(String, u64, u64)>,
}

/// Runs `source` on a bare node to `limit`, one `advance_to` per `window`,
/// with a breakpoint planted at [`trap_line`].
fn node_run(
    source: &str,
    time_slice: SimDuration,
    profile_vm: bool,
    window: SimDuration,
) -> NodeRun {
    let limit = SimTime::from_millis(120);
    let tracer = Tracer::new();
    let config = NodeConfig {
        time_slice,
        profile_vm,
        ..Default::default()
    };
    let mut program = pilgrim::compile(source).expect("generated program compiles");
    let trap_at = program
        .addr_for_line(trap_line())
        .expect("code on the line");
    program.replace_op(trap_at, pilgrim_cclu::Op::Trap(7));
    let mut node = Node::new(0, program, config, tracer.clone());
    node.spawn("main", vec![], SpawnOpts::default())
        .expect("main exists");
    let mut t = SimTime::ZERO;
    let mut window_clocks = Vec::new();
    let mut outcalls = Vec::new();
    while t < limit {
        t = (t + window).min(limit);
        // Outcalls are only recorded: a bare node has nobody to deliver
        // them to.
        let out = node.advance_to(t);
        outcalls.extend(out.iter().map(|o| format!("{o:?}")));
        window_clocks.push(node.clock());
    }
    NodeRun {
        window_clocks,
        trace: tracer.to_jsonl(),
        console: node.console().to_vec(),
        steps: node.steps_total(),
        exits: node
            .pids()
            .into_iter()
            .map(|pid| (pid, node.exit_values(pid).map(<[Value]>::to_vec)))
            .collect(),
        outcalls,
        profile: node.vm_profile(),
    }
}

/// Field-by-field equality, cheapest and most telling first, so a failure
/// names what moved and not two whole traces.
fn ensure_same_run(burst: &NodeRun, other: &NodeRun, other_name: &str) -> Result<(), String> {
    let field = |name: &str, r: Result<(), String>| {
        r.map_err(|e| format!("{name}, burst against {other_name}: {e}"))
    };
    field("steps_total", ensure_eq(burst.steps, other.steps))?;
    field(
        "final clock",
        ensure_eq(burst.window_clocks.last(), other.window_clocks.last()),
    )?;
    field("console", ensure_eq(&burst.console, &other.console))?;
    field("exit values", ensure_eq(&burst.exits, &other.exits))?;
    let first_diff = (burst.outcalls.iter())
        .zip(&other.outcalls)
        .find(|(a, b)| a != b);
    field("outcall", ensure_eq(first_diff, None))?;
    field(
        "outcall count",
        ensure_eq(burst.outcalls.len(), other.outcalls.len()),
    )?;
    let first_diff = burst
        .trace
        .lines()
        .zip(other.trace.lines())
        .find(|(a, b)| a != b);
    field("trace line", ensure_eq(first_diff, None))?;
    field(
        "trace length",
        ensure_eq(burst.trace.len(), other.trace.len()),
    )
}

#[test]
fn burst_stepping_equals_single_stepping() {
    // `profile_vm` keeps the scheduler in the loop on every instruction,
    // so a profiled run is the single-step oracle for the bursts an
    // unprofiled `advance_to` takes; 1 µs windows force one-instruction
    // bursts through the burst path itself. The slices put a rotation
    // after every instruction (0, 1 µs), every few (50 µs) or every few
    // thousand (default); the windows end mid-slice.
    let slices = vec![
        NodeConfig::default().time_slice,
        SimDuration::from_micros(50),
        SimDuration::from_micros(1),
        SimDuration::ZERO,
    ];
    let windows = vec![
        SimDuration::from_micros(3_500),
        SimDuration::from_micros(333),
        SimDuration::from_micros(37),
    ];
    // The per-procedure profile is the call tree folded by frame. On this
    // fixed world (`fib` under `fibber` and under itself) it reads what
    // per-instruction counters kept beside the tree read.
    let fixed = node_world_source(&[(0, 4), (6, 2), (7, 1), (9, 1), (11, 1)]);
    let fixed = node_run(&fixed, slices[0], true, windows[0]).profile;
    let counted = [
        ("tallier", 5461, 10934),
        ("fib", 1898, 7584),
        ("trapper", 330, 662),
        ("main", 32, 494),
        ("builder", 75, 323),
        ("forker", 39, 206),
        ("fibber", 16, 120),
        ("relay", 10, 102),
        ("waiter", 11, 78),
    ];
    let counted: Vec<_> = counted.map(|(p, n, c)| (p.to_string(), n, c)).into();
    assert_eq!(fixed, counted);
    let worlds = zip(
        vecs(zip(int_range(0, 12), int_range(1, 13)), 6),
        zip(choice(slices), choice(windows)),
    );
    check_n(
        "burst_stepping_equals_single_stepping",
        64,
        &worlds,
        |(workers, (slice, window))| {
            let source = node_world_source(workers);
            let burst = node_run(&source, *slice, false, *window);
            let oracle = node_run(&source, *slice, true, *window);
            ensure_same_run(&burst, &oracle, "profiled")?;
            // Every instruction the oracle stepped is in its profile.
            let profiled: u64 = oracle.profile.iter().map(|(_, n, _)| n).sum();
            ensure_eq(profiled, oracle.steps)
                .map_err(|e| format!("profiled instructions, steps: {e}"))?;
            // No window is overshot by more than the one instruction the
            // oracle overshoots it by.
            let overshot = (burst.window_clocks.iter())
                .zip(&oracle.window_clocks)
                .position(|(a, b)| a != b)
                .map(|i| (i, burst.window_clocks[i], oracle.window_clocks[i]));
            ensure_eq(overshot, None)
                .map_err(|e| format!("(window, clock, oracle's clock): {e}"))?;
            let single = node_run(&source, *slice, false, SimDuration::from_micros(1));
            ensure_same_run(&burst, &single, "1 us windows")
        },
    );
}

#[test]
fn time_ledgers_partition_the_run() {
    let w = lock_scenario(true);
    let ledgers = w.node(0).time_ledgers();
    let (_, name, _, main_ledger) = ledgers
        .iter()
        .find(|(_, name, _, _)| name == "main")
        .expect("main has a ledger");
    assert_eq!(name, "main");
    assert!(
        main_ledger.executing > SimDuration::ZERO,
        "main executed instructions"
    );
    // The sleeping interval opens at the sync point *after* the sleep
    // call executes, so it lands a step short of the nominal 5ms.
    assert!(
        main_ledger.sleeping >= SimDuration::from_millis(4),
        "main slept ~5ms: {}",
        main_ledger.render()
    );
    assert!(
        main_ledger.blocked_rpc > SimDuration::ZERO,
        "main blocked on its remote call: {}",
        main_ledger.render()
    );
    // The caller's RPC wait is attributed to the call's causal span.
    let waits = w.node(0).rpc_span_waits();
    assert!(
        waits.iter().any(|(_, d)| *d > SimDuration::ZERO),
        "no span-attributed rpc wait: {waits:?}"
    );
}

// ---------------------------------------------------------------------
// Watchpoints
// ---------------------------------------------------------------------

const MAYBE_PINGER: &str = "\
pong = proc (n: int) returns (int)
 return (n)
end
main = proc (count: int)
 good: int := 0
 bad: int := 0
 for i: int := 1 to count do
  ok: bool := true
  r: int := 0
  ok, r := maybecall pong(i) at 1
  if ok then
   good := good + 1
  else
   bad := bad + 1
  end
 end
 print(\"bad \" || int$unparse(bad))
end";

/// Ten maybe-calls with the third call's packet dropped: exactly one
/// fails, so `rpc.failed` steps 0 -> 1 at one deterministic sync point.
fn one_failure_world() -> World {
    let mut w = World::builder()
        .nodes(2)
        .program(MAYBE_PINGER)
        .seed(42)
        .debugger(false)
        .build()
        .unwrap();
    w.arm_watch("rpc.failed > 0").expect("expression parses");
    w.run_for(SimDuration::from_millis(40));
    w.inject_drop(0, 1, 1);
    w.spawn(0, "main", vec![Value::Int(10)]);
    w.run_until_idle(SimTime::from_secs(120));
    w
}

#[test]
fn watch_halts_at_the_first_failed_rpc() {
    let w = one_failure_world();
    let trips = w.watch_trips();
    assert_eq!(trips.len(), 1, "exactly one watch armed: {trips:?}");
    let (_, expr, trip) = &trips[0];
    assert_eq!(expr, "rpc.failed > 0");
    assert_eq!(trip.value, 1, "halted at the *first* increment");
    assert_eq!(
        w.now(),
        trip.at,
        "the run loop stopped at the tripping sync point"
    );
    assert!(
        trip.at < SimTime::from_secs(120),
        "world halted before the limit"
    );
    assert!(
        trip.span.is_some(),
        "the trip names the tripping activity's span"
    );
}

#[test]
fn watch_trip_point_is_pinned_across_runs() {
    let a = one_failure_world();
    let b = one_failure_world();
    let ta = &a.watch_trips()[0].2;
    let tb = &b.watch_trips()[0].2;
    assert_eq!(ta, tb, "trip (time, sync index, value, span) not stable");
    // Pin the exact trip coordinates so any scheduler/metrics reordering
    // that moves the first observable failure shows up here.
    assert_eq!(ta.value, 1);
    assert_eq!(ta.at, a.now());
}

#[test]
fn replay_reproduces_the_watch_trip() {
    let w = one_failure_world();
    let original = w.watch_trips();
    let text = w.record().render();
    drop(w);

    let report = replay(&Artifact::parse(&text).unwrap()).expect("replay runs");
    assert!(
        report.divergence.is_none(),
        "watch-bearing journal diverged"
    );
    assert_eq!(
        report.world.watch_trips(),
        original,
        "replayed trip differs from the recorded run"
    );
}

#[test]
fn cleared_watches_do_not_trip_and_runs_complete() {
    let mut w = World::builder()
        .nodes(2)
        .program(MAYBE_PINGER)
        .seed(42)
        .debugger(false)
        .build()
        .unwrap();
    let id = w.arm_watch("rpc.failed > 0").unwrap();
    assert!(w.clear_watch(id));
    // One left armed below its threshold is evaluated at every sync point
    // and is as silent.
    w.arm_watch("rpc.failed > 1000000").unwrap();
    w.inject_drop(0, 1, 1);
    w.spawn(0, "main", vec![Value::Int(10)]);
    w.run_until_idle(SimTime::from_secs(120));
    assert!(w.watch_trips().is_empty());
    assert_eq!(w.console(0), vec!["bad 1".to_string()]);
}
