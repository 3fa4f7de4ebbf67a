//! `pilgrim selftest`: each command's end-to-end proof, run as sections.
//!
//! A section builds its own small world, checks the property its command
//! exists for, and fails with one reason. A gate that cannot fire is no
//! gate, so the replay section ends by corrupting a recorded event's
//! digest and demanding the divergence checker pin it.

use std::io::Write;
use std::time::Instant;

use pilgrim::replay::{replay, Artifact};
use pilgrim::{open, DebugEvent, NetworkConfig, NodeConfig, SimDuration, SimTime, Value, World};

use super::{causal_graph, Bad, Status, TOP_K};
use crate::{render_run_report, replay_load, run_scenario, Scenario};

/// Fails the section with a formatted reason unless the condition holds.
macro_rules! require {
    ($cond:expr, $($reason:tt)*) => {
        if !$cond {
            return Err(format!($($reason)*).into());
        }
    };
}

type Section = fn(&mut dyn Write) -> Result<(), Bad>;

/// Runs every section in order; the first failure is reported on `err`
/// and ends the run with status 1.
pub(super) fn run(out: &mut dyn Write, err: &mut dyn Write) -> Status {
    let sections: [(&str, Section); 4] = [
        ("replay", replay_section),
        ("prof", prof_section),
        ("trace", trace_section),
        ("load", load_section),
    ];
    for (name, section) in sections {
        writeln!(out, "== {name} ==")?;
        if let Err(reason) = section(out) {
            writeln!(err, "selftest FAILED: {name}: {reason}")?;
            return Ok(1);
        }
    }
    writeln!(out, "selftest OK")?;
    Ok(0)
}

/// Renders, re-parses and replays `world`'s recording, requiring a
/// divergence-free result.
fn clean_replay(world: &World) -> Result<(Artifact, pilgrim::ReplayReport), Bad> {
    let reparsed = Artifact::parse(&world.record().render())
        .map_err(|e| format!("rendered artifact does not parse: {e}"))?;
    let report = replay(&reparsed).map_err(|e| format!("replay errored: {e}"))?;
    if let Some(d) = &report.divergence {
        return Err(format!("clean replay diverged:\n{}", d.report()).into());
    }
    Ok((reparsed, report))
}

/// The semantics-lock scenario from `tests/semantics_lock.rs`: a sleep, a
/// cross-node RPC, and a breakpoint hit + resume under a pinned seed.
fn lock_scenario() -> Result<World, Bad> {
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

    let debug = |e: pilgrim::DebugError| format!("lock scenario: {e}");
    let mut w = World::builder()
        .nodes(2)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .build()?;
    w.debug_connect(&[0, 1], false).map_err(debug)?;
    w.break_at_proc(1, "ping").map_err(debug)?;
    w.spawn(0, "main", vec![]);
    let ev = w.wait_for_stop(SimDuration::from_secs(10)).map_err(debug)?;
    let DebugEvent::BreakpointHit { pid, .. } = ev else {
        return Err(format!("lock scenario: expected a breakpoint hit, got {ev:?}").into());
    };
    let debugger = w.debugger().ok_or("lock scenario: no debugger")?;
    let bp = debugger.breakpoints()[0].bp;
    w.clear_breakpoint(1, bp).map_err(debug)?;
    w.continue_process(1, pid).map_err(debug)?;
    w.debug_resume_all().map_err(debug)?;
    w.run_until_idle(SimTime::from_secs(30));
    Ok(w)
}

/// Records and replays the lock scenario in-process, then mutates one
/// recorded event's digest and proves the divergence checker reports it.
fn replay_section(out: &mut dyn Write) -> Result<(), Bad> {
    let t0 = Instant::now();
    let world = lock_scenario()?;
    let run_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let (reparsed, report) = clean_replay(&world)?;
    writeln!(
        out,
        "run: {run_ms:.1}ms | record+replay: {:.1}ms | {} stimuli, {} events byte-identical",
        t1.elapsed().as_secs_f64() * 1e3,
        reparsed.stimuli.len(),
        report.recorded_events
    )?;

    // Now corrupt one recorded event's digest and demand a precise report.
    let mut corrupted = reparsed.clone();
    let victim = corrupted.digests.len() / 2;
    let Some(digest) = corrupted.digests.get_mut(victim) else {
        return Err("the lock scenario recorded no events".into());
    };
    *digest ^= 1;
    let mutated =
        replay(&corrupted).map_err(|e| format!("replay of mutated artifact errored: {e}"))?;
    let Some(d) = mutated.divergence else {
        return Err("mutated trace replayed without divergence".into());
    };
    require!(
        d.index == victim,
        "mutated event {victim} but divergence reported at {}",
        d.index
    );
    writeln!(
        out,
        "mutation check: divergence correctly pinned to event {victim}:"
    )?;
    for line in d.report().lines().take(4) {
        writeln!(out, "  {line}")?;
    }
    Ok(())
}

/// The profiled scenario's world, built but not yet driven: fib(8) on
/// node 0, then one remote `double` call to node 1.
fn prof_scenario_unrun() -> Result<World, Bad> {
    const NODE0: &str = "\
double = proc (x: int) returns (int)
 fail(\"only node 1 implements double\")
end

fib = proc (n: int) returns (int)
 if n < 2 then
 return (n)
 end
 return (fib(n - 1) + fib(n - 2))
end

main = proc ()
 f: int := fib(8)
 r: int := call double(f) at 1
 print(int$unparse(r))
end";
    const NODE1: &str = "\
double = proc (x: int) returns (int)
 return (x * 2)
end";
    Ok(World::builder()
        .nodes(2)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .node_config(NodeConfig {
            profile_vm: true,
            ..Default::default()
        })
        .build()?)
}

fn prof_scenario() -> Result<World, Bad> {
    let mut w = prof_scenario_unrun()?;
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(30));
    Ok(w)
}

/// Validates one folded-stack document: non-empty, every line is
/// `frame(;frame)* <weight>` with a positive integer weight.
///
/// # Errors
///
/// The first malformed line, or an empty profile.
pub fn check_format(folded: &str) -> Result<(), String> {
    if folded.is_empty() {
        return Err("profile is empty".to_string());
    }
    for line in folded.lines() {
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no weight separator in `{line}`"))?;
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("malformed stack in `{line}`"));
        }
        let w: u64 = weight
            .parse()
            .map_err(|_| format!("non-integer weight in `{line}`"))?;
        if w == 0 {
            return Err(format!("zero-weight line `{line}`"));
        }
    }
    Ok(())
}

/// End-to-end proof of the profiler: valid folded output with the
/// recursive path present, byte-identical across runs and under replay,
/// and a metric watchpoint that halts the world.
fn prof_section(out: &mut dyn Write) -> Result<(), Bad> {
    let world = prof_scenario()?;
    let folded = world.folded_stacks();
    check_format(&folded).map_err(|e| format!("bad folded output: {e}"))?;
    require!(
        folded.contains("node0;main;fib;fib"),
        "recursive fib path missing:\n{folded}"
    );
    require!(
        folded.contains("node1;"),
        "server node missing from profile:\n{folded}"
    );
    writeln!(
        out,
        "format: {} folded lines, recursion + both nodes present",
        folded.lines().count()
    )?;

    require!(
        prof_scenario()?.folded_stacks() == folded,
        "two identical runs profiled differently"
    );
    writeln!(out, "determinism: second run byte-identical")?;

    require!(
        world.record().profile.as_deref() == Some(folded.as_str()),
        "artifact did not embed the profile"
    );
    let (_, report) = clean_replay(&world)?;
    require!(
        report.profile_identical == Some(true),
        "replayed profile not identical ({:?})",
        report.profile_identical
    );
    writeln!(
        out,
        "replay: trace and profile both reproduced byte-identically"
    )?;

    // Watchpoint: net.sent increments as soon as the RPC's first packet
    // leaves node 0, so an armed watch must halt the run early.
    let mut w = prof_scenario_unrun()?;
    let id = w
        .arm_watch("net.sent > 0")
        .map_err(|e| format!("arm_watch: {e}"))?;
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(30));
    let trips = w.watch_trips();
    let Some((tid, expr, trip)) = trips.first() else {
        return Err("watch never tripped".into());
    };
    require!(
        *tid == id && w.now() == trip.at && w.now() < SimTime::from_secs(30),
        "watch trip did not halt the world at the trip point"
    );
    writeln!(
        out,
        "watchpoint: `{expr}` halted the world at {} (observed {})",
        trip.at, trip.value
    )?;
    Ok(())
}

/// Four nodes, RPC fan-out from node 0 to three servers over a lossy
/// network, so the trace carries retransmissions and losses the
/// attribution must survive.
fn trace_scenario() -> Result<World, Bad> {
    const MAIN: &str = "\
ping = proc (x: int) returns (int)
 fail(\"servers implement ping\")
end

main = proc (rounds: int)
 total: int := 0
 for i: int := 1 to rounds do
  total := total + call ping(i) at 1
  total := total + call ping(i * 10) at 2
  total := total + call ping(i * 100) at 3
 end
 print(\"total \" || int$unparse(total))
end";
    const SERVER: &str = "\
ping = proc (x: int) returns (int)
 return (x * 2)
end";
    let net = NetworkConfig {
        p_silent_loss: 0.08,
        ..NetworkConfig::default()
    };
    let mut w = World::builder()
        .nodes(4)
        .program(MAIN)
        .program_for(1, SERVER)
        .program_for(2, SERVER)
        .program_for(3, SERVER)
        .network(net)
        .seed(0x1055)
        .coarse_window(1, 4096)
        .build()?;
    w.spawn(0, "main", vec![Value::Int(4)]);
    w.run_until_idle(SimTime::from_secs(60));
    Ok(w)
}

/// End-to-end proof of the analyzer: a lossy RPC run yields a non-empty
/// span DAG with retransmissions attributed, the critical path and
/// slowest-span reports render deterministically across runs, and both
/// saved formats round-trip through the loader.
fn trace_section(out: &mut dyn Write) -> Result<(), Bad> {
    let world = trace_scenario()?;
    let events = world.tracer().len();
    let graph = world.causal_graph();
    require!(
        !graph.spans().is_empty(),
        "no spans reconstructed from the trace"
    );
    let retransmits: u64 = graph.spans().iter().map(|p| p.retransmits as u64).sum();
    require!(
        retransmits > 0,
        "lossy scenario produced no retransmissions"
    );
    let critical = graph.render_critical();
    let slowest = graph.render_slowest(TOP_K);
    require!(
        critical.starts_with("critical path:") && slowest.starts_with("slowest"),
        "bad report headers:\n{critical}{slowest}"
    );
    writeln!(
        out,
        "analysis: {} spans, {retransmits} retransmits attributed",
        graph.spans().len()
    )?;

    let again = trace_scenario()?;
    let graph2 = again.causal_graph();
    require!(
        graph2.render_critical() == critical && graph2.render_slowest(TOP_K) == slowest,
        "two identical runs analyzed differently"
    );
    require!(
        again.tsdb_summary() == world.tsdb_summary(),
        "two identical runs sampled different time series"
    );
    writeln!(
        out,
        "determinism: second run byte-identical (reports and tsdb)"
    )?;

    // Through the filesystem, because that is how `pilgrim trace` meets
    // both formats.
    let snap = world.blackbox_snapshot("selftest");
    let via_disk = |name: &str, text: String| -> Result<_, String> {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write scratch {name}: {e}"))?;
        let path = path.to_string_lossy();
        let loaded = open(&path)
            .map_err(Bad::from)
            .and_then(|saved| causal_graph(&path, saved));
        let _ = std::fs::remove_file(&*path);
        loaded.map_err(|e| format!("artifact loading: {e}"))
    };
    let (replayed, recorded) =
        via_disk("pilgrim-selftest-recording.json", world.record().render())?;
    let (boxed, _) = via_disk("pilgrim-selftest-blackbox.json", snap.render())?;
    require!(
        replayed == events,
        "replay artifact lost events ({replayed} != {events})"
    );
    require!(boxed > 0, "blackbox ring was empty");
    require!(
        recorded.render_critical() == critical,
        "analysis of the recording diverged from live"
    );
    writeln!(
        out,
        "artifacts: replay ({replayed} events) and blackbox ({boxed} events) both load"
    )?;
    require!(
        snap.series.starts_with("tsdb "),
        "blackbox dump carries no time-series"
    );
    writeln!(
        out,
        "tsdb: dump carries {} series blocks",
        snap.series
            .lines()
            .filter(|l| l.starts_with("tsdb "))
            .count()
    )?;
    Ok(())
}

/// Runs a built-in partitioned scenario twice and requires byte-identical
/// reports plus a divergence-free replay — the load harness's
/// determinism proof, runnable anywhere without a scenario file.
fn load_section(out: &mut dyn Write) -> Result<(), Bad> {
    const SCENARIO: &str = r#"
name = "selftest"
seed = 11
topology = "star"
segments = 2
client_nodes = 6
clients = 64
arrivals = 120
rate = 400
loss = "2%"
partition = "at=100ms heal=200ms link=0:1"
trace = "rpc"
trace_sample = 2
coarse_interval = 8
coarse_budget = 256
"#;
    let sc = Scenario::parse(SCENARIO).map_err(|e| format!("scenario: {e}"))?;
    let a = run_scenario(&sc)?;
    let b = run_scenario(&sc)?;
    require!(
        a.report == b.report,
        "reports differ between runs:\n--- a\n{}--- b\n{}",
        a.report,
        b.report
    );
    require!(
        render_run_report(&sc, &a, TOP_K) == render_run_report(&sc, &b, TOP_K),
        "run reports differ between runs"
    );
    let r = replay_load(&a.world.record()).map_err(|e| format!("replay failed: {e}"))?;
    require!(
        r.divergence.is_none(),
        "replay diverged: {:?}",
        r.divergence
    );
    write!(out, "{}", a.report)?;
    writeln!(out, "deterministic, replay byte-identical")?;
    Ok(())
}
