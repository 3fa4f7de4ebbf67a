//! The six workloads.
//!
//! A *unit* builds a fresh world from `seed`, runs it to quiescence on
//! one thread, checks what came out and drops the world. A unit is timed
//! as a whole: `setup_ns` covers everything up to "world ready to run",
//! `run_ns` the work the workload exists to price. Every call into a
//! crate sits inside a span, so the traced pass can say where the time
//! went; with the recorder off the spans cost nothing.

use std::time::Instant;

use pilgrim::{DebugEvent, SimDuration, SimTime, Value, World};
use pilgrim_services::{
    build_load_world, outcome_from_world, render_run_report, replay_load_artifact, run_scenario,
    LoadOutcome, Scenario, AOT_NODE, FIRST_CLIENT_NODE, NS_NODE,
};
use pilgrim_sim::{DetRng, OpenLoop};

use crate::alloc::{self, Totals};
use crate::span::{Open, Spans};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Compute,
    RpcStorm,
    LoadSoak,
    Sparse250k,
    Observe,
    DebugSession,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Compute,
        Workload::RpcStorm,
        Workload::LoadSoak,
        Workload::Sparse250k,
        Workload::Observe,
        Workload::DebugSession,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compute => "compute",
            Workload::RpcStorm => "rpc-storm",
            Workload::LoadSoak => "load-soak",
            Workload::Sparse250k => "sparse-250k",
            Workload::Observe => "observe",
            Workload::DebugSession => "debug-session",
        }
    }

    /// Why the workload exists: the same sentence `BENCHMARK.json` carries.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Compute => "CPU-bound fib(15) on 8 nodes x 16 workers, no RPC, no sleeps: VM dispatch and the node scheduler own it, so a gain there shows here and nowhere else",
            Workload::RpcStorm => "32 000 null RPCs across a flat 16-station ring: the rpc endpoint, ring send/poll, the event queue and the per-window pump own it; bridges, services and tracing are bypassed",
            Workload::LoadSoak => "scenarios/soak_100k.toml as committed (bridged, lossy, partitioned, trace off): the product path, using rpc and ring unlike rpc-storm, so a flat-path gain that costs the bridged path shows",
            Workload::Sparse250k => "250 000 processes parked at once on 100 nodes: spawn, timers, reaping and the activity index own it, the VM does almost nothing, and heap_peak_mb is large enough to mean something",
            Workload::Observe => "partition_1k with 5 000 arrivals, RPC tracing and a time-series sample every sync point, then record, render, parse, replay and reports: the analytics stack with observability on",
            Workload::DebugSession => "200 break/backtrace/inspect/halt/step/resume cycles over a live three-tier RPC chain on 8 nodes: the only workload with debugger and agents on, which is the paper's subject",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Units in the timed pass of a full run. Sized so each workload
    /// measures for about seven seconds; frozen, because a changed count
    /// changes which host phases a workload samples.
    pub fn units(self) -> usize {
        match self {
            Workload::Compute | Workload::RpcStorm => 64,
            Workload::DebugSession => 48,
            Workload::LoadSoak => 20,
            Workload::Observe => 12,
            Workload::Sparse250k => 8,
        }
    }
}

// ---------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------

pub const COMPUTE_NODES: u32 = 8;
pub const COMPUTE_WORKERS: i64 = 16;
/// VM instructions one `compute` unit retires: 8 × (16 × fib(15) + main).
pub const COMPUTE_INSTR: u64 = 2_779_600;
pub const COMPUTE_SOURCE: &str = "\
fib = proc (n: int) returns (int)
 if n < 2 then
  return (n)
 end
 return (fib(n - 1) + fib(n - 2))
end
worker = proc (n: int) returns (int)
 return (fib(n))
end
main = proc (n: int)
 for i: int := 1 to n do
  fork worker(15)
 end
end";

pub const STORM_STATIONS: u32 = 16;
pub const STORM_CALLS: i64 = 2_000;
pub const STORM_SOURCE: &str = "\
ping = proc ()
end
main = proc (n: int, dst: int)
 for i: int := 1 to n do
  call ping() at dst
 end
end";

pub const SPARSE_NODES: u32 = 100;
pub const SPARSE_WORKERS: i64 = 2_500;
pub const SPARSE_SOURCE: &str = "\
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

pub const SOAK_SCENARIO: &str = include_str!("../../scenarios/soak_100k.toml");
pub const PARTITION_SCENARIO: &str = include_str!("../../scenarios/partition_1k.toml");
pub const OBSERVE_ARRIVALS: u64 = 5_000;

pub const DEBUG_NODES: u32 = 8;
pub const DEBUG_CYCLES: u32 = 200;
const DEBUG_SPINNERS: u32 = 20;
/// Each round is one 2 ms sleep on the node's logical clock, which stands
/// still while the cohort is halted. 7 500 rounds outlast the 200 cycles
/// by about half a simulated second, so the application is live through
/// every cycle and the final drain has next to nothing left to run.
const DEBUG_SPIN_ROUNDS: i64 = 7_500;
/// Two calls go down the chain per cycle: the one the breakpoint catches
/// and the one that passes while it is cleared.
const DEBUG_CLIENT_CALLS: i64 = 2 * DEBUG_CYCLES as i64 + 8;
pub const DEBUG_SOURCE: &str = "\
storage = proc (key: int) returns (int)
 return (key * 10)
end
middle = proc (key: int) returns (int)
 cached: int := call storage(key) at 2
 return (cached + 1)
end
client = proc (n: int)
 for i: int := 1 to n do
  answer: int := call middle(i) at 1
 end
end
spin = proc (n: int)
 acc: int := 0
 for i: int := 1 to n do
  acc := acc + i
  sleep(2)
 end
end";

/// The source a workload's world compiles at build time, for the
/// `cclu.compile.us` probe.
pub fn source(w: Workload) -> &'static str {
    match w {
        Workload::Compute => COMPUTE_SOURCE,
        Workload::RpcStorm => STORM_SOURCE,
        Workload::Sparse250k => SPARSE_SOURCE,
        Workload::DebugSession => DEBUG_SOURCE,
        Workload::LoadSoak | Workload::Observe => pilgrim_services::FILE_SERVER_SOURCE,
    }
}

// ---------------------------------------------------------------------
// What a unit reports
// ---------------------------------------------------------------------

/// Exact, host-independent work counts of one unit: the denominators of
/// every per-unit-of-work metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    pub instr: u64,
    pub rpc_started: u64,
    pub rpc_completed: u64,
    pub rpc_failed: u64,
    pub rpc_retransmits: u64,
    pub packets: u64,
    pub processes: u64,
    pub debug_cycles: u64,
    pub debug_requests: u64,
    pub debug_errors: u64,
    pub journal_stimuli: u64,
    pub artifact_bytes: u64,
    pub sync_points: u64,
    pub sim_us: u64,
}

#[derive(Debug, Default)]
pub struct Unit {
    pub setup_ns: u64,
    pub run_ns: u64,
    /// Why the unit failed; empty means it passed every check.
    pub failures: Vec<String>,
    /// Final sim time, `rpc.*`, `net.*`, latency quantiles, instruction
    /// count: equal for two units of the same workload and seed.
    pub digest: String,
    pub work: Work,
    /// The counting allocator's totals at the end of the run phase (all
    /// zero when the unit was not counted).
    pub alloc: Totals,
    /// Simulated-time outputs (`model.*`): must not move under a
    /// performance-only change.
    pub model: Vec<(&'static str, i128)>,
}

pub struct Ctx<'a> {
    pub spans: &'a mut Spans,
    /// `step_threads` of the world; 1 everywhere but the pool probe.
    pub threads: usize,
    /// Also take the flight-recorder snapshot that carries the sync-point
    /// count (outside the timed phases). On for the warm-up unit and the
    /// traced pass.
    pub detail: bool,
    /// Also run `load-soak` through `run_scenario` itself and compare
    /// reports. On for the warm-up unit.
    pub reference: bool,
}

/// A setup or run phase: always timed, and a span when tracing.
struct Phase {
    open: Open,
    t0: Instant,
}

impl Phase {
    fn begin(spans: &mut Spans, name: &'static str) -> Phase {
        Phase {
            open: spans.enter(name),
            t0: Instant::now(),
        }
    }

    fn end(self, spans: &mut Spans) -> u64 {
        let ns = self.t0.elapsed().as_nanos() as u64;
        spans.exit(self.open);
        ns
    }
}

/// `spans.enter` / `exit` around one expression.
macro_rules! span {
    ($cx:expr, $name:literal, $body:expr) => {{
        let open = $cx.spans.enter($name);
        let out = $body;
        $cx.spans.exit(open);
        out
    }};
}

fn counter(w: &World, name: &str) -> u64 {
    w.metrics().counter_value(name).unwrap_or(0)
}

/// A quantile of the world's client-observed RPC latency, µs (0 with no
/// RPCs).
fn latency_us(w: &World, q: f64) -> u64 {
    w.metrics()
        .histogram_named("rpc.latency_us")
        .and_then(|h| h.quantile(q))
        .unwrap_or(0)
}

fn instructions(w: &World) -> u64 {
    (0..w.user_nodes()).map(|n| w.node(n).steps_total()).sum()
}

fn processes(w: &World) -> u64 {
    (0..w.user_nodes())
        .map(|n| w.node(n).pids().len() as u64)
        .sum()
}

/// Reads the world's counters into a [`Work`] and a digest, and applies
/// the checks every workload shares: the world drained before `limit`,
/// and every RPC started has an outcome.
fn account(w: &World, limit: SimTime, unit: &mut Unit) {
    let work = &mut unit.work;
    work.instr = instructions(w);
    work.rpc_started = counter(w, "rpc.started");
    work.rpc_completed = counter(w, "rpc.completed");
    work.rpc_failed = counter(w, "rpc.failed");
    work.rpc_retransmits = counter(w, "rpc.retransmits");
    work.packets = counter(w, "net.sent");
    work.processes = processes(w);
    work.journal_stimuli = w.journal().len() as u64;
    work.sim_us = w.now().as_micros();

    unit.digest = format!(
        "now={} instr={} rpc={}/{}/{}/{} net={}/{}/{}/{} lat={}/{}/{}",
        work.sim_us,
        work.instr,
        work.rpc_started,
        work.rpc_completed,
        work.rpc_failed,
        work.rpc_retransmits,
        work.packets,
        counter(w, "net.delivered"),
        counter(w, "net.bridge_lost"),
        counter(w, "net.silently_lost"),
        latency_us(w, 0.50),
        latency_us(w, 0.90),
        latency_us(w, 0.99),
    );

    if w.now() >= limit {
        unit.failures
            .push(format!("did not drain before {} us", limit.as_micros()));
    }
    if work.rpc_completed + work.rpc_failed != work.rpc_started {
        unit.failures.push(format!(
            "rpc.completed {} + rpc.failed {} != rpc.started {}",
            work.rpc_completed, work.rpc_failed, work.rpc_started
        ));
    }
}

/// Sync points the pump took, from the flight recorder's snapshot.
fn sync_points(cx: &mut Ctx, w: &World) -> u64 {
    if !cx.detail {
        return 0;
    }
    span!(cx, "blackbox_snapshot", w.blackbox_snapshot("benchmark")).sync_index
}

pub fn run_unit(workload: Workload, seed: u64, cx: &mut Ctx) -> Unit {
    let result = match workload {
        Workload::Compute => compute(seed, cx),
        Workload::RpcStorm => rpc_storm(seed, cx),
        Workload::LoadSoak => load_soak(seed, cx),
        Workload::Sparse250k => sparse(seed, cx),
        Workload::Observe => observe(seed, cx),
        Workload::DebugSession => debug_session(seed, cx),
    };
    result.unwrap_or_else(|why| Unit {
        failures: vec![why],
        ..Unit::default()
    })
}

// ---------------------------------------------------------------------
// compute, rpc-storm, sparse-250k: one program, spawn, drain
// ---------------------------------------------------------------------

/// Builds a debugger-less world with tracing off, spawns `main` with
/// `args(node)` on every node, and drains it.
fn spawn_and_drain(
    seed: u64,
    cx: &mut Ctx,
    nodes: u32,
    source: &str,
    limit: SimTime,
    args: impl Fn(u32) -> Vec<Value>,
) -> Result<(World, Unit), String> {
    let mut unit = Unit::default();
    let setup = Phase::begin(cx.spans, "setup");
    let mut w = span!(
        cx,
        "build",
        World::builder()
            .nodes(nodes)
            .seed(seed)
            .program(source)
            .debugger(false)
            .step_threads(cx.threads)
            .build()
    )
    .map_err(|e| format!("build: {e}"))?;
    w.tracer().set_filter(&[]);
    unit.setup_ns = setup.end(cx.spans);

    let run = Phase::begin(cx.spans, "run");
    for node in 0..nodes {
        span!(cx, "spawn", w.spawn(node, "main", args(node)));
    }
    span!(cx, "drain", w.run_until_idle(limit));
    unit.run_ns = run.end(cx.spans);
    unit.alloc = alloc::read();

    let check = cx.spans.enter("check");
    account(&w, limit, &mut unit);
    unit.work.sync_points = sync_points(cx, &w);
    cx.spans.exit(check);
    Ok((w, unit))
}

fn compute(seed: u64, cx: &mut Ctx) -> Result<Unit, String> {
    let limit = SimTime::from_secs(600);
    let (w, mut unit) = spawn_and_drain(seed, cx, COMPUTE_NODES, COMPUTE_SOURCE, limit, |_| {
        vec![Value::Int(COMPUTE_WORKERS)]
    })?;
    let check = cx.spans.enter("check");
    let mut workers = 0;
    for n in 0..COMPUTE_NODES {
        let node = w.node(n);
        for pid in node.pids() {
            match node.exit_values(pid) {
                Some([Value::Int(610)]) => workers += 1,
                Some([]) => {} // main
                other => unit
                    .failures
                    .push(format!("node {n} {pid:?} exited with {other:?}, not 610")),
            }
        }
    }
    let expected = COMPUTE_NODES as i64 * COMPUTE_WORKERS;
    if workers != expected {
        unit.failures
            .push(format!("{workers} workers returned 610, not {expected}"));
    }
    if unit.work.instr != COMPUTE_INSTR {
        unit.failures.push(format!(
            "{} instructions, not {COMPUTE_INSTR}",
            unit.work.instr
        ));
    }
    unit.model
        .push(("model.compute.sim_us", unit.work.sim_us as i128));
    cx.spans.exit(check);
    span!(cx, "teardown", drop(w));
    Ok(unit)
}

fn rpc_storm(seed: u64, cx: &mut Ctx) -> Result<Unit, String> {
    let limit = SimTime::from_secs(600);
    let (w, mut unit) = spawn_and_drain(seed, cx, STORM_STATIONS, STORM_SOURCE, limit, |node| {
        let opposite = (node + STORM_STATIONS / 2) % STORM_STATIONS;
        vec![Value::Int(STORM_CALLS), Value::Int(opposite as i64)]
    })?;
    let expected = STORM_STATIONS as u64 * STORM_CALLS as u64;
    if unit.work.rpc_completed != expected {
        unit.failures.push(format!(
            "{} RPCs completed, not {expected}",
            unit.work.rpc_completed
        ));
    }
    let mean = w.endpoint(0).stats().mean_latency().as_micros();
    unit.model.push(("model.null_rpc_us", mean as i128));
    span!(cx, "teardown", drop(w));
    Ok(unit)
}

fn sparse(seed: u64, cx: &mut Ctx) -> Result<Unit, String> {
    let limit = SimTime::from_secs(60);
    let (w, mut unit) = spawn_and_drain(seed, cx, SPARSE_NODES, SPARSE_SOURCE, limit, |_| {
        vec![Value::Int(SPARSE_WORKERS)]
    })?;
    let expected = SPARSE_NODES as u64 * (SPARSE_WORKERS as u64 + 1);
    if unit.work.processes != expected {
        unit.failures
            .push(format!("{} processes, not {expected}", unit.work.processes));
    }
    let alive: usize = (0..SPARSE_NODES)
        .map(|n| {
            let (runnable, blocked, halted) = w.node(n).state_counts();
            runnable + blocked + halted
        })
        .sum();
    if alive != 0 {
        unit.failures
            .push(format!("{alive} processes still alive after the drain"));
    }
    unit.model
        .push(("model.sparse.sim_us", unit.work.sim_us as i128));
    span!(cx, "teardown", drop(w));
    Ok(unit)
}

// ---------------------------------------------------------------------
// load-soak and observe: the services stack under open-loop traffic
// ---------------------------------------------------------------------

fn scenario(cx: &mut Ctx, text: &str, seed: u64) -> Result<Scenario, String> {
    let mut sc = span!(cx, "scenario_parse", Scenario::parse(text))?;
    sc.seed = seed;
    Ok(sc)
}

/// `pilgrim_services::run_scenario` taken apart so that build, arrivals
/// and drain can be timed separately. It must stay the same loop: the
/// warm-up unit checks its report against `run_scenario`'s.
fn run_load(sc: &Scenario, cx: &mut Ctx, unit: &mut Unit) -> Result<LoadOutcome, String> {
    let setup = Phase::begin(cx.spans, "setup");
    let mut world = span!(cx, "build_load_world", build_load_world(sc))?;
    world.set_step_threads(cx.threads);
    unit.setup_ns += setup.end(cx.spans);

    let run = Phase::begin(cx.spans, "run");
    let arrivals = cx.spans.enter("arrivals");
    // The generator's seed and the op table are `run_scenario`'s.
    let mut rng = DetRng::seed(sc.seed ^ 0x6f70_656e_2d6c_6f61);
    let gen = OpenLoop::new(&mut rng, sc.rate, sc.clients, sc.mix.clone());
    let traced = cx.spans.on();
    let (mut run_until_ns, mut spawn_ns, mut calls) = (0u64, 0u64, 0u64);
    let mut last_at = SimTime::ZERO;
    for (k, a) in gen.take(sc.arrivals as usize).enumerate() {
        let node = FIRST_CLIENT_NODE + (a.client % sc.client_nodes as u64) as u32;
        let ns = Value::Int(NS_NODE as i64);
        let key = Value::Int((k % 16) as i64);
        let (entry, args) = match a.op.as_str() {
            "lookup" => ("op_lookup", vec![ns]),
            "read" => ("op_read", vec![ns, Value::Int(node as i64), key]),
            "write" => ("op_write", vec![ns, key]),
            "auth" => ("op_auth", vec![Value::Int(AOT_NODE as i64)]),
            other => return Err(format!("mix produced unknown op `{other}`")),
        };
        if traced {
            let t0 = Instant::now();
            world.run_until(a.at);
            let t1 = Instant::now();
            world.spawn(node, entry, args);
            run_until_ns += (t1 - t0).as_nanos() as u64;
            spawn_ns += t1.elapsed().as_nanos() as u64;
            calls += 1;
        } else {
            world.run_until(a.at);
            world.spawn(node, entry, args);
        }
        last_at = a.at;
    }
    cx.spans.summed(&[
        ("run_until", run_until_ns, calls),
        ("spawn", spawn_ns, calls),
    ]);
    cx.spans.exit(arrivals);
    let limit = last_at + sc.aot_lifetime + SimDuration::from_secs(30);
    span!(cx, "drain", world.run_until_idle(limit));
    let out = span!(cx, "finish", outcome_from_world(sc, world));
    unit.run_ns += run.end(cx.spans);
    unit.alloc = alloc::read();

    let check = cx.spans.enter("check");
    account(&out.world, limit, unit);
    unit.work.sync_points = sync_points(cx, &out.world);
    for why in &out.gate_failures {
        unit.failures.push(format!("scenario gate: {why}"));
    }
    cx.spans.exit(check);
    Ok(out)
}

fn load_soak(seed: u64, cx: &mut Ctx) -> Result<Unit, String> {
    let mut unit = Unit::default();
    let setup = Phase::begin(cx.spans, "setup");
    let sc = scenario(cx, SOAK_SCENARIO, seed)?;
    unit.setup_ns = setup.end(cx.spans);
    let out = run_load(&sc, cx, &mut unit)?;

    // Completed RPCs over the offered window, in milli-requests per
    // second: the figure the scenario's own report prints.
    let throughput =
        unit.work.rpc_completed as i128 * 1_000_000_000 / out.offered_window_us as i128;
    unit.model = vec![
        ("model.soak.throughput_mrps", throughput),
        ("model.soak.p99_us", latency_us(&out.world, 0.99) as i128),
        ("model.soak.rpc_failed", unit.work.rpc_failed as i128),
        (
            "model.soak.bridge_lost",
            counter(&out.world, "net.bridge_lost") as i128,
        ),
    ];
    unit.digest
        .push_str(&format!(" report={}", fnv(&out.report)));
    if cx.reference {
        // The product path the taken-apart loop must agree with.
        let reference = span!(cx, "reference_run", run_scenario(&sc))?;
        if reference.report != out.report {
            unit.failures
                .push("the report differs from `run_scenario`'s".into());
        }
    }
    span!(cx, "teardown", drop(out));
    Ok(unit)
}

/// FNV-1a, to carry a long report in a one-line digest.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `partition_1k` with five times the arrivals and every observability
/// surface on: RPC tracing unsampled (the scenario's own setting) and a
/// time-series sample at every sync point.
fn observe_scenario(cx: &mut Ctx, seed: u64) -> Result<Scenario, String> {
    let mut sc = scenario(cx, PARTITION_SCENARIO, seed)?;
    sc.arrivals = OBSERVE_ARRIVALS;
    // `build_load_world` has no switch for the full-resolution store;
    // the coarse store at interval 1 / budget 4096 is the same store
    // with the same shape, and it is the knob scenarios do have.
    sc.coarse_interval = 1;
    sc.coarse_budget = 4096;
    sc.report_window = 32;
    Ok(sc)
}

/// The trace events and the rendered artifact of one `observe` unit, for
/// the analytics probes.
pub fn observe_trace(seed: u64) -> Result<(Vec<pilgrim::TraceEvent>, String), String> {
    let mut spans = Spans::new(false);
    let mut cx = Ctx {
        spans: &mut spans,
        threads: 1,
        detail: false,
        reference: false,
    };
    let sc = observe_scenario(&mut cx, seed)?;
    let out = run_load(&sc, &mut cx, &mut Unit::default())?;
    Ok((out.world.tracer().events(), out.world.record().render()))
}

fn observe(seed: u64, cx: &mut Ctx) -> Result<Unit, String> {
    let mut unit = Unit::default();
    let setup = Phase::begin(cx.spans, "setup");
    let sc = observe_scenario(cx, seed)?;
    unit.setup_ns = setup.end(cx.spans);
    let out = run_load(&sc, cx, &mut unit)?;

    // The rest of the chain is run phase too: it is what a user does
    // with an observed run.
    let chain = Phase::begin(cx.spans, "run");
    let artifact = span!(cx, "record", out.world.record());
    let text = span!(cx, "artifact_render", artifact.render());
    unit.work.artifact_bytes = text.len() as u64;
    let parsed = span!(cx, "artifact_parse", pilgrim::Artifact::parse(&text))
        .map_err(|e| format!("artifact parse: {e}"))?;
    let replayed = span!(cx, "replay", replay_load_artifact(&parsed, 1))
        .map_err(|e| format!("replay: {e}"))?;
    let analysis = span!(
        cx,
        "analyze",
        (
            out.world.critical_path_report(),
            out.world.slowest_report(10)
        )
    );
    let report = span!(cx, "run_report", render_run_report(&sc, &out, 10));
    unit.run_ns += chain.end(cx.spans);
    unit.alloc = alloc::read();

    let check = cx.spans.enter("check");
    if !replayed.byte_identical {
        unit.failures.push(format!(
            "replay is not byte-identical: {:?}",
            replayed.divergence
        ));
    }
    let again = outcome_from_world(&sc, replayed.world);
    if again.report != out.report {
        unit.failures
            .push("the replayed world's report differs from the original".into());
    }
    if render_run_report(&sc, &again, 10) != report {
        unit.failures
            .push("the replayed world's run report differs from the original".into());
    }
    if !report.contains(&analysis.0) || !report.contains(&analysis.1) {
        unit.failures
            .push("the run report does not carry the critical path and slowest spans".into());
    }
    unit.digest
        .push_str(&format!(" artifact={} report={}", fnv(&text), fnv(&report)));
    cx.spans.exit(check);
    span!(cx, "teardown", drop((out, again, parsed, text, report)));
    Ok(unit)
}

// ---------------------------------------------------------------------
// debug-session: the paper's subject
// ---------------------------------------------------------------------

/// One driver call: a span, a request counted, an `Err` counted and
/// turned into a unit failure.
macro_rules! debug_call {
    ($cx:expr, $unit:expr, $name:literal, $call:expr) => {{
        let out = span!($cx, $name, $call);
        $unit.work.debug_requests += 1;
        match out {
            Ok(v) => v,
            Err(e) => {
                $unit.work.debug_errors += 1;
                return Err(format!(
                    "{} failed in cycle {}: {e}",
                    $name, $unit.work.debug_cycles
                ));
            }
        }
    }};
}

fn debug_session(seed: u64, cx: &mut Ctx) -> Result<Unit, String> {
    let mut unit = Unit::default();
    let setup = Phase::begin(cx.spans, "setup");
    let mut w = span!(
        cx,
        "build",
        World::builder()
            .nodes(DEBUG_NODES)
            .seed(seed)
            .program(DEBUG_SOURCE)
            .step_threads(cx.threads)
            .build()
    )
    .map_err(|e| format!("build: {e}"))?;
    w.tracer().set_filter(&[]);
    let cohort: Vec<u32> = (0..DEBUG_NODES).collect();
    debug_call!(cx, unit, "debug_connect", w.debug_connect(&cohort, false));
    unit.setup_ns = setup.end(cx.spans);

    let run = Phase::begin(cx.spans, "run");
    span!(
        cx,
        "spawn",
        w.spawn(0, "client", vec![Value::Int(DEBUG_CLIENT_CALLS)])
    );
    for k in 0..DEBUG_SPINNERS {
        let node = 3 + k % (DEBUG_NODES - 3);
        span!(
            cx,
            "spawn",
            w.spawn(node, "spin", vec![Value::Int(DEBUG_SPIN_ROUNDS)])
        );
    }
    let mut halt_sim_us = 0u64;
    for _ in 0..DEBUG_CYCLES {
        let bp = debug_call!(cx, unit, "break_at_proc", w.break_at_proc(2, "storage"));
        let stop = debug_call!(
            cx,
            unit,
            "wait_for_stop",
            w.wait_for_stop(SimDuration::from_secs(5))
        );
        let DebugEvent::BreakpointHit { node, pid, .. } = stop else {
            return Err(format!("expected a breakpoint hit, got {stop:?}"));
        };
        let chain = debug_call!(
            cx,
            unit,
            "distributed_backtrace",
            w.distributed_backtrace(node.0, pid)
        );
        let nodes: Vec<u32> = chain.iter().map(|f| f.node).collect();
        let deepest = chain.last().map(|f| f.proc_name.as_str());
        if !(nodes.contains(&0) && nodes.contains(&1) && nodes.contains(&2))
            || deepest != Some("storage")
        {
            unit.failures.push(format!(
                "cycle {}: backtrace visits nodes {nodes:?} and ends in {deepest:?}",
                unit.work.debug_cycles
            ));
        }
        let key = debug_call!(cx, unit, "inspect", w.inspect(node.0, pid, "key"));
        if key.parse::<i64>().is_err() {
            unit.failures.push(format!("inspect(key) printed `{key}`"));
        }
        let before = w.now();
        debug_call!(cx, unit, "debug_halt_all", w.debug_halt_all(node.0));
        halt_sim_us += (w.now() - before).as_micros();
        for n in 0..DEBUG_NODES {
            debug_call!(cx, unit, "debug_processes", w.debug_processes(n));
        }
        debug_call!(cx, unit, "step_over", w.step_over(node.0, pid));
        debug_call!(cx, unit, "clear_breakpoint", w.clear_breakpoint(node.0, bp));
        debug_call!(
            cx,
            unit,
            "continue_process",
            w.continue_process(node.0, pid)
        );
        debug_call!(cx, unit, "debug_resume_all", w.debug_resume_all());
        span!(cx, "run_for", w.run_for(SimDuration::from_millis(30)));
        unit.work.debug_cycles += 1;
    }
    let limit = w.now() + SimDuration::from_secs(600);
    span!(cx, "drain", w.run_until_idle(limit));
    unit.run_ns = run.end(cx.spans);
    unit.alloc = alloc::read();

    let check = cx.spans.enter("check");
    account(&w, limit, &mut unit);
    unit.work.sync_points = sync_points(cx, &w);
    unit.model.push((
        "model.debug.halt_latency_us",
        (halt_sim_us / DEBUG_CYCLES as u64) as i128,
    ));
    cx.spans.exit(check);
    span!(cx, "teardown", drop(w));
    Ok(unit)
}
