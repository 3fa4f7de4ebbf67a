//! Quiescence-aware pump determinism gate.
//!
//! The activity-index pump ([`World`] default) may skip nodes and
//! endpoints with no pending work, but skipping is only admissible while
//! it is invisible: every observable artifact — the JSONL trace, folded
//! flame stacks, the metrics inventory, the record/replay artifact, and
//! watch trips with their sync indices — must be byte-identical to the
//! full-scan reference pump (`World::set_reference_pump`), in both
//! settings of `NodeConfig::freeze_timeouts_on_halt`. These tests
//! pin exactly that, across fixed rich scenarios and random seed ×
//! topology × loss × debugger property cases, and assert the index
//! invariants (`World::debug_validate_index`) across the mutation paths
//! that change a node's schedule: spawns, halts, resumes,
//! `force_runnable`, and the `node_mut` escape hatch.

use pilgrim::{capture, NetworkConfig, NodeConfig, SimDuration, SimTime, Value, World};
use pilgrim_mayflower::Pid;
use pilgrim_sim::check::{check_n, ensure, int_range, u64_range, zip_cases, Case, Gen};
use pilgrim_sim::DetRng;

const FANOUT_MAIN: &str = "\
ping = proc (x: int) returns (int)
 fail(\"servers implement ping\")
end

main = proc (rounds: int)
 total: int := 0
 for i: int := 1 to rounds do
  total := total + call ping(i) at 1
  total := total + call ping(i * 10) at 2
 end
 print(\"total \" || int$unparse(total))
end";

const SERVER: &str = "\
ping = proc (x: int) returns (int)
 print(\"serve \" || int$unparse(x) || \" on \" || int$unparse(my_node()))
 return (x * 2)
end";

/// A sleeper whose deadline falls inside the gates' debugger halts: the
/// halted waiter whose timer the `freeze_timeouts_on_halt` rule governs.
const NAP: &str = "\
nap = proc ()
 sleep(12)
 print(\"napped\")
end";

/// The everything-on scenario, parameterised over the pump
/// implementation: RPC fan-out, profiling, a debugger session with a
/// mid-run halt/resume, and a tripping watchpoint.
fn rich_scenario(reference_pump: bool) -> World {
    let node_cfg = NodeConfig {
        profile_vm: true,
        ..NodeConfig::default()
    };
    let mut w = World::builder()
        .nodes(3)
        .program(FANOUT_MAIN)
        .program_for(1, SERVER)
        .program_for(2, SERVER)
        .node_config(node_cfg)
        .seed(0xda7a)
        .build()
        .expect("rich scenario builds");
    w.set_reference_pump(reference_pump);
    w.debug_connect(&[0, 1, 2], false).unwrap();
    w.arm_watch("rpc.completed > 2").unwrap();
    w.spawn(0, "main", vec![Value::Int(3)]);
    w.run_until_idle(SimTime::from_secs(30));
    let _ = w.debug_halt_all(0);
    w.run_for(SimDuration::from_millis(5));
    let _ = w.debug_resume_all();
    w.run_until_idle(SimTime::from_secs(60));
    w
}

/// Skip-quiescent and full-scan pumps must produce byte-identical
/// artifacts.
#[test]
fn pump_twin_rich_scenario() {
    let skip = capture(&rich_scenario(false));
    let reference = capture(&rich_scenario(true));
    assert_eq!(skip.trace, reference.trace, "trace diverged");
    assert_eq!(skip.folded_stacks, reference.folded_stacks);
    assert_eq!(skip.metrics, reference.metrics);
    assert_eq!(skip.artifact, reference.artifact);
    assert_eq!(skip.watch_trips, reference.watch_trips);
    assert!(
        !skip.watch_trips.is_empty(),
        "scenario must trip its watchpoint or the trip comparison is vacuous"
    );
    assert!(
        skip.folded_stacks.contains("ping"),
        "profiling must capture the remote procedure"
    );
}

/// `sparse-250k`'s shape in small: every node forks a crowd of workers
/// that sleep a node-staggered time and exit.
const SPARSE: &str = "\
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

/// Runs [`SPARSE`] on twelve nodes in 2 ms slices, checking the index
/// between slices: first every station is runnable at once (the index's
/// runnable list, re-keyed every window), then every station is parked
/// on thirty timers (its heap), then they wake node by node.
fn sparse_scenario(reference_pump: bool) -> World {
    const NODES: u32 = 12;
    let mut w = World::builder()
        .nodes(NODES)
        .program(SPARSE)
        .debugger(false)
        .seed(0x5ba45e)
        .build()
        .expect("sparse scenario builds");
    w.set_reference_pump(reference_pump);
    for node in 0..NODES {
        w.spawn(node, "main", vec![Value::Int(30)]);
    }
    let mut seen = (false, false);
    for _ in 0..30 {
        w.run_for(SimDuration::from_millis(2));
        w.debug_validate_index();
        let runnable = (0..NODES)
            .filter(|&n| w.node(n).state_counts().0 > 0)
            .count();
        seen.0 |= runnable == NODES as usize;
        seen.1 |= runnable == 0;
    }
    assert_eq!(
        seen,
        (true, true),
        "slices must catch all stations runnable and all stations parked"
    );
    w.run_until_idle(SimTime::from_secs(5));
    w.debug_validate_index();
    for node in 0..NODES {
        assert_eq!(w.node(node).pids().len(), 31, "node {node} forked 30");
        assert_eq!(
            w.node(node).state_counts(),
            (0, 0, 0),
            "node {node} drained"
        );
    }
    w
}

/// Many simultaneously runnable stations, then many parked ones: the two
/// containers of the activity index, byte-identical to the full scan.
#[test]
fn pump_twin_sparse_scenario() {
    let skip = capture(&sparse_scenario(false));
    let reference = capture(&sparse_scenario(true));
    assert_eq!(skip.trace, reference.trace, "trace diverged");
    assert_eq!(skip.metrics, reference.metrics);
    assert_eq!(skip.artifact, reference.artifact);
}

/// A spawn onto a node with nothing else to do leaves a `ProcCreated`
/// outcall behind; the skip pump must still step that node next window so
/// the agent sees the birth — and the process must actually run.
#[test]
fn spawn_on_quiescent_node_is_not_skipped() {
    let mut w = World::builder()
        .nodes(3)
        .program("main = proc ()\n print(\"ran \" || int$unparse(my_node()))\nend")
        .seed(7)
        .build()
        .unwrap();
    // Let the world go fully idle first, so node 2's only claim to a step
    // is the pending spawn itself.
    w.run_until_idle(SimTime::from_secs(1));
    w.spawn(2, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(2));
    assert_eq!(w.console(2), vec!["ran 2".to_string()]);
    w.debug_validate_index();
}

/// After every public run call, skipped nodes' clocks must have settled
/// to the world clock — digests and reports read them directly.
#[test]
fn clocks_settle_after_every_run_call() {
    let mut w = World::builder()
        .nodes(4)
        .program(FANOUT_MAIN)
        .program_for(1, SERVER)
        .program_for(2, SERVER)
        .seed(11)
        .build()
        .unwrap();
    w.spawn(0, "main", vec![Value::Int(2)]);
    w.run_for(SimDuration::from_millis(7));
    for i in 0..4 {
        assert_eq!(w.node(i).clock(), w.now(), "node {i} clock lagged");
    }
    w.run_until_idle(SimTime::from_secs(30));
    for i in 0..4 {
        assert_eq!(w.node(i).clock(), w.now(), "node {i} clock lagged at idle");
    }
    w.debug_validate_index();
}

/// The index survives every schedule-changing mutation path: debugger
/// halts and resumes, `force_runnable`, and arbitrary churn through the
/// `node_mut` escape hatch (which invalidates and forces a rebuild).
#[test]
fn index_stays_valid_through_debug_churn() {
    let mut w = World::builder()
        .nodes(3)
        .program(FANOUT_MAIN)
        .program_for(1, SERVER)
        .program_for(2, SERVER)
        .seed(0xc4)
        .build()
        .unwrap();
    w.debug_connect(&[0, 1, 2], false).unwrap();
    w.spawn(0, "main", vec![Value::Int(4)]);
    w.run_for(SimDuration::from_millis(4));
    w.debug_validate_index();
    let _ = w.debug_halt_all(0);
    w.debug_validate_index();
    w.run_for(SimDuration::from_millis(5));
    w.debug_validate_index();
    let _ = w.debug_resume_all();
    w.debug_validate_index();
    // Unjournalled churn: halt a process behind the debugger's back
    // through the marked hatch, pump, and demand the index it refreshed
    // agrees with reality again.
    w.unrecorded_node(0, |n| n.halt_all());
    w.debug_validate_index();
    w.run_for(SimDuration::from_millis(2));
    w.debug_validate_index();
    w.unrecorded_node(0, |n| {
        n.resume_all();
        n.force_runnable(Pid(1));
    });
    w.debug_validate_index();
    w.run_for(SimDuration::from_millis(2));
    w.debug_validate_index();
    w.run_until_idle(SimTime::from_secs(30));
    w.debug_validate_index();
}

/// The E4 ablation (`freeze_timeouts_on_halt = false`) burns halted
/// processes' timeouts. The activity index must see those deadlines —
/// a napper's 12 ms sleep expires mid-halt here — so the production
/// pump drives this mode too, byte-identical to the reference scan.
#[test]
fn unfrozen_timeout_mode_matches_reference() {
    let scenario = |reference: bool| {
        let cfg = NodeConfig {
            freeze_timeouts_on_halt: false,
            ..NodeConfig::default()
        };
        let mut w = World::builder()
            .nodes(2)
            .program(&format!("{FANOUT_MAIN}\n\n{NAP}"))
            .program_for(1, SERVER)
            .node_config(cfg)
            .seed(0xe4)
            .build()
            .unwrap();
        w.set_reference_pump(reference);
        w.debug_connect(&[0, 1], false).unwrap();
        w.spawn(0, "main", vec![Value::Int(2)]);
        w.spawn(0, "nap", vec![]);
        w.run_for(SimDuration::from_millis(3));
        let _ = w.debug_halt_all(0);
        w.debug_validate_index();
        w.run_for(SimDuration::from_millis(10));
        w.debug_validate_index();
        let _ = w.debug_resume_all();
        w.debug_validate_index();
        w.run_until_idle(SimTime::from_secs(30));
        assert!(w.console(0).contains(&"napped".to_string()));
        w
    };
    let implicit = capture(&scenario(false));
    let explicit = capture(&scenario(true));
    assert_eq!(implicit.trace, explicit.trace);
    assert_eq!(implicit.artifact, explicit.artifact);
}

// ---------------------------------------------------------------------
// Property: the two pumps agree for random scenarios.
// ---------------------------------------------------------------------

/// One random scenario: topology size, master seed, work amount, packet
/// loss, whether a debugger halts mid-run, and whether that halt freezes
/// timeouts (false = the E4 ablation).
#[derive(Debug, Clone)]
struct Scenario {
    nodes: i64,
    seed: u64,
    iters: i64,
    lossy: bool,
    with_debug: bool,
    freeze: bool,
}

struct ScenarioGen;

/// The zipped tuple shape [`ScenarioGen`] assembles before mapping into a
/// [`Scenario`].
type RawScenario = ((i64, u64), (i64, (i64, (i64, i64))));

impl Gen for ScenarioGen {
    type Value = Scenario;
    fn generate(&self, rng: &mut DetRng) -> Case<Scenario> {
        let nodes = int_range(1, 4).generate(rng);
        let seed = u64_range(0, u64::MAX).generate(rng);
        let iters = int_range(1, 5).generate(rng);
        let lossy = int_range(0, 1).generate(rng);
        let debug = int_range(0, 1).generate(rng);
        let freeze = int_range(0, 1).generate(rng);
        let pair = zip_cases(
            zip_cases(nodes, seed),
            zip_cases(iters, zip_cases(lossy, zip_cases(debug, freeze))),
        );
        pair.map(std::rc::Rc::new(
            |((n, s), (i, (l, (d, f)))): &RawScenario| Scenario {
                nodes: *n,
                seed: *s,
                iters: *i,
                lossy: *l == 1,
                with_debug: *d == 1,
                freeze: *f == 1,
            },
        ))
    }
}

fn run_scenario(sc: &Scenario, reference_pump: bool) -> World {
    let local = "\
main = proc (n: int)
 total: int := 0
 for i: int := 1 to n do
  total := total + i
 end
 print(int$unparse(total))
end";
    let remote_main = "\
ping = proc (x: int) returns (int)
 fail(\"only node 1 implements ping\")
end

main = proc (n: int)
 r: int := call ping(n) at 1
 print(int$unparse(r))
end";
    let main = if sc.nodes >= 2 { remote_main } else { local };
    let mut b = World::builder()
        .nodes(sc.nodes as u32)
        .seed(sc.seed)
        .node_config(NodeConfig {
            freeze_timeouts_on_halt: sc.freeze,
            ..NodeConfig::default()
        })
        .program(&format!("{main}\n\n{NAP}"));
    if sc.nodes >= 2 {
        b = b.program_for(1, SERVER);
    }
    if sc.lossy {
        b = b.network(NetworkConfig {
            p_silent_loss: 0.05,
            ..NetworkConfig::default()
        });
    }
    let mut w = b.build().expect("scenario builds");
    w.set_reference_pump(reference_pump);
    if sc.with_debug {
        let all: Vec<u32> = (0..sc.nodes as u32).collect();
        let _ = w.debug_connect(&all, false);
    }
    w.spawn(0, "main", vec![Value::Int(sc.iters)]);
    w.spawn(0, "nap", vec![]);
    if sc.with_debug {
        w.run_for(SimDuration::from_millis(3));
        let _ = w.debug_halt_all(0);
        w.run_for(SimDuration::from_millis(5));
        let _ = w.debug_resume_all();
    }
    w.run_until_idle(SimTime::from_secs(30));
    w.debug_validate_index();
    w
}

#[test]
fn prop_skip_pump_matches_reference() {
    check_n("prop_skip_pump_matches_reference", 20, &ScenarioGen, |sc| {
        let skip = capture(&run_scenario(sc, false));
        let reference = capture(&run_scenario(sc, true));
        ensure(skip.trace == reference.trace, "trace diverged")?;
        ensure(
            skip.folded_stacks == reference.folded_stacks,
            "folded stacks diverged",
        )?;
        ensure(skip.metrics == reference.metrics, "metrics diverged")?;
        ensure(skip.artifact == reference.artifact, "artifact diverged")?;
        ensure(
            skip.watch_trips == reference.watch_trips,
            "watch trips diverged",
        )
    });
}
