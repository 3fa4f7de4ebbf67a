//! Gates for the traffic layer: scenario parsing is hostile-input safe,
//! loaded multi-segment worlds are deterministic (twice-run
//! byte-equality of every artifact), partitions scheduled in the
//! recipe actually cut and heal, the recorded artifact replays
//! divergence-free through the services setup installer, and the driver's
//! `set_link_up` journals like any other stimulus.

use pilgrim::{capture, rerun, Artifact, ReplayError, SimTime, Stimulus};
use pilgrim_services::{
    render_run_report, replay_load, run_scenario, setup_installer, Scenario, FS_NODE, NS_NODE,
};

/// A small partitioned star scenario, heavy enough to cross bridges and
/// lose packets, light enough for a unit-test budget. The 2 s cut
/// exceeds the RPC retry ladder (4 × 200 ms), so failures must appear.
const PARTITIONED: &str = r#"
name = "gate"
seed = 97
topology = "star"
segments = 3
client_nodes = 6
clients = 300
arrivals = 300
rate = 60
mix = "lookup:4,read:3,write:2,auth:1"
loss = "1%"
link_jitter = 50us
partition = "at=1s heal=3s link=0:1"
trace = "rpc"
"#;

fn scenario() -> Scenario {
    Scenario::parse(PARTITIONED).expect("gate scenario parses")
}

#[test]
fn scenario_parser_rejects_hostile_files() {
    // The full hostile matrix lives in the services unit tests; this
    // gate spot-checks that errors carry line numbers and that a typo'd
    // gate key can never silently pass CI.
    let err = Scenario::parse("min_rsp = 50").expect_err("typo must not parse");
    assert!(err.contains("line 1"), "{err}");
    assert!(err.contains("unknown key"), "{err}");
    let err = Scenario::parse("rate = 9999999999").expect_err("absurd rate");
    assert!(err.contains("rate"), "{err}");
}

#[test]
fn loaded_run_is_twice_byte_identical() {
    let a = run_scenario(&scenario()).expect("runs");
    let b = run_scenario(&scenario()).expect("runs");
    assert_eq!(a.report, b.report, "reports must be byte-identical");
    let (a, b) = (capture(&a.world), capture(&b.world));
    assert_eq!(a.trace, b.trace, "traces must be byte-identical");
    assert_eq!(a.folded_stacks, b.folded_stacks);
    assert_eq!(
        a.metrics, b.metrics,
        "metrics reports must be byte-identical"
    );
    assert_eq!(
        a.artifact, b.artifact,
        "whole artifacts must be byte-identical"
    );
    assert_eq!(a.watch_trips, b.watch_trips);
}

#[test]
fn partition_cuts_then_heals() {
    let out = run_scenario(&scenario()).expect("runs");
    assert!(out.drained, "world must drain after the heal");
    let m = out.world.metrics();
    let failed = m.counter_value("rpc.failed").unwrap_or(0);
    let completed = m.counter_value("rpc.completed").unwrap_or(0);
    let bridge_lost = m.counter_value("net.bridge_lost").unwrap_or(0);
    assert!(failed > 0, "a 2 s cut must outlast the retry ladder");
    assert!(bridge_lost > 0, "cut packets are bridge losses");
    assert!(
        completed > failed,
        "most traffic (other arms + outside the window) must complete: \
         {completed} completed vs {failed} failed"
    );
}

#[test]
fn recorded_load_artifact_replays_byte_identically() {
    let out = run_scenario(&scenario()).expect("runs");
    let rendered = out.world.record().render();
    // Round-trip through text, as CI does with a file on disk.
    let artifact = Artifact::parse(&rendered).expect("parses back");
    let report = replay_load(&artifact).expect("replays");
    assert!(report.divergence.is_none(), "{:?}", report.divergence);
    assert!(report.byte_identical);
}

/// `rerun` is the build → setup → apply step every tool that re-drives a
/// recording shares. Without an installer a load recording is refused by
/// the setup kinds it names (re-driving it against a world with no
/// servers would be a different run); with the services installer the
/// world it returns is the recorded run, recipe and journal included.
#[test]
fn rerun_needs_the_installer_and_reproduces_the_run_with_it() {
    let out = run_scenario(&scenario()).expect("runs");
    let rendered = out.world.record().render();
    let artifact = Artifact::parse(&rendered).expect("parses back");

    let err = rerun(&artifact, None).expect_err("no installer, no re-run");
    assert!(matches!(err, ReplayError::Format(_)), "{err:?}");
    let text = err.to_string();
    assert!(
        text.contains("nameserver, aotman, ns-register, ns-register, trace-filter"),
        "the refusal must name the setup kinds: {text}"
    );

    let mut installer = setup_installer();
    let world = rerun(&artifact, Some(&mut installer)).expect("re-runs");
    assert_eq!(world.trace_jsonl(), artifact.trace);
    assert_eq!(
        world.record().render(),
        rendered,
        "the re-run world re-records the artifact it was rebuilt from"
    );
}

#[test]
fn set_link_up_journals_and_replays() {
    let run = || {
        let mut sc = scenario();
        sc.partitions.clear(); // drive the cut manually instead
        let mut w = pilgrim_services::build_load_world(&sc).expect("builds");
        w.spawn(
            pilgrim_services::FIRST_CLIENT_NODE,
            "op_lookup",
            vec![pilgrim::Value::Int(NS_NODE as i64)],
        );
        w.run_until(SimTime::from_millis(500));
        w.set_link_up(0, 1, false);
        w.spawn(
            pilgrim_services::FIRST_CLIENT_NODE,
            "op_lookup",
            vec![pilgrim::Value::Int(NS_NODE as i64)],
        );
        w.run_until_idle(SimTime::from_secs(10));
        w.set_link_up(0, 1, true);
        w.run_until_idle(SimTime::from_secs(12));
        w
    };
    let w = run();
    assert!(
        w.journal().iter().any(|s| matches!(
            s,
            Stimulus::SetLinkUp {
                a: 0,
                b: 1,
                up: false
            }
        )),
        "set_link_up must journal"
    );
    let report = replay_load(&w.record()).expect("replays");
    assert!(report.divergence.is_none(), "{:?}", report.divergence);
    assert!(report.byte_identical);

    let w2 = run();
    assert_eq!(
        w.trace_jsonl(),
        w2.trace_jsonl(),
        "forced cuts are deterministic"
    );
}

#[test]
fn gate_floors_fail_the_report() {
    let mut sc = scenario();
    sc.min_rps = Some(1_000_000); // impossible floor
    sc.max_p99_us = Some(1); // impossible ceiling
    let out = run_scenario(&sc).expect("runs");
    assert_eq!(out.gate_failures.len(), 2, "{:?}", out.gate_failures);
    assert!(
        out.report.contains("gate                  FAIL"),
        "{}",
        out.report
    );
    assert!(out.gate_failures[0].contains("below the declared floor"));
    assert!(out.gate_failures[1].contains("exceeds the declared ceiling"));
}

#[test]
fn flat_topology_stays_byte_compatible() {
    // A flat-topology load world must not consume different RNG streams
    // than the pre-topology network did: the services stack on a flat
    // ring is the same scenario PR 4's replay gate pinned. Cheap proxy:
    // two flat runs agree, and the recipe round-trips with the topology
    // fields present.
    let mut sc = scenario();
    sc.topology = pilgrim::Topology::Flat;
    sc.partitions.clear();
    sc.loss = 0.0;
    let a = run_scenario(&sc).expect("runs");
    let b = run_scenario(&sc).expect("runs");
    assert_eq!(a.report, b.report);
    let rendered = a.world.record().render();
    let back = Artifact::parse(&rendered).expect("parses");
    assert_eq!(back.recipe.net.topology, pilgrim::Topology::Flat);
    assert_eq!(back.recipe.net.partitions, vec![]);
    assert_eq!(back.recipe.setup.len(), 5, "services setup is recorded");
}

#[test]
fn servers_share_the_hub_segment() {
    let sc = scenario();
    let out = run_scenario(&sc).expect("runs");
    let net_seg = |n: u32| {
        // Recompute from the recipe's topology: servers must land in one
        // contiguous hub block so a single cut isolates a client arm,
        // never splits the services from each other.
        let stations = out.world.record().recipe.nodes + 1; // + debugger
        sc.topology.segment_of(n, stations)
    };
    assert_eq!(net_seg(NS_NODE), net_seg(FS_NODE));
    assert_eq!(net_seg(NS_NODE), 0, "servers live in the hub");
}

#[test]
fn long_soak_renders_the_same_run_report_twice() {
    // Four times the committed soak: every node carries thousands of
    // exited server and client processes by the end, and the file server's
    // nested calls complete late in that history. The counts are those of
    // the table-scanning `resume_rpc` this run was first recorded with: a
    // completion that reaches any process but the caller moves them.
    let text = include_str!("../scenarios/soak_100k.toml");
    let text = text.replace("arrivals = 20000", "arrivals = 80000");
    let sc = Scenario::parse(&text).expect("soak scenario parses");
    assert_eq!(sc.arrivals, 80_000);
    let report = || {
        let out = run_scenario(&sc).expect("runs");
        assert!(out.gate_failures.is_empty(), "{:?}", out.gate_failures);
        for line in [
            "rpc.started           159804",
            "rpc.completed         159475",
            "rpc.failed            329",
            "drained               true",
        ] {
            assert!(out.report.contains(line), "{line}\n{}", out.report);
        }
        render_run_report(&sc, &out, 5)
    };
    assert_eq!(report(), report());
}
