//! Time-series & flight-recorder determinism gate.
//!
//! The windowed time-series store samples the metrics registry at every
//! lockstep sync point, and the flight recorder keeps a bounded ring of
//! recent events even with full tracing off. Both are only admissible if
//! they are *reproducible*: serial runs, parallel runs (2/4/8 stepping
//! threads), and replays of a recording must all render byte-identical
//! `tsdb` output, causal critical-path reports, and blackbox snapshots.
//! This gate, in the style of `tests/parallel_gate.rs`, enforces exactly
//! that.

use pilgrim::blackbox::BlackboxSnapshot;
use pilgrim::replay::replay;
use pilgrim::{twin_threads, NetworkConfig, SimTime, TraceCategory, Value, World};

const FANOUT_MAIN: &str = "\
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

/// RPC fan-out over a lossy network with the time-series store at full
/// resolution (a sample per sync point): retransmissions move the counters
/// and the latency histogram, so every series family gets sampled history
/// to compare.
fn tsdb_scenario(threads: usize) -> World {
    let net = NetworkConfig {
        p_silent_loss: 0.08,
        ..NetworkConfig::default()
    };
    let mut w = World::builder()
        .nodes(4)
        .program(FANOUT_MAIN)
        .program_for(1, SERVER)
        .program_for(2, SERVER)
        .program_for(3, SERVER)
        .network(net)
        .seed(0x1055)
        .coarse_window(1, 4096)
        .step_threads(threads)
        .build()
        .expect("tsdb scenario builds");
    w.spawn(0, "main", vec![Value::Int(4)]);
    w.run_until_idle(SimTime::from_secs(60));
    w
}

/// Every observability artifact this gate compares across runs.
fn capture_observability(w: &World) -> Vec<(&'static str, String)> {
    vec![
        ("tsdb summary", w.tsdb_summary()),
        ("tsdb net.sent w1", w.tsdb_report("net.sent", 1)),
        ("tsdb net.sent w4", w.tsdb_report("net.sent", 4)),
        ("tsdb rpc.completed w8", w.tsdb_report("rpc.completed", 8)),
        (
            "tsdb rpc.latency_us w16",
            w.tsdb_report("rpc.latency_us", 16),
        ),
        ("tsdb sched gauge", w.tsdb_report("sched.node0.runnable", 4)),
        ("critical path", w.critical_path_report()),
        ("slowest spans", w.slowest_report(5)),
        ("blackbox snapshot", w.blackbox_snapshot("gate").render()),
        ("observability report", w.observability_report()),
    ]
}

#[test]
fn twin_gate_tsdb_and_causal_outputs() {
    let serial = tsdb_scenario(1);
    let reference = capture_observability(&serial);
    let (_, summary) = &reference[0];
    assert!(
        summary.contains("counter net.sent") && summary.contains("histogram rpc.latency_us"),
        "full-resolution store must have sampled every metric family:\n{summary}"
    );
    for threads in twin_threads() {
        let parallel = tsdb_scenario(threads);
        for ((what, want), (_, got)) in reference.iter().zip(capture_observability(&parallel)) {
            assert_eq!(
                *want, got,
                "{what} differs between serial and {threads}-thread runs"
            );
        }
    }
}

#[test]
fn replayed_world_renders_identical_tsdb_output() {
    let live = tsdb_scenario(1);
    let artifact = live.record();
    assert_eq!(
        (
            artifact.recipe.coarse_interval,
            artifact.recipe.coarse_budget
        ),
        (1, 4096),
        "the recipe must carry the store's shape or replays sample differently"
    );
    let report = replay(&artifact).expect("replay succeeds");
    assert!(
        report.byte_identical,
        "replayed trace must be byte-identical"
    );
    for ((what, want), (_, got)) in capture_observability(&live)
        .iter()
        .zip(capture_observability(&report.world))
    {
        assert_eq!(*want, got, "{what} differs between live run and replay");
    }
}

#[test]
fn flight_recorder_captures_with_tracing_off() {
    let net = NetworkConfig {
        p_silent_loss: 0.08,
        ..NetworkConfig::default()
    };
    let mut w = World::builder()
        .nodes(4)
        .program(FANOUT_MAIN)
        .program_for(1, SERVER)
        .program_for(2, SERVER)
        .program_for(3, SERVER)
        .network(net)
        .seed(0x1055)
        .build()
        .expect("scenario builds");
    w.tracer().set_filter(&[]);
    w.spawn(0, "main", vec![Value::Int(4)]);
    w.run_until_idle(SimTime::from_secs(60));
    assert!(
        w.tracer().events().is_empty(),
        "main trace must stay empty with tracing off"
    );
    assert!(
        w.tracer().blackbox_len() > 0,
        "flight recorder must keep capturing with tracing off"
    );
    let snap = w.blackbox_snapshot("gate");
    let events = snap.decode_events().expect("ring decodes");
    assert!(!events.is_empty());
    // The dump is self-describing: it round-trips through its renderer
    // and the always-on store contributed metric windows.
    let text = snap.render();
    let back = BlackboxSnapshot::parse(&text).expect("parses");
    assert_eq!(back.render(), text);
    assert!(
        snap.windows.contains("samples retained"),
        "store summary missing:\n{}",
        snap.windows
    );

    // With the recorder's own mask cleared too, nothing is captured and
    // the program still runs to the same end.
    let mut dark = tsdb_scenario_unrun();
    dark.tracer().set_filter(&[]);
    dark.tracer().set_blackbox_filter(&[]);
    dark.spawn(0, "main", vec![Value::Int(4)]);
    dark.run_until_idle(SimTime::from_secs(60));
    assert_eq!(dark.tracer().blackbox_len(), 0);
    assert_eq!(dark.now(), w.now());
    assert_eq!(
        dark.endpoint(0).stats().completed,
        w.endpoint(0).stats().completed
    );
}

/// There is one store: what a blackbox dump carries is what `tsdb`
/// queries answer from, at whatever shape the world was built with.
#[test]
fn blackbox_windows_are_the_tsdb_summary() {
    let full = tsdb_scenario(1);
    let snap = full.blackbox_snapshot("gate");
    assert_eq!(snap.windows, full.tsdb_summary());
    assert!(
        snap.windows.contains("interval 1 sync points, budget 4096"),
        "{}",
        snap.windows
    );
    assert!(
        snap.series.contains(&full.tsdb_report("net.sent", 1)),
        "the dump's series must be the store's own render"
    );
}

#[test]
fn watch_trip_freezes_a_blackbox_snapshot() {
    let mut w = tsdb_scenario_unrun();
    w.arm_watch("rpc.retransmits > 0").unwrap();
    w.spawn(0, "main", vec![Value::Int(4)]);
    w.run_until_idle(SimTime::from_secs(60));
    assert!(!w.watch_trips().is_empty(), "the watch must trip");
    let last = w.blackbox_last().expect("trip must freeze a snapshot");
    let snap = BlackboxSnapshot::parse(last).expect("snapshot parses");
    assert_eq!(snap.reason, "watch rpc.retransmits > 0");
    assert_eq!(snap.at, w.watch_trips()[0].2.at);
    assert_eq!(snap.sync_index, w.watch_trips()[0].2.sync_index);
    assert!(snap.metrics.contains("counter rpc.retransmits"));
}

/// The tsdb scenario's world, built but not yet driven.
fn tsdb_scenario_unrun() -> World {
    let net = NetworkConfig {
        p_silent_loss: 0.08,
        ..NetworkConfig::default()
    };
    World::builder()
        .nodes(4)
        .program(FANOUT_MAIN)
        .program_for(1, SERVER)
        .program_for(2, SERVER)
        .program_for(3, SERVER)
        .network(net)
        .seed(0x1055)
        .coarse_window(1, 4096)
        .build()
        .expect("tsdb scenario builds")
}

#[test]
fn coarse_store_answers_when_tsdb_is_off() {
    let mut w = World::builder()
        .nodes(2)
        .program(FANOUT_MAIN)
        .program_for(1, SERVER)
        .build()
        .expect("builds");
    // Keep the fan-out on existing nodes only.
    let summary_before = w.tsdb_summary();
    assert!(summary_before.contains("interval 64"), "{summary_before}");
    w.run_until_idle(SimTime::from_secs(1));
    // The coarse store samples every 64th sync point; a short idle run
    // may retain nothing yet, but the store must still answer.
    assert!(w.tsdb_summary().starts_with("tsdb:"));
    assert!(w
        .tsdb_report("no.such.metric", 1)
        .contains("no series named"));
}

/// The blackbox event ring must route events by category: Vm events are
/// excluded by default (they would churn the whole ring), and restoring
/// the strict off path empties it.
#[test]
fn blackbox_ring_excludes_vm_by_default() {
    let w = tsdb_scenario(1);
    let snap = w.blackbox_snapshot("gate");
    let events = snap.decode_events().expect("decodes");
    assert!(!events.is_empty());
    assert!(
        events.iter().all(|e| e.category != TraceCategory::Vm),
        "Vm events must not reach the flight-recorder ring by default"
    );
}
