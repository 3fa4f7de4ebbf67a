//! Record/replay divergence gate.
//!
//! Records the semantics-lock scenario (sleep + cross-node RPC +
//! breakpoint hit/resume, pinned seed), rebuilds a world from the
//! rendered artifact *alone*, and demands the fresh trace be
//! byte-identical to the recorded one. Then corrupts a single recorded
//! event and demands the divergence checker name that event's index,
//! kind, and the exact field that changed — proving the gate can actually
//! fail. A property test repeats the round trip over random seeds,
//! topologies, and stimulus mixes.

use pilgrim::replay::{replay, replay_with, Artifact, ReplayError, ReplayReport};
use pilgrim::{
    DebugEvent, Json, MaybeDiagnosis, NodeId, SimDuration, SimTime, TraceEvent, Value, World,
};
use pilgrim_services::{
    replay_load, setup_installer, AotConfig, AotMan, NameServer, ResourceManager, RmConfig,
    TimeoutStrategy,
};
use pilgrim_sim::check::{check_n, ensure, ensure_eq, int_range, u64_range, zip_cases, Case, Gen};
use pilgrim_sim::DetRng;

mod common;

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

/// The semantics-lock scenario, driven exclusively through recorded APIs.
fn lock_scenario() -> World {
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

/// Replay verifies bytes first and parses nothing when they agree, so
/// `recorded_events` comes from the replayed tracer. Parsing the recorded
/// trace — what the structure-first verifier did — must give the same
/// count, and no divergence.
fn assert_clean(report: &ReplayReport, artifact: &Artifact) {
    assert!(
        report.divergence.is_none(),
        "clean replay diverged:\n{}",
        report.divergence.as_ref().unwrap().report()
    );
    assert!(
        report.byte_identical,
        "traces equal event-wise but not byte-for-byte"
    );
    assert_eq!(
        report.recorded_events,
        TraceEvent::parse_jsonl(&artifact.trace).unwrap().len()
    );
}

#[test]
fn semantics_lock_scenario_replays_byte_identically() {
    let world = lock_scenario();
    let text = world.record().render();
    drop(world); // the replay must work from the artifact text alone

    let artifact = Artifact::parse(&text).expect("rendered artifact parses");
    let report = replay(&artifact).expect("replay runs");
    assert_clean(&report, &artifact);
    assert!(report.recorded_events > 0, "scenario produced no trace");
}

#[test]
fn replayed_world_rerecords_the_same_artifact() {
    // A replayed world goes through the same public recording APIs, so
    // recording it again must reproduce the original artifact exactly.
    let original = lock_scenario().record().render();
    let report = replay(&Artifact::parse(&original).unwrap()).unwrap();
    assert_eq!(report.world.record().render(), original);
}

/// One literal replacement in a rendered artifact, which must hit.
fn rewrite(text: &str, from: &str, to: &str) -> String {
    assert_eq!(text.matches(from).count(), 1, "`{from}` not found once");
    text.replacen(from, to, 1)
}

/// Recordings made while the world had two series stores say `"tsdb":
/// true` for "full resolution", and the oldest carry no `coarse_*` keys
/// at all. Both must keep parsing and replaying, and the one store must
/// take the shape the recorded run answered `tsdb` queries at.
#[test]
fn legacy_tsdb_recipes_replay_at_the_shape_they_ran_at() {
    const SHAPE: &str = "\"coarse_interval\": 64, \"coarse_budget\": 64, ";
    const SAMPLE: &str = "\"trace_sample\": 0, ";
    let fresh = lock_scenario().record().render();
    let armed = rewrite(&fresh, SAMPLE, "\"tsdb\": true, \"trace_sample\": 0, ");
    let armed_shapeless = rewrite(&armed, SHAPE, "");
    let shapeless = rewrite(&fresh, SHAPE, "");
    let unarmed = rewrite(&fresh, SAMPLE, "\"tsdb\": false, \"trace_sample\": 0, ");

    for (text, shape, summary) in [
        (
            &armed_shapeless,
            (1, 4096),
            "interval 1 sync points, budget 4096",
        ),
        (&armed, (1, 4096), "interval 1 sync points, budget 4096"),
        (&shapeless, (64, 64), "interval 64 sync points, budget 64"),
        (&unarmed, (64, 64), "interval 64 sync points, budget 64"),
    ] {
        let artifact = Artifact::parse(text).expect("legacy recipe parses");
        let recipe = &artifact.recipe;
        assert_eq!((recipe.coarse_interval, recipe.coarse_budget), shape);
        let report = replay(&artifact).expect("legacy recipe replays");
        assert_clean(&report, &artifact);
        let got = report.world.tsdb_summary();
        assert!(got.contains(summary), "want `{summary}` in:\n{got}");
        // What is written back is the current form: shape, no `tsdb` key.
        assert!(!report.world.record().render().contains("\"tsdb\""));
    }
}

/// A recipe is outside input. A node count the builder would try to
/// allocate for, or a program for a node the world will not have, is a
/// one-line format error from the parser — never an abort inside
/// `WorldBuilder::build`.
#[test]
fn out_of_range_recipes_are_format_errors() {
    let fresh = lock_scenario().record().render();
    let format_error = |text: &str| match Artifact::parse(text) {
        Err(ReplayError::Format(e)) => {
            assert_eq!(e.lines().count(), 1, "{e}");
            e
        }
        other => panic!("expected a format error, got {other:?}"),
    };
    for nodes in ["0", "1048577", "4000000000"] {
        let e = format_error(&rewrite(
            &fresh,
            "\"nodes\": 2,",
            &format!("\"nodes\": {nodes},"),
        ));
        assert!(e.contains("`nodes`") && e.contains(nodes), "{e}");
    }
    let e = format_error(&rewrite(
        &fresh,
        "{\"node\": 1, \"source\"",
        "{\"node\": 2, \"source\"",
    ));
    assert!(e.contains("node 2") && e.contains("2 nodes"), "{e}");
    // The largest admissible count parses (building it is the caller's
    // choice); the lock scenario's own node 1 entry is then in range.
    let big = rewrite(&fresh, "\"nodes\": 2,", "\"nodes\": 1048576,");
    assert_eq!(Artifact::parse(&big).expect("parses").recipe.nodes, 1 << 20);
}

#[test]
fn mutated_trace_is_reported_with_index_kind_and_field() {
    let artifact = lock_scenario().record();
    let lines: Vec<&str> = artifact.trace.lines().collect();
    let victim = lines
        .iter()
        .position(|l| l.contains("\"ok\": true"))
        .expect("scenario completes at least one call");

    let mut corrupted = artifact.clone();
    corrupted.trace = lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            if i == victim {
                l.replace("\"ok\": true", "\"ok\": false")
            } else {
                (*l).to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";

    let report = replay(&corrupted).expect("replay runs");
    assert!(!report.byte_identical);
    let d = report.divergence.expect("mutation must be detected");
    assert_eq!(d.index, victim, "divergence pinned to the mutated event");
    assert!(
        d.fields.iter().any(|f| f.field == "data.ok"),
        "expected a data.ok field diff, got {:?}",
        d.fields
    );
    let rendered = d.report();
    assert!(
        rendered.contains(&format!("event {victim}")),
        "report names the event index: {rendered}"
    );
    assert!(
        rendered.contains("CallCompleted"),
        "report names the event kind: {rendered}"
    );
}

#[test]
fn truncated_trace_is_reported_as_early_end() {
    let artifact = lock_scenario().record();
    let mut lines: Vec<&str> = artifact.trace.lines().collect();
    let kept = lines.len() - 3;
    lines.truncate(kept);
    let mut corrupted = artifact.clone();
    corrupted.trace = lines.join("\n") + "\n";

    let report = replay(&corrupted).expect("replay runs");
    let d = report.divergence.expect("truncation must be detected");
    assert_eq!(d.index, kept);
    assert!(d.expected.is_none() && d.actual.is_some());
}

/// A recorded trace that says the same thing in different bytes: only
/// the structural differ can tell that nothing diverged.
#[test]
fn whitespace_only_difference_is_not_a_divergence() {
    let artifact = lock_scenario().record();
    let mut respaced = artifact.clone();
    respaced.trace = artifact.trace.replace("\"time_us\": ", "\"time_us\":   ");
    assert_ne!(respaced.trace, artifact.trace);

    let report = replay(&respaced).expect("replay runs");
    assert!(report.divergence.is_none());
    assert!(!report.byte_identical);
    assert_eq!(
        report.recorded_events,
        TraceEvent::parse_jsonl(&artifact.trace).unwrap().len()
    );
}

/// The byte check walks the recording one replayed line at a time, so
/// its edges are where a streamed compare can go wrong: past the last
/// replayed line, inside the last newline, and in the last line's bytes.
#[test]
fn the_streamed_byte_check_holds_at_the_trace_end() {
    let artifact = lock_scenario().record();
    let fresh_events = TraceEvent::parse_jsonl(&artifact.trace).unwrap().len();
    let replayed = |trace: String| {
        let mut edited = artifact.clone();
        edited.trace = trace;
        replay(&edited).expect("replay runs")
    };

    // One line more than the replay produces.
    let last = artifact.trace.lines().last().expect("a non-empty trace");
    let report = replayed(format!("{}{last}\n", artifact.trace));
    assert!(!report.byte_identical, "an extra trailing line matched");
    let d = report.divergence.expect("the extra line is a divergence");
    assert_eq!(d.index, fresh_events);
    assert!(d.expected.is_some() && d.actual.is_none());

    // Every line, but the final newline missing: the same events in
    // other bytes.
    let unterminated = artifact
        .trace
        .strip_suffix('\n')
        .expect("newline-terminated");
    let report = replayed(unterminated.to_string());
    assert!(!report.byte_identical, "a missing final newline matched");
    assert!(report.divergence.is_none());
    assert_eq!(report.recorded_events, fresh_events);

    // One byte of the last line: a digit of its time.
    let at = artifact.trace.len() - last.len() - 1 + "{\"time_us\": ".len();
    let mut bytes = artifact.trace.clone().into_bytes();
    bytes[at] = if bytes[at] == b'9' {
        b'8'
    } else {
        bytes[at] + 1
    };
    let report = replayed(String::from_utf8(bytes).expect("still UTF-8"));
    assert!(!report.byte_identical, "a changed last line matched");
    let d = report.divergence.expect("the changed byte is a divergence");
    assert_eq!(d.index, fresh_events - 1);
    assert!(
        d.fields.iter().any(|f| f.field == "time_us"),
        "{:?}",
        d.fields
    );
}

/// A world that never ran records an empty trace, and its replay is an
/// empty trace too: byte-identical, with nothing to compare.
#[test]
fn an_empty_trace_replays_byte_identically() {
    let w = World::builder()
        .nodes(2)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .build()
        .expect("scenario builds");
    let artifact = w.record();
    assert_eq!(artifact.trace, "");
    let report = replay(&artifact).expect("replay runs");
    assert_clean(&report, &artifact);
    assert_eq!(report.recorded_events, 0);
}

/// A recorded trace with a line that is not an event is a format error
/// naming the line, not a divergence.
#[test]
fn unparsable_recorded_line_is_a_format_error() {
    let artifact = lock_scenario().record();
    let mut lines: Vec<&str> = artifact.trace.lines().collect();
    lines[4] = "{\"time_us\": oops}";
    let mut corrupted = artifact.clone();
    corrupted.trace = lines.join("\n") + "\n";

    match replay(&corrupted) {
        Err(ReplayError::Format(e)) => {
            assert!(e.starts_with("recorded trace: line 5: "), "{e}")
        }
        other => panic!("expected a format error, got {other:?}"),
    }
}

/// A spawn that did not happen (mistyped procedure or node at the REPL)
/// is not part of the session: the artifact must still replay.
#[test]
fn failed_spawn_does_not_poison_replay() {
    let mut w = World::builder()
        .nodes(2)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .build()
        .expect("scenario builds");
    assert!(w.try_spawn(0, "nosuch", vec![]).is_err());
    assert!(w.try_spawn(9, "main", vec![]).is_err());
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(30));
    assert_eq!(w.console(0), vec!["got 42".to_string()]);

    let artifact = Artifact::parse(&w.record().render()).expect("rendered artifact parses");
    let report = replay(&artifact).expect("replay runs despite the failed spawns");
    assert_clean(&report, &artifact);
}

// ---------------------------------------------------------------------
// Property: record -> replay is byte-identical for random worlds.
// ---------------------------------------------------------------------

/// One random scenario: topology size, master seed, loop bound, and
/// whether the debugger connects and halts/resumes mid-run.
#[derive(Debug, Clone)]
struct Scenario {
    nodes: i64,
    seed: u64,
    iters: i64,
    with_debug: bool,
}

struct ScenarioGen;

impl Gen for ScenarioGen {
    type Value = Scenario;
    fn generate(&self, rng: &mut DetRng) -> Case<Scenario> {
        let nodes = int_range(1, 3).generate(rng);
        let seed = u64_range(0, u64::MAX).generate(rng);
        let iters = int_range(1, 6).generate(rng);
        let debug = int_range(0, 1).generate(rng);
        let pair = zip_cases(zip_cases(nodes, seed), zip_cases(iters, debug));
        pair.map(std::rc::Rc::new(
            |((n, s), (i, d)): &((i64, u64), (i64, i64))| Scenario {
                nodes: *n,
                seed: *s,
                iters: *i,
                with_debug: *d == 1,
            },
        ))
    }
}

fn run_scenario(sc: &Scenario) -> World {
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
    let mut b = World::builder()
        .nodes(sc.nodes as u32)
        .seed(sc.seed)
        .program(if sc.nodes >= 2 { remote_main } else { local });
    if sc.nodes >= 2 {
        b = b.program_for(1, NODE1);
    }
    let mut w = b.build().expect("scenario builds");
    if sc.with_debug {
        let all: Vec<u32> = (0..sc.nodes as u32).collect();
        let _ = w.debug_connect(&all, false);
    }
    w.spawn(0, "main", vec![Value::Int(sc.iters)]);
    if sc.with_debug {
        w.run_for(SimDuration::from_millis(3));
        let _ = w.debug_halt_all(0);
        w.run_for(SimDuration::from_millis(5));
        let _ = w.debug_resume_all();
    }
    w.run_until_idle(SimTime::from_secs(30));
    w
}

#[test]
fn prop_record_replay_is_byte_identical() {
    check_n(
        "prop_record_replay_is_byte_identical",
        24,
        &ScenarioGen,
        |sc| {
            let text = run_scenario(sc).record().render();
            let artifact = Artifact::parse(&text).map_err(|e| format!("parse: {e}"))?;
            let report = replay(&artifact).map_err(|e| format!("replay: {e}"))?;
            if let Some(d) = report.divergence {
                return Err(format!("diverged:\n{}", d.report()));
            }
            ensure(report.byte_identical, "trace not byte-identical")?;
            let recorded = TraceEvent::parse_jsonl(&artifact.trace)?;
            ensure_eq(report.recorded_events, recorded.len())
        },
    );
}

// ---------------------------------------------------------------------
// The setup funnel: every change a world takes from outside is journalled,
// noted in the recipe and redone by an installer, or marked so that
// replay refuses it by name.
// ---------------------------------------------------------------------

/// The kinds of a world's recorded setup entries, in order.
fn setup_kinds(w: &World) -> Vec<&str> {
    w.recipe().setup.iter().map(|(k, _)| k.as_str()).collect()
}

/// One recorded setup entry as it appears in the artifact.
fn setup_entry(w: &World, i: usize) -> String {
    let (kind, params) = &w.recipe().setup[i];
    let mut text = format!("{kind} ");
    params.write(&mut text);
    text
}

/// A world changed through the node hatch records (trace and profile
/// tools still read it), but no replay redoes a closure: both the plain
/// and the installer-driven replay refuse it naming the hatch and the
/// node, instead of reporting a divergence some events later.
#[test]
fn a_world_touched_through_the_node_hatch_is_refused_by_name() {
    let mut w = World::builder()
        .nodes(2)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .build()
        .expect("scenario builds");
    w.spawn(0, "main", vec![]);
    w.run_for(SimDuration::from_millis(2));
    w.unrecorded_node(0, |n| n.halt_all());
    w.run_for(SimDuration::from_millis(20));
    w.unrecorded_node(0, |n| n.resume_all());
    w.run_until_idle(SimTime::from_secs(30));
    assert_eq!(w.console(0), vec!["got 42".to_string()]);
    assert_eq!(setup_kinds(&w), ["unrecorded", "unrecorded"]);
    assert_eq!(setup_entry(&w, 0), r#"unrecorded {"node": 0}"#);

    let artifact = Artifact::parse(&w.record().render()).expect("rendered artifact parses");
    for err in [
        replay(&artifact).expect_err("a plain replay refuses the hatch"),
        replay_load(&artifact).expect_err("so does one with an installer"),
    ] {
        assert!(matches!(err, ReplayError::Format(_)), "{err:?}");
        let text = err.to_string();
        assert!(
            text.contains("`unrecorded_node` on node 0"),
            "the refusal must name the hatch and the node: {text}"
        );
    }
}

/// A service installed straight into a hand-built world notes its own
/// setup entry, so the recording replays through the services installer
/// and a plain replay refuses it by the service's name.
#[test]
fn directly_installed_services_replay() {
    let (mut w, aot) = common::build_app();
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(30));
    assert_eq!(aot.stats().refreshes, 3);
    assert_eq!(
        setup_entry(&w, 0),
        r#"aotman {"node": 3, "lifetime_us": 3000000}"#
    );
    assert_eq!(setup_kinds(&w), ["aotman"]);
    let artifact = Artifact::parse(&w.record().render()).expect("rendered artifact parses");
    let report = replay_load(&artifact).expect("replays with the installer");
    assert_clean(&report, &artifact);
    let err = replay(&artifact).expect_err("no installer, no replay");
    assert!(err.to_string().contains("(aotman)"), "{err}");

    // A Resource Manager with non-default settings round-trips them all.
    let client = "\
extern rm_request = proc () returns (int)
extern rm_release = proc (r: int) returns (bool)
main = proc ()
 r: int := call rm_request() at 1
 print(int$unparse(r))
 again: int := call rm_request() at 1
 print(int$unparse(again))
 ok: bool := call rm_release(r) at 1
end";
    let mut w = World::builder()
        .nodes(2)
        .program(client)
        .seed(9)
        .build()
        .expect("builds");
    let rm = ResourceManager::install(
        &mut w,
        1,
        RmConfig {
            lease: SimDuration::from_secs(2),
            strategy: TimeoutStrategy::IgnoreWhileDebugged,
            reclaim_on_contention: false,
            ..Default::default()
        },
    );
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(30));
    assert_eq!(w.console(0), vec!["0", "-1"]);
    assert_eq!(rm.free_count(), 1);
    assert_eq!(
        setup_entry(&w, 0),
        r#"resource-manager {"node": 1, "lease_us": 2000000, "strategy": "ignore-while-debugged", "reclaim_on_contention": false}"#
    );
    let artifact = Artifact::parse(&w.record().render()).expect("rendered artifact parses");
    let report = replay_load(&artifact).expect("replays with the installer");
    assert_clean(&report, &artifact);
    assert_eq!(report.world.recipe().setup, w.recipe().setup);
}

/// An installer must redo exactly what the recording did. One that skips
/// a name registration, or installs AOTMan with another lifetime, is
/// refused naming the entry it drifted on, before any stimulus runs.
#[test]
fn an_installer_that_drifts_from_the_recording_is_refused() {
    let mut w = World::builder()
        .nodes(3)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .build()
        .expect("scenario builds");
    let ns = NameServer::install(&mut w, 2);
    ns.register(&mut w, "pinger", NodeId(1));
    let aot = AotConfig {
        lifetime: SimDuration::from_secs(3),
        ..Default::default()
    };
    AotMan::install(&mut w, 2, aot);
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(30));
    assert_eq!(setup_kinds(&w), ["nameserver", "ns-register", "aotman"]);
    let artifact = Artifact::parse(&w.record().render()).expect("rendered artifact parses");
    assert_clean(
        &replay_load(&artifact).expect("the faithful installer replays"),
        &artifact,
    );

    let mut faithful = setup_installer();
    let mut skips_registration = |w: &mut World, kind: &str, params: &Json| match kind {
        "ns-register" => Ok(()),
        _ => faithful(w, kind, params),
    };
    let err = replay_with(&artifact, Some(&mut skips_registration))
        .expect_err("a skipped registration is refused");
    assert!(matches!(err, ReplayError::Stimulus(_)), "{err:?}");
    let text = err.to_string();
    assert!(
        text.contains("setup entry 1: the recording has `ns-register`"),
        "the refusal must name the entry: {text}"
    );

    let mut faithful = setup_installer();
    let mut shortens_lifetime = |w: &mut World, kind: &str, params: &Json| match kind {
        "aotman" => {
            let aot = AotConfig {
                lifetime: SimDuration::from_secs(1),
                ..Default::default()
            };
            AotMan::install(w, 2, aot);
            Ok(())
        }
        _ => faithful(w, kind, params),
    };
    let err = replay_with(&artifact, Some(&mut shortens_lifetime))
        .expect_err("another lifetime is refused");
    let text = err.to_string();
    assert!(
        text.contains(
            r#"setup entry 2: the recording has `aotman` {"node": 2, "lifetime_us": 3000000}, the installer did `aotman` {"node": 2, "lifetime_us": 1000000}"#
        ),
        "the refusal must name both entries: {text}"
    );
}

/// The post-mortem example's two faults, a lost call and a lost reply,
/// go through the journalled `inject_drop`, so each run replays
/// byte-identically with the diagnosis it reached.
#[test]
fn a_lost_call_and_a_lost_reply_replay() {
    let program = "\
account_update = proc (amount: int) returns (int)
 return (amount + 1)
end

main = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall account_update(100) at 1
 if ~ok then
  print(\"update FAILED\")
 end
 sleep(600000)
end";
    for (src, dst, expected) in [
        (0, 1, MaybeDiagnosis::LostCall),
        (1, 0, MaybeDiagnosis::LostReply),
    ] {
        let mut w = World::builder()
            .nodes(2)
            .program(program)
            .build()
            .expect("builds");
        w.debug_connect(&[0, 1], false).expect("connects");
        w.inject_drop(src, dst, 1);
        w.spawn(0, "main", vec![]);
        w.run_for(SimDuration::from_millis(300));
        assert_eq!(w.console(0), vec!["update FAILED".to_string()]);
        let (call_id, _) = *w.recent_calls(0).expect("recent").last().expect("one call");
        assert_eq!(
            w.diagnose_maybe_failure(1, call_id).expect("diagnoses"),
            expected
        );
        assert!(w.recipe().setup.is_empty());

        let artifact = Artifact::parse(&w.record().render()).expect("rendered artifact parses");
        assert_clean(&replay(&artifact).expect("replays"), &artifact);
    }
}
