//! Record/replay divergence gate.
//!
//! Records the semantics-lock scenario (sleep + cross-node RPC +
//! breakpoint hit/resume, pinned seed), rebuilds a world from the
//! rendered artifact *alone*, and demands every fresh event's JSON line
//! have its recorded digest. Then corrupts a single recorded digest and
//! demands the divergence checker name that event's index and replayed
//! kind — proving the gate can actually fail. A property test repeats
//! the round trip over random seeds, topologies, and stimulus mixes.

use pilgrim::replay::{replay, replay_with, Artifact, ReplayError, ReplayReport, VERSION};
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

/// No divergence, one recorded digest per replayed event, and the
/// replayed world's own digests are the recorded ones.
fn assert_clean(report: &ReplayReport, artifact: &Artifact) {
    assert!(
        report.divergence.is_none(),
        "clean replay diverged:\n{}",
        report.divergence.as_ref().unwrap().report()
    );
    assert!(report.byte_identical);
    assert_eq!(report.recorded_events, artifact.digests.len());
    assert!(report.world.tracer().digests() == artifact.digests);
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

/// The series store's shape is recipe-carried, so it is required: a
/// recording without `coarse_interval` or `coarse_budget` is refused by
/// the first key it lacks, never replayed at a default shape. Recordings
/// made while the world had two series stores said `"tsdb": true` for
/// "full resolution"; they predate version 3, and are refused by version.
#[test]
fn a_recipe_without_its_tsdb_shape_is_refused() {
    const SHAPE: &str = "\"coarse_interval\": 64, \"coarse_budget\": 64, ";
    const SAMPLE: &str = "\"trace_sample\": 0, ";
    let fresh = lock_scenario().record().render();
    let version = format!("\"version\": {VERSION}");
    let refused = |text: &str, want: &str| match Artifact::parse(text) {
        Err(ReplayError::Format(e)) => assert_eq!(e, want),
        other => panic!("expected `{want}`, got {other:?}"),
    };
    refused(
        &rewrite(&fresh, SHAPE, ""),
        "recipe: missing `coarse_interval`",
    );
    refused(
        &rewrite(&fresh, "\"coarse_budget\": 64, ", ""),
        "recipe: missing `coarse_budget`",
    );
    let armed = rewrite(&fresh, SAMPLE, "\"tsdb\": true, \"trace_sample\": 0, ");
    for old in [&armed, &rewrite(&armed, SHAPE, "")] {
        refused(
            &rewrite(old, &version, "\"version\": 2"),
            &format!("unsupported pilgrim-replay version 2 (expected {VERSION})"),
        );
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

/// A recording with its digest at `victim` changed.
fn with_digest_changed(artifact: &Artifact, victim: usize) -> Artifact {
    let mut corrupted = artifact.clone();
    corrupted.digests[victim] ^= 1;
    corrupted
}

#[test]
fn mutated_digest_is_reported_with_index_and_kind() {
    let artifact = lock_scenario().record();
    let events = lock_scenario().tracer().events();
    let victim = events
        .iter()
        .position(|ev| ev.kind.name() == "CallCompleted")
        .expect("scenario completes at least one call");

    let report = replay(&with_digest_changed(&artifact, victim)).expect("replay runs");
    assert!(!report.byte_identical);
    let d = report.divergence.expect("mutation must be detected");
    assert_eq!(d.index, victim, "divergence pinned to the mutated event");
    assert_eq!(d.recorded, Some(artifact.digests[victim] ^ 1));
    assert_eq!(d.replayed.as_ref(), Some(&events[victim]));
    // The call's span, up to the completion: what led to it.
    let span = events[victim].span.expect("a call carries its span");
    let earlier: Vec<&TraceEvent> = events[..victim]
        .iter()
        .filter(|ev| ev.span == Some(span))
        .collect();
    assert!(!earlier.is_empty() && d.earlier_in_span.iter().eq(earlier));
    let rendered = d.report();
    assert!(
        rendered.starts_with(&format!("trace divergence at event {victim}: ")),
        "report names the event index: {rendered}"
    );
    assert!(
        rendered.contains(&format!(
            "recorded digest {:016x}",
            artifact.digests[victim] ^ 1
        )),
        "report shows the recorded digest: {rendered}"
    );
    assert!(
        rendered.contains("replayed kind CallCompleted"),
        "report names the event kind: {rendered}"
    );
    assert!(
        rendered.contains(&format!("  earlier in span {}:\n", span.get())),
        "report shows the span's history: {rendered}"
    );
}

#[test]
fn truncated_trace_is_reported_as_early_end() {
    let artifact = lock_scenario().record();
    let kept = artifact.digests.len() - 3;
    let mut corrupted = artifact.clone();
    corrupted.digests.truncate(kept);

    let report = replay(&corrupted).expect("replay runs");
    let d = report.divergence.expect("truncation must be detected");
    assert_eq!(d.index, kept);
    assert!(d.recorded.is_none() && d.replayed.is_some());
    assert!(
        d.report().contains("the recording ended early"),
        "{}",
        d.report()
    );
}

/// The edges of the digest compare: one digest past the replay's last
/// event is a late end, and a changed last digest is pinned to the last
/// event.
#[test]
fn the_digest_check_holds_at_the_trace_end() {
    let artifact = lock_scenario().record();
    let len = artifact.digests.len();

    let mut longer = artifact.clone();
    longer.digests.push(artifact.digests[len - 1]);
    let report = replay(&longer).expect("replay runs");
    assert!(!report.byte_identical, "an extra digest matched");
    let d = report.divergence.expect("the extra digest is a divergence");
    assert_eq!(d.index, len);
    assert!(d.recorded.is_some() && d.replayed.is_none());
    assert!(
        d.report().contains("the replay ended early"),
        "{}",
        d.report()
    );

    let report = replay(&with_digest_changed(&artifact, len - 1)).expect("replay runs");
    assert!(!report.byte_identical, "a changed last digest matched");
    let d = report
        .divergence
        .expect("the changed digest is a divergence");
    assert_eq!(d.index, len - 1);
}

/// A world that never ran records an empty trace, a recording with no
/// digest lines, and its replay is an empty trace too: clean, with
/// nothing to compare.
#[test]
fn an_empty_trace_replays_byte_identically() {
    let w = World::builder()
        .nodes(2)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .build()
        .expect("scenario builds");
    let text = w.record().render();
    assert_eq!(text.lines().count(), 1, "a header and no digest lines");
    let artifact = Artifact::parse(&text).expect("parses");
    assert!(artifact.digests.is_empty());
    let report = replay(&artifact).expect("replay runs");
    assert_clean(&report, &artifact);
    assert_eq!(report.recorded_events, 0);
}

/// A recording with a line that is not a digest is a format error
/// naming the line, not a divergence.
#[test]
fn unparsable_recorded_line_is_a_format_error() {
    let text = lock_scenario().record().render();
    let mut lines: Vec<&str> = text.lines().collect();
    lines[5] = "0123456789abcdeX";
    match Artifact::parse(&(lines.join("\n") + "\n")) {
        Err(ReplayError::Format(e)) => assert_eq!(
            e,
            "recording: line 6: not 16 lowercase hex digits and a newline (the digest of event 4)"
        ),
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
            ensure_eq(report.recorded_events, artifact.digests.len())?;
            ensure(
                report.world.tracer().digests() == artifact.digests,
                "the replayed world's digests are not the recorded ones",
            )
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
