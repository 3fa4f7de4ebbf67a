//! The `pilgrim` command's contract, driven in-process through
//! `pilgrim_services::tool::run`: exit status 0 ok · 1 divergence, gate
//! failure or selftest failure · 2 usage error, unreadable or malformed
//! input with exactly one line on stderr — for every subcommand, and for
//! the recorded load artifacts that no front-end could re-run before the
//! tool linked the services installers.

use std::path::PathBuf;

use pilgrim::{rerun, Artifact};
use pilgrim_services::setup_installer;
use pilgrim_services::tool::{check_format, run};

/// A small bridged load scenario with a gate it passes.
const SCENARIO: &str = r#"
name = "tool-gate"
seed = 7
topology = "ring-of-rings"
segments = 2
client_nodes = 4
clients = 16
arrivals = 40
rate = 200
trace = "rpc"
min_rps = 1
"#;

/// Runs one command line; returns (status, stdout, stderr).
fn pilgrim(args: &[&str]) -> (u8, String, String) {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let status = run(&args, &mut out, &mut err);
    let text = |bytes| String::from_utf8(bytes).expect("the tool writes UTF-8");
    (status, text(out), text(err))
}

/// A scratch directory of this test's own (tests run in parallel).
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("pilgrim-tool-gate-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("UTF-8 path").to_string()
    }

    fn write(&self, name: &str, text: &str) -> String {
        let path = self.path(name);
        std::fs::write(&path, text).expect("scratch write");
        path
    }

    /// Runs [`SCENARIO`] through `pilgrim load --record`; returns the
    /// artifact's path and text.
    fn recorded_load(&self) -> (String, String) {
        let scenario = self.write("scenario.toml", SCENARIO);
        let art = self.path("art.json");
        let (status, out, err) = pilgrim(&["load", &scenario, "--record", &art, "--verify-replay"]);
        assert_eq!(status, 0, "{out}{err}");
        assert!(out.contains("gate                  PASS"), "{out}");
        assert!(out.contains("replay: byte-identical"), "{out}");
        let text = std::fs::read_to_string(&art).expect("artifact written");
        (art, text)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn bad_input_is_status_2_with_one_stderr_line_and_no_stdout() {
    let dir = Scratch::new("bad-input");
    let (art, text) = dir.recorded_load();
    let dump = rerun(
        &Artifact::parse(&text).expect("parses"),
        Some(&mut setup_installer()),
    )
    .expect("re-runs")
    .blackbox_snapshot("test")
    .render();
    let huge = text.replacen("\"nodes\": 7", "\"nodes\": 4000000000", 1);
    assert_ne!(huge, text, "the artifact's node count was not rewritten");
    // A mistyped `setup` once read as "no setup": a re-run without the
    // servers, reported as a divergence at event 0.
    let mistyped_setup = text.replacen("\"setup\": [", "\"setup\": \"oops\", \"was\": [", 1);
    assert_ne!(
        mistyped_setup, text,
        "the artifact's setup was not rewritten"
    );

    let mut inputs = vec![
        (dir.path("missing.json"), "cannot read"),
        (dir.write("garbage.json", "not json"), "not JSON"),
        (
            dir.write("foreign.json", "{\"format\": \"weird\", \"version\": 1}"),
            "unknown format tag `weird` (expected `pilgrim-replay` or `pilgrim-blackbox`)",
        ),
        (
            dir.write("deep.json", &"[".repeat(100_000)),
            "nesting deeper than",
        ),
        (dir.write("huge.json", &huge), "`nodes` is 4000000000"),
        (
            dir.write("setup.json", &mistyped_setup),
            "recipe: `setup` out of range",
        ),
    ];
    // A journal naming a station its recipe does not have: 7 nodes and
    // the debugger's station make the ids 0..=7. Each of these used to
    // reach an index or an assert inside the network.
    let hostile_ops = [
        r#"{"op": "set_node_up", "node": 8, "up": false}"#,
        r#"{"op": "connect", "nodes": [0, 4000000000], "force": true}"#,
        r#"{"op": "request", "node": 4000000000, "req": {"type": "Ping"}}"#,
        r#"{"op": "diagnose", "node": 4000000000, "call_id": 1}"#,
        r#"{"op": "halt_all", "origin": 4000000000}"#,
    ];
    let journal_starting = |name: &str, op: &str| {
        let doc = text.replacen("\"stimuli\": [", &format!("\"stimuli\": [{op}, "), 1);
        assert_ne!(doc, text, "the journal was not rewritten");
        dir.write(name, &doc)
    };
    for (i, op) in hostile_ops.iter().enumerate() {
        inputs.push((
            journal_starting(&format!("hostile{i}.json"), op),
            "in a world of 8 stations",
        ));
    }
    let dump = dir.write("dump.json", &dump);
    let mut rows: Vec<(Vec<&str>, &str)> = Vec::new();
    for (path, needle) in &inputs {
        for cmd in ["replay", "prof", "trace"] {
            rows.push((vec![cmd, path], needle));
        }
    }
    rows.push((vec!["replay", &dump], "recording is required"));
    rows.push((vec!["prof", &dump], "recording is required"));
    rows.push((vec!["trace", &art, "--tsdb"], "dump is required"));
    for (args, needle) in rows {
        let (status, out, err) = pilgrim(&args);
        assert_eq!(status, 2, "{args:?}: {out}{err}");
        assert_eq!(out, "", "{args:?} wrote to stdout");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(
            err.starts_with("pilgrim: ") && err.contains(needle),
            "{args:?}: {err}"
        );
    }
    // The dump is fine where a dump will do.
    let (status, out, err) = pilgrim(&["trace", &dump]);
    assert_eq!((status, err.as_str()), (0, ""), "{out}");
    // So is the debugger's own station: the live call accepts it.
    let station7 = journal_starting(
        "station7.json",
        r#"{"op": "set_node_up", "node": 7, "up": false}"#,
    );
    let (status, out, err) = pilgrim(&["replay", &station7]);
    assert_eq!((status, err.as_str()), (0, ""), "{out}");
    // The journal lets any `drop_next` count and any `set_link_up` pair
    // through, so the network takes them: two maximal drops on a pair
    // nobody sends on add up without overflowing, and a pair that is no
    // bridge of the topology changes nothing.
    let drop = r#"{"op": "drop_next", "src": 7, "dst": 7, "count": 4294967295}"#;
    let lenient_ops = [
        format!("{drop}, {drop}"),
        r#"{"op": "set_link_up", "a": 7, "b": 4000000000, "up": false}"#.to_string(),
    ];
    for (i, ops) in lenient_ops.iter().enumerate() {
        let path = journal_starting(&format!("lenient{i}.json"), ops);
        let (status, out, err) = pilgrim(&["replay", &path]);
        assert_eq!((status, err.as_str()), (0, ""), "{ops}: {out}");
    }
}

#[test]
fn recorded_load_artifact_replays_profiles_and_traces_from_disk() {
    let dir = Scratch::new("load-artifact");
    let (art, text) = dir.recorded_load();

    let (status, out, err) = pilgrim(&["replay", &art]);
    assert_eq!((status, err.as_str()), (0, ""), "{out}");
    assert!(
        out.contains("replayed identically (byte-for-byte)"),
        "{out}"
    );

    let (status, folded, err) = pilgrim(&["prof", &art]);
    assert_eq!((status, err.as_str()), (0, ""), "{folded}");
    check_format(&folded).expect("folded stacks");
    // What it printed is the profile of the recorded run, not of some
    // other run: the instrumented re-run reproduces the recorded trace.
    let mut artifact = Artifact::parse(&text).expect("parses");
    artifact.recipe.node_cfg.profile_vm = true;
    let world = rerun(&artifact, Some(&mut setup_installer())).expect("re-runs");
    assert_eq!(world.trace_jsonl(), artifact.trace);
    assert_eq!(world.folded_stacks(), folded);

    let (status, out, err) = pilgrim(&["trace", &art]);
    assert_eq!((status, err.as_str()), (0, ""), "{out}");
    assert!(out.contains(" spans\ncritical path:\n"), "{out}");
    assert!(out.contains("\nslowest 5 of "), "{out}");
    let (status, out, _) = pilgrim(&["trace", &art, "--slow", "2"]);
    assert!(status == 0 && out.contains("\nslowest 2 of "), "{out}");
}

#[test]
fn mutated_trace_line_is_status_1_pinned_to_that_event() {
    let dir = Scratch::new("mutated");
    let (_, text) = dir.recorded_load();
    let mut artifact = Artifact::parse(&text).expect("parses");
    let mut lines: Vec<String> = artifact.trace.lines().map(str::to_string).collect();
    let victim = lines.len() / 2;
    lines[victim] = lines[victim].replacen("\"time_us\": ", "\"time_us\": 9", 1);
    artifact.trace = lines.join("\n") + "\n";
    let mutated = dir.write("mutated.json", &artifact.render());

    let (status, out, err) = pilgrim(&["replay", &mutated]);
    assert_eq!(status, 1, "{out}{err}");
    assert!(!out.contains("OK:"), "{out}");
    assert!(err.starts_with("DIVERGENCE after "), "{err}");
    assert!(
        err.contains(&format!("trace divergence at event {victim}:")),
        "{err}"
    );
}

#[test]
fn a_failing_gate_is_status_1_and_no_option_waives_it() {
    let dir = Scratch::new("gate");
    let failing = dir.write(
        "failing.toml",
        &SCENARIO.replace("min_rps = 1", "min_rps = 1000000"),
    );
    let dump = dir.path("blackbox.json");
    let (status, out, err) = pilgrim(&["load", &failing, "--blackbox", &dump]);
    assert_eq!(status, 1, "{out}{err}");
    assert!(out.contains("gate                  FAIL"), "{out}");
    assert!(err.contains("pilgrim load: gate: "), "{err}");
    let (status, _, err) = pilgrim(&["trace", &dump, "--tsdb"]);
    assert_eq!(
        (status, err.as_str()),
        (0, ""),
        "the gate failure dumped the flight recorder"
    );

    let (status, out, err) = pilgrim(&["load", &failing, "--no-gate"]);
    assert_eq!((status, out.as_str()), (2, ""), "{err}");
    assert_eq!(err, "pilgrim: unknown argument `--no-gate`\n");
}

/// A bridge jitter of `u64::MAX` µs, from a scenario or from a recording's
/// recipe, reaches the network's jitter draw, which used to overflow
/// (`below(jitter + 1)`): a panic, status 101. The draw saturates, so the
/// load cannot drain and fails its gate, and the re-run cannot match the
/// recording and diverges: status 1 both.
#[test]
fn a_maximal_bridge_jitter_is_status_1_not_a_panic() {
    let dir = Scratch::new("jitter");
    let max = u64::MAX;
    let scenario = dir.write("jitter.toml", &format!("{SCENARIO}link_jitter = {max}us\n"));
    let (status, out, err) = pilgrim(&["load", &scenario]);
    assert_eq!(status, 1, "{out}{err}");
    assert!(out.contains("gate                  FAIL"), "{out}");

    let (_, text) = dir.recorded_load();
    let hostile = text.replacen("\"jitter_us\": 0", &format!("\"jitter_us\": {max}"), 1);
    assert_ne!(hostile, text, "the recipe's jitter was not rewritten");
    let (status, out, err) = pilgrim(&["replay", &dir.write("jitter.json", &hostile)]);
    assert_eq!(status, 1, "{out}{err}");
    assert!(err.starts_with("DIVERGENCE after "), "{err}");
}

#[test]
fn usage_errors_are_status_2_and_help_is_status_0_on_stdout() {
    for help in [vec!["--help"], vec!["-h"], vec!["trace", "--help"]] {
        let (status, out, err) = pilgrim(&help);
        assert_eq!((status, err.as_str()), (0, ""), "{help:?}");
        assert!(out.starts_with("usage: pilgrim <command>\n"), "{out}");
        for cmd in ["replay", "prof", "trace", "load", "selftest"] {
            assert!(
                out.contains(&format!("\n  {cmd} ")),
                "usage omits {cmd}:\n{out}"
            );
        }
    }

    let dir = Scratch::new("usage");
    let (art, _) = dir.recorded_load();
    let usage_errors: [&[&str]; 10] = [
        &[],
        &["frobnicate"],
        &["--selftest"],
        &["replay"],
        &["replay", "--selftest"],
        &["prof", &art, &art],
        &["trace", &art, "--slow", "0"],
        &["trace", &art, "--slow"],
        &["trace", &art, "--span", "x"],
        &["load", "scenarios/partition_1k.toml", "--threads", "2"],
    ];
    for args in usage_errors {
        let (status, out, err) = pilgrim(args);
        assert_eq!((status, out.as_str()), (2, ""), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    }
    // Nodes step on one thread: `load` has no thread count to take, and
    // says which flag it refused.
    let (_, _, err) = pilgrim(&["load", "scenarios/partition_1k.toml", "--threads", "2"]);
    assert_eq!(err, "pilgrim: unknown argument `--threads`\n");

    // A span the trace does not hold is a failed lookup, not a success.
    let (status, out, err) = pilgrim(&["trace", &art, "--span", "4000000000"]);
    assert_eq!(status, 1, "{out}{err}");
    assert_eq!(err, "path: no span 4000000000 in trace\n");
}

#[test]
fn selftest_runs_four_sections_and_says_ok_once() {
    let (status, out, err) = pilgrim(&["selftest"]);
    assert_eq!((status, err.as_str()), (0, ""), "{out}");
    for section in ["replay", "prof", "trace", "load"] {
        assert!(out.contains(&format!("== {section} ==\n")), "{out}");
    }
    assert_eq!(out.matches("selftest OK").count(), 1, "{out}");
    assert!(out.ends_with("selftest OK\n"), "{out}");
}
