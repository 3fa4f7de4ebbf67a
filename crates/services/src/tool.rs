//! The `pilgrim` command: one thin front-end over the debugging core.
//!
//! Everything a shell user does with a saved session goes through
//! [`run`]: re-run a recording and check its trace (`replay`), read where
//! its simulated time went (`prof`), reconstruct its causal critical path
//! (`trace`), or produce one by driving a load scenario (`load`). The
//! command lives in this crate because it is the only one that links
//! [`setup_installer`]: every re-run is handed the services installer, so
//! a `pilgrim load --record` artifact replays, profiles and traces from
//! disk like any other recording.
//!
//! One exit-code contract for every command: **0** ok · **1** divergence,
//! gate failure or selftest failure · **2** usage error, unreadable or
//! malformed input — always exactly one line on stderr.

use std::io::Write;
use std::time::Instant;

use pilgrim::{open, rerun, Artifact, CausalGraph, Saved};

use crate::{
    outcome_from_world, render_run_report, replay_load, run_scenario, setup_installer, Scenario,
};

mod selftest;

pub use selftest::check_format;

const USAGE: &str = "\
usage: pilgrim <command>
  replay <recording>          re-run a recording and check its trace against
                              the recorded digests, event by event
  prof <recording>            print the recording's folded-stack profile
                              (re-runs it with profiling on when it has none)
  trace <recording|dump> [--slow <k>] [--span <id>]
                              critical path and k slowest spans, or the
                              causal path to one span
  trace <dump> --tsdb [metric]
                              the windowed time-series a blackbox dump
                              carries (every series, or one metric)
  load <scenario.toml> [--record <path>] [--report <path>] [--verify-replay]
                       [--blackbox <path>]
                              run a load scenario against the services
                              stack and gate on its declared floors
  selftest                    prove replay, prof, trace and load end to end
exit status: 0 ok; 1 divergence, gate failure or selftest failure;
             2 usage error, unreadable or malformed input
";

/// How many slowest spans a report lists unless told otherwise.
const TOP_K: usize = 5;

/// Why a command could not start or finish its job: a usage error, an
/// unreadable or malformed input, or an output stream that stopped taking
/// bytes. Reported as one line on stderr with status 2.
type Bad = Box<dyn std::error::Error>;

/// A command's exit status (0 or 1), or why it is 2.
type Status = Result<u8, Bad>;

/// Runs one `pilgrim` command line (`args` excludes the program name),
/// writing to `out` and `err`, and returns the process exit status. The
/// binary's `main` only forwards here, so tests drive the whole
/// front-end in-process.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    let result = if args.iter().any(|a| a == "--help" || a == "-h") {
        write!(out, "{USAGE}").map(|()| 0).map_err(Bad::from)
    } else {
        match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
            Some(("replay", rest)) => replay(rest, out, err),
            Some(("prof", rest)) => prof(rest, out),
            Some(("trace", rest)) => trace(rest, out, err),
            Some(("load", rest)) => load(rest, out, err),
            Some(("selftest", [])) => selftest::run(out, err),
            Some(_) => Err(format!(
                "unknown command `{}` (try `pilgrim --help`)",
                args.join(" ")
            )
            .into()),
            None => Err("no command given (try `pilgrim --help`)".into()),
        }
    };
    result.unwrap_or_else(|bad| {
        let _ = writeln!(err, "pilgrim: {bad}");
        2
    })
}

/// The recording named by a command's only argument.
fn recording(args: &[String]) -> Result<(&str, Artifact), Bad> {
    let [path] = args else {
        return Err("expected exactly one recording file".into());
    };
    let artifact = open(path)?
        .recording()
        .map_err(|e| format!("{path}: {e}"))?;
    Ok((path.as_str(), artifact))
}

/// `pilgrim replay`: rebuilds the world from the recording alone,
/// re-applies its journal and checks the fresh trace against the recorded
/// digests.
fn replay(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Status {
    let (path, artifact) = recording(args)?;
    writeln!(
        out,
        "replaying {path}: {} nodes, seed {}, {} stimuli, {} recorded events",
        artifact.recipe.nodes,
        artifact.recipe.seed,
        artifact.stimuli.len(),
        artifact.digests.len()
    )?;
    let start = Instant::now();
    let report = replay_load(&artifact).map_err(|e| format!("{path}: replay failed: {e}"))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match report.divergence {
        None => {
            writeln!(
                out,
                "OK: {} events replayed identically (byte-for-byte) in {ms:.1}ms",
                report.recorded_events
            )?;
            Ok(0)
        }
        Some(d) => {
            writeln!(err, "DIVERGENCE after {ms:.1}ms:\n{}", d.report())?;
            Ok(1)
        }
    }
}

/// `pilgrim prof`: the recording's folded-stack profile — the embedded
/// snapshot when it has one, else a re-run with profiling forced on.
fn prof(args: &[String], out: &mut dyn Write) -> Status {
    let (path, mut artifact) = recording(args)?;
    if let Some(profile) = &artifact.profile {
        write!(out, "{profile}")?;
        return Ok(0);
    }
    // The recording ran unprofiled. Profiling is invisible to program
    // semantics, so force it on and re-drive the same journal: the
    // deterministic re-run *is* the original run, now instrumented.
    artifact.recipe.node_cfg.profile_vm = true;
    let world = rerun(&artifact, Some(&mut setup_installer()))
        .map_err(|e| format!("{path}: cannot re-run: {e}"))?;
    write!(out, "{}", world.folded_stacks())?;
    Ok(0)
}

/// `pilgrim trace`: causal analytics over a dump's events, or over the
/// trace a recording's re-run emits.
fn trace(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Status {
    let Some((path, opts)) = args.split_first().filter(|(p, _)| !p.starts_with('-')) else {
        return Err("trace needs a recording or a blackbox dump".into());
    };
    let mut slow_k = TOP_K;
    let mut span: Option<u64> = None;
    let mut tsdb: Option<Option<&str>> = None;
    let mut it = opts.iter().peekable();
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--slow" => {
                slow_k = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|k| *k > 0)
                    .ok_or("--slow needs a positive count")?
            }
            "--span" => {
                let id = it.next().and_then(|v| v.parse().ok());
                span = Some(id.ok_or("--span needs a span id")?)
            }
            // The metric name is optional: bare --tsdb dumps every
            // retained series.
            "--tsdb" => tsdb = Some(it.next_if(|m| !m.starts_with("--")).map(String::as_str)),
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    let saved = open(path)?;
    if let Some(metric) = tsdb {
        let snap = saved.dump().map_err(|e| format!("{path}: {e}"))?;
        write!(out, "{}", render_tsdb(&snap.series, metric))?;
        return Ok(0);
    }
    let (events, graph) = causal_graph(path, saved)?;
    writeln!(out, "{events} events, {} spans", graph.spans().len())?;
    match span {
        Some(id) if graph.profile(id).is_none() => {
            write!(err, "{}", graph.render_path(id))?;
            Ok(1)
        }
        Some(id) => {
            write!(out, "{}", graph.render_path(id))?;
            Ok(0)
        }
        None => {
            write!(out, "{}", graph.render_critical())?;
            write!(out, "{}", graph.render_slowest(slow_k))?;
            Ok(0)
        }
    }
}

/// The causal graph of a saved document, and how many events it folds: a
/// dump's retained events, or the trace a recording re-creates when it
/// is re-run (a recording keeps only their digests).
fn causal_graph(path: &str, saved: Saved) -> Result<(usize, CausalGraph), Bad> {
    let artifact = match saved {
        Saved::Recording(artifact) => artifact,
        dump => return Ok(dump.causal_graph().map_err(|e| format!("{path}: {e}"))?),
    };
    let world = rerun(&artifact, Some(&mut setup_installer()))
        .map_err(|e| format!("{path}: cannot re-run: {e}"))?;
    Ok((world.tracer().len(), world.causal_graph()))
}

/// The windowed time-series a blackbox dump carries — the offline mirror
/// of the REPL's `tsdb` command. With a metric name, only that series'
/// block; otherwise every retained series.
fn render_tsdb(series: &str, metric: Option<&str>) -> String {
    if series.is_empty() {
        return "tsdb: no series retained in this dump\n".to_string();
    }
    let Some(metric) = metric else {
        return series.to_string();
    };
    // Series blocks start with a `tsdb <kind> <name>: …` header followed
    // by window rows; keep the block whose header names the metric.
    let mut out = String::new();
    let mut keep = false;
    for line in series.lines() {
        if line.starts_with("tsdb ") {
            keep = line
                .split_whitespace()
                .nth(2)
                .map(|n| n.trim_end_matches(':'))
                == Some(metric);
        }
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    if out.is_empty() {
        return format!("tsdb: no series named {metric}\n");
    }
    out
}

/// `pilgrim load`: drives a scenario file's seeded open-loop workload
/// against the services stack, prints the deterministic report, and
/// gates on the floors the scenario declares.
fn load(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Status {
    let mut scenario_path: Option<&str> = None;
    let mut record: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut blackbox: Option<String> = None;
    let mut verify_replay = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut path = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a path"))
        };
        match a.as_str() {
            "--record" => record = Some(path()?),
            "--report" => report_path = Some(path()?),
            "--blackbox" => blackbox = Some(path()?),
            "--verify-replay" => verify_replay = true,
            other if !other.starts_with('-') && scenario_path.is_none() => {
                scenario_path = Some(other);
            }
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }
    let path = scenario_path.ok_or("no scenario file given")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let sc = Scenario::parse(&text).map_err(|e| format!("{path}: {e}"))?;

    let outcome = run_scenario(&sc)?;
    write!(out, "{}", outcome.report)?;

    let run_report = report_path
        .as_ref()
        .map(|_| render_run_report(&sc, &outcome, TOP_K));
    if let (Some(p), Some(text)) = (&report_path, &run_report) {
        std::fs::write(p, text).map_err(|e| format!("cannot write report {p}: {e}"))?;
        writeln!(out, "run report: {p}")?;
    }

    let mut failed = !outcome.gate_failures.is_empty();
    for f in &outcome.gate_failures {
        writeln!(err, "pilgrim load: gate: {f}")?;
    }
    if let (true, Some(p)) = (failed, &blackbox) {
        let snap = outcome.world.blackbox_snapshot("load gate failure");
        match std::fs::write(p, snap.render()) {
            Ok(()) => writeln!(err, "pilgrim load: blackbox dumped to {p}")?,
            Err(e) => writeln!(err, "pilgrim load: cannot write blackbox {p}: {e}")?,
        }
    }

    if record.is_some() || verify_replay {
        let artifact = outcome.world.record();
        if let Some(p) = &record {
            std::fs::write(p, artifact.render()).map_err(|e| format!("cannot write {p}: {e}"))?;
            writeln!(out, "recorded artifact: {p}")?;
        }
        if verify_replay {
            match replay_load(&artifact) {
                Ok(r) if r.divergence.is_none() => {
                    writeln!(out, "replay: byte-identical")?;
                    // With --report, the replayed world must render the
                    // same run report byte for byte: the report is part
                    // of the determinism contract, not just the trace.
                    if let Some(text) = &run_report {
                        let re = render_run_report(&sc, &outcome_from_world(&sc, r.world), TOP_K);
                        if re == *text {
                            writeln!(out, "replay: run report byte-identical")?;
                        } else {
                            writeln!(err, "pilgrim load: replayed run report differs")?;
                            failed = true;
                        }
                    }
                }
                Ok(r) => {
                    writeln!(err, "pilgrim load: replay diverged: {:?}", r.divergence)?;
                    failed = true;
                }
                Err(e) => {
                    writeln!(err, "pilgrim load: replay failed: {e}")?;
                    failed = true;
                }
            }
        }
    }
    Ok(failed as u8)
}
