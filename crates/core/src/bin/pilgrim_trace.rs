//! `pilgrim-trace` — causal critical-path analytics over recorded traces.
//!
//! Every RPC in a recorded run leaves a span-linked event chain: call
//! started, packets sent and delivered (or lost and retransmitted),
//! server dispatch, reply. This tool reconstructs the span DAG from a
//! recorded artifact, attributes each span's simulated time to queueing,
//! the network, server execution, and unattributed wait, then reports
//! the critical path and the slowest spans — the "where did the time go"
//! question for a distributed computation, answered offline.
//!
//! Accepts either artifact the workspace produces: a `pilgrim-replay`
//! recording (analyzes its full trace) or a `pilgrim-blackbox` flight
//! recorder dump (analyzes the retained event ring).
//!
//! ```text
//! pilgrim-trace <artifact.json>             critical path + slowest spans
//! pilgrim-trace <artifact.json> --slow <k>  report k slowest spans
//! pilgrim-trace <artifact.json> --span <id> causal path to one span
//! pilgrim-trace <dump.json> --tsdb [metric] windowed time-series carried
//!                                           by a blackbox dump (all
//!                                           series, or one metric)
//! pilgrim-trace --selftest                  prove the analyzer end-to-end
//! ```

use std::process::ExitCode;

use pilgrim::blackbox::BlackboxSnapshot;
use pilgrim::replay::Artifact;
use pilgrim::{CausalGraph, NetworkConfig, SimTime, Value, World};
use pilgrim_sim::TraceEvent;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--selftest") | Some("selftest") => selftest(),
        Some(path) if !path.starts_with('-') => analyze_file(path, &args[1..]),
        _ => {
            eprintln!(
                "usage: pilgrim-trace <artifact.json> [--slow <k>] [--span <id>] \
                 [--tsdb [metric]] | pilgrim-trace --selftest"
            );
            ExitCode::from(2)
        }
    }
}

/// Decodes the trace carried by either artifact format.
fn load_events(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let not_artifact = match Artifact::parse(&text) {
        Ok(artifact) => {
            return TraceEvent::parse_jsonl(&artifact.trace)
                .map_err(|e| format!("{path}: recorded trace: {e}"))
        }
        Err(e) => e,
    };
    match BlackboxSnapshot::parse(&text) {
        Ok(snap) => snap
            .decode_events()
            .map_err(|e| format!("{path}: blackbox events: {e}")),
        Err(e) => Err(format!(
            "{path} is neither a replay artifact ({not_artifact}) nor a blackbox dump ({e})"
        )),
    }
}

fn analyze_file(path: &str, opts: &[String]) -> ExitCode {
    let mut slow_k = 5usize;
    let mut span: Option<u64> = None;
    let mut tsdb = false;
    let mut tsdb_metric: Option<String> = None;
    let mut it = opts.iter().peekable();
    while let Some(opt) = it.next() {
        let mut value = || -> Option<u64> { it.next().and_then(|v| v.parse().ok()) };
        match opt.as_str() {
            "--slow" => match value() {
                Some(k) => slow_k = k as usize,
                None => {
                    eprintln!("pilgrim-trace: --slow needs a count");
                    return ExitCode::from(2);
                }
            },
            "--span" => match value() {
                Some(s) => span = Some(s),
                None => {
                    eprintln!("pilgrim-trace: --span needs a span id");
                    return ExitCode::from(2);
                }
            },
            "--tsdb" => {
                tsdb = true;
                // The metric name is optional: bare --tsdb dumps every
                // retained series.
                if it.peek().is_some_and(|m| !m.starts_with("--")) {
                    tsdb_metric = it.next().cloned();
                }
            }
            other => {
                eprintln!("pilgrim-trace: unknown option {other}");
                return ExitCode::from(2);
            }
        }
    }
    if tsdb {
        return render_tsdb(path, tsdb_metric.as_deref());
    }
    let events = match load_events(path) {
        Ok(evs) => evs,
        Err(e) => {
            eprintln!("pilgrim-trace: {e}");
            return ExitCode::from(2);
        }
    };
    let graph = CausalGraph::from_events(&events);
    println!("{} events, {} spans", events.len(), graph.spans().len());
    if let Some(id) = span {
        print!("{}", graph.render_path(id));
        return ExitCode::SUCCESS;
    }
    print!("{}", graph.render_critical());
    print!("{}", graph.render_slowest(slow_k));
    ExitCode::SUCCESS
}

/// Prints the windowed time-series a blackbox dump carries — the
/// offline mirror of the REPL's `tsdb` command. With a metric name,
/// prints only that series' block; otherwise every retained series.
fn render_tsdb(path: &str, metric: Option<&str>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pilgrim-trace: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let snap = match BlackboxSnapshot::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pilgrim-trace: --tsdb needs a blackbox dump: {e}");
            return ExitCode::from(2);
        }
    };
    if snap.series.is_empty() {
        println!("tsdb: no series retained in this dump");
        return ExitCode::SUCCESS;
    }
    let Some(metric) = metric else {
        print!("{}", snap.series);
        return ExitCode::SUCCESS;
    };
    // Series blocks start with a `tsdb <kind> <name>: …` header followed
    // by window rows; keep the block whose header names the metric.
    let mut out = String::new();
    let mut keep = false;
    for line in snap.series.lines() {
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
        println!("tsdb: no series named {metric}");
    } else {
        print!("{out}");
    }
    ExitCode::SUCCESS
}

/// The selftest scenario: four nodes, RPC fan-out from node 0 to three
/// servers over a lossy network, so the trace carries retransmissions
/// and losses the attribution must survive.
fn trace_scenario() -> World {
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
        .build()
        .expect("scenario builds");
    w.spawn(0, "main", vec![Value::Int(4)]);
    w.run_until_idle(SimTime::from_secs(60));
    w
}

/// End-to-end proof of the analyzer: a lossy RPC run yields a non-empty
/// span DAG with retransmissions attributed, the critical path and
/// slowest-span reports render deterministically across runs, and both
/// artifact formats round-trip through the loader.
fn selftest() -> ExitCode {
    println!("== pilgrim-trace selftest ==");

    let world = trace_scenario();
    let events = world.tracer().len();
    let graph = world.causal_graph();
    if graph.spans().is_empty() {
        eprintln!("selftest FAILED: no spans reconstructed from the trace");
        return ExitCode::FAILURE;
    }
    let retransmits: u64 = graph.spans().iter().map(|p| p.retransmits as u64).sum();
    if retransmits == 0 {
        eprintln!("selftest FAILED: lossy scenario produced no retransmissions");
        return ExitCode::FAILURE;
    }
    let critical = graph.render_critical();
    let slowest = graph.render_slowest(5);
    if !critical.starts_with("critical path:") || !slowest.starts_with("slowest") {
        eprintln!("selftest FAILED: bad report headers:\n{critical}{slowest}");
        return ExitCode::FAILURE;
    }
    println!(
        "analysis: {} spans, {retransmits} retransmits attributed",
        graph.spans().len()
    );

    let again = trace_scenario();
    let graph2 = again.causal_graph();
    if graph2.render_critical() != critical || graph2.render_slowest(5) != slowest {
        eprintln!("selftest FAILED: two identical runs analyzed differently");
        return ExitCode::FAILURE;
    }
    if again.tsdb_summary() != world.tsdb_summary() {
        eprintln!("selftest FAILED: two identical runs sampled different time series");
        return ExitCode::FAILURE;
    }
    println!("determinism: second run byte-identical (reports and tsdb)");

    let dir = std::env::temp_dir();
    let replay_path = dir.join("pilgrim-trace-selftest-replay.json");
    let blackbox_path = dir.join("pilgrim-trace-selftest-blackbox.json");
    if let Err(e) = std::fs::write(&replay_path, world.record().render()) {
        eprintln!("selftest FAILED: cannot write scratch artifact: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&blackbox_path, world.blackbox_snapshot("selftest").render()) {
        eprintln!("selftest FAILED: cannot write scratch blackbox: {e}");
        return ExitCode::FAILURE;
    }
    let from_replay = load_events(replay_path.to_str().unwrap());
    let from_blackbox = load_events(blackbox_path.to_str().unwrap());
    let _ = std::fs::remove_file(&replay_path);
    let _ = std::fs::remove_file(&blackbox_path);
    match (from_replay, from_blackbox) {
        (Ok(replayed), Ok(boxed)) => {
            if replayed.len() != events {
                eprintln!(
                    "selftest FAILED: replay artifact lost events ({} != {events})",
                    replayed.len()
                );
                return ExitCode::FAILURE;
            }
            if boxed.is_empty() {
                eprintln!("selftest FAILED: blackbox ring was empty");
                return ExitCode::FAILURE;
            }
            if CausalGraph::from_events(&replayed).render_critical() != critical {
                eprintln!("selftest FAILED: analysis of the recording diverged from live");
                return ExitCode::FAILURE;
            }
            println!(
                "artifacts: replay ({} events) and blackbox ({} events) both load",
                replayed.len(),
                boxed.len()
            );
            let snap = world.blackbox_snapshot("selftest");
            if !snap.series.starts_with("tsdb ") {
                eprintln!("selftest FAILED: blackbox dump carries no time-series");
                return ExitCode::FAILURE;
            }
            println!(
                "tsdb: dump carries {} series blocks",
                snap.series
                    .lines()
                    .filter(|l| l.starts_with("tsdb "))
                    .count()
            );
        }
        (r, b) => {
            eprintln!("selftest FAILED: artifact loading: {r:?} / {b:?}");
            return ExitCode::FAILURE;
        }
    }
    println!("selftest OK");
    ExitCode::SUCCESS
}
