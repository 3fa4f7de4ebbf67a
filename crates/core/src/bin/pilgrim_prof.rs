//! `pilgrim-prof` — folded-stack profiles from recorded debugging sessions.
//!
//! The simulator attributes every VM instruction's simulated cost to the
//! full call stack executing it (when [`NodeConfig::profile_vm`] is on),
//! and folds the result into the classic flamegraph input format: one
//! `frame;frame;frame weight` line per distinct stack, weight in
//! simulated microseconds. Because the whole system is deterministic,
//! profiling a recording gives the *exact* profile of the original run —
//! even when the original run never profiled itself.
//!
//! ```text
//! pilgrim-prof <artifact.json>   print the recording's folded-stack
//!                                profile (re-runs it with profiling on
//!                                when the artifact has no embedded one;
//!                                exit 2 when the recording needs service
//!                                installers this binary does not link)
//! pilgrim-prof --selftest        prove the profiler end-to-end: format,
//!                                recursion folding, determinism, replay
//!                                reproduction, and a tripping watchpoint
//! ```
//!
//! [`NodeConfig::profile_vm`]: pilgrim_mayflower::NodeConfig::profile_vm

use std::process::ExitCode;

use pilgrim::replay::{replay, rerun, Artifact};
use pilgrim::{SimTime, World};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--selftest") | Some("selftest") => selftest(),
        Some(path) if !path.starts_with('-') => profile_file(path),
        _ => {
            eprintln!("usage: pilgrim-prof <artifact.json> | pilgrim-prof --selftest");
            ExitCode::from(2)
        }
    }
}

/// Prints the folded-stack profile of a recorded session. Uses the
/// embedded snapshot when the artifact has one; otherwise rebuilds the
/// world with profiling forced on and re-runs the journal.
fn profile_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pilgrim-prof: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut artifact = match Artifact::parse(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pilgrim-prof: {path} is not a replay artifact: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(profile) = &artifact.profile {
        print!("{profile}");
        return ExitCode::SUCCESS;
    }
    // The recording ran unprofiled. Profiling is invisible to program
    // semantics, so force it on and re-drive the same journal: the
    // deterministic re-run *is* the original run, now instrumented. This
    // binary links no service installers, so a recording that needs
    // Rust-side setup is refused rather than re-run without its servers.
    artifact.recipe.node_cfg.profile_vm = true;
    match rerun(&artifact, 1, None) {
        Ok(world) => {
            print!("{}", world.folded_stacks());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pilgrim-prof: cannot re-run {path}: {e}");
            ExitCode::from(2)
        }
    }
}

/// A profiled scenario with recursion and a cross-node RPC: fib(8) on
/// node 0, then one remote `double` call to node 1.
fn prof_scenario() -> World {
    let mut w = prof_scenario_unrun();
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(30));
    w
}

/// The selftest scenario's world, built but not yet driven.
fn prof_scenario_unrun() -> World {
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
    World::builder()
        .nodes(2)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .node_config(pilgrim_mayflower::NodeConfig {
            profile_vm: true,
            ..Default::default()
        })
        .build()
        .expect("scenario builds")
}

/// Validates one folded-stack document: non-empty, every line is
/// `frame(;frame)* <weight>` with a positive integer weight.
fn check_format(folded: &str) -> Result<(), String> {
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
fn selftest() -> ExitCode {
    println!("== pilgrim-prof selftest ==");

    let world = prof_scenario();
    let folded = world.folded_stacks();
    if let Err(e) = check_format(&folded) {
        eprintln!("selftest FAILED: bad folded output: {e}");
        return ExitCode::FAILURE;
    }
    let lines = folded.lines().count();
    if !folded.contains("node0;main;fib;fib") {
        eprintln!("selftest FAILED: recursive fib path missing:\n{folded}");
        return ExitCode::FAILURE;
    }
    if !folded.contains("node1;") {
        eprintln!("selftest FAILED: server node missing from profile:\n{folded}");
        return ExitCode::FAILURE;
    }
    println!("format: {lines} folded lines, recursion + both nodes present");

    let again = prof_scenario().folded_stacks();
    if again != folded {
        eprintln!("selftest FAILED: two identical runs profiled differently");
        return ExitCode::FAILURE;
    }
    println!("determinism: second run byte-identical");

    let artifact = world.record();
    if artifact.profile.as_deref() != Some(folded.as_str()) {
        eprintln!("selftest FAILED: artifact did not embed the profile");
        return ExitCode::FAILURE;
    }
    let text = artifact.render();
    let reparsed = match Artifact::parse(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("selftest FAILED: rendered artifact does not parse: {e}");
            return ExitCode::FAILURE;
        }
    };
    match replay(&reparsed) {
        Ok(r) => {
            if r.divergence.is_some() {
                eprintln!("selftest FAILED: profiled replay diverged");
                return ExitCode::FAILURE;
            }
            if r.profile_identical != Some(true) {
                eprintln!(
                    "selftest FAILED: replayed profile not identical ({:?})",
                    r.profile_identical
                );
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("selftest FAILED: replay errored: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("replay: trace and profile both reproduced byte-identically");

    // Watchpoint: net.sent increments as soon as the RPC's first packet
    // leaves node 0, so an armed watch must halt the run early.
    let mut w = prof_scenario_unrun();
    let id = match w.arm_watch("net.sent > 0") {
        Ok(id) => id,
        Err(e) => {
            eprintln!("selftest FAILED: arm_watch: {e}");
            return ExitCode::FAILURE;
        }
    };
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(30));
    let trips = w.watch_trips();
    let Some((tid, expr, trip)) = trips.first() else {
        eprintln!("selftest FAILED: watch never tripped");
        return ExitCode::FAILURE;
    };
    if *tid != id || w.now() != trip.at || w.now() >= SimTime::from_secs(30) {
        eprintln!("selftest FAILED: watch trip did not halt the world at the trip point");
        return ExitCode::FAILURE;
    }
    println!(
        "watchpoint: `{expr}` halted the world at {} (observed {})",
        trip.at, trip.value
    );
    println!("selftest OK");
    ExitCode::SUCCESS
}
