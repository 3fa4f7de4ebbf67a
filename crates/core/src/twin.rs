//! Twin-run determinism harness.
//!
//! A world is a pure function of its recipe and what drives it: the same
//! scenario run twice must produce byte-identical observables. This module
//! turns that obligation into a reusable test instrument — [`twin_run`]
//! executes one scenario twice and demands equality of every artifact the
//! debugger, profiler, and replay subsystems derive from a run: the JSONL
//! trace, folded flame stacks, the metrics inventory, the rendered
//! record/replay artifact, and metric watchpoint trips (including the sync
//! index they are pinned to).
//!
//! On a mismatch the harness reports the artifact that differed and — for
//! traces — the first diverging event, using the same structural diff the
//! replay gate uses.

use pilgrim_sim::{first_divergence, TraceEvent};

use crate::world::{WatchTrip, World};

/// Every observable artifact of one finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinArtifacts {
    /// The full trace as JSON Lines ([`World::trace_jsonl`]).
    pub trace: String,
    /// Folded flame stacks ([`World::folded_stacks`]).
    pub folded_stacks: String,
    /// The metrics + VM profile inventory
    /// ([`World::observability_report`]).
    pub metrics: String,
    /// The rendered record/replay artifact ([`World::record`]).
    pub artifact: String,
    /// Armed watchpoints that tripped, with their trip records — the
    /// `sync_index` pins *which* lockstep window tripped each one.
    pub watch_trips: Vec<(u64, String, WatchTrip)>,
}

/// Captures every comparable artifact from a finished world.
pub fn capture(world: &World) -> TwinArtifacts {
    TwinArtifacts {
        trace: world.trace_jsonl(),
        folded_stacks: world.folded_stacks(),
        metrics: world.observability_report(),
        artifact: world.record().render(),
        watch_trips: world.watch_trips(),
    }
}

/// Runs `scenario` twice, asserting the two runs' artifacts are
/// byte-identical, and returns the first run's artifacts for further
/// assertions.
///
/// # Panics
///
/// Panics with a labelled report on the first artifact mismatch.
pub fn twin_run(name: &str, scenario: impl Fn() -> World) -> TwinArtifacts {
    let first = capture(&scenario());
    let second = capture(&scenario());
    compare(name, &first, &second);
    first
}

/// Asserts `second` matches `first` artifact-by-artifact, diffing the
/// trace structurally when it is the artifact that diverged.
fn compare(name: &str, first: &TwinArtifacts, second: &TwinArtifacts) {
    if first.trace != second.trace {
        let expected = parse(&first.trace);
        let actual = parse(&second.trace);
        match first_divergence(&expected, &actual) {
            Some(d) => panic!(
                "twin_run({name}): trace diverged between runs\n{}",
                d.report()
            ),
            None => panic!(
                "twin_run({name}): trace bytes differ between runs \
                 but events are structurally equal (formatting drift)"
            ),
        }
    }
    for (what, a, b) in [
        ("folded_stacks", &first.folded_stacks, &second.folded_stacks),
        ("metrics report", &first.metrics, &second.metrics),
        ("record() artifact", &first.artifact, &second.artifact),
    ] {
        assert_eq!(a, b, "twin_run({name}): {what} differs between runs");
    }
    assert_eq!(
        first.watch_trips, second.watch_trips,
        "twin_run({name}): watch trips differ between runs"
    );
}

fn parse(trace: &str) -> Vec<TraceEvent> {
    TraceEvent::parse_jsonl(trace).expect("twin traces parse as JSONL")
}
