//! Record/replay: capture a world's full reproduction recipe and its
//! stimulus journal, then rebuild and re-run it offline.
//!
//! The paper rejects reversible execution as too costly (§5.3); the cheap
//! alternative is determinism. Every [`World`] is a closed, seeded
//! discrete-event simulation, so the *complete* reproduction recipe is
//! small: the builder inputs (seed, topology, configs, programs, lockstep
//! window) plus the ordered journal of public driver calls ([`Stimulus`])
//! that pumped it. [`World::record`] packages those alongside the emitted
//! trace into a single self-describing [`Artifact`]; [`replay`] rebuilds
//! the world from the artifact alone, re-applies the journal, and diffs
//! the fresh trace against the recorded one event-by-event with
//! [`first_divergence`] — the same idea as URDB's record/replay and
//! out-of-place debugging's "replay away from the live system".
//!
//! The module is cut along its seams: [`Recipe`] (what a world is built
//! from), [`Stimulus`] (the journal of driving calls), [`Artifact`] (the
//! document that carries both with the trace), and here the re-run and
//! the verification that diff a fresh run against it.
//!
//! # Examples
//!
//! ```
//! use pilgrim::replay::{replay, Artifact};
//! use pilgrim::World;
//! use pilgrim_sim::SimTime;
//!
//! let mut w = World::builder()
//!     .program("main = proc ()\n print(\"hi\")\n end")
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! w.spawn(0, "main", vec![]);
//! w.run_until_idle(SimTime::from_secs(1));
//!
//! let text = w.record().render();
//! let report = replay(&Artifact::parse(&text).unwrap()).unwrap();
//! assert!(report.divergence.is_none());
//! ```

use std::fmt;

use pilgrim_sim::{first_divergence, Divergence, Json, TraceEvent};

use crate::world::{BuildError, World, WorldBuilder};

mod artifact;
mod recipe;
mod stimulus;

pub use artifact::{Artifact, FORMAT, VERSION};
pub use recipe::Recipe;
pub use stimulus::Stimulus;

/// Errors from loading or replaying an artifact.
#[derive(Debug)]
pub enum ReplayError {
    /// The artifact text is malformed or has the wrong format/version.
    Format(String),
    /// The recipe no longer builds (e.g. the program fails to compile).
    Build(BuildError),
    /// A journal entry could not be applied.
    Stimulus(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Format(e) => write!(f, "artifact format: {e}"),
            ReplayError::Build(e) => write!(f, "rebuilding world: {e}"),
            ReplayError::Stimulus(e) => write!(f, "applying stimulus: {e}"),
        }
    }
}
impl std::error::Error for ReplayError {}

/// Outcome of a replay run.
#[derive(Debug)]
pub struct ReplayReport {
    /// The replayed world, positioned after the last stimulus — ready for
    /// further interactive debugging past the recorded horizon.
    pub world: World,
    /// First difference between the recorded and fresh traces, if any.
    pub divergence: Option<Divergence>,
    /// Number of events in the recorded trace.
    pub recorded_events: usize,
    /// Whether the fresh trace is byte-identical to the recorded one
    /// (stronger than `divergence.is_none()`: it also pins the JSONL
    /// rendering itself).
    pub byte_identical: bool,
    /// When the artifact embedded a folded-stack profile: whether the
    /// replayed world's profile is byte-identical to it. `None` when the
    /// recording carried no profile.
    pub profile_identical: Option<bool>,
}

/// Rebuilds the world named by `artifact` and re-runs its journal, then
/// diffs the fresh trace against the recorded one.
///
/// # Errors
///
/// [`ReplayError::Build`] when the recipe no longer builds;
/// [`ReplayError::Stimulus`] when a journal entry cannot be applied
/// (e.g. a spawn argument that was recorded as opaque).
pub fn replay(artifact: &Artifact) -> Result<ReplayReport, ReplayError> {
    replay_with(artifact, None)
}

/// [`replay`] with an `installer` re-performing the recipe's Rust-side
/// [`Recipe::setup`] steps (see [`rerun`]).
///
/// # Errors
///
/// Those of [`replay`], plus [`ReplayError::Stimulus`] when the
/// installer rejects a setup entry.
pub fn replay_with(
    artifact: &Artifact,
    installer: Option<&mut SetupInstaller<'_>>,
) -> Result<ReplayReport, ReplayError> {
    verify(artifact, rerun(artifact, installer)?)
}

/// The kind of callback [`rerun`] uses to re-perform a recipe's
/// Rust-side setup steps against the freshly built world.
pub type SetupInstaller<'a> = dyn FnMut(&mut World, &str, &Json) -> Result<(), String> + 'a;

/// The setup kind [`World::unrecorded_node`] notes: a world touched
/// where replay cannot follow.
pub const UNRECORDED: &str = "unrecorded";

/// Rebuilds the world `artifact` names and drives it through the recorded
/// journal: build from the recipe, re-perform the recipe's Rust-side
/// [`Recipe::setup`] steps, apply every stimulus.
/// The one way a recording is re-run — replay verifies the world this
/// returns, `pilgrim prof` reads its profile.
///
/// A recording whose world went through [`World::unrecorded_node`] is
/// refused by name before anything is built. Otherwise the world is built
/// with no setup, and `installer` is called once per recorded `(kind,
/// params)` entry, in order, before the first stimulus. It re-performs
/// each step through [`World::install`], which notes it again; the
/// re-noted list must equal the recorded one, so an installer that drifts
/// from the recording is refused naming the first entry that differs.
/// Without an installer, an artifact that needs setup is refused by name:
/// re-driving its journal against a world with no handlers would be a
/// different run.
///
/// # Errors
///
/// [`ReplayError::Format`] for a hatch-touched artifact, or a
/// setup-bearing one and no installer;
/// [`ReplayError::Build`] when the recipe no longer builds;
/// [`ReplayError::Stimulus`] when the installer rejects or drifts from a
/// setup entry, or a journal entry cannot be applied (e.g. an opaque
/// spawn argument).
pub fn rerun(
    artifact: &Artifact,
    installer: Option<&mut SetupInstaller<'_>>,
) -> Result<World, ReplayError> {
    let setup = &artifact.recipe.setup;
    if let Some((_, params)) = setup.iter().find(|(k, _)| k == UNRECORDED) {
        return Err(ReplayError::Format(format!(
            "the recorded world was changed through `unrecorded_node` on node {}, \
             which replay cannot redo",
            params.get("node").unwrap_or(params)
        )));
    }
    if installer.is_none() && !setup.is_empty() {
        let kinds: Vec<&str> = setup.iter().map(|(k, _)| k.as_str()).collect();
        return Err(ReplayError::Format(format!(
            "artifact needs Rust-side setup ({}); replay it with \
             `replay_with` and an installer that knows these kinds",
            kinds.join(", ")
        )));
    }
    let bare = Recipe {
        setup: Vec::new(),
        ..artifact.recipe.clone()
    };
    let mut world = WorldBuilder::from(bare)
        .build()
        .map_err(ReplayError::Build)?;
    if let Some(install) = installer {
        for (kind, params) in setup {
            install(&mut world, kind, params)
                .map_err(|e| ReplayError::Stimulus(format!("setup `{kind}`: {e}")))?;
        }
    }
    check_setup(setup, &world.recipe().setup).map_err(ReplayError::Stimulus)?;
    for s in &artifact.stimuli {
        world.apply(s).map_err(ReplayError::Stimulus)?;
    }
    Ok(world)
}

/// The recorded setup list against the one the installer re-noted: the
/// first entry that differs, by index and kind, or `Ok`.
fn check_setup(recorded: &[(String, Json)], renoted: &[(String, Json)]) -> Result<(), String> {
    let show = |entry: Option<&(String, Json)>| match entry {
        Some((kind, params)) => format!("`{kind}` {params}"),
        None => "nothing".to_string(),
    };
    match (0..recorded.len().max(renoted.len())).find(|&i| recorded.get(i) != renoted.get(i)) {
        None => Ok(()),
        Some(i) => Err(format!(
            "setup entry {i}: the recording has {}, the installer did {}",
            show(recorded.get(i)),
            show(renoted.get(i))
        )),
    }
}

/// Diffs a re-run world's trace (and profile) against the recording.
fn verify(artifact: &Artifact, world: World) -> Result<ReplayReport, ReplayError> {
    // Verification is bytes first, and streamed: each replayed event is
    // rendered into one reused line and matched against the recording's
    // next line, so no second copy of the trace is made, and a recording
    // that holds the tracer's records renders one line at a time too.
    // Equal bytes parse to equal events, so there is nothing for the
    // structural differ to explain and neither trace is parsed; the
    // recorded trace then holds exactly one line per event the replayed
    // tracer retains.
    let mut recorded = artifact.trace.lines();
    let mut matched = true;
    let mut line = String::new();
    world.tracer().for_each(|ev| {
        if matched {
            line.clear();
            ev.write_json(&mut line);
            line.push('\n');
            matched = recorded.next_line() == Some(line.as_str());
        }
    });
    let byte_identical = matched && recorded.next_line().is_none();
    let (divergence, recorded_events) = if byte_identical {
        (None, world.tracer().len())
    } else {
        let recorded = TraceEvent::parse_jsonl(&artifact.trace.text())
            .map_err(|e| ReplayError::Format(format!("recorded trace: {e}")))?;
        let fresh_events = TraceEvent::parse_jsonl(&world.trace_jsonl())
            .map_err(|e| ReplayError::Format(format!("fresh trace: {e}")))?;
        (first_divergence(&recorded, &fresh_events), recorded.len())
    };
    Ok(ReplayReport {
        divergence,
        recorded_events,
        byte_identical,
        profile_identical: artifact
            .profile
            .as_ref()
            .map(|p| *p == world.folded_stacks()),
        world,
    })
}

#[cfg(test)]
pub(crate) use stimulus::tests::every_stimulus;
