//! Record/replay: capture a world's full reproduction recipe and its
//! stimulus journal, then rebuild and re-run it offline.
//!
//! The paper rejects reversible execution as too costly (§5.3); the cheap
//! alternative is determinism. Every [`World`] is a closed, seeded
//! discrete-event simulation, so the *complete* reproduction recipe is
//! small: the builder inputs (seed, topology, configs, programs, lockstep
//! window) plus the ordered journal of public driver calls ([`Stimulus`])
//! that pumped it. [`World::record`] packages those, with one digest per
//! emitted trace event, into a single self-describing [`Artifact`];
//! [`replay`] rebuilds the world from the artifact alone, re-applies the
//! journal, and checks the fresh trace's digests against the recorded
//! ones event by event — the same idea as URDB's record/replay, which
//! re-executes forward and stores no outputs, and out-of-place
//! debugging's "replay away from the live system".
//!
//! The module is cut along its seams: [`Recipe`] (what a world is built
//! from), [`Stimulus`] (the journal of driving calls), [`Artifact`] (the
//! document that carries both with the digests), and here the re-run and
//! the verification that checks a fresh run against it.
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

use pilgrim_sim::{Json, TraceEvent};

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

/// Where a replay first left its recording: the first event whose digest
/// differs, or where one side ran out of events.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 0-based index of the first divergent event.
    pub index: usize,
    /// The recorded digest at that index; `None` when the recording ended
    /// before the replay did.
    pub recorded: Option<u64>,
    /// The replayed event at that index; `None` when the replay ended
    /// before the recording did.
    pub replayed: Option<TraceEvent>,
    /// The events of the replayed event's span that came before it in
    /// the fresh trace, oldest first.
    pub earlier_in_span: Vec<TraceEvent>,
}

impl Divergence {
    /// The divergence at `index` between `recorded` and `world`'s trace.
    fn at(index: usize, recorded: Option<u64>, world: &World) -> Divergence {
        // Only a failed replay gets here, so the fresh trace is unpacked
        // whole.
        let mut events = world.tracer().events();
        events.truncate(index + 1);
        let replayed = (events.len() > index).then(|| events.swap_remove(index));
        let span = replayed.as_ref().and_then(|ev| ev.span);
        let earlier_in_span = match span {
            Some(s) => events.into_iter().filter(|ev| ev.span == Some(s)).collect(),
            None => Vec::new(),
        };
        Divergence {
            index,
            recorded,
            replayed,
            earlier_in_span,
        }
    }

    /// A human-readable multi-line report: the index, the recorded
    /// digest, the replayed event, and what its span did before it.
    pub fn report(&self) -> String {
        let mut out = format!("trace divergence at event {}: ", self.index);
        match self.recorded {
            Some(digest) => out.push_str(&format!("recorded digest {digest:016x}")),
            None => out.push_str("the recording ended early"),
        }
        let Some(ev) = &self.replayed else {
            out.push_str("; the replay ended early\n");
            return out;
        };
        let span = ev.span.map_or("-".to_string(), |s| s.get().to_string());
        out.push_str(&format!(
            ", replayed kind {} (span {span})\n  replayed event: {ev}\n",
            ev.kind.name()
        ));
        if !self.earlier_in_span.is_empty() {
            out.push_str(&format!("  earlier in span {span}:\n"));
            for earlier in &self.earlier_in_span {
                out.push_str(&format!("    {earlier}\n"));
            }
        }
        out
    }
}

/// Outcome of a replay run.
#[derive(Debug)]
pub struct ReplayReport {
    /// The replayed world, positioned after the last stimulus — ready for
    /// further interactive debugging past the recorded horizon.
    pub world: World,
    /// The first event where the fresh trace's digests leave the
    /// recorded ones, if any.
    pub divergence: Option<Divergence>,
    /// Number of events in the recorded trace.
    pub recorded_events: usize,
    /// Whether every fresh event's JSON line has its recorded digest:
    /// exactly `divergence.is_none()`.
    pub byte_identical: bool,
    /// When the artifact embedded a folded-stack profile: whether the
    /// replayed world's profile is byte-identical to it. `None` when the
    /// recording carried no profile.
    pub profile_identical: Option<bool>,
}

/// Rebuilds the world named by `artifact` and re-runs its journal, then
/// checks the fresh trace against the recorded digests.
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
    Ok(verify(artifact, rerun(artifact, installer)?))
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

/// Checks a re-run world's trace (and profile) against the recording:
/// the first index where the digests differ, or where one list ends
/// before the other, is the divergence.
fn verify(artifact: &Artifact, world: World) -> ReplayReport {
    let recorded = &artifact.digests;
    let fresh = world.tracer().digests();
    let divergence = (0..recorded.len().max(fresh.len()))
        .find(|&i| recorded.get(i) != fresh.get(i))
        .map(|i| Divergence::at(i, recorded.get(i).copied(), &world));
    ReplayReport {
        byte_identical: divergence.is_none(),
        divergence,
        recorded_events: recorded.len(),
        profile_identical: artifact
            .profile
            .as_ref()
            .map(|p| *p == world.folded_stacks()),
        world,
    }
}

#[cfg(test)]
pub(crate) use stimulus::tests::every_stimulus;
