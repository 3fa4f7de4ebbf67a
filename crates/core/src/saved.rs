//! The one loader for the documents a world writes to disk.
//!
//! Two kinds of file leave a session: a replay recording ([`Artifact`])
//! and a flight-recorder dump ([`BlackboxSnapshot`]). Both are one JSON
//! object that opens with a `format` tag and a `version`. [`open`] reads
//! a user-supplied path, parses the text once, and dispatches on the tag;
//! every front-end that takes a file goes through it, so "cannot read",
//! "not JSON", "unknown format tag" and "bad section" are worded here and
//! nowhere else.

use pilgrim_sim::{CausalGraph, Json, TraceEvent};

use crate::blackbox::{self, BlackboxSnapshot};
use crate::replay::{self, Artifact};

/// A saved document, told apart by its `format` tag.
#[derive(Debug)]
pub enum Saved {
    /// A `pilgrim-replay` recording.
    Recording(Box<Artifact>),
    /// A `pilgrim-blackbox` flight-recorder dump.
    Dump(BlackboxSnapshot),
}

/// Reads the file at `path` as whichever saved document it is.
///
/// # Errors
///
/// One line naming the path: the file cannot be read, or anything
/// [`Saved::parse`] rejects.
pub fn open(path: &str) -> Result<Saved, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Saved::parse(&text).map_err(|e| format!("{path}: {e}"))
}

impl Saved {
    /// Parses a rendered recording or dump. The text is outside input:
    /// nesting depth and recipe counts are bounded before anything
    /// recurses or allocates for them.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a `format` tag that is neither of the two this
    /// workspace writes, an unsupported version, or a bad section.
    pub fn parse(text: &str) -> Result<Saved, String> {
        let doc = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        let tag = doc.get("format").and_then(Json::as_str).unwrap_or("");
        let (expected, recording) = match tag {
            replay::FORMAT => (replay::VERSION, true),
            blackbox::FORMAT => (blackbox::VERSION, false),
            _ => {
                return Err(format!(
                    "unknown format tag `{tag}` (expected `{}` or `{}`)",
                    replay::FORMAT,
                    blackbox::FORMAT
                ))
            }
        };
        let version = doc.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != expected as u64 {
            return Err(format!(
                "unsupported {tag} version {version} (expected {expected})"
            ));
        }
        if recording {
            Artifact::from_doc(doc).map(|a| Saved::Recording(Box::new(a)))
        } else {
            BlackboxSnapshot::from_doc(&doc).map(Saved::Dump)
        }
    }

    /// The recording, for commands that re-run one.
    ///
    /// # Errors
    ///
    /// The document is a blackbox dump: it carries no recipe or journal.
    pub fn recording(self) -> Result<Artifact, String> {
        match self {
            Saved::Recording(artifact) => Ok(*artifact),
            Saved::Dump(_) => Err(format!(
                "a {} dump, where a {} recording is required",
                blackbox::FORMAT,
                replay::FORMAT
            )),
        }
    }

    /// The flight-recorder dump, for commands that read its sections.
    ///
    /// # Errors
    ///
    /// The document is a replay recording.
    pub fn dump(self) -> Result<BlackboxSnapshot, String> {
        match self {
            Saved::Dump(snap) => Ok(snap),
            Saved::Recording(_) => Err(format!(
                "a {} recording, where a {} dump is required",
                replay::FORMAT,
                blackbox::FORMAT
            )),
        }
    }

    /// The causal graph of the trace either document carries — a
    /// recording's full trace, or a dump's retained event ring — and how
    /// many events that trace holds. The trace is parsed one line at a
    /// time into the fold, so no event list is built beside the text.
    ///
    /// # Errors
    ///
    /// A malformed event line.
    pub fn causal_graph(&self) -> Result<(usize, CausalGraph), String> {
        let (jsonl, section) = match self {
            Saved::Recording(artifact) => (&artifact.trace, "recorded trace"),
            Saved::Dump(snap) => (&snap.events, "blackbox events"),
        };
        let mut events = Ok(0);
        let graph = CausalGraph::from_events_with(|sink| {
            events = TraceEvent::visit_jsonl(jsonl, |ev| sink(&ev));
        });
        let events = events.map_err(|e| format!("{section}: {e}"))?;
        Ok((events, graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_tags_are_named_once_with_both_accepted_tags() {
        for (text, tag) in [("{\"format\": \"other\"}", "other"), ("{}", ""), ("[]", "")] {
            let e = Saved::parse(text).unwrap_err();
            assert_eq!(
                e,
                format!(
                    "unknown format tag `{tag}` (expected `pilgrim-replay` or `pilgrim-blackbox`)"
                )
            );
        }
    }

    #[test]
    fn each_kind_refuses_to_stand_in_for_the_other() {
        let dump = BlackboxSnapshot {
            reason: "manual".into(),
            at: pilgrim_sim::SimTime::ZERO,
            sync_index: 0,
            metrics: String::new(),
            windows: String::new(),
            series: String::new(),
            events: String::new(),
        };
        let saved = Saved::parse(&dump.render()).expect("parses");
        assert_eq!(saved.causal_graph().expect("decodes").0, 0);
        let e = saved.recording().unwrap_err();
        assert!(e.contains("recording is required"), "{e}");
        let e = Artifact::parse(&dump.render()).unwrap_err().to_string();
        assert!(e.contains("recording is required"), "{e}");
    }
}
