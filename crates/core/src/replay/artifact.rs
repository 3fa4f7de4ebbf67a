//! The artifact: a recipe, its journal and the trace they produced, as one
//! self-describing document.

use pilgrim_sim::json::Fields;
use pilgrim_sim::{quote_into, Json};

use super::{Recipe, ReplayError, Stimulus};
use crate::saved::Saved;

/// Artifact format tag, checked on load.
pub const FORMAT: &str = "pilgrim-replay";
/// Artifact format version, checked on load.
pub const VERSION: u32 = 1;

/// A self-describing recording: recipe + stimulus journal + the trace the
/// original run emitted.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// World reconstruction inputs.
    pub recipe: Recipe,
    /// Ordered public-API calls that drove the world.
    pub stimuli: Vec<Stimulus>,
    /// The recorded run's `trace_jsonl()` output, byte-exact.
    pub trace: String,
    /// Folded-stack profile snapshot (`World::folded_stacks`), captured
    /// when the recorded world profiled its VMs. Replay diffs a fresh
    /// profile against this, so a recording also pins *where simulated
    /// time went*, not just what happened.
    pub profile: Option<String>,
}

impl Artifact {
    /// Renders the artifact as one self-describing JSON document
    /// (trailing newline included).
    pub fn render(&self) -> String {
        // The four small sections go through the `Json` writer; the trace
        // and the profile are the bulk of the document and are escaped
        // straight into the output instead of being cloned into a tree
        // first. Byte for byte the six-key object `Json::write` renders.
        let head = Json::obj(vec![
            ("format", Json::Str(FORMAT.to_string())),
            ("version", Json::Int(VERSION as i128)),
            ("recipe", self.recipe.to_json()),
            (
                "stimuli",
                Json::Array(self.stimuli.iter().map(Stimulus::to_json).collect()),
            ),
        ]);
        // Escaping grows a trace by about an eighth (its quotes and
        // newlines); reserve a quarter so the buffer is sized once.
        let bulk = self.trace.len() + self.profile.as_ref().map_or(0, String::len);
        let mut out = String::with_capacity(bulk + bulk / 4 + 4096);
        head.write(&mut out);
        out.pop(); // reopen the object: drop the `}`
        out.push_str(", \"trace\": ");
        quote_into(&self.trace, &mut out);
        out.push_str(", \"profile\": ");
        match &self.profile {
            Some(p) => quote_into(p, &mut out),
            None => out.push_str("null"),
        }
        out.push_str("}\n");
        out
    }

    /// Parses an artifact rendered by [`render`](Artifact::render).
    ///
    /// # Errors
    ///
    /// Everything [`Saved::parse`] rejects, and a well-formed document of
    /// the other kind (a blackbox dump).
    pub fn parse(text: &str) -> Result<Artifact, ReplayError> {
        Saved::parse(text)
            .and_then(Saved::recording)
            .map_err(ReplayError::Format)
    }

    /// The sections of a parsed document whose `format` tag and version
    /// [`Saved::parse`] has already checked.
    pub(crate) fn from_doc(mut doc: Json) -> Result<Artifact, String> {
        let f = Fields::new(&doc, &"recording");
        let recipe = Recipe::from_json(f.object("recipe")?)?;
        let stimuli: Vec<Stimulus> = f.list("stimuli", Stimulus::from_json)?;
        // A journal is outside input too: a station its own recipe does
        // not have is refused here, before a re-run can index with it.
        let stations = recipe.stations();
        if let Some(n) = stimuli
            .iter()
            .flat_map(Stimulus::stations)
            .find(|n| **n >= stations)
        {
            return Err(format!(
                "stimuli: no node {n} in a world of {stations} stations"
            ));
        }
        // The profile is absent in artifacts recorded before profiling
        // existed, and `null` in one that did not profile.
        f.str("trace")?;
        if !matches!(f.opt_get("profile"), None | Some(Json::Null)) {
            f.str("profile")?;
        }
        // Last, because they gut the document: the trace and the profile
        // are most of an artifact's bytes, so they are moved out rather
        // than copied.
        let profile = match doc.get_mut("profile") {
            Some(Json::Str(s)) => Some(std::mem::take(s)),
            _ => None,
        };
        let Some(Json::Str(trace)) = doc.get_mut("trace") else {
            unreachable!("`trace` was read as a string above");
        };
        Ok(Artifact {
            recipe,
            stimuli,
            trace: std::mem::take(trace),
            profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;
    use pilgrim_cclu::Value;
    use pilgrim_mayflower::NodeConfig;

    #[test]
    fn artifact_rejects_foreign_documents() {
        assert!(matches!(
            Artifact::parse("{\"format\": \"other\"}"),
            Err(ReplayError::Format(_))
        ));
        assert!(matches!(
            Artifact::parse("not json"),
            Err(ReplayError::Format(_))
        ));
    }

    /// A small recorded run, profiled or not, whose trace and profile are
    /// then overwritten with text that exercises every escape class.
    fn hostile_artifact(profile: bool) -> Artifact {
        let mut w = World::builder()
            .program("main = proc (s: string)\n print(s)\n end")
            .seed(7)
            .node_config(NodeConfig {
                profile_vm: profile,
                ..NodeConfig::default()
            })
            .build()
            .expect("builds");
        w.spawn(0, "main", vec![Value::Str("arg \"q\"".into())]);
        w.run_until_idle(pilgrim_sim::SimTime::from_secs(1));
        let mut artifact = w.record();
        assert_eq!(artifact.profile.is_some(), profile);
        let hostile = "\"quoted\" back\\slash\ttab \u{1}\u{1f} λ\"→\\😀\n";
        artifact.trace.push_str(hostile);
        if let Some(p) = &mut artifact.profile {
            p.push_str(hostile);
        }
        artifact
    }

    /// The artifact as the six-key document `render` used to build as a
    /// `Json` tree (cloning the trace into it) before it streamed.
    fn document(a: &Artifact) -> Vec<(String, Json)> {
        let Json::Object(pairs) = Json::obj(vec![
            ("format", Json::Str(FORMAT.to_string())),
            ("version", Json::Int(VERSION as i128)),
            ("recipe", a.recipe.to_json()),
            (
                "stimuli",
                Json::Array(a.stimuli.iter().map(Stimulus::to_json).collect()),
            ),
            ("trace", Json::Str(a.trace.clone())),
            (
                "profile",
                match &a.profile {
                    Some(p) => Json::Str(p.clone()),
                    None => Json::Null,
                },
            ),
        ]) else {
            unreachable!("obj builds an object")
        };
        pairs
    }

    fn render_document(pairs: Vec<(String, Json)>) -> String {
        let mut out = String::new();
        Json::Object(pairs).write(&mut out);
        out.push('\n');
        out
    }

    #[test]
    fn streamed_render_matches_the_json_document() {
        for profile in [false, true] {
            let a = hostile_artifact(profile);
            let text = a.render();
            assert_eq!(text, render_document(document(&a)));
            let back = Artifact::parse(&text).expect("parses");
            assert_eq!(back.trace, a.trace);
            assert_eq!(back.profile, a.profile);
            assert_eq!(back.render(), text);
        }
    }

    /// `Artifact::parse` moves the trace out of the parsed document; what
    /// it accepts and which `trace` key wins must not have moved with it.
    #[test]
    fn trace_key_handling_is_unchanged_by_moving_it_out() {
        let a = hostile_artifact(false);
        let refused =
            |pairs: Vec<(String, Json)>, want: &str| match Artifact::parse(&render_document(pairs))
            {
                Err(ReplayError::Format(e)) => assert_eq!(e, want),
                other => panic!("expected a format error, got {other:?}"),
            };
        let at = |pairs: &[(String, Json)]| pairs.iter().position(|(k, _)| k == "trace").unwrap();

        let mut pairs = document(&a);
        pairs.remove(at(&pairs));
        refused(pairs, "recording: missing `trace`");

        for not_a_string in [Json::Int(5), Json::Null, Json::Array(vec![])] {
            let mut pairs = document(&a);
            let i = at(&pairs);
            pairs[i].1 = not_a_string;
            // A later, well-formed duplicate does not rescue it: lookup
            // is first-key-wins.
            pairs.push(("trace".to_string(), Json::Str("later".into())));
            refused(pairs, "recording: `trace` out of range");
        }

        let mut pairs = document(&a);
        pairs.push(("trace".to_string(), Json::Str("later".into())));
        let first_wins = Artifact::parse(&render_document(pairs)).expect("parses");
        assert_eq!(first_wins.trace, a.trace);
        assert_eq!(first_wins.render(), a.render());
    }

    #[test]
    fn runaway_nesting_in_an_artifact_is_an_error() {
        for unit in ["[", "{\"a\":"] {
            let bare = unit.repeat(100_000);
            let in_recipe =
                format!("{{\"format\": \"{FORMAT}\", \"version\": {VERSION}, \"recipe\": {bare}");
            for text in [bare.as_str(), in_recipe.as_str()] {
                match Artifact::parse(text) {
                    Err(ReplayError::Format(e)) => {
                        assert!(e.contains("nesting deeper than"), "{e}")
                    }
                    other => panic!("expected a format error, got {other:?}"),
                }
            }
        }
    }
}
