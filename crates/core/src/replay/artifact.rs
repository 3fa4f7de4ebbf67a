//! The artifact: a recipe, its journal and the trace they produced, as one
//! self-describing document.
//!
//! A recording is a one-line JSON header followed by the trace as it was
//! emitted: `format`, `version`, `recipe`, `stimuli`, `profile` and
//! `trace_bytes` on the first line, then exactly `trace_bytes` bytes of
//! JSON Lines. The `Json` writer escapes every newline inside a string,
//! so the header's own `\n` is the first one in the file. Only
//! [`VERSION`] loads, and every key the writer emits is required.

use std::borrow::Cow;

use pilgrim_sim::json::Fields;
use pilgrim_sim::{Json, Trace};

use super::{Recipe, ReplayError, Stimulus};
use crate::saved::Saved;

/// Artifact format tag, checked on load.
pub const FORMAT: &str = "pilgrim-replay";
/// Artifact format version written by [`Artifact::render`], and the only
/// one that loads.
pub const VERSION: u32 = 3;

/// A self-describing recording: recipe + stimulus journal + the trace the
/// original run emitted.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// World reconstruction inputs.
    pub recipe: Recipe,
    /// Ordered public-API calls that drove the world.
    pub stimuli: Vec<Stimulus>,
    /// The recorded run's trace: its `trace_jsonl()` lines, byte-exact.
    /// [`World::record`](crate::World::record) keeps the tracer's
    /// records; a parsed recording keeps the text that followed its
    /// header.
    pub trace: Trace,
    /// Folded-stack profile snapshot (`World::folded_stacks`), captured
    /// when the recorded world profiled its VMs. Replay diffs a fresh
    /// profile against this, so a recording also pins *where simulated
    /// time went*, not just what happened.
    pub profile: Option<String>,
}

impl Artifact {
    /// Renders the artifact: the one-line header, then the trace raw.
    ///
    /// The trace is most of a recording's bytes, so it is written once,
    /// straight into a buffer reserved for it and the header; the header,
    /// which ends with the trace's true length, then goes in front, and
    /// the buffer is trimmed to its length.
    pub fn render(&self) -> String {
        let mut head = String::new();
        self.header(0).write(&mut head);
        debug_assert!(head.ends_with("\"trace_bytes\": 0}"));
        let stem = head.len() - "0}".len();
        let hint = self.trace.jsonl_len_hint();
        let mut out = String::with_capacity(stem + hint.to_string().len() + "}\n".len() + hint);
        self.trace.write_jsonl(&mut out);
        head.truncate(stem);
        head.push_str(&out.len().to_string());
        head.push_str("}\n");
        out.insert_str(0, &head);
        out.shrink_to_fit();
        out
    }

    /// The header [`render`](Artifact::render) writes, its `trace_bytes`
    /// (the last member) given.
    fn header(&self, trace_bytes: usize) -> Json {
        Json::obj(vec![
            ("format", Json::Str(FORMAT.to_string())),
            ("version", Json::Int(VERSION as i128)),
            ("recipe", self.recipe.to_json()),
            (
                "stimuli",
                Json::Array(self.stimuli.iter().map(Stimulus::to_json).collect()),
            ),
            (
                "profile",
                self.profile.clone().map_or(Json::Null, Json::Str),
            ),
            ("trace_bytes", Json::Int(trace_bytes as i128)),
        ])
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

    /// The sections of a parsed header whose `format` tag and version
    /// [`Saved::parse`] has already checked; `body` is the text after the
    /// header, the recorded trace.
    pub(crate) fn from_doc(mut doc: Json, body: Cow<'_, str>) -> Result<Artifact, String> {
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
        let declared: usize = f.uint("trace_bytes")?;
        if declared != body.len() {
            return Err(format!(
                "recording: `trace_bytes` is {declared} but {} bytes follow the header",
                body.len()
            ));
        }
        // `null` is how the writer says "not profiled".
        if f.get("profile")? != &Json::Null {
            f.str("profile")?;
        }
        // `format` and `version` were checked before any section was read.
        f.get("format")?;
        f.get("version")?;
        f.finish()?;
        // Last, because it guts the document: the profile is moved out
        // rather than copied.
        let profile = match doc.get_mut("profile") {
            Some(Json::Str(s)) => Some(std::mem::take(s)),
            _ => None,
        };
        Ok(Artifact {
            recipe,
            stimuli,
            trace: Trace::from(body.into_owned()),
            profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
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

    /// Text that exercises every escape class a JSON string has.
    const HOSTILE: &str = "\"quoted\" back\\slash\ttab \u{1}\u{1f} λ\"→\\😀\n";

    /// A small run, profiled or not, that printed [`HOSTILE`], so its
    /// trace holds every escape class inside its event lines.
    fn hostile_world(profile: bool) -> World {
        let mut w = World::builder()
            .program("main = proc (s: string)\n print(s)\n end")
            .seed(7)
            .node_config(NodeConfig {
                profile_vm: profile,
                ..NodeConfig::default()
            })
            .build()
            .expect("builds");
        w.spawn(0, "main", vec![Value::Str(HOSTILE.into())]);
        w.run_until_idle(pilgrim_sim::SimTime::from_secs(1));
        w
    }

    /// [`hostile_world`]'s recording.
    fn recorded(profile: bool) -> Artifact {
        let artifact = hostile_world(profile).record();
        assert_eq!(artifact.profile.is_some(), profile);
        artifact
    }

    /// [`recorded`], whose trace and profile are then overwritten with
    /// [`HOSTILE`] as raw text: a trace line that is not JSON, and a raw
    /// newline in the profile.
    fn hostile_artifact(profile: bool) -> Artifact {
        let mut artifact = recorded(profile);
        artifact.trace = (artifact.trace.text().into_owned() + HOSTILE).into();
        if let Some(p) = &mut artifact.profile {
            p.push_str(HOSTILE);
        }
        artifact
    }

    /// The header [`Artifact::render`] writes for `a`, as members.
    fn header(a: &Artifact) -> Vec<(String, Json)> {
        let Json::Object(pairs) = Json::obj(vec![
            ("format", Json::Str(FORMAT.to_string())),
            ("version", Json::Int(VERSION as i128)),
            ("recipe", a.recipe.to_json()),
            (
                "stimuli",
                Json::Array(a.stimuli.iter().map(Stimulus::to_json).collect()),
            ),
            (
                "profile",
                match &a.profile {
                    Some(p) => Json::Str(p.clone()),
                    None => Json::Null,
                },
            ),
            ("trace_bytes", Json::Int(a.trace.text().len() as i128)),
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

    /// `pairs` with its `version` set to `version`.
    fn at_version(mut pairs: Vec<(String, Json)>, version: i128) -> Vec<(String, Json)> {
        assert_eq!(pairs[1].0, "version");
        pairs[1].1 = Json::Int(version);
        pairs
    }

    /// `text` must be refused as one line reading `want`.
    fn refused(text: &str, want: &str) {
        match Artifact::parse(text) {
            Err(ReplayError::Format(e)) => assert_eq!(e, want),
            other => panic!("expected `{want}`, got {other:?}"),
        }
    }

    /// A rendering is the `Json` writer's header line, then the trace
    /// byte for byte, and it round-trips through `parse` to a replay
    /// that matches it byte for byte.
    #[test]
    fn streamed_render_matches_the_json_document() {
        for profile in [false, true] {
            let a = hostile_artifact(profile);
            let trace = a.trace.text();
            let text = a.render();
            assert_eq!(text, render_document(header(&a)) + &trace);
            // The raw newline in the profile is escaped: the header is
            // one line, and the first newline ends it.
            let (head, body) = text.split_once('\n').expect("has a header line");
            assert_eq!(body, trace);
            assert!(Json::parse(head).is_ok());
            let back = Artifact::parse(&text).expect("parses");
            assert_eq!(back.trace.text(), trace);
            assert_eq!(back.profile, a.profile);
            assert_eq!(back.render(), text);
        }
        let a = recorded(true);
        let back = Artifact::parse(&a.render()).expect("parses");
        let report = replay(&back).expect("replays");
        assert!(report.byte_identical, "{:?}", report.divergence);
        assert_eq!(report.profile_identical, Some(true));
        assert_eq!(report.world.record().render(), a.render());
    }

    /// A recording keeps the tracer's records, and renders exactly what
    /// the tracer renders: the header, then `trace_jsonl()` byte for byte,
    /// in a buffer with no slack. Its parsed text form renders the same
    /// bytes, and the two forms of one run replay alike.
    #[test]
    fn a_recording_renders_what_the_tracer_renders() {
        for profile in [false, true] {
            let w = hostile_world(profile);
            let a = w.record();
            let text = a.render();
            assert_eq!(text, render_document(header(&a)) + &w.trace_jsonl());
            assert_eq!(text.capacity(), text.len(), "the rendering carries slack");
            let back = Artifact::parse(&text).expect("parses");
            assert_eq!(back.render(), text);
            let live = replay(&a).expect("the records form replays");
            let loaded = replay(&back).expect("the text form replays");
            assert!(live.byte_identical, "{:?}", live.divergence);
            assert!(live.divergence.is_none() && loaded.divergence.is_none());
            assert_eq!(live.recorded_events, loaded.recorded_events);
            assert_eq!(live.byte_identical, loaded.byte_identical);
            assert_eq!(live.profile_identical, loaded.profile_identical);
            assert_eq!(live.profile_identical, profile.then_some(true));
            assert_eq!(live.world.record().render(), loaded.world.record().render());
        }
    }

    /// Only this build's version loads. A version 1 rendering (the trace
    /// an escaped `trace` string in a one-line document) and a version 2
    /// one (this layout) are both refused by their version, whatever
    /// else they hold.
    #[test]
    fn hostile_version_1_and_2_renderings_are_refused_by_version() {
        let a = recorded(true);
        let trace = a.trace.text();
        assert!(trace.contains("\\\"quoted\\\" back\\\\slash\\ttab \\u0001"));
        let mut v1 = at_version(header(&a), 1);
        v1.pop();
        v1.insert(4, ("trace".to_string(), Json::Str(trace.to_string())));
        let v1 = render_document(v1);
        assert_eq!(v1.lines().count(), 1);
        let v2 = render_document(at_version(header(&a), 2)) + &trace;
        for (version, text) in [(1, &v1), (2, &v2)] {
            refused(
                text,
                &format!("unsupported {FORMAT} version {version} (expected {VERSION})"),
            );
        }
    }

    /// A header's trace is its body: a `trace` key in it is refused as a
    /// key no decoder reads, and a second `trace_bytes` as a duplicate.
    /// An absent or misdeclared `trace_bytes` is refused by name.
    #[test]
    fn a_trace_key_or_a_second_trace_bytes_is_refused() {
        let a = hostile_artifact(false);
        let trace = a.trace.text();
        let refused_with = |pairs: Vec<(String, Json)>, body: &str, want: &str| {
            refused(&(render_document(pairs) + body), want)
        };
        let at =
            |pairs: &[(String, Json)], key: &str| pairs.iter().position(|(k, _)| k == key).unwrap();

        let mut pairs = header(&a);
        pairs.insert(2, ("trace".to_string(), Json::Str("ignored".into())));
        refused_with(pairs, &trace, "recording: unknown key `trace`");
        let mut pairs = header(&a);
        let len = trace.len() as i128;
        pairs.push(("trace_bytes".to_string(), Json::Int(len + 1)));
        refused_with(pairs, &trace, "recording: duplicate key `trace_bytes`");

        let mut pairs = header(&a);
        pairs.remove(at(&pairs, "trace_bytes"));
        refused_with(pairs, &trace, "recording: missing `trace_bytes`");
        let mut pairs = header(&a);
        let i = at(&pairs, "trace_bytes");
        pairs[i].1 = Json::Int(len - 1);
        refused_with(
            pairs,
            &trace,
            &format!(
                "recording: `trace_bytes` is {} but {len} bytes follow the header",
                len - 1
            ),
        );
    }

    /// A recording made while fourteen cost-model keys were settable
    /// (the recipe's `window_us`, ten RPC costs and `header_bytes`, the
    /// agent's request cost and halt budget) is version 2. Such a header
    /// is refused by its version whatever the keys hold — at the value
    /// this build fixes, or at another — so no recording replays under a
    /// cost model it was not made with.
    #[test]
    fn hostile_retired_keys_are_refused_by_version() {
        const RETIRED: [(Option<&str>, &str, i128); 14] = [
            (None, "window_us", 1_000),
            (Some("rpc"), "client_send_us", 2_500),
            (Some("rpc"), "server_recv_us", 2_500),
            (Some("rpc"), "server_send_us", 2_000),
            (Some("rpc"), "client_recv_us", 2_000),
            (Some("rpc"), "debug_client_call_us", 180),
            (Some("rpc"), "debug_client_done_us", 60),
            (Some("rpc"), "debug_server_us", 160),
            (Some("rpc"), "monitor_per_packet_us", 4_000),
            (Some("rpc"), "retry_interval_us", 200_000),
            (Some("rpc"), "maybe_timeout_us", 40_000),
            (Some("rpc"), "header_bytes", 32),
            (Some("agent"), "request_cost_us", 200),
            (Some("agent"), "halt_retransmit", 8),
        ];
        let a = recorded(false);
        for shift in [0, 1] {
            let mut v2 = at_version(header(&a), 2);
            assert_eq!(v2[2].0, "recipe");
            for (section, key, value) in RETIRED {
                let mut object = &mut v2[2].1;
                if let Some(section) = section {
                    object = object.get_mut(section).expect("recipe has the section");
                }
                let Json::Object(members) = object else {
                    unreachable!("recipe sections are objects")
                };
                members.push((key.to_string(), Json::Int(value + shift)));
            }
            let text = render_document(v2) + &a.trace.text();
            assert!(text.contains(&format!("\"retry_interval_us\": {}", 200_000 + shift)));
            refused(
                &text,
                &format!("unsupported {FORMAT} version 2 (expected {VERSION})"),
            );
        }
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
