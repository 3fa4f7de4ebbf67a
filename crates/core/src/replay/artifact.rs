//! The artifact: a recipe, its journal and the trace they produced, as one
//! self-describing document.
//!
//! Version 2 lays a recording out as a one-line JSON header followed by
//! the trace as it was emitted: `format`, `version`, `recipe`, `stimuli`,
//! `profile` and `trace_bytes` on the first line, then exactly
//! `trace_bytes` bytes of JSON Lines. The `Json` writer escapes every
//! newline inside a string, so the header's own `\n` is the first one in
//! the file. Version 1 held the trace as an escaped `trace` string inside
//! one document; it still loads, through the same decoder.

use std::borrow::Cow;

use pilgrim_sim::json::Fields;
use pilgrim_sim::Json;

use super::{Recipe, ReplayError, Stimulus};
use crate::saved::Saved;

/// Artifact format tag, checked on load.
pub const FORMAT: &str = "pilgrim-replay";
/// Artifact format version written by [`Artifact::render`]; versions 1
/// through this one load.
pub const VERSION: u32 = 2;

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
    /// Renders the artifact: the one-line header, then the trace raw.
    pub fn render(&self) -> String {
        let head = Json::obj(vec![
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
            ("trace_bytes", Json::Int(self.trace.len() as i128)),
        ]);
        let mut out = String::new();
        head.write(&mut out);
        out.push('\n');
        // The trace is most of a recording's bytes: one append, into a
        // buffer grown once to exactly its size.
        out.reserve_exact(self.trace.len());
        out.push_str(&self.trace);
        out
    }

    /// Parses an artifact rendered by [`render`](Artifact::render), or a
    /// version 1 document.
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
    /// [`Saved::parse`] has already checked. `body` is a version 2
    /// recording's trace, the text after the header; `None` reads a
    /// version 1 document's escaped `trace` string instead.
    pub(crate) fn from_doc(mut doc: Json, body: Option<Cow<'_, str>>) -> Result<Artifact, String> {
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
        match &body {
            Some(body) => {
                let declared: usize = f.uint("trace_bytes")?;
                if declared != body.len() {
                    return Err(format!(
                        "recording: `trace_bytes` is {declared} but {} bytes follow the header",
                        body.len()
                    ));
                }
            }
            None => {
                f.str("trace")?;
            }
        }
        // The profile is absent in artifacts recorded before profiling
        // existed, and `null` in one that did not profile.
        if !matches!(f.opt_get("profile"), None | Some(Json::Null)) {
            f.str("profile")?;
        }
        // Last, because they gut the document: a version 1 trace and the
        // profile are moved out rather than copied.
        let profile = match doc.get_mut("profile") {
            Some(Json::Str(s)) => Some(std::mem::take(s)),
            _ => None,
        };
        let trace = match body {
            Some(body) => body.into_owned(),
            None => match doc.get_mut("trace") {
                Some(Json::Str(trace)) => std::mem::take(trace),
                _ => unreachable!("`trace` was read as a string above"),
            },
        };
        Ok(Artifact {
            recipe,
            stimuli,
            trace,
            profile,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// A small recorded run, profiled or not, that printed [`HOSTILE`],
    /// so its trace holds every escape class inside its event lines.
    fn recorded(profile: bool) -> Artifact {
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
        let artifact = w.record();
        assert_eq!(artifact.profile.is_some(), profile);
        artifact
    }

    /// [`recorded`], whose trace and profile are then overwritten with
    /// [`HOSTILE`] as raw text: a trace line that is not JSON, and a raw
    /// newline in the profile.
    fn hostile_artifact(profile: bool) -> Artifact {
        let mut artifact = recorded(profile);
        artifact.trace.push_str(HOSTILE);
        if let Some(p) = &mut artifact.profile {
            p.push_str(HOSTILE);
        }
        artifact
    }

    /// The artifact as the six-key version 1 document: the trace an
    /// escaped string inside it, the whole recording one line.
    fn document(a: &Artifact) -> Vec<(String, Json)> {
        let Json::Object(pairs) = Json::obj(vec![
            ("format", Json::Str(FORMAT.to_string())),
            ("version", Json::Int(1)),
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

    /// `a` rendered as a version 1 recording.
    pub(crate) fn version_1(a: &Artifact) -> String {
        render_document(document(a))
    }

    /// The version 2 header built from the version 1 document: the same
    /// sections, `trace` swapped for `trace_bytes` after the profile.
    fn header(a: &Artifact) -> Vec<(String, Json)> {
        let mut pairs = document(a);
        pairs[1].1 = Json::Int(VERSION as i128);
        pairs.retain(|(k, _)| k != "trace");
        pairs.push(("trace_bytes".into(), Json::Int(a.trace.len() as i128)));
        pairs
    }

    /// A rendering is the `Json` writer's header line, then the trace
    /// byte for byte.
    #[test]
    fn streamed_render_matches_the_json_document() {
        for profile in [false, true] {
            let a = hostile_artifact(profile);
            let text = a.render();
            assert_eq!(text, render_document(header(&a)) + &a.trace);
            // The raw newline in the profile is escaped: the header is
            // one line, and the first newline ends it.
            let (head, body) = text.split_once('\n').expect("has a header line");
            assert_eq!(body, a.trace);
            assert!(Json::parse(head).is_ok());
            let back = Artifact::parse(&text).expect("parses");
            assert_eq!(back.trace, a.trace);
            assert_eq!(back.profile, a.profile);
            assert_eq!(back.render(), text);
        }
    }

    /// A version 1 recording loads through the same decoder as the
    /// version 2 rendering of the same artifact, to equal fields, and
    /// both replay byte-identically.
    #[test]
    fn a_version_1_recording_loads_and_replays_like_version_2() {
        let a = recorded(true);
        assert!(a
            .trace
            .contains("\\\"quoted\\\" back\\\\slash\\ttab \\u0001"));
        let v1 = version_1(&a);
        let v2 = a.render();
        assert_ne!(v1, v2);
        assert_eq!(v1.lines().count(), 1);
        let from_v1 = Artifact::parse(&v1).expect("version 1 parses");
        let from_v2 = Artifact::parse(&v2).expect("version 2 parses");
        for back in [&from_v1, &from_v2] {
            assert_eq!(back.recipe.to_json(), a.recipe.to_json());
            let journal =
                |a: &Artifact| a.stimuli.iter().map(Stimulus::to_json).collect::<Vec<_>>();
            assert_eq!(journal(back), journal(&a));
            assert_eq!(back.trace, a.trace);
            assert_eq!(back.profile, a.profile);
            let report = replay(back).expect("replays");
            assert!(report.byte_identical, "{:?}", report.divergence);
            assert_eq!(report.profile_identical, Some(true));
        }
        // Loaded from either form, the recording renders as version 2.
        assert_eq!(from_v1.render(), v2);
        assert_eq!(from_v2.render(), v2);
    }

    /// `Artifact::parse` moves the trace out of a version 1 document;
    /// what it accepts and which `trace` key wins must not have moved
    /// with it. A version 2 header's trace is its body: a `trace` key in
    /// it is not read, and the first `trace_bytes` wins.
    #[test]
    fn trace_key_handling_is_unchanged_by_moving_it_out() {
        let a = hostile_artifact(false);
        let refused = |pairs: Vec<(String, Json)>, body: &str, want: &str| match Artifact::parse(
            &(render_document(pairs) + body),
        ) {
            Err(ReplayError::Format(e)) => assert_eq!(e, want),
            other => panic!("expected a format error, got {other:?}"),
        };
        let at =
            |pairs: &[(String, Json)], key: &str| pairs.iter().position(|(k, _)| k == key).unwrap();

        let mut pairs = document(&a);
        pairs.remove(at(&pairs, "trace"));
        refused(pairs, "", "recording: missing `trace`");

        for not_a_string in [Json::Int(5), Json::Null, Json::Array(vec![])] {
            let mut pairs = document(&a);
            let i = at(&pairs, "trace");
            pairs[i].1 = not_a_string;
            // A later, well-formed duplicate does not rescue it: lookup
            // is first-key-wins.
            pairs.push(("trace".to_string(), Json::Str("later".into())));
            refused(pairs, "", "recording: `trace` out of range");
        }

        let mut pairs = document(&a);
        pairs.push(("trace".to_string(), Json::Str("later".into())));
        let first_wins = Artifact::parse(&render_document(pairs)).expect("parses");
        assert_eq!(first_wins.trace, a.trace);
        assert_eq!(first_wins.render(), a.render());

        let mut pairs = header(&a);
        pairs.insert(2, ("trace".to_string(), Json::Str("ignored".into())));
        let len = a.trace.len() as i128;
        pairs.push(("trace_bytes".to_string(), Json::Int(len + 1)));
        let body_wins = Artifact::parse(&(render_document(pairs) + &a.trace)).expect("parses");
        assert_eq!(body_wins.trace, a.trace);
        assert_eq!(body_wins.render(), a.render());

        let mut pairs = header(&a);
        pairs.remove(at(&pairs, "trace_bytes"));
        refused(pairs, &a.trace, "recording: missing `trace_bytes`");
        let mut pairs = header(&a);
        let i = at(&pairs, "trace_bytes");
        pairs[i].1 = Json::Int(len - 1);
        refused(
            pairs,
            &a.trace,
            &format!(
                "recording: `trace_bytes` is {} but {len} bytes follow the header",
                len - 1
            ),
        );
    }

    /// Every recipe key that named a value this build fixes, at the value
    /// every recording made while it was settable holds: `(section, key,
    /// value)`, section `None` for the recipe's own keys.
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

    /// Appends `key: value` to the recipe in `pairs`, or to its `section`.
    fn add_recipe_key(pairs: &mut [(String, Json)], section: Option<&str>, key: &str, v: Json) {
        let mut object = &mut pairs[2].1;
        assert_eq!(pairs[2].0, "recipe");
        if let Some(section) = section {
            object = object.get_mut(section).expect("recipe has the section");
        }
        let Json::Object(members) = object else {
            unreachable!("recipe sections are objects")
        };
        members.push((key.to_string(), v));
    }

    /// A recording made while the retired keys were written, each at its
    /// constant's value, loads as version 1 and as version 2, replays
    /// byte-identically and renders without them.
    #[test]
    fn hostile_retired_keys_at_their_fixed_values_load_and_replay() {
        let a = recorded(true);
        let mut v1 = document(&a);
        let mut v2 = header(&a);
        for (section, key, value) in RETIRED {
            add_recipe_key(&mut v1, section, key, Json::Int(value));
            add_recipe_key(&mut v2, section, key, Json::Int(value));
        }
        let v1 = render_document(v1);
        let v2 = render_document(v2) + &a.trace;
        for text in [v1, v2] {
            assert!(text.contains("\"retry_interval_us\": 200000"));
            let back = Artifact::parse(&text).expect("an old recording loads");
            assert_eq!(back.recipe.to_json(), a.recipe.to_json());
            let report = replay(&back).expect("replays");
            assert!(report.byte_identical, "{:?}", report.divergence);
            assert_eq!(back.render(), a.render());
        }
    }

    /// A retired key at any other value — another number, another type,
    /// a number no `u64` holds — is one error naming the key and both
    /// values, in either version, never a panic and never a replay under
    /// another cost model.
    #[test]
    fn hostile_retired_keys_off_their_fixed_values_are_refused_by_name() {
        let a = recorded(false);
        for (section, key, value) in RETIRED {
            let wrong = [
                (Json::Int(value + 1), (value + 1).to_string()),
                (Json::Str("x".into()), "\"x\"".to_string()),
                (Json::Int(1 << 100), (1_i128 << 100).to_string()),
                (Json::Float(1e300), Json::Float(1e300).to_string()),
                (Json::Int(-value), (-value).to_string()),
            ];
            for (v, shown) in wrong {
                let mut v1 = document(&a);
                add_recipe_key(&mut v1, section, key, v.clone());
                let mut v2 = header(&a);
                add_recipe_key(&mut v2, section, key, v);
                let v2 = render_document(v2) + &a.trace;
                for text in [render_document(v1), v2] {
                    match Artifact::parse(&text) {
                        Err(ReplayError::Format(e)) => {
                            let want =
                                format!("`{key}` is {shown}, but this build fixes it at {value}");
                            assert!(e.ends_with(&want), "{e}");
                            assert_eq!(e.lines().count(), 1);
                        }
                        other => panic!("{key} = {shown}: expected a format error, got {other:?}"),
                    }
                }
            }
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
