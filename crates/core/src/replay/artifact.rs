//! The artifact: a recipe, its journal and a digest of each event of the
//! trace they produced, as one self-describing document.
//!
//! A recording is a one-line JSON header followed by one line per trace
//! event: `format`, `version`, `recipe`, `stimuli`, `profile` and
//! `trace_events` on the first line, then `trace_events` lines of 16
//! lowercase hex digits and a newline, each the
//! [`line_digest`](pilgrim_sim::line_digest) of one event's JSON line.
//! The trace itself is not kept: a replay re-creates it from the recipe
//! and the journal, and checks it against the digests. The `Json` writer
//! escapes every newline inside a string, so the header's own `\n` is the
//! first one in the file. Only [`VERSION`] loads, and every key the
//! writer emits is required.

use std::fmt::Write as _;

use pilgrim_sim::json::Fields;
use pilgrim_sim::Json;

use super::{Recipe, ReplayError, Stimulus};
use crate::saved::Saved;

/// Artifact format tag, checked on load.
pub const FORMAT: &str = "pilgrim-replay";
/// Artifact format version written by [`Artifact::render`], and the only
/// one that loads.
pub const VERSION: u32 = 4;

/// Bytes of one digest line: 16 hex digits and a newline.
const DIGEST_LINE: usize = 17;

/// A self-describing recording: recipe + stimulus journal + a digest of
/// each event the original run traced.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// World reconstruction inputs.
    pub recipe: Recipe,
    /// Ordered public-API calls that drove the world.
    pub stimuli: Vec<Stimulus>,
    /// The recorded run's trace, one [`line_digest`](pilgrim_sim::line_digest)
    /// per retained event, oldest first ([`Tracer::digests`](pilgrim_sim::Tracer::digests)).
    pub digests: Vec<u64>,
    /// Folded-stack profile snapshot (`World::folded_stacks`), captured
    /// when the recorded world profiled its VMs. Replay diffs a fresh
    /// profile against this, so a recording also pins *where simulated
    /// time went*, not just what happened.
    pub profile: Option<String>,
}

impl Artifact {
    /// Renders the artifact: the one-line header, then one digest line
    /// per event.
    pub fn render(&self) -> String {
        let header = Json::obj(vec![
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
            ("trace_events", Json::Int(self.digests.len() as i128)),
        ]);
        let mut out = String::new();
        header.write(&mut out);
        out.push('\n');
        out.reserve_exact(DIGEST_LINE * self.digests.len());
        for digest in &self.digests {
            // Writing into a `String` cannot fail.
            let _ = writeln!(out, "{digest:016x}");
        }
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

    /// The sections of a parsed header whose `format` tag and version
    /// [`Saved::parse`] has already checked; `body` is the text after the
    /// header, the digest lines.
    pub(crate) fn from_doc(mut doc: Json, body: &str) -> Result<Artifact, String> {
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
        // The body's length is checked against the declared count before
        // anything is reserved for it.
        let events: usize = f.uint("trace_events")?;
        if events.checked_mul(DIGEST_LINE) != Some(body.len()) {
            return Err(format!(
                "recording: `trace_events` is {events} but {} bytes follow the header \
                 ({DIGEST_LINE} per event)",
                body.len()
            ));
        }
        let mut digests = Vec::with_capacity(events);
        for (i, line) in body.as_bytes().chunks_exact(DIGEST_LINE).enumerate() {
            let digest = parse_digest(line).ok_or_else(|| {
                format!(
                    "recording: line {}: not 16 lowercase hex digits and a newline \
                     (the digest of event {i})",
                    i + 2
                )
            })?;
            digests.push(digest);
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
            digests,
            profile,
        })
    }
}

/// One digest line: exactly 16 lowercase hex digits, then a newline.
/// Every digit is read, and whether all were hex is asked once at the
/// end: returning at the first bad byte made the loop branch on each one,
/// and parsing a 40 000-line body took five times as long.
fn parse_digest(line: &[u8]) -> Option<u64> {
    let [hex @ .., b'\n'] = line else {
        return None;
    };
    let mut digest = 0u64;
    let mut all_hex = true;
    for &b in hex {
        let digit = b.wrapping_sub(b'0');
        let letter = b.wrapping_sub(b'a');
        all_hex &= digit < 10 || letter < 6;
        let nibble = if digit < 10 {
            digit
        } else {
            letter.wrapping_add(10)
        };
        digest = digest << 4 | u64::from(nibble & 0xf);
    }
    all_hex.then_some(digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
    use crate::World;
    use pilgrim_cclu::Value;
    use pilgrim_mayflower::NodeConfig;
    use pilgrim_sim::line_digest;

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
            ("trace_events", Json::Int(a.digests.len() as i128)),
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

    /// `a`'s digest lines.
    fn body(a: &Artifact) -> String {
        a.digests.iter().map(|d| format!("{d:016x}\n")).collect()
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

    /// [`line_digest`] as its documentation states it, one byte at a
    /// time: the oracle the word-wise fold is checked against.
    fn digest_by_the_book(line: &[u8]) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut h = K ^ line.len() as u64;
        let mut word = 0u64;
        for (i, &b) in line.iter().enumerate() {
            word |= u64::from(b) << (8 * (i % 8));
            if i % 8 == 7 || i + 1 == line.len() {
                h = (h ^ word).wrapping_mul(K).rotate_left(31);
                word = 0;
            }
        }
        h ^= h >> 32;
        h = h.wrapping_mul(K);
        h ^ (h >> 29)
    }

    /// The digest is part of the format: these values are pinned, at
    /// lengths 0, 1, 7, 8, 9 and 16 and on one whole event line, and
    /// every prefix of that line agrees with the byte-wise oracle.
    #[test]
    fn hostile_digest_test_vectors_are_pinned() {
        let line = "{\"time_us\": 5000, \"category\": \"vm\", \"node\": 0, \"span\": null, \
                    \"kind\": \"Print\", \"message\": \"p1: got 42\", \"data\": {\"text\": \"got 42\"}}";
        let vectors: [(&str, u64); 7] = [
            ("", 0xab16_9ebd_5d0c_32dc),
            ("a", 0xa18b_1b61_1749_1e19),
            ("abcdefg", 0x0274_b5c5_f90d_0bff),
            ("abcdefgh", 0xd64c_bef5_7621_9532),
            ("abcdefghi", 0x5f16_8a23_acd5_b644),
            ("0123456789abcdef", 0xec96_881a_33d6_dd16),
            (line, 0x53f7_08f3_58b8_5bc4),
        ];
        for (text, want) in vectors {
            assert_eq!(line_digest(text.as_bytes()), want, "digest of {text:?}");
        }
        for cut in 0..=line.len() {
            let prefix = &line.as_bytes()[..cut];
            assert_eq!(line_digest(prefix), digest_by_the_book(prefix), "at {cut}");
        }
        // A zero byte appended is another length, so another digest.
        assert_ne!(line_digest(b"a"), line_digest(b"a\0"));
    }

    /// A rendering is the `Json` writer's header line, then one digest
    /// line per event, each the digest of that event's JSON line; it
    /// round-trips through `parse` exactly, and replays. A profile that
    /// holds every escape class and a raw newline round-trips too.
    #[test]
    fn hostile_render_parse_render_round_trips_exactly() {
        for profile in [false, true] {
            let w = hostile_world(profile);
            let mut a = w.record();
            let lines: Vec<u64> = w
                .trace_jsonl()
                .lines()
                .map(|l| line_digest(l.as_bytes()))
                .collect();
            assert!(a.digests == lines && !lines.is_empty());
            let text = a.render();
            assert_eq!(text, render_document(header(&a)) + &body(&a));
            let report = replay(&Artifact::parse(&text).expect("parses")).expect("replays");
            assert!(report.byte_identical, "{:?}", report.divergence);
            assert_eq!(report.profile_identical, profile.then_some(true));
            assert_eq!(report.world.record().render(), text);

            if let Some(p) = &mut a.profile {
                p.push_str(HOSTILE);
            }
            let text = a.render();
            // The raw newline in the profile is escaped: the header is one
            // line, and the first newline ends it.
            let (head, rest) = text.split_once('\n').expect("has a header line");
            assert_eq!(rest.len(), 17 * a.digests.len());
            assert!(Json::parse(head).is_ok());
            let back = Artifact::parse(&text).expect("parses");
            assert!(back.digests == a.digests);
            assert_eq!(back.profile, a.profile);
            assert_eq!(back.render(), text);
        }
    }

    /// Only this build's version loads. A version 3 rendering (the trace
    /// as raw JSON Lines after a `trace_bytes` header), and versions 2 and
    /// 1, are refused by their version, whatever else they hold.
    #[test]
    fn hostile_version_3_and_older_renderings_are_refused_by_version() {
        let a = recorded(true);
        let w = hostile_world(true);
        let jsonl = w.trace_jsonl();
        let mut v3 = at_version(header(&a), 3);
        v3.pop();
        v3.push(("trace_bytes".to_string(), Json::Int(jsonl.len() as i128)));
        let v3 = render_document(v3) + &jsonl;
        let v2 = render_document(at_version(header(&a), 2)) + &body(&a);
        let v1 = render_document(at_version(header(&a), 1));
        for (version, text) in [(3, &v3), (2, &v2), (1, &v1)] {
            refused(
                text,
                &format!("unsupported {FORMAT} version {version} (expected {VERSION})"),
            );
        }
        assert_eq!(
            Artifact::parse(&v3).unwrap_err().to_string(),
            "artifact format: unsupported pilgrim-replay version 3 (expected 4)"
        );
    }

    /// A header's trace is its body: a `trace` or `trace_bytes` key in it
    /// is refused as a key no decoder reads, and a second `trace_events`
    /// as a duplicate. An absent or misdeclared `trace_events` is refused
    /// by name.
    #[test]
    fn hostile_trace_keys_and_a_misdeclared_count_are_refused() {
        let a = recorded(false);
        let body = body(&a);
        let refused_with = |pairs: Vec<(String, Json)>, want: &str| {
            refused(&(render_document(pairs) + &body), want)
        };
        let at =
            |pairs: &[(String, Json)], key: &str| pairs.iter().position(|(k, _)| k == key).unwrap();
        let n = a.digests.len() as i128;

        for key in ["trace", "trace_bytes"] {
            let mut pairs = header(&a);
            pairs.insert(2, (key.to_string(), Json::Int(body.len() as i128)));
            refused_with(pairs, &format!("recording: unknown key `{key}`"));
        }
        let mut pairs = header(&a);
        pairs.push(("trace_events".to_string(), Json::Int(n + 1)));
        refused_with(pairs, "recording: duplicate key `trace_events`");

        let mut pairs = header(&a);
        pairs.remove(at(&pairs, "trace_events"));
        refused_with(pairs, "recording: missing `trace_events`");
        for declared in [n - 1, n + 1] {
            let mut pairs = header(&a);
            let i = at(&pairs, "trace_events");
            pairs[i].1 = Json::Int(declared);
            refused_with(
                pairs,
                &format!(
                    "recording: `trace_events` is {declared} but {} bytes follow the header \
                     (17 per event)",
                    body.len()
                ),
            );
        }
    }

    /// A `trace_events` of four billion is refused by the length check,
    /// before anything is reserved for it: a reservation that size would
    /// abort the process rather than return.
    #[test]
    fn hostile_four_billion_trace_events_are_refused_without_allocating() {
        let a = recorded(false);
        let body = body(&a);
        for declared in [4_000_000_000_i128, u64::MAX as i128] {
            let mut pairs = header(&a);
            let last = pairs.len() - 1;
            pairs[last].1 = Json::Int(declared);
            refused(
                &(render_document(pairs) + &body),
                &format!(
                    "recording: `trace_events` is {declared} but {} bytes follow the header \
                     (17 per event)",
                    body.len()
                ),
            );
        }
    }

    /// A digest line is exactly 16 lowercase hex digits and a newline. An
    /// uppercase, short, long or non-hex line is refused by its line
    /// number, the header being line 1; a short line next to a long one
    /// keeps the body's length, so it is the line that is refused, not
    /// the count.
    #[test]
    fn hostile_digest_lines_are_refused_by_their_line_number() {
        let a = recorded(false);
        assert!(a.digests.len() >= 3, "{} events", a.digests.len());
        let head = render_document(header(&a));
        let mut lines: Vec<String> = a.digests.iter().map(|d| format!("{d:016x}")).collect();
        lines[1] = "0123456789abcdef".to_string();
        let good = head.clone() + &lines.join("\n") + "\n";
        assert!(Artifact::parse(&good).is_ok());
        let edits: [(&str, &str, &str); 5] = [
            ("uppercase", "0123456789ABCDEF", "0123456789abcdef"),
            ("non-hex", "0123456789abcdeg", "0123456789abcdef"),
            ("signed", "+123456789abcdef", "0123456789abcdef"),
            ("short", "0123456789abcde", "00123456789abcdef"),
            ("long", "00123456789abcdef", "0123456789abcde"),
        ];
        for (what, second, third) in edits {
            let mut edited = lines.clone();
            edited[1] = second.to_string();
            edited[2] = third.to_string();
            let text = head.clone() + &edited.join("\n") + "\n";
            assert_eq!(text.len(), good.len(), "{what}");
            match Artifact::parse(&text) {
                Err(ReplayError::Format(e)) => assert_eq!(
                    e,
                    "recording: line 3: not 16 lowercase hex digits and a newline \
                     (the digest of event 1)",
                    "{what}"
                ),
                other => panic!("{what}: expected a format error, got {other:?}"),
            }
        }
        // The last line without its newline is one byte short.
        refused(
            &good[..good.len() - 1],
            &format!(
                "recording: `trace_events` is {} but {} bytes follow the header (17 per event)",
                a.digests.len(),
                good.len() - head.len() - 1
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
            let text = render_document(v2) + &body(&a);
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
