//! The one loader for the documents a world writes to disk.
//!
//! Two kinds of file leave a session: a replay recording ([`Artifact`])
//! and a flight-recorder dump ([`BlackboxSnapshot`]). Both open with a
//! one-line JSON document that carries a `format` tag and a `version`. A
//! dump is that line alone, its events inside it; a recording follows it
//! with one digest line per trace event, and keeps no events.
//! Each kind loads at the one version this build writes. [`open`] reads a
//! user-supplied path, parses the first line once, and dispatches on the
//! tag; every front-end that takes a file goes through it, so "cannot
//! read", "not JSON", "unknown format tag" and "bad section" are worded
//! here and nowhere else.

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
    /// workspace writes, a version other than the one this build writes,
    /// a bad section, a recording body that is not its header's
    /// `trace_events` digest lines, or a non-blank line after a dump.
    pub fn parse(text: &str) -> Result<Saved, String> {
        // The `Json` writer escapes every newline inside a string, so the
        // first one ends the document; only that line is parsed as JSON.
        let at = text.find('\n').map_or(text.len(), |nl| nl + 1);
        let doc = Json::parse(&text[..at]).map_err(|e| format!("not JSON: {e}"))?;
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
        if version != u64::from(expected) {
            return Err(format!(
                "unsupported {tag} version {version} (expected {expected})"
            ));
        }
        let body = &text[at..];
        // A recording's digests are the rest of the text; a dump is its
        // one line, with nothing but blank lines after it.
        if recording {
            Artifact::from_doc(doc, body).map(|a| Saved::Recording(Box::new(a)))
        } else if body.trim_start_matches([' ', '\t', '\r', '\n']).is_empty() {
            BlackboxSnapshot::from_doc(&doc).map(Saved::Dump)
        } else {
            Err(format!(
                "a non-blank line after the one-line {tag} version {version} document"
            ))
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

    /// The causal graph of a dump's retained event ring, and how many
    /// events the ring holds. The events are parsed one line at a time
    /// into the fold, so no event list is built beside the text. A
    /// recording keeps digests, not events: fold the world
    /// [`rerun`](crate::replay::rerun) rebuilds from it instead.
    ///
    /// # Errors
    ///
    /// The document is a recording, or a malformed event line.
    pub fn causal_graph(&self) -> Result<(usize, CausalGraph), String> {
        let snap = match self {
            Saved::Dump(snap) => snap,
            Saved::Recording(_) => {
                return Err(format!(
                    "a {} recording keeps no events: re-run it to fold its trace",
                    replay::FORMAT
                ))
            }
        };
        let mut events = Ok(0);
        let graph = CausalGraph::from_events_with(|sink| {
            events = TraceEvent::visit_jsonl(&snap.events, |ev| sink(&ev));
        });
        let events = events.map_err(|e| format!("blackbox events: {e}"))?;
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
    fn unsupported_versions_name_the_versions_that_load() {
        for (text, want) in [
            (
                "{\"format\": \"pilgrim-replay\", \"version\": 5}",
                "unsupported pilgrim-replay version 5 (expected 4)",
            ),
            (
                "{\"format\": \"pilgrim-replay\", \"version\": 3}\n",
                "unsupported pilgrim-replay version 3 (expected 4)",
            ),
            (
                "{\"format\": \"pilgrim-replay\", \"version\": 1}",
                "unsupported pilgrim-replay version 1 (expected 4)",
            ),
            (
                "{\"format\": \"pilgrim-replay\"}",
                "unsupported pilgrim-replay version 0 (expected 4)",
            ),
            (
                "{\"format\": \"pilgrim-blackbox\", \"version\": 2}\n",
                "unsupported pilgrim-blackbox version 2 (expected 1)",
            ),
        ] {
            assert_eq!(Saved::parse(text).unwrap_err(), want);
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

    /// A small recording whose journal holds every stimulus shape with a
    /// payload: spawns carrying each value kind a journal can hold,
    /// `RunUntil`, `Connect`, `BreakAtProc` and a `WriteVar` request with
    /// a nested value. Its trace is cut to three digests: the property is
    /// about the sections around them.
    fn small_recording() -> String {
        use crate::proto::AgentRequest;
        use crate::world::World;
        use pilgrim_cclu::Value;
        use pilgrim_rpc::WireValue;
        use pilgrim_sim::SimTime;

        let mut w = World::builder()
            .nodes(2)
            .program("work = proc (a: null, n: int, b: bool, s: string)\n print(s)\n end")
            .seed(11)
            .build()
            .expect("builds");
        w.debug_connect(&[0, 1], false).expect("connects");
        w.break_at_proc(1, "work").expect("plants");
        w.spawn(
            0,
            "work",
            vec![
                Value::Null,
                Value::Int(i64::MIN),
                Value::Bool(true),
                Value::Str("q\"λ".into()),
            ],
        );
        w.spawn(
            1,
            "work",
            vec![
                Value::Null,
                Value::Int(7),
                Value::Bool(false),
                Value::Str("".into()),
            ],
        );
        w.run_until(SimTime::from_millis(40));
        let value = WireValue::Record {
            type_name: "pt".into(),
            fields: vec![
                WireValue::Int(-1),
                WireValue::Array(vec![WireValue::Str("s".into())]),
            ],
        };
        let write = AgentRequest::WriteVar {
            pid: 1,
            frame: 0,
            slot: 1,
            value: Box::new(value),
        };
        let _ = w.debug_request(0, write);
        w.run_until(SimTime::from_millis(80));
        let mut artifact = w.record();
        artifact.digests.truncate(3);
        artifact.render()
    }

    /// A recording is outside input: see
    /// [`loads_or_errs_when_cut_or_mutated`].
    #[test]
    fn hostile_recordings_are_errors_not_panics() {
        let text = small_recording();
        let Ok(Saved::Recording(artifact)) = Saved::parse(&text) else {
            panic!("the recording loads");
        };
        let ops: Vec<String> = artifact
            .stimuli
            .iter()
            .filter_map(|s| {
                s.to_json()
                    .get("op")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            })
            .collect();
        for op in ["spawn", "run_until", "connect", "break_at_proc", "request"] {
            assert!(ops.iter().any(|o| o == op), "no `{op}` in {ops:?}");
        }
        assert!(text.contains("\"WriteVar\""));

        loads_or_errs_when_cut_or_mutated(&text, "hostile recordings");

        // The same recording with one stimulus of every op and one request
        // of every type appended to its journal, so the mutations reach
        // every decoder arm.
        let mut every = *artifact;
        every.stimuli.extend(crate::replay::every_stimulus());
        every.stimuli.extend(
            crate::proto::tests::every_agent_request()
                .into_iter()
                .map(|req| crate::Stimulus::Request { node: 1, req }),
        );
        let text = every.render();
        assert!(Saved::parse(&text).is_ok(), "the longer journal loads");
        loads_or_errs_when_cut_or_mutated(&text, "hostile recordings, every op");

        // `trace_events` made huge, negative, fractional, absent or one off.
        let len = every.digests.len() as i128;
        let (head, body) = text.split_once('\n').expect("has a header line");
        let declared = format!("\"trace_events\": {len}}}");
        assert!(head.ends_with(&declared));
        let stem = &head[..head.len() - declared.len()];
        refused(
            [
                format!("{u}", u = u64::MAX as i128 + 1),
                "4000000000".into(),
                "-1".into(),
                "0.5".into(),
                format!("{}", len - 1),
                format!("{}", len + 1),
                "\"12\"".into(),
            ]
            .map(|n| format!("{stem}\"trace_events\": {n}}}\n{body}")),
        );
        refused([format!("{}}}\n{body}", stem.trim_end_matches(", "))]);
        // More segments than the world's three stations, refused before
        // the network lays out a path per pair of them: at the bound a
        // topology loads, one past it or at `u32::MAX` it does not.
        let flat = "\"topology\": {\"kind\": \"flat\"}";
        assert!(head.contains(flat));
        let topology = |t: &str| text.replacen(flat, &format!("\"topology\": {t}"), 1);
        assert!(Saved::parse(&topology("{\"kind\": \"star\", \"arms\": 2}")).is_ok());
        refused(
            [
                "{\"kind\": \"star\", \"arms\": 3}",
                "{\"kind\": \"star\", \"arms\": 4000000000}",
                "{\"kind\": \"ring-of-rings\", \"segments\": 4}",
                "{\"kind\": \"ring-of-rings\", \"segments\": 4294967295}",
            ]
            .map(topology),
        );
        // The body one byte short, one byte long, or missing its header
        // line's newline.
        refused([
            text[..text.len() - 1].to_string(),
            format!("{text}\n"),
            format!("{head}{body}"),
        ]);

        // A recording with an empty trace is its header line alone;
        // anything after it, blank lines too, is a body `trace_events`
        // does not declare.
        let empty = Artifact {
            digests: Vec::new(),
            ..every
        }
        .render();
        assert_eq!(empty.lines().count(), 1);
        assert!(Saved::parse(&empty).is_ok());
        refused([
            format!("{empty}\n \r\n\t"),
            format!("{empty}x"),
            format!("{empty}{body}"),
        ]);
        loads_or_errs_when_cut_or_mutated(&empty, "hostile recordings, empty trace");
    }

    /// Every key the writer emits is required: with any one of them
    /// dropped the recording is refused as ``missing `k` ``, and with it
    /// at a value of the wrong type as ``out of range``, never read as a
    /// default. The recording carries a program override, a star
    /// topology, a partition window and a setup entry, so every section
    /// of the recipe has members to drop.
    #[test]
    fn every_written_key_is_required() {
        use pilgrim_ring::{PartitionWindow, Topology};
        use pilgrim_sim::SimTime;

        let Ok(Saved::Recording(artifact)) = Saved::parse(&small_recording()) else {
            panic!("the recording loads");
        };
        let mut artifact = *artifact;
        let recipe = &mut artifact.recipe;
        recipe.set_program_for(1, "main = proc ()\n end");
        recipe.net.topology = Topology::Star { arms: 2 };
        recipe.net.partitions.push(PartitionWindow {
            from: SimTime::from_secs(1),
            to: SimTime::from_secs(2),
            a: 0,
            b: 1,
        });
        recipe.setup.push(("marker".into(), Json::obj(vec![])));
        let text = artifact.render();
        let (head, body) = text.split_once('\n').expect("has a header line");
        let doc = Json::parse(head).expect("parses");
        assert!(Saved::parse(&text).is_ok());

        // Every member of every object in the header but the stimuli
        // (whose decoders the mutation property covers), the setup
        // params (any value) and the `format` and `version` checked
        // before any section is read.
        let stimuli = doc
            .as_object()
            .and_then(|pairs| pairs.iter().position(|(k, _)| k == "stimuli"));
        let mut paths = Vec::new();
        collect_paths(&doc, &mut Vec::new(), &mut paths);
        let mut checked = 0;
        for path in paths.clone() {
            let Some((&last, parent)) = path.split_last() else {
                continue;
            };
            let mut probe = doc.clone();
            let Json::Object(pairs) = at_path(&mut probe, parent) else {
                continue;
            };
            let (key, value) = &pairs[last];
            if ["format", "version", "params"].contains(&key.as_str())
                || path.first() == stimuli.as_ref()
            {
                continue;
            }
            let wrong = match value {
                Json::Str(_) | Json::Null => Json::Int(7),
                _ => Json::Str("oops".into()),
            };
            for (edit, want) in [
                (Some(wrong), format!("`{key}` out of range")),
                (None, format!("missing `{key}`")),
            ] {
                let mut doc = doc.clone();
                let Json::Object(pairs) = at_path(&mut doc, parent) else {
                    unreachable!("the parent is an object")
                };
                match edit {
                    Some(v) => pairs[last].1 = v,
                    None => drop(pairs.remove(last)),
                }
                match Saved::parse(&rejoin(&doc, body)) {
                    Err(e) => assert!(e.ends_with(&want), "{e}"),
                    Ok(_) => panic!("loads without a well-typed `{key}`"),
                }
            }
            checked += 1;
        }
        assert!(checked > 40, "only {checked} keys checked");

        // And only those keys: every object in the header but the setup
        // params, stimuli and their values included, refuses one more
        // member by its name.
        let mut objects = 0;
        for path in paths {
            let mut probe = doc.clone();
            if let Some((&last, parent)) = path.split_last() {
                if let Json::Object(pairs) = at_path(&mut probe, parent) {
                    if pairs[last].0 == "params" {
                        continue;
                    }
                }
            }
            let Json::Object(pairs) = at_path(&mut probe, &path) else {
                continue;
            };
            pairs.push(("retry_interval_us".into(), Json::Int(5)));
            match Saved::parse(&rejoin(&probe, body)) {
                Err(e) => assert!(e.ends_with("unknown key `retry_interval_us`"), "{e}"),
                Ok(_) => panic!("loads with an unknown key at {path:?}"),
            }
            objects += 1;
        }
        assert!(objects > 12, "only {objects} objects checked");
    }

    /// A small dump whose event ring holds RPC, debug and service events
    /// as well as scheduling and network ones.
    fn small_dump() -> String {
        use crate::world::World;
        use pilgrim_sim::{EventKind, SimTime, TraceCategory};

        let mut w = World::builder()
            .nodes(3)
            .program(
                "ping = proc ()\n print(\"pong\")\nend\nmain = proc ()\n call ping() at 1\nend",
            )
            .seed(13)
            .build()
            .expect("builds");
        w.debug_connect(&[0, 1, 2], false).expect("connects");
        w.break_at_proc(1, "ping").expect("plants");
        w.spawn(0, "main", Vec::new());
        w.run_until(SimTime::from_millis(60));
        let note = EventKind::Message("lease renewed".into());
        w.tracer()
            .emit(w.now(), TraceCategory::Service, Some(2), None, note);
        w.blackbox_snapshot("manual").render()
    }

    /// A flight-recorder dump is outside input too: the recording's
    /// property, on a dump.
    #[test]
    fn hostile_dumps_are_errors_not_panics() {
        let text = small_dump();
        let Ok(Saved::Dump(snap)) = Saved::parse(&text) else {
            panic!("the dump loads");
        };
        for category in ["rpc", "debug", "service"] {
            let tag = format!("\"category\": \"{category}\"");
            assert!(
                snap.events.contains(&tag),
                "no {category} event in the dump"
            );
        }
        loads_or_errs_when_cut_or_mutated(&text, "hostile dumps");
        // A dump is one line; blank lines may follow it, anything else
        // may not.
        assert!(Saved::parse(&format!("{text}\n\n")).is_ok());
        refused([format!("{text}{{}}\n"), format!("{text}\n{}", snap.events)]);
        // The writer always emits `series`, so a dump without it is
        // refused by name, never read as an empty history.
        let (head, _) = text.split_once('\n').expect("has a header line");
        let Ok(Json::Object(mut pairs)) = Json::parse(head) else {
            panic!("the dump is an object")
        };
        let mut extra = pairs.clone();
        pairs.retain(|(k, _)| k != "series");
        assert_eq!(
            Saved::parse(&rejoin(&Json::Object(pairs), "")).unwrap_err(),
            "blackbox: missing `series`"
        );
        // Nor does it hold a key the reader does not know.
        extra.push(("series_v2".into(), Json::Str(String::new())));
        assert_eq!(
            Saved::parse(&rejoin(&Json::Object(extra), "")).unwrap_err(),
            "blackbox: unknown key `series_v2`"
        );
    }

    /// Every strict prefix of `text`, and 2 000 seeded mutations of its
    /// header document, re-joined with its body — an integer made huge,
    /// negative or fractional, a string emptied or swapped for a number,
    /// an array swapped with an object, a key dropped — load as `Ok` or
    /// `Err` and never panic. A prefix that cuts into the document, or
    /// into a recording's trace, is an `Err`.
    fn loads_or_errs_when_cut_or_mutated(text: &str, name: &str) {
        use pilgrim_sim::check::{check_n, int_range, zip};

        let whole = text.trim_end().len();
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            let loaded = Saved::parse(&text[..cut]);
            assert!(
                cut >= whole || loaded.is_err(),
                "{name}: cut at {cut} loads"
            );
        }

        let (head, body) = text.split_once('\n').expect("has a header line");
        let doc = Json::parse(head).expect("parses");
        let mut paths = Vec::new();
        collect_paths(&doc, &mut Vec::new(), &mut paths);
        let gen = zip(
            int_range(0, paths.len() as i64),
            zip(int_range(0, 6), int_range(0, 64)),
        );
        check_n(name, 2_000, &gen, |&(at, (op, pick))| {
            let mut doc = doc.clone();
            mutate(
                at_path(&mut doc, &paths[at as usize]),
                op as usize,
                pick as usize,
            );
            let _ = Saved::parse(&rejoin(&doc, body));
            Ok(())
        });
    }

    /// `doc` written as a header line, with `body` after it.
    fn rejoin(doc: &Json, body: &str) -> String {
        let mut text = String::new();
        doc.write(&mut text);
        text.push('\n');
        text.push_str(body);
        text
    }

    /// Each of `texts` is a one-line format error.
    fn refused(texts: impl IntoIterator<Item = String>) {
        for text in texts {
            match Saved::parse(&text) {
                Err(e) => assert_eq!(e.lines().count(), 1, "{e}"),
                Ok(_) => panic!("loads: {}", text.lines().next().unwrap_or("")),
            }
        }
    }

    /// Every value's path below `doc`, as child indices.
    fn collect_paths(doc: &Json, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        out.push(path.clone());
        let children: Vec<&Json> = match doc {
            Json::Array(items) => items.iter().collect(),
            Json::Object(pairs) => pairs.iter().map(|(_, v)| v).collect(),
            _ => Vec::new(),
        };
        for (i, child) in children.into_iter().enumerate() {
            path.push(i);
            collect_paths(child, path, out);
            path.pop();
        }
    }

    /// The value at `path` below `doc`, as child indices.
    fn at_path<'a>(doc: &'a mut Json, path: &[usize]) -> &'a mut Json {
        path.iter().fold(doc, |node, &i| match node {
            Json::Array(items) => &mut items[i],
            Json::Object(pairs) => &mut pairs[i].1,
            _ => unreachable!("paths descend through containers"),
        })
    }

    fn mutate(node: &mut Json, op: usize, pick: usize) {
        *node = match std::mem::replace(node, Json::Null) {
            Json::Int(_) | Json::Float(_) => [
                Json::Int(u64::MAX as i128 + 1),
                Json::Int(i128::MAX),
                Json::Int(u32::MAX as i128 + 1),
                Json::Int(-1),
                Json::Int(i64::MIN as i128 - 1),
                Json::Float(0.5),
            ][op]
                .clone(),
            Json::Str(_) => [Json::Str(String::new()), Json::Int(7), Json::Int(-7)][op % 3].clone(),
            Json::Array(items) => Json::Object(
                items
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (i.to_string(), v))
                    .collect(),
            ),
            Json::Object(mut pairs) if op.is_multiple_of(2) && !pairs.is_empty() => {
                pairs.remove(pick % pairs.len());
                Json::Object(pairs)
            }
            Json::Object(pairs) => Json::Array(pairs.into_iter().map(|(_, v)| v).collect()),
            Json::Bool(_) | Json::Null => Json::Int(pick as i128),
        };
    }
}
