//! The JSONL codec: one field list per [`EventKind`] variant, streamed
//! out by [`TraceEvent::write_json`] and reversed by
//! [`TraceEvent::parse_json`].

use std::fmt::{self, Write as _};

use super::{EventKind, RpcProtocol, SpanId, TraceCategory, TraceEvent};
use crate::json::{escape_into, quote_into, Fields, Json};
use crate::time::{SimDuration, SimTime};

/// Buffer reserved per event when rendering JSONL. A line of a loaded
/// run averages 220–270 bytes; a guess below the average makes the
/// buffer double its way past twice the trace (and copy it each time), so
/// the guess sits just above it.
pub(super) const JSONL_LINE_BYTES: usize = 288;

/// One payload field's value, borrowed from its variant.
#[derive(Clone, Copy)]
enum Field<'a> {
    Uint(u64),
    Int(i64),
    Bool(bool),
    Str(&'a str),
}

/// Appends `v`'s display form to `out`.
fn push_display(out: &mut String, v: impl fmt::Display) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{v}");
}

/// A formatter sink that JSON-escapes everything written through it.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(s, self.0);
        Ok(())
    }
}

impl EventKind {
    /// Visits the variant's fields as `(name, value)` in their export
    /// order. This is the one per-variant field list: [`data`] builds its
    /// object from it, the JSONL writer streams it, and
    /// [`from_data`](EventKind::from_data) reverses it.
    ///
    /// [`data`]: EventKind::data
    fn for_each_field<'a>(&'a self, mut f: impl FnMut(&'static str, Field<'a>)) {
        use Field::{Bool, Int, Str, Uint};
        match self {
            EventKind::Message(text) => f("text", Str(text)),
            EventKind::PacketSent { src, dst, bytes }
            | EventKind::PacketDelivered { src, dst, bytes }
            | EventKind::PacketLost { src, dst, bytes }
            | EventKind::PacketNacked { src, dst, bytes } => {
                f("src", Uint(*src as u64));
                f("dst", Uint(*dst as u64));
                f("bytes", Uint(*bytes as u64));
            }
            EventKind::CallStarted {
                call_id,
                proc,
                args,
                dst,
                protocol,
                parent_span,
            } => {
                f("call_id", Uint(*call_id));
                f("proc", Str(proc));
                f("args", Uint(*args as u64));
                f("dst", Uint(*dst as u64));
                f("protocol", Str(protocol.name()));
                f("parent_span", Uint(*parent_span));
            }
            EventKind::CallRetransmitted { call_id, attempt } => {
                f("call_id", Uint(*call_id));
                f("attempt", Uint(*attempt as u64));
            }
            EventKind::CallCompleted { call_id, failure } => {
                f("call_id", Uint(*call_id));
                f("ok", Bool(failure.is_none()));
                f("outcome", Str(failure.as_deref().unwrap_or("ok")));
            }
            EventKind::CallTimedOut { call_id }
            | EventKind::MaybeLostCall { call_id }
            | EventKind::MaybeLostReply { call_id } => f("call_id", Uint(*call_id)),
            EventKind::ServerDispatched { call_id, proc } => {
                f("call_id", Uint(*call_id));
                f("proc", Str(proc));
            }
            EventKind::ReplySent { call_id, cached } => {
                f("call_id", Uint(*call_id));
                f("cached", Bool(*cached));
            }
            EventKind::ProcessSpawned { pid, proc } => {
                f("pid", Uint(*pid));
                f("proc", Str(proc));
            }
            EventKind::ProcessExited { pid } => f("pid", Uint(*pid)),
            EventKind::ProcessesHalted { count } | EventKind::ProcessesResumed { count } => {
                f("count", Uint(*count));
            }
            EventKind::ClockAdjusted { delta, now } => {
                f("delta_us", Uint(delta.as_micros()));
                f("now_us", Uint(now.as_micros()));
            }
            EventKind::Print { pid, text } => {
                f("pid", Uint(*pid));
                f("text", Str(text));
            }
            EventKind::Faulted { pid, fault } => {
                f("pid", Uint(*pid));
                f("fault", Str(fault));
            }
            EventKind::BreakpointHalt => {}
            EventKind::HaltBroadcast { origin } => f("origin", Uint(*origin as u64)),
            EventKind::WatchTripped { expr, value } => {
                f("expr", Str(expr));
                f("value", Int(*value));
            }
        }
    }

    /// The variant's fields as a JSON object — the machine-readable half
    /// of the JSONL export, and what [`EventKind::from_data`] reverses.
    pub fn data(&self) -> Json {
        let mut pairs = Vec::new();
        self.for_each_field(|name, v| {
            let v = match v {
                Field::Uint(n) => Json::Int(n as i128),
                Field::Int(n) => Json::Int(n as i128),
                Field::Bool(b) => Json::Bool(b),
                Field::Str(s) => Json::Str(s.to_string()),
            };
            pairs.push((name.to_string(), v));
        });
        Json::Object(pairs)
    }

    /// [`data`](EventKind::data) rendered straight into `out`, byte for
    /// byte what `data().write(out)` produces, without building the tree.
    fn write_data(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        self.for_each_field(|name, v| {
            if !first {
                out.push_str(", ");
            }
            first = false;
            // Field names are identifiers: nothing in them to escape.
            out.push('"');
            out.push_str(name);
            out.push_str("\": ");
            match v {
                Field::Uint(n) => push_display(out, n),
                Field::Int(n) => push_display(out, n),
                Field::Bool(b) => out.push_str(if b { "true" } else { "false" }),
                Field::Str(s) => quote_into(s, out),
            }
        });
        out.push('}');
    }

    /// Rebuilds the typed payload from a variant name and its
    /// [`data`](EventKind::data) object.
    ///
    /// # Errors
    ///
    /// Unknown variant names and missing or mistyped fields.
    pub fn from_data(name: &str, data: &Json) -> Result<EventKind, String> {
        let f = Fields::new(data, &name);
        Ok(match name {
            "Message" => EventKind::Message(f.str("text")?.to_string()),
            "PacketSent" | "PacketDelivered" | "PacketLost" | "PacketNacked" => {
                let (src, dst, bytes) = (f.uint("src")?, f.uint("dst")?, f.uint("bytes")?);
                match name {
                    "PacketSent" => EventKind::PacketSent { src, dst, bytes },
                    "PacketDelivered" => EventKind::PacketDelivered { src, dst, bytes },
                    "PacketLost" => EventKind::PacketLost { src, dst, bytes },
                    _ => EventKind::PacketNacked { src, dst, bytes },
                }
            }
            "CallStarted" => EventKind::CallStarted {
                call_id: f.uint("call_id")?,
                proc: f.str("proc")?.into(),
                args: f.uint("args")?,
                dst: f.uint("dst")?,
                protocol: RpcProtocol::parse(f.str("protocol")?)
                    .ok_or_else(|| f.out_of_range("protocol"))?,
                parent_span: f.uint("parent_span")?,
            },
            "CallRetransmitted" => EventKind::CallRetransmitted {
                call_id: f.uint("call_id")?,
                attempt: f.uint("attempt")?,
            },
            "CallCompleted" => {
                let (call_id, ok, outcome) = (f.uint("call_id")?, f.bool("ok")?, f.str("outcome")?);
                // A success is spelled one way; anything else is a failure.
                if ok && outcome != "ok" {
                    return Err(f.out_of_range("outcome"));
                }
                EventKind::CallCompleted {
                    call_id,
                    failure: (!ok).then(|| outcome.to_string()),
                }
            }
            "CallTimedOut" => EventKind::CallTimedOut {
                call_id: f.uint("call_id")?,
            },
            "ServerDispatched" => EventKind::ServerDispatched {
                call_id: f.uint("call_id")?,
                proc: f.str("proc")?.into(),
            },
            "ReplySent" => EventKind::ReplySent {
                call_id: f.uint("call_id")?,
                cached: f.bool("cached")?,
            },
            "MaybeLostCall" => EventKind::MaybeLostCall {
                call_id: f.uint("call_id")?,
            },
            "MaybeLostReply" => EventKind::MaybeLostReply {
                call_id: f.uint("call_id")?,
            },
            "ProcessSpawned" => EventKind::ProcessSpawned {
                pid: f.uint("pid")?,
                proc: f.str("proc")?.into(),
            },
            "ProcessExited" => EventKind::ProcessExited {
                pid: f.uint("pid")?,
            },
            "ProcessesHalted" => EventKind::ProcessesHalted {
                count: f.uint("count")?,
            },
            "ProcessesResumed" => EventKind::ProcessesResumed {
                count: f.uint("count")?,
            },
            "ClockAdjusted" => EventKind::ClockAdjusted {
                delta: SimDuration::from_micros(f.uint("delta_us")?),
                now: SimDuration::from_micros(f.uint("now_us")?),
            },
            "Print" => EventKind::Print {
                pid: f.uint("pid")?,
                text: f.str("text")?.to_string(),
            },
            "Faulted" => EventKind::Faulted {
                pid: f.uint("pid")?,
                fault: f.str("fault")?.to_string(),
            },
            "BreakpointHalt" => EventKind::BreakpointHalt,
            "HaltBroadcast" => EventKind::HaltBroadcast {
                origin: f.uint("origin")?,
            },
            "WatchTripped" => EventKind::WatchTripped {
                expr: f.str("expr")?.to_string(),
                value: f.int("value")?,
            },
            other => return Err(format!("unknown event kind `{other}`")),
        })
    }
}

impl TraceEvent {
    /// One JSON object (no trailing newline) for the JSONL trace dump.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(JSONL_LINE_BYTES);
        self.write_json(&mut out);
        out
    }

    /// Appends [`to_json`](TraceEvent::to_json)'s object to `out`. Numbers,
    /// the rendered message and the payload fields stream into the
    /// caller's buffer; nothing is built on the side.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"time_us\": ");
        push_display(out, self.time.as_micros());
        out.push_str(", \"category\": \"");
        out.push_str(self.category.as_str());
        out.push_str("\", \"node\": ");
        match self.node {
            Some(n) => push_display(out, n),
            None => out.push_str("null"),
        }
        out.push_str(", \"span\": ");
        match self.span {
            Some(s) => push_display(out, s.get()),
            None => out.push_str("null"),
        }
        out.push_str(", \"kind\": \"");
        out.push_str(self.kind.name());
        out.push_str("\", \"message\": \"");
        let _ = self.kind.render_into(&mut Escaped(out));
        out.push_str("\", \"data\": ");
        self.kind.write_data(out);
        out.push('}');
    }

    /// Parses one JSONL line back into a typed event — the inverse of
    /// [`to_json`](TraceEvent::to_json).
    ///
    /// # Errors
    ///
    /// Malformed JSON, unknown categories or kinds, and missing fields.
    pub fn parse_json(line: &str) -> Result<TraceEvent, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let f = Fields::new(&doc, &"event");
        let time_us = f.uint("time_us")?;
        let category =
            TraceCategory::parse(f.str("category")?).ok_or_else(|| f.out_of_range("category"))?;
        // `null` is how the export writes "none" for both.
        let node = match f.opt_get("node") {
            None | Some(Json::Null) => None,
            Some(_) => Some(f.uint("node")?),
        };
        let span = match f.opt_get("span") {
            None | Some(Json::Null) => None,
            // 0 is the wire sentinel for "no span"; the tracer never
            // writes it, so a line carrying it is not one of ours.
            Some(_) => {
                Some(SpanId::from_wire(f.uint("span")?).ok_or_else(|| f.out_of_range("span"))?)
            }
        };
        let kind = EventKind::from_data(f.str("kind")?, f.get("data")?)?;
        Ok(TraceEvent {
            time: SimTime::from_micros(time_us),
            category,
            node,
            span,
            kind,
        })
    }

    /// Parses a whole JSONL dump (one event per non-empty line).
    ///
    /// # Errors
    ///
    /// The first bad line, prefixed with its 1-based line number.
    pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
        let mut events = Vec::new();
        TraceEvent::visit_jsonl(text, |ev| events.push(ev))?;
        Ok(events)
    }

    /// [`parse_jsonl`](TraceEvent::parse_jsonl) one line at a time: each
    /// event goes to `sink` as it is parsed, so only the current one is
    /// held. Returns how many there were.
    ///
    /// # Errors
    ///
    /// The first bad line, prefixed with its 1-based line number; the
    /// events before it have been handed over.
    pub fn visit_jsonl(text: &str, mut sink: impl FnMut(TraceEvent)) -> Result<usize, String> {
        let mut count = 0;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            sink(TraceEvent::parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
            count += 1;
        }
        Ok(count)
    }
}

/// The fold's multiplier: 2^64 divided by the golden ratio, odd.
const DIGEST_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 64-bit digest a recording keeps of one trace line: the bytes
/// [`TraceEvent::write_json`] writes, without a newline.
///
/// The state starts at `K ^ len`, with `K` = `0x9e3779b97f4a7c15`. Each
/// 8-byte little-endian word `w` of the line, the last one zero-padded,
/// is folded in as `h = rotl((h ^ w) × K, 31)`, the product taken mod
/// 2^64. The digest is then `h ^= h >> 32; h ×= K; h ^ (h >> 29)`.
/// Every step is a bijection of the state, so two lines of one length
/// that differ in a single word never share a digest.
pub fn line_digest(line: &[u8]) -> u64 {
    let fold = |h: u64, word: &[u8]| {
        let mut bytes = [0u8; 8];
        bytes[..word.len()].copy_from_slice(word);
        (h ^ u64::from_le_bytes(bytes))
            .wrapping_mul(DIGEST_K)
            .rotate_left(31)
    };
    let words = line.chunks_exact(8);
    let tail = words.remainder();
    let mut h = words.fold(DIGEST_K ^ line.len() as u64, fold);
    if !tail.is_empty() {
        h = fold(h, tail);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(DIGEST_K);
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Arc;

    use super::super::kind::tests::{all_event_kinds, event_kinds_with};
    use super::super::Tracer;
    use super::*;
    use crate::check::{check_n, ensure_eq, int_range, zip};

    #[test]
    fn jsonl_export_escapes_and_structures() {
        let t = Tracer::new();
        t.record(
            SimTime::from_millis(1),
            TraceCategory::Vm,
            Some(0),
            "say \"hi\"\n",
        );
        t.emit(
            SimTime::from_millis(2),
            TraceCategory::Net,
            None,
            SpanId::from_wire(5),
            EventKind::PacketSent {
                src: 0,
                dst: 1,
                bytes: 32,
            },
        );
        let dump = t.to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"time_us\": 1000, \"category\": \"vm\", \"node\": 0, \"span\": null, \
             \"kind\": \"Message\", \"message\": \"say \\\"hi\\\"\\n\", \
             \"data\": {\"text\": \"say \\\"hi\\\"\\n\"}}"
        );
        assert_eq!(
            lines[1],
            "{\"time_us\": 2000, \"category\": \"net\", \"node\": null, \"span\": 5, \
             \"kind\": \"PacketSent\", \"message\": \"sent 32B 0->1\", \
             \"data\": {\"src\": 0, \"dst\": 1, \"bytes\": 32}}"
        );
    }

    /// `to_json` as it was assembled before `write_json` streamed it: a
    /// temporary per number, the message rendered then escaped, the
    /// payload built as a `Json` tree then written. Kept as the oracle.
    fn to_json_reference(ev: &TraceEvent) -> String {
        let mut out = String::new();
        out.push_str("{\"time_us\": ");
        out.push_str(&ev.time.as_micros().to_string());
        out.push_str(", \"category\": \"");
        out.push_str(&ev.category.to_string());
        out.push_str("\", \"node\": ");
        match ev.node {
            Some(n) => out.push_str(&n.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(", \"span\": ");
        match ev.span {
            Some(s) => out.push_str(&s.get().to_string()),
            None => out.push_str("null"),
        }
        out.push_str(", \"kind\": \"");
        out.push_str(ev.kind.name());
        out.push_str("\", \"message\": \"");
        escape_into(&ev.message(), &mut out);
        out.push_str("\", \"data\": ");
        ev.kind.data().write(&mut out);
        out.push('}');
        out
    }

    #[test]
    fn streamed_json_matches_the_tree_built_reference() {
        let categories = [
            TraceCategory::Sched,
            TraceCategory::Net,
            TraceCategory::Rpc,
            TraceCategory::Debug,
            TraceCategory::Clock,
            TraceCategory::Vm,
            TraceCategory::Service,
        ];
        for hostile in [
            "",
            "plain",
            "\"",
            "\\",
            "\\\"\\",
            "\u{1}",
            "tab\there\nnewline\rreturn",
            "λ\"→\\😀\u{1f}é\u{0}",
            "\u{7f}/\u{8}\u{c}",
        ] {
            let kinds = event_kinds_with(hostile);
            let names: HashSet<&str> = kinds.iter().map(EventKind::name).collect();
            assert_eq!(names.len(), 23, "one exemplar per variant");
            for (i, kind) in kinds.into_iter().enumerate() {
                let ev = TraceEvent {
                    time: SimTime::from_micros(if i == 0 { u64::MAX } else { i as u64 * 17 }),
                    category: categories[i % categories.len()],
                    node: (i % 3 != 0).then_some(if i == 1 { u32::MAX } else { i as u32 }),
                    span: SpanId::from_wire(if i % 2 == 1 { u64::MAX - i as u64 } else { 0 }),
                    kind,
                };
                let line = ev.to_json();
                assert_eq!(line, to_json_reference(&ev), "{ev:?}");
                assert_eq!(TraceEvent::parse_json(&line).as_ref(), Ok(&ev));
                // `write_json` appends; it does not own the buffer.
                let mut buf = String::from("kept\n");
                ev.write_json(&mut buf);
                assert_eq!(buf, format!("kept\n{line}"));
            }
        }
    }

    /// The RPC events as the endpoint builds them — a typed protocol and
    /// success, one `Arc<str>` shared by both ends of the call — write the
    /// bytes the protocol's and the outcome's text always wrote, and parse
    /// back `==` although the parsed side owns its procedure name.
    #[test]
    fn rpc_events_render_the_same_shared_or_owned() {
        for (name, escaped) in [("ping", "ping"), ("a\"b", "a\\\"b"), ("λ→é😀", "λ→é😀")]
        {
            let shared: Arc<str> = name.into();
            let built = [
                EventKind::CallStarted {
                    call_id: (3 << 40) | 9,
                    proc: shared.clone(),
                    args: 1,
                    dst: 2,
                    protocol: RpcProtocol::ExactlyOnce,
                    parent_span: 0,
                },
                EventKind::ServerDispatched {
                    call_id: (3 << 40) | 9,
                    proc: shared.clone(),
                },
                EventKind::CallCompleted {
                    call_id: (3 << 40) | 9,
                    failure: None,
                },
                EventKind::CallCompleted {
                    call_id: (3 << 40) | 9,
                    failure: Some(format!("maybe: {name}")),
                },
            ];
            let want = [
                format!(
                    "\"kind\": \"CallStarted\", \"message\": \"call 3298534883337 \
                     {escaped}(1) -> node2 [exactly-once]\", \"data\": {{\"call_id\": \
                     3298534883337, \"proc\": \"{escaped}\", \"args\": 1, \"dst\": 2, \
                     \"protocol\": \"exactly-once\", \"parent_span\": 0}}}}"
                ),
                format!(
                    "\"kind\": \"ServerDispatched\", \"message\": \"dispatch call \
                     3298534883337 {escaped}\", \"data\": {{\"call_id\": 3298534883337, \
                     \"proc\": \"{escaped}\"}}}}"
                ),
                "\"kind\": \"CallCompleted\", \"message\": \"call 3298534883337 \
                 completed: ok\", \"data\": {\"call_id\": 3298534883337, \"ok\": true, \
                 \"outcome\": \"ok\"}}"
                    .to_string(),
                format!(
                    "\"kind\": \"CallCompleted\", \"message\": \"call 3298534883337 \
                     failed: maybe: {escaped}\", \"data\": {{\"call_id\": 3298534883337, \
                     \"ok\": false, \"outcome\": \"maybe: {escaped}\"}}}}"
                ),
            ];
            for (kind, want) in built.into_iter().zip(want) {
                let ev = TraceEvent {
                    time: SimTime::from_micros(5),
                    category: TraceCategory::Rpc,
                    node: Some(3),
                    span: SpanId::from_wire(4),
                    kind,
                };
                let line = ev.to_json();
                let head = "{\"time_us\": 5, \"category\": \"rpc\", \"node\": 3, \"span\": 4, ";
                assert_eq!(line, format!("{head}{want}"));
                assert_eq!(line, to_json_reference(&ev));
                let back = TraceEvent::parse_json(&line).expect("parses");
                assert_eq!(back, ev, "owned text equals borrowed and shared text");
                assert_eq!(back.to_json(), line);
            }
        }
    }

    #[test]
    fn every_event_kind_round_trips_through_jsonl() {
        let events: Vec<TraceEvent> = (0..all_event_kinds().len()).map(exemplar).collect();
        let mut dump = String::new();
        for ev in &events {
            dump.push_str(&ev.to_json());
            dump.push('\n');
        }
        let parsed = TraceEvent::parse_jsonl(&dump).expect("round-trip parse");
        assert_eq!(parsed, events);
        // And re-rendering the parsed events is byte-identical.
        let mut dump2 = String::new();
        for ev in &parsed {
            dump2.push_str(&ev.to_json());
            dump2.push('\n');
        }
        assert_eq!(dump2, dump);
    }

    /// An exemplar event of every kind, spans and nodes on and off.
    fn exemplar(i: usize) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_micros(i as u64 * 17),
            category: TraceCategory::Rpc,
            node: (!i.is_multiple_of(3)).then_some(i as u32),
            span: SpanId::from_wire(if i % 2 == 1 { i as u64 } else { 0 }),
            kind: all_event_kinds().swap_remove(i),
        }
    }

    /// The `CallStarted` exemplar's line, its protocol spelled `protocol`.
    fn call_line(protocol: &str) -> String {
        let line = exemplar(5).to_json();
        let member = "\"protocol\": \"maybe\"";
        assert!(line.contains(member), "{line}");
        line.replace(member, &format!("\"protocol\": \"{protocol}\""))
    }

    /// A `CallCompleted` line with `ok` and `outcome` as given.
    fn completed_line(ok: bool, outcome: &str) -> String {
        let ev = TraceEvent {
            kind: EventKind::CallCompleted {
                call_id: 9,
                failure: Some(outcome.to_string()),
            },
            ..exemplar(7)
        };
        ev.to_json()
            .replace("\"ok\": false", &format!("\"ok\": {ok}"))
    }

    /// A line a user hands the tool is outside input: whatever is done to
    /// a valid one, the parser answers `Err` or an event that survives its
    /// own round trip, and never panics.
    #[test]
    fn hostile_trace_lines_are_errors_or_round_trip() {
        // Named inputs first: a JSONL document and what its error says.
        let good = exemplar(20).to_json();
        let deep = |unit: &str| {
            let (head, _) = good.split_once("{}").expect("BreakpointHalt has no fields");
            format!("\n{head}{}\n", unit.repeat(100_000))
        };
        for (text, want) in [
            (
                "{\"time_us\": 1}\n".to_string(),
                "line 1: event: missing `category`",
            ),
            (format!("{good}\nnot json\n"), "line 2: "),
            (
                good.replace("BreakpointHalt", "NoSuchKind"),
                "line 1: unknown event kind `NoSuchKind`",
            ),
            (
                good.replace("\"span\": null", "\"span\": 0"),
                "line 1: event: `span` out of range",
            ),
            (deep("["), "line 2: nesting deeper than"),
            (deep("{\"a\":"), "line 2: nesting deeper than"),
            (
                format!("{good}\n{}\n", call_line("Maybe")),
                "line 2: CallStarted: `protocol` out of range",
            ),
            (
                format!("{good}\n{good}\n{}\n", completed_line(true, "lost")),
                "line 3: CallCompleted: `outcome` out of range",
            ),
        ] {
            let err = TraceEvent::parse_jsonl(&text).unwrap_err();
            assert!(err.starts_with(want), "{err}");
        }
        assert_eq!(TraceEvent::parse_jsonl(&good), Ok(vec![exemplar(20)]));
        // The rows' unmutated lines parse: each refusal is the mutation's.
        for line in [call_line("maybe"), completed_line(false, "lost")] {
            assert!(TraceEvent::parse_json(&line).is_ok(), "{line}");
        }

        // A strict prefix of a line is never a line, wherever it is cut.
        for i in 0..all_event_kinds().len() {
            let line = exemplar(i).to_json();
            for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
                assert!(
                    TraceEvent::parse_json(&line[..cut]).is_err(),
                    "{cut}: {line}"
                );
            }
        }

        // Then mutations of the parsed document: `slot` names one field of
        // the envelope or the payload, `op` what happens to it, `pick` the
        // value or the depth it happens with.
        let hostile = [
            Json::Null,
            Json::Bool(true),
            Json::Str("x".into()),
            Json::Float(0.5),
            Json::Array(vec![Json::Int(1)]),
            Json::Object(vec![]),
            Json::Int(-1),
            Json::Int(0),
            Json::Int(u32::MAX as i128 + 1),
            Json::Int(u64::MAX as i128),
            Json::Int(u64::MAX as i128 + 1),
        ];
        let gen = zip(
            zip(int_range(0, 22), int_range(0, 4)),
            zip(int_range(0, 13), int_range(0, hostile.len() as i64 - 1)),
        );
        check_n(
            "hostile trace lines",
            2_000,
            &gen,
            |&((kind, op), (slot, pick))| {
                let line = exemplar(kind as usize).to_json();
                let Ok(Json::Object(mut top)) = Json::parse(&line) else {
                    return Err(format!("our own line is not an object: {line}"));
                };
                let data = top.iter().position(|(k, _)| k == "data").expect("has data");
                let fields = top[data].1.as_object().map_or(0, <[_]>::len);
                let envelope = top.len();
                let slot = slot as usize % (envelope + fields);
                let (pairs, i) = if slot < envelope {
                    (&mut top, slot)
                } else {
                    let Json::Object(payload) = &mut top[data].1 else {
                        unreachable!("`fields` counted an object's members");
                    };
                    (payload, slot - envelope)
                };
                let value = hostile[pick as usize].clone();
                match op {
                    0 => pairs[i].1 = value,
                    1 => drop(pairs.remove(i)),
                    2 => pairs.insert(i, (pairs[i].0.clone(), value)),
                    3 => pairs.push((pairs[i].0.clone(), value)),
                    _ => {
                        let inner = std::mem::replace(&mut pairs[i].1, Json::Null);
                        pairs[i].1 = (0..1 << pick).fold(inner, |v, _| Json::Array(vec![v]));
                    }
                }
                let mut line = String::new();
                Json::Object(top).write(&mut line);
                match TraceEvent::parse_json(&line) {
                    Err(_) => Ok(()),
                    Ok(ev) => ensure_eq(TraceEvent::parse_json(&ev.to_json()), Ok(ev)),
                }
            },
        );
    }
}
