//! Structured simulation tracing with causal spans.
//!
//! Components emit typed [`TraceEvent`]s into a shared [`Tracer`]; tests
//! and the experiment harnesses assert on the recorded fields rather than
//! parsing printed output. Tracing is always cheap: [`Tracer::wants`] is a
//! single `u8` bitmask test, and callers construct the [`EventKind`]
//! payload only after that check passes, so a disabled category costs one
//! load-and-mask on the hot path.
//!
//! Causality is carried by [`SpanId`]: an RPC call allocates a span at
//! origination ([`Tracer::next_span`]), the id rides in the packet header
//! across nodes (surviving retransmission), and every event the call
//! touches — send, delivery, server dispatch, reply — is stamped with it.
//! [`Tracer::events_for_span`] then reconstructs the cross-node timeline
//! of one call from the trace alone, the paper's client/server
//! call-identifier tables generalized.

use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};
use std::fmt::{self, Write as _};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{escape_into, quote_into, Json};
use crate::time::{SimDuration, SimTime};

/// Category of a trace event, used for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Scheduler decisions and process state changes.
    Sched,
    /// Network transmission, delivery, loss, NACK.
    Net,
    /// RPC protocol steps.
    Rpc,
    /// Debugger/agent interactions.
    Debug,
    /// Clock and time-consistency bookkeeping.
    Clock,
    /// User program output and VM-level happenings.
    Vm,
    /// Shared-service activity.
    Service,
}

impl TraceCategory {
    /// This category's position in the filter bitmask.
    const fn bit(self) -> u8 {
        1 << self as u8
    }

    /// Every category enabled.
    const ALL: u8 = 0x7f;
}

impl TraceCategory {
    /// The inverse of [`Display`](fmt::Display): `"rpc"` → `Rpc`, etc.
    pub fn parse(name: &str) -> Option<TraceCategory> {
        Some(match name {
            "sched" => TraceCategory::Sched,
            "net" => TraceCategory::Net,
            "rpc" => TraceCategory::Rpc,
            "debug" => TraceCategory::Debug,
            "clock" => TraceCategory::Clock,
            "vm" => TraceCategory::Vm,
            "service" => TraceCategory::Service,
            _ => return None,
        })
    }

    /// The lower-case name used by the display form and the JSONL export.
    pub const fn as_str(self) -> &'static str {
        match self {
            TraceCategory::Sched => "sched",
            TraceCategory::Net => "net",
            TraceCategory::Rpc => "rpc",
            TraceCategory::Debug => "debug",
            TraceCategory::Clock => "clock",
            TraceCategory::Vm => "vm",
            TraceCategory::Service => "service",
        }
    }
}

impl fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identifier linking every event produced on behalf of one causal
/// activity (one RPC call, including retransmissions and its server-side
/// execution on another node). Allocated by [`Tracer::next_span`]; `0` is
/// never issued, so it can serve as a wire sentinel for "no span".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Decodes the wire form, where `0` means "no span".
    pub fn from_wire(raw: u64) -> Option<SpanId> {
        if raw == 0 {
            None
        } else {
            Some(SpanId(raw))
        }
    }

    /// Encodes an optional span for a packet header (`0` = none).
    pub fn to_wire(span: Option<SpanId>) -> u64 {
        span.map_or(0, |s| s.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Typed payload of a trace event. The string form of every variant is a
/// *rendering* ([`EventKind::render`]), produced lazily on demand; nothing
/// is formatted at emission time.
///
/// Process ids and procedure names are carried as plain `u64`/`String` so
/// this crate stays dependency-free; a pid `n` renders as `p{n}`, matching
/// the scheduler's `Pid` display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Free-form text — the legacy [`Tracer::record`] path and one-off
    /// diagnostics that don't warrant a variant.
    Message(String),

    // --- Net ---
    /// A packet entered the transmitter queue.
    PacketSent {
        /// Sending node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Wire size, bytes.
        bytes: u32,
    },
    /// A packet reached its destination.
    PacketDelivered {
        /// Sending node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Wire size, bytes.
        bytes: u32,
    },
    /// A packet was silently dropped in flight (Ethernet-style loss or a
    /// forced drop).
    PacketLost {
        /// Sending node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Wire size, bytes.
        bytes: u32,
    },
    /// The ring hardware refused the packet at the source (destination
    /// interface down) — the sender learns immediately.
    PacketNacked {
        /// Sending node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Wire size, bytes.
        bytes: u32,
    },

    // --- Rpc ---
    /// A client originated a call; the span is born here.
    CallStarted {
        /// Call identifier (`node << 40 | counter`).
        call_id: u64,
        /// Remote procedure name (shared with the request and the packet).
        proc: Arc<str>,
        /// Argument count.
        args: u32,
        /// Destination node.
        dst: u32,
        /// Protocol rendering (`exactly-once` / `maybe`): borrowed from
        /// the protocol's name when emitted, owned when parsed back.
        protocol: Cow<'static, str>,
        /// Span of the enclosing call when this one was issued from a
        /// server process (`0` = root call) — the child-span link that
        /// chains nested cross-node calls into one tree.
        parent_span: u64,
    },
    /// The exactly-once protocol re-sent the request packet.
    CallRetransmitted {
        /// Call identifier.
        call_id: u64,
        /// 1-based attempt number of the retransmission.
        attempt: u32,
    },
    /// The call reached a terminal state on the client.
    CallCompleted {
        /// Call identifier.
        call_id: u64,
        /// `true` when results were delivered to the caller.
        ok: bool,
        /// Short outcome description: `ok` (borrowed), or the failure
        /// reason.
        outcome: Cow<'static, str>,
    },
    /// The call exhausted its retry/deadline budget.
    CallTimedOut {
        /// Call identifier.
        call_id: u64,
    },
    /// The server spawned a process to execute the call body.
    ServerDispatched {
        /// Call identifier.
        call_id: u64,
        /// Procedure being executed (shared with the call packet).
        proc: Arc<str>,
    },
    /// The server transmitted a reply (fresh or replayed from the
    /// duplicate-suppression cache).
    ReplySent {
        /// Call identifier.
        call_id: u64,
        /// `true` when the reply came from the cache.
        cached: bool,
    },
    /// Post-mortem diagnosis: a `maybe` call failed because the *request*
    /// never reached the server (§4.3 — server has no record of it).
    MaybeLostCall {
        /// Call identifier.
        call_id: u64,
    },
    /// Post-mortem diagnosis: a `maybe` call failed because the *reply*
    /// was lost (§4.3 — server executed it, client never heard).
    MaybeLostReply {
        /// Call identifier.
        call_id: u64,
    },

    // --- Sched ---
    /// A process entered the arena.
    ProcessSpawned {
        /// New process id.
        pid: u64,
        /// Root procedure name (shared with the process record).
        proc: Arc<str>,
    },
    /// A process left the runnable set for good.
    ProcessExited {
        /// Process id.
        pid: u64,
    },
    /// A node-wide halt swept the arena.
    ProcessesHalted {
        /// Processes halted or marked halt-pending.
        count: u64,
    },
    /// A node-wide resume released the arena.
    ProcessesResumed {
        /// Processes released.
        count: u64,
    },

    // --- Clock ---
    /// The logical-clock delta absorbed a halt window (§5.2).
    ClockAdjusted {
        /// Halt duration added to the delta.
        delta: SimDuration,
        /// Resulting total delta.
        now: SimDuration,
    },

    // --- Vm ---
    /// A user program printed to its console.
    Print {
        /// Printing process.
        pid: u64,
        /// Printed text.
        text: String,
    },
    /// A process died on a VM fault.
    Faulted {
        /// Faulting process.
        pid: u64,
        /// Rendered fault.
        fault: String,
    },

    // --- Debug ---
    /// A breakpoint fired and the agent halted its node.
    BreakpointHalt,
    /// The node halted on a broadcast from a remote breakpoint.
    HaltBroadcast {
        /// Node whose breakpoint originated the broadcast.
        origin: u32,
    },
    /// An armed metric watchpoint's predicate held at a sync point; the
    /// world halts here the way a breakpoint halts on a line.
    WatchTripped {
        /// Canonical predicate, e.g. `rpc.failed > 0`.
        expr: String,
        /// The metric value observed at the tripping sync point.
        value: i64,
    },
}

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
    /// Stable variant name, used by the JSONL export.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Message(_) => "Message",
            EventKind::PacketSent { .. } => "PacketSent",
            EventKind::PacketDelivered { .. } => "PacketDelivered",
            EventKind::PacketLost { .. } => "PacketLost",
            EventKind::PacketNacked { .. } => "PacketNacked",
            EventKind::CallStarted { .. } => "CallStarted",
            EventKind::CallRetransmitted { .. } => "CallRetransmitted",
            EventKind::CallCompleted { .. } => "CallCompleted",
            EventKind::CallTimedOut { .. } => "CallTimedOut",
            EventKind::ServerDispatched { .. } => "ServerDispatched",
            EventKind::ReplySent { .. } => "ReplySent",
            EventKind::MaybeLostCall { .. } => "MaybeLostCall",
            EventKind::MaybeLostReply { .. } => "MaybeLostReply",
            EventKind::ProcessSpawned { .. } => "ProcessSpawned",
            EventKind::ProcessExited { .. } => "ProcessExited",
            EventKind::ProcessesHalted { .. } => "ProcessesHalted",
            EventKind::ProcessesResumed { .. } => "ProcessesResumed",
            EventKind::ClockAdjusted { .. } => "ClockAdjusted",
            EventKind::Print { .. } => "Print",
            EventKind::Faulted { .. } => "Faulted",
            EventKind::BreakpointHalt => "BreakpointHalt",
            EventKind::HaltBroadcast { .. } => "HaltBroadcast",
            EventKind::WatchTripped { .. } => "WatchTripped",
        }
    }

    /// Renders the human-readable message. Legacy call sites that used to
    /// `format!` eagerly now map to variants whose rendering reproduces
    /// the old string byte-for-byte (the semantics-lock snapshot depends
    /// on `ClockAdjusted`, `Print`, and `Faulted` staying stable).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = self.render_into(&mut out);
        out
    }

    /// [`render`](EventKind::render) into any formatter sink, so the
    /// JSONL writer can stream the message without a temporary.
    fn render_into(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            EventKind::Message(s) => out.write_str(s),
            EventKind::PacketSent { src, dst, bytes } => {
                write!(out, "sent {bytes}B {src}->{dst}")
            }
            EventKind::PacketDelivered { src, dst, bytes } => {
                write!(out, "delivered {bytes}B {src}->{dst}")
            }
            EventKind::PacketLost { src, dst, bytes } => {
                write!(out, "lost {bytes}B {src}->{dst}")
            }
            EventKind::PacketNacked { src, dst, bytes } => {
                write!(out, "nacked {bytes}B {src}->{dst}")
            }
            EventKind::CallStarted {
                call_id,
                proc,
                args,
                dst,
                protocol,
                parent_span,
            } => {
                if *parent_span == 0 {
                    write!(
                        out,
                        "call {call_id} {proc}({args}) -> node{dst} [{protocol}]"
                    )
                } else {
                    write!(
                        out,
                        "call {call_id} {proc}({args}) -> node{dst} [{protocol}] parent s{parent_span}"
                    )
                }
            }
            EventKind::CallRetransmitted { call_id, attempt } => {
                write!(out, "retransmit call {call_id} attempt {attempt}")
            }
            EventKind::CallCompleted {
                call_id,
                ok,
                outcome,
            } => {
                if *ok {
                    write!(out, "call {call_id} completed: {outcome}")
                } else {
                    write!(out, "call {call_id} failed: {outcome}")
                }
            }
            EventKind::CallTimedOut { call_id } => {
                write!(out, "call {call_id} timed out")
            }
            EventKind::ServerDispatched { call_id, proc } => {
                write!(out, "dispatch call {call_id} {proc}")
            }
            EventKind::ReplySent { call_id, cached } => {
                if *cached {
                    write!(out, "reply call {call_id} (cached)")
                } else {
                    write!(out, "reply call {call_id}")
                }
            }
            EventKind::MaybeLostCall { call_id } => {
                write!(
                    out,
                    "maybe call {call_id} failed: request lost (server never heard of it)"
                )
            }
            EventKind::MaybeLostReply { call_id } => {
                write!(
                    out,
                    "maybe call {call_id} failed: reply lost (server executed it)"
                )
            }
            EventKind::ProcessSpawned { pid, proc } => {
                write!(out, "spawned p{pid} {proc}")
            }
            EventKind::ProcessExited { pid } => write!(out, "p{pid} exited"),
            EventKind::ProcessesHalted { count } => {
                write!(out, "halted {count} processes")
            }
            EventKind::ProcessesResumed { count } => {
                write!(out, "resumed {count} processes")
            }
            EventKind::ClockAdjusted { delta, now } => {
                write!(out, "delta += {delta}, now {now}")
            }
            EventKind::Print { pid, text } => write!(out, "p{pid}: {text}"),
            EventKind::Faulted { pid, fault } => {
                write!(out, "p{pid} faulted: {fault}")
            }
            EventKind::BreakpointHalt => out.write_str("breakpoint: local processes halted"),
            EventKind::HaltBroadcast { origin } => {
                write!(out, "halted by broadcast from node{origin}")
            }
            EventKind::WatchTripped { expr, value } => {
                write!(out, "watch tripped: {expr} (observed {value})")
            }
        }
    }

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
                f("protocol", Str(protocol));
                f("parent_span", Uint(*parent_span));
            }
            EventKind::CallRetransmitted { call_id, attempt } => {
                f("call_id", Uint(*call_id));
                f("attempt", Uint(*attempt as u64));
            }
            EventKind::CallCompleted {
                call_id,
                ok,
                outcome,
            } => {
                f("call_id", Uint(*call_id));
                f("ok", Bool(*ok));
                f("outcome", Str(outcome));
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
        let u = |field: &str| -> Result<u64, String> {
            data.get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: missing or non-integer `{field}`"))
        };
        let n = |field: &str| -> Result<u32, String> {
            u(field).and_then(|v| {
                u32::try_from(v).map_err(|_| format!("{name}: `{field}` out of u32 range"))
            })
        };
        let s = |field: &str| -> Result<String, String> {
            data.get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{name}: missing or non-string `{field}`"))
        };
        let b = |field: &str| -> Result<bool, String> {
            data.get(field)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("{name}: missing or non-boolean `{field}`"))
        };
        Ok(match name {
            "Message" => EventKind::Message(s("text")?),
            "PacketSent" => EventKind::PacketSent {
                src: n("src")?,
                dst: n("dst")?,
                bytes: n("bytes")?,
            },
            "PacketDelivered" => EventKind::PacketDelivered {
                src: n("src")?,
                dst: n("dst")?,
                bytes: n("bytes")?,
            },
            "PacketLost" => EventKind::PacketLost {
                src: n("src")?,
                dst: n("dst")?,
                bytes: n("bytes")?,
            },
            "PacketNacked" => EventKind::PacketNacked {
                src: n("src")?,
                dst: n("dst")?,
                bytes: n("bytes")?,
            },
            "CallStarted" => EventKind::CallStarted {
                call_id: u("call_id")?,
                proc: s("proc")?.into(),
                args: n("args")?,
                dst: n("dst")?,
                protocol: s("protocol")?.into(),
                parent_span: u("parent_span")?,
            },
            "CallRetransmitted" => EventKind::CallRetransmitted {
                call_id: u("call_id")?,
                attempt: n("attempt")?,
            },
            "CallCompleted" => EventKind::CallCompleted {
                call_id: u("call_id")?,
                ok: b("ok")?,
                outcome: s("outcome")?.into(),
            },
            "CallTimedOut" => EventKind::CallTimedOut {
                call_id: u("call_id")?,
            },
            "ServerDispatched" => EventKind::ServerDispatched {
                call_id: u("call_id")?,
                proc: s("proc")?.into(),
            },
            "ReplySent" => EventKind::ReplySent {
                call_id: u("call_id")?,
                cached: b("cached")?,
            },
            "MaybeLostCall" => EventKind::MaybeLostCall {
                call_id: u("call_id")?,
            },
            "MaybeLostReply" => EventKind::MaybeLostReply {
                call_id: u("call_id")?,
            },
            "ProcessSpawned" => EventKind::ProcessSpawned {
                pid: u("pid")?,
                proc: s("proc")?.into(),
            },
            "ProcessExited" => EventKind::ProcessExited { pid: u("pid")? },
            "ProcessesHalted" => EventKind::ProcessesHalted { count: u("count")? },
            "ProcessesResumed" => EventKind::ProcessesResumed { count: u("count")? },
            "ClockAdjusted" => EventKind::ClockAdjusted {
                delta: SimDuration::from_micros(u("delta_us")?),
                now: SimDuration::from_micros(u("now_us")?),
            },
            "Print" => EventKind::Print {
                pid: u("pid")?,
                text: s("text")?,
            },
            "Faulted" => EventKind::Faulted {
                pid: u("pid")?,
                fault: s("fault")?,
            },
            "BreakpointHalt" => EventKind::BreakpointHalt,
            "HaltBroadcast" => EventKind::HaltBroadcast {
                origin: n("origin")?,
            },
            "WatchTripped" => EventKind::WatchTripped {
                expr: s("expr")?,
                value: data
                    .get("value")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| format!("{name}: missing or non-integer `value`"))?,
            },
            other => return Err(format!("unknown event kind `{other}`")),
        })
    }
}

/// A single recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened in simulated time.
    pub time: SimTime,
    /// Which subsystem produced it.
    pub category: TraceCategory,
    /// Node the event is attributed to, if any.
    pub node: Option<u32>,
    /// Causal span the event belongs to, if any.
    pub span: Option<SpanId>,
    /// Typed payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The human-readable description, rendered lazily from the payload.
    pub fn message(&self) -> String {
        self.kind.render()
    }

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
            Some(s) => push_display(out, s.0),
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
        let time_us = doc
            .get("time_us")
            .and_then(Json::as_u64)
            .ok_or("missing or non-integer `time_us`")?;
        let category = doc
            .get("category")
            .and_then(Json::as_str)
            .ok_or("missing `category`")
            .and_then(|c| TraceCategory::parse(c).ok_or("unknown `category`"))?;
        let node = match doc.get("node") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("non-integer `node`")?,
            ),
        };
        let span = match doc.get("span") {
            None | Some(Json::Null) => None,
            Some(v) => Some(SpanId(v.as_u64().ok_or("non-integer `span`")?)),
        };
        let kind_name = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing `kind`")?;
        let data = doc.get("data").ok_or("missing `data`")?;
        let kind = EventKind::from_data(kind_name, data)?;
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
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(TraceEvent::parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(events)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The span deliberately does not appear here: this framing is
        // pinned byte-for-byte by tests/semantics_lock.snapshot.txt.
        match self.node {
            Some(n) => write!(
                f,
                "[{} {} n{}] {}",
                self.time,
                self.category,
                n,
                self.message()
            ),
            None => write!(f, "[{} {}] {}", self.time, self.category, self.message()),
        }
    }
}

/// One field-level difference inside a divergent event pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDiff {
    /// Field path, e.g. `time_us`, `span`, or `data.call_id`.
    pub field: String,
    /// Rendered value on the expected (recorded) side.
    pub expected: String,
    /// Rendered value on the actual (fresh) side.
    pub actual: String,
}

/// The first point where two traces disagree, with enough structure to
/// name the event rather than eyeball a string diff.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 0-based index of the first divergent event.
    pub index: usize,
    /// Recorded event at that index, if the recorded trace reaches it.
    pub expected: Option<TraceEvent>,
    /// Fresh event at that index, if the fresh trace reaches it.
    pub actual: Option<TraceEvent>,
    /// Field-by-field differences when both sides have an event.
    pub fields: Vec<FieldDiff>,
}

impl Divergence {
    /// A human-readable multi-line report naming the divergent event's
    /// index, span, and kind, then each differing field.
    pub fn report(&self) -> String {
        let mut out = String::new();
        match (&self.expected, &self.actual) {
            (Some(e), Some(a)) => {
                out.push_str(&format!(
                    "trace divergence at event {}: expected kind {} (span {}), got kind {} (span {})\n",
                    self.index,
                    e.kind.name(),
                    span_str(e.span),
                    a.kind.name(),
                    span_str(a.span),
                ));
                for d in &self.fields {
                    out.push_str(&format!(
                        "  {}: expected {}, got {}\n",
                        d.field, d.expected, d.actual
                    ));
                }
                out.push_str(&format!("  expected event: {e}\n"));
                out.push_str(&format!("  actual event:   {a}\n"));
            }
            (Some(e), None) => {
                out.push_str(&format!(
                    "trace divergence at event {}: fresh trace ended early; expected kind {} (span {})\n  expected event: {e}\n",
                    self.index,
                    e.kind.name(),
                    span_str(e.span),
                ));
            }
            (None, Some(a)) => {
                out.push_str(&format!(
                    "trace divergence at event {}: fresh trace has extra kind {} (span {})\n  actual event: {a}\n",
                    self.index,
                    a.kind.name(),
                    span_str(a.span),
                ));
            }
            (None, None) => out.push_str("traces agree\n"),
        }
        out
    }
}

fn span_str(span: Option<SpanId>) -> String {
    match span {
        Some(s) => s.0.to_string(),
        None => "-".to_string(),
    }
}

/// Compares two traces event-by-event and returns the first divergence,
/// or `None` when they are identical.
///
/// The comparison is structural: envelope fields (`time_us`, `category`,
/// `node`, `span`) and each typed payload field are diffed individually,
/// so the report can say *which* field moved instead of printing two
/// JSON lines.
///
/// # Examples
///
/// ```
/// use pilgrim_sim::{first_divergence, EventKind, SimTime, TraceCategory, TraceEvent};
///
/// let ev = |pid| TraceEvent {
///     time: SimTime::ZERO,
///     category: TraceCategory::Sched,
///     node: Some(0),
///     span: None,
///     kind: EventKind::ProcessExited { pid },
/// };
/// assert!(first_divergence(&[ev(1)], &[ev(1)]).is_none());
/// let d = first_divergence(&[ev(1)], &[ev(2)]).unwrap();
/// assert_eq!(d.index, 0);
/// assert_eq!(d.fields[0].field, "data.pid");
/// ```
pub fn first_divergence(expected: &[TraceEvent], actual: &[TraceEvent]) -> Option<Divergence> {
    let shared = expected.len().min(actual.len());
    for i in 0..shared {
        let (e, a) = (&expected[i], &actual[i]);
        if e == a {
            continue;
        }
        let mut fields = Vec::new();
        if e.time != a.time {
            fields.push(FieldDiff {
                field: "time_us".to_string(),
                expected: e.time.as_micros().to_string(),
                actual: a.time.as_micros().to_string(),
            });
        }
        if e.category != a.category {
            fields.push(FieldDiff {
                field: "category".to_string(),
                expected: e.category.to_string(),
                actual: a.category.to_string(),
            });
        }
        if e.node != a.node {
            fields.push(FieldDiff {
                field: "node".to_string(),
                expected: opt_str(e.node),
                actual: opt_str(a.node),
            });
        }
        if e.span != a.span {
            fields.push(FieldDiff {
                field: "span".to_string(),
                expected: span_str(e.span),
                actual: span_str(a.span),
            });
        }
        if e.kind != a.kind {
            if e.kind.name() != a.kind.name() {
                fields.push(FieldDiff {
                    field: "kind".to_string(),
                    expected: e.kind.name().to_string(),
                    actual: a.kind.name().to_string(),
                });
            } else if let (Json::Object(ep), Json::Object(ap)) = (e.kind.data(), a.kind.data()) {
                for ((key, ev), (_, av)) in ep.iter().zip(ap.iter()) {
                    if ev != av {
                        let mut exp = String::new();
                        let mut act = String::new();
                        ev.write(&mut exp);
                        av.write(&mut act);
                        fields.push(FieldDiff {
                            field: format!("data.{key}"),
                            expected: exp,
                            actual: act,
                        });
                    }
                }
            }
        }
        return Some(Divergence {
            index: i,
            expected: Some(e.clone()),
            actual: Some(a.clone()),
            fields,
        });
    }
    if expected.len() != actual.len() {
        return Some(Divergence {
            index: shared,
            expected: expected.get(shared).cloned(),
            actual: actual.get(shared).cloned(),
            fields: Vec::new(),
        });
    }
    None
}

fn opt_str(v: Option<u32>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "-".to_string(),
    }
}

/// A `Write` sink backed by a shared byte buffer, for capturing echoed
/// trace output in tests and the REPL.
///
/// # Examples
///
/// ```
/// use pilgrim_sim::{EchoBuffer, EventKind, TraceCategory, Tracer, SimTime};
/// let tracer = Tracer::new();
/// let buf = EchoBuffer::new();
/// tracer.set_echo_writer(Box::new(buf.clone()));
/// tracer.set_echo(true);
/// tracer.record(SimTime::ZERO, TraceCategory::Net, Some(1), "packet sent");
/// assert_eq!(buf.contents(), "[T+0us net n1] packet sent\n");
/// ```
#[derive(Debug, Clone, Default)]
pub struct EchoBuffer {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl EchoBuffer {
    /// An empty shared buffer.
    pub fn new() -> EchoBuffer {
        EchoBuffer::default()
    }

    /// Everything written so far, lossily decoded as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.buf.lock().unwrap()).into_owned()
    }

    /// Discards the captured bytes.
    pub fn clear(&self) {
        self.buf.lock().unwrap().clear();
    }
}

impl Write for EchoBuffer {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct TracerInner {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    /// The flight-recorder ring: a small, always-on tail of recent
    /// events, retained even when the main trace is filtered off.
    blackbox: VecDeque<TraceEvent>,
    blackbox_capacity: usize,
    /// Echo destination; `None` means stdout.
    echo_sink: Option<Box<dyn Write + Send>>,
    /// Span ids admitted by head-based sampling. Only consulted while a
    /// sample rate is set; holds kept spans only, so its size is the
    /// kept fraction of all spans, not the span count.
    kept: HashSet<u64>,
}

/// Buffer reserved per event when rendering JSONL. A line of a loaded
/// run averages 220–270 bytes; a guess below the average makes the
/// buffer double its way past twice the trace (and copy it each time), so
/// the guess sits just above it.
const JSONL_LINE_BYTES: usize = 288;

/// `events` as JSON Lines: one [`TraceEvent::write_json`] object per
/// line, newline-terminated.
fn jsonl(events: &VecDeque<TraceEvent>) -> String {
    let mut out = String::with_capacity(events.len() * JSONL_LINE_BYTES);
    for ev in events {
        ev.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Default flight-recorder ring size: enough to hold the last few
/// lockstep windows of a busy world without rivalling the main trace.
pub const BLACKBOX_CAPACITY: usize = 512;

struct Shared {
    /// Two enabled-category bitmasks packed into one word — low byte is
    /// the main trace filter, high byte the flight-recorder filter — so
    /// the hot-path `wants` check stays a single atomic (relaxed) load
    /// that worker threads stepping nodes can consult without locking;
    /// on x86 a relaxed load is an ordinary load.
    masks: AtomicU16,
    echo: AtomicBool,
    next_span: AtomicU64,
    /// Head-based span sampling: keep 1-in-`sample_rate` root spans
    /// (0 or 1 = keep everything, the zero-cost default).
    sample_rate: AtomicU32,
    /// Seed mixed into the root-span keep decision so different worlds
    /// sample different spans, deterministically.
    sample_seed: AtomicU64,
    inner: Mutex<TracerInner>,
}

/// One round of SplitMix64 finalization — decorrelates consecutive span
/// ids so "every Nth span" doesn't alias with periodic workloads.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Shift of the flight-recorder mask within [`Shared::masks`].
const BLACKBOX_SHIFT: u16 = 8;

/// A shared, clonable event recorder.
///
/// # Examples
///
/// ```
/// use pilgrim_sim::{Tracer, TraceCategory, SimTime};
/// let tracer = Tracer::new();
/// tracer.record(SimTime::ZERO, TraceCategory::Net, Some(1), "packet sent");
/// assert_eq!(tracer.events_in(TraceCategory::Net).len(), 1);
/// ```
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<Shared>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.shared.inner.lock().unwrap();
        let masks = self.shared.masks.load(Ordering::Relaxed);
        f.debug_struct("Tracer")
            .field("events", &inner.events.len())
            .field("mask", &((masks & 0xff) as u8))
            .field("blackbox_mask", &((masks >> BLACKBOX_SHIFT) as u8))
            .field("blackbox", &inner.blackbox.len())
            .field("echo", &self.shared.echo.load(Ordering::Relaxed))
            .field("capacity", &inner.capacity)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a tracer that records every category, bounded to a large
    /// default capacity (1 million events, oldest discarded first).
    pub fn new() -> Tracer {
        Tracer::with_capacity(1_000_000)
    }

    /// Creates a tracer bounded to `capacity` events; when full, the oldest
    /// event is discarded (in O(1): the buffer is a ring).
    ///
    /// The flight recorder starts armed for every category except `vm`
    /// (per-instruction events would churn the small ring and tax the
    /// interpreter hot path for nothing a post-mortem needs).
    pub fn with_capacity(capacity: usize) -> Tracer {
        let blackbox_mask = TraceCategory::ALL & !TraceCategory::Vm.bit();
        Tracer {
            shared: Arc::new(Shared {
                masks: AtomicU16::new(
                    TraceCategory::ALL as u16 | (blackbox_mask as u16) << BLACKBOX_SHIFT,
                ),
                echo: AtomicBool::new(false),
                next_span: AtomicU64::new(1),
                sample_rate: AtomicU32::new(0),
                sample_seed: AtomicU64::new(0),
                inner: Mutex::new(TracerInner {
                    events: VecDeque::new(),
                    capacity,
                    blackbox: VecDeque::new(),
                    blackbox_capacity: BLACKBOX_CAPACITY,
                    echo_sink: None,
                    kept: HashSet::new(),
                }),
            }),
        }
    }

    fn store_record_mask(&self, mask: u8) {
        let old = self.shared.masks.load(Ordering::Relaxed);
        self.shared
            .masks
            .store((old & 0xff00) | mask as u16, Ordering::Relaxed);
    }

    /// Restricts recording to the given categories.
    pub fn set_filter(&self, categories: &[TraceCategory]) {
        self.store_record_mask(categories.iter().fold(0u8, |m, c| m | c.bit()));
    }

    /// Records all categories again.
    pub fn clear_filter(&self) {
        self.store_record_mask(TraceCategory::ALL);
    }

    /// Restricts the flight recorder to the given categories. An empty
    /// list disarms it entirely, restoring the strict tracing-off hot
    /// path (one masked load, nothing constructed).
    pub fn set_blackbox_filter(&self, categories: &[TraceCategory]) {
        let mask = categories.iter().fold(0u8, |m, c| m | c.bit());
        let old = self.shared.masks.load(Ordering::Relaxed);
        self.shared.masks.store(
            (old & 0x00ff) | (mask as u16) << BLACKBOX_SHIFT,
            Ordering::Relaxed,
        );
    }

    /// When `true`, also prints each event to the echo sink (stdout by
    /// default) as it is recorded.
    pub fn set_echo(&self, echo: bool) {
        self.shared.echo.store(echo, Ordering::Relaxed);
    }

    /// Redirects echoed output to `sink` instead of stdout. Pair with an
    /// [`EchoBuffer`] to capture output in tests or the REPL.
    pub fn set_echo_writer(&self, sink: Box<dyn Write + Send>) {
        self.shared.inner.lock().unwrap().echo_sink = Some(sink);
    }

    /// Restores the default stdout echo destination.
    pub fn clear_echo_writer(&self) {
        self.shared.inner.lock().unwrap().echo_sink = None;
    }

    /// Returns whether `category` is wanted by the main trace *or* the
    /// flight recorder — one relaxed atomic load, an or, and a mask; no
    /// allocation, no lock. Check this *before* constructing an
    /// [`EventKind`] so fully disabled tracing costs nothing.
    #[inline]
    pub fn wants(&self, category: TraceCategory) -> bool {
        let m = self.shared.masks.load(Ordering::Relaxed);
        ((m | (m >> BLACKBOX_SHIFT)) as u8) & category.bit() != 0
    }

    /// Whether the main trace (as opposed to the flight recorder) is
    /// currently recording `category`.
    #[inline]
    pub fn wants_recorded(&self, category: TraceCategory) -> bool {
        (self.shared.masks.load(Ordering::Relaxed) as u8) & category.bit() != 0
    }

    /// Allocates a fresh causal span id. Tracers cloned from the same
    /// root share the counter, so spans are unique across every node of a
    /// world. Never returns id 0 (the wire sentinel for "no span").
    ///
    /// With sampling active the span counts as a *root* — equivalent to
    /// [`next_span_with_parent`](Tracer::next_span_with_parent) with no
    /// parent.
    pub fn next_span(&self) -> SpanId {
        self.next_span_with_parent(None)
    }

    /// Allocates a fresh causal span id, deciding its sampling fate.
    ///
    /// Ids come off the shared counter whether or not the span is kept,
    /// so a sampled run allocates exactly the ids an unsampled run does
    /// (its trace is a strict subset, never a renumbering). Roots are
    /// kept when `mix64(seed ^ id) % rate == 0` — a pure function of the
    /// recipe-carried seed and the deterministic id, identical across
    /// serial, parallel, and replay runs. A child inherits its parent's
    /// verdict, so every kept trace is causally complete.
    pub fn next_span_with_parent(&self, parent: Option<SpanId>) -> SpanId {
        let id = self.shared.next_span.fetch_add(1, Ordering::Relaxed);
        let rate = self.shared.sample_rate.load(Ordering::Relaxed);
        if rate > 1 {
            let keep = match parent {
                Some(p) => self.shared.inner.lock().unwrap().kept.contains(&p.0),
                None => {
                    let seed = self.shared.sample_seed.load(Ordering::Relaxed);
                    mix64(seed ^ id).is_multiple_of(rate as u64)
                }
            };
            if keep {
                self.shared.inner.lock().unwrap().kept.insert(id);
            }
        }
        SpanId(id)
    }

    /// Arms head-based span sampling: keep 1-in-`rate` root spans (and
    /// every child of a kept root). Rates 0 and 1 disable sampling; the
    /// disabled path costs one relaxed load per span allocation and
    /// nothing per event. Span-stamped events whose span was sampled out
    /// are dropped from the main trace, the flight recorder, and the
    /// echo alike; unstamped events always record.
    pub fn set_trace_sample(&self, rate: u32, seed: u64) {
        self.shared.sample_seed.store(seed, Ordering::Relaxed);
        self.shared.sample_rate.store(rate, Ordering::Relaxed);
    }

    /// The active sampling rate (0 or 1 = sampling off).
    pub fn trace_sample(&self) -> u32 {
        self.shared.sample_rate.load(Ordering::Relaxed)
    }

    /// Records a typed event. The category check is repeated here so
    /// callers that skipped their own `wants` guard still filter
    /// correctly, but hot paths should guard first and only then build
    /// `kind`.
    pub fn emit(
        &self,
        time: SimTime,
        category: TraceCategory,
        node: Option<u32>,
        span: Option<SpanId>,
        kind: EventKind,
    ) {
        if !self.wants(category) {
            return;
        }
        self.push_event(TraceEvent {
            time,
            category,
            node,
            span,
            kind,
        });
    }

    /// Appends an event that already passed the [`wants`](Tracer::wants)
    /// admission check, routing it to the main trace ring, the
    /// flight-recorder ring, or both according to the two masks. Also the
    /// drain path for per-node trace buffers at a parallel sync barrier —
    /// filters only ever change between windows (the REPL runs in the
    /// serial phase), so buffered events route exactly as they would have
    /// serially and the twin runs stay byte-identical.
    pub fn push_event(&self, ev: TraceEvent) {
        let masks = self.shared.masks.load(Ordering::Relaxed);
        let bit = ev.category.bit();
        let recorded = (masks as u8) & bit != 0;
        let boxed = ((masks >> BLACKBOX_SHIFT) as u8) & bit != 0;
        if !recorded && !boxed {
            return;
        }
        let mut inner = self.shared.inner.lock().unwrap();
        if let Some(s) = ev.span {
            // Head-based sampling: a span that lost the keep draw leaves
            // no trace anywhere — main ring, flight recorder, or echo.
            let rate = self.shared.sample_rate.load(Ordering::Relaxed);
            if rate > 1 && !inner.kept.contains(&s.0) {
                return;
            }
        }
        if boxed {
            let cap = inner.blackbox_capacity.max(1);
            while inner.blackbox.len() >= cap {
                inner.blackbox.pop_front();
            }
            if recorded {
                inner.blackbox.push_back(ev.clone());
            } else {
                inner.blackbox.push_back(ev);
                return;
            }
        }
        if self.shared.echo.load(Ordering::Relaxed) {
            match inner.echo_sink.as_mut() {
                Some(sink) => {
                    let _ = writeln!(sink, "{ev}");
                }
                None => println!("{ev}"),
            }
        }
        while inner.events.len() >= inner.capacity.max(1) {
            inner.events.pop_front();
        }
        inner.events.push_back(ev);
    }

    /// Records a free-form event (the legacy string API, kept for
    /// diagnostics that don't warrant a typed variant).
    pub fn record(
        &self,
        time: SimTime,
        category: TraceCategory,
        node: Option<u32>,
        message: impl Into<String>,
    ) {
        if !self.wants(category) {
            return;
        }
        self.emit(
            time,
            category,
            node,
            None,
            EventKind::Message(message.into()),
        );
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.shared.inner.lock().unwrap().events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.shared.inner.lock().unwrap().events.is_empty()
    }

    /// Visits every retained event in order without cloning the ring.
    ///
    /// The storage sits behind a mutex, so iteration is exposed as an
    /// internal visitor rather than an `Iterator` (which would have to
    /// either clone, as [`events`](Tracer::events) does, or leak a lock
    /// guard). `f` must not call back into this tracer.
    pub fn for_each(&self, mut f: impl FnMut(&TraceEvent)) {
        for ev in &self.shared.inner.lock().unwrap().events {
            f(ev);
        }
    }

    /// A snapshot of every recorded event, in order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.shared
            .inner
            .lock()
            .unwrap()
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// A snapshot of the events in one category.
    pub fn events_in(&self, category: TraceCategory) -> Vec<TraceEvent> {
        self.shared
            .inner
            .lock()
            .unwrap()
            .events
            .iter()
            .filter(|e| e.category == category)
            .cloned()
            .collect()
    }

    /// Every retained event stamped with `span`, in recording (= time)
    /// order: the cross-node timeline of one causal activity.
    pub fn events_for_span(&self, span: SpanId) -> Vec<TraceEvent> {
        self.shared
            .inner
            .lock()
            .unwrap()
            .events
            .iter()
            .filter(|e| e.span == Some(span))
            .cloned()
            .collect()
    }

    /// True when some recorded message contains `needle`.
    pub fn saw(&self, needle: &str) -> bool {
        self.shared
            .inner
            .lock()
            .unwrap()
            .events
            .iter()
            .any(|e| e.message().contains(needle))
    }

    /// Number of recorded events whose message contains `needle`.
    pub fn count(&self, needle: &str) -> usize {
        self.shared
            .inner
            .lock()
            .unwrap()
            .events
            .iter()
            .filter(|e| e.message().contains(needle))
            .count()
    }

    /// The whole retained trace as JSON Lines — one object per event,
    /// newline-terminated, suitable for external tooling.
    pub fn to_jsonl(&self) -> String {
        jsonl(&self.shared.inner.lock().unwrap().events)
    }

    /// Discards all recorded events.
    pub fn clear(&self) {
        self.shared.inner.lock().unwrap().events.clear();
    }

    /// A snapshot of the flight-recorder ring, oldest first.
    pub fn blackbox_events(&self) -> Vec<TraceEvent> {
        self.shared
            .inner
            .lock()
            .unwrap()
            .blackbox
            .iter()
            .cloned()
            .collect()
    }

    /// Number of events currently held by the flight recorder.
    pub fn blackbox_len(&self) -> usize {
        self.shared.inner.lock().unwrap().blackbox.len()
    }

    /// The flight-recorder ring budget.
    pub fn blackbox_capacity(&self) -> usize {
        self.shared.inner.lock().unwrap().blackbox_capacity
    }

    /// Resizes the flight-recorder ring (oldest events discarded first
    /// if the new budget is smaller).
    pub fn set_blackbox_capacity(&self, capacity: usize) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.blackbox_capacity = capacity;
        while inner.blackbox.len() > capacity.max(1) {
            inner.blackbox.pop_front();
        }
    }

    /// The flight-recorder ring as JSON Lines, oldest first — same
    /// encoding as [`to_jsonl`](Tracer::to_jsonl).
    pub fn blackbox_jsonl(&self) -> String {
        jsonl(&self.shared.inner.lock().unwrap().blackbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let t = Tracer::new();
        t.record(SimTime::ZERO, TraceCategory::Net, None, "a");
        t.record(SimTime::ZERO, TraceCategory::Rpc, Some(2), "b");
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events_in(TraceCategory::Rpc).len(), 1);
        assert!(t.saw("a"));
        assert_eq!(t.count("b"), 1);
    }

    #[test]
    fn filter_suppresses_categories() {
        let t = Tracer::new();
        t.set_blackbox_filter(&[]); // isolate the main-trace filter
        t.set_filter(&[TraceCategory::Clock]);
        assert!(t.wants(TraceCategory::Clock));
        assert!(!t.wants(TraceCategory::Net));
        t.record(SimTime::ZERO, TraceCategory::Net, None, "dropped");
        t.record(SimTime::ZERO, TraceCategory::Clock, None, "kept");
        assert_eq!(t.events().len(), 1);
        assert!(t.saw("kept"));
        t.clear_filter();
        assert!(t.wants(TraceCategory::Net));
        t.record(SimTime::ZERO, TraceCategory::Net, None, "now kept");
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn filter_mask_covers_every_category() {
        let all = [
            TraceCategory::Sched,
            TraceCategory::Net,
            TraceCategory::Rpc,
            TraceCategory::Debug,
            TraceCategory::Clock,
            TraceCategory::Vm,
            TraceCategory::Service,
        ];
        // Each category maps to a distinct bit inside ALL.
        let mut seen = 0u8;
        for c in all {
            assert_eq!(seen & c.bit(), 0, "{c} shares a bit");
            seen |= c.bit();
        }
        assert_eq!(seen, TraceCategory::ALL);
        // A single-category filter admits exactly that category.
        let t = Tracer::new();
        t.set_blackbox_filter(&[]);
        for c in all {
            t.set_filter(&[c]);
            for other in all {
                assert_eq!(t.wants(other), other == c);
                assert_eq!(t.wants_recorded(other), other == c);
            }
        }
    }

    #[test]
    fn blackbox_captures_with_tracing_off() {
        let t = Tracer::new();
        t.set_filter(&[]);
        // The combined admission check still wants non-vm categories...
        assert!(t.wants(TraceCategory::Net));
        assert!(!t.wants_recorded(TraceCategory::Net));
        // ...and vm stays excluded by the default flight-recorder mask.
        assert!(!t.wants(TraceCategory::Vm));
        t.record(SimTime::ZERO, TraceCategory::Net, None, "boxed only");
        assert!(t.events().is_empty(), "main trace is off");
        assert_eq!(t.blackbox_len(), 1);
        assert_eq!(t.blackbox_events()[0].message(), "boxed only");
        // Disarming the flight recorder restores the strict off path.
        t.set_blackbox_filter(&[]);
        assert!(!t.wants(TraceCategory::Net));
        t.record(SimTime::ZERO, TraceCategory::Net, None, "gone");
        assert_eq!(t.blackbox_len(), 1);
    }

    #[test]
    fn sampling_keeps_roots_deterministically_and_children_follow() {
        let emit = |t: &Tracer, span: SpanId| {
            t.emit(
                SimTime::ZERO,
                TraceCategory::Rpc,
                Some(0),
                Some(span),
                EventKind::Message(format!("s{}", span.0)),
            );
        };
        let run = || {
            let t = Tracer::new();
            t.set_trace_sample(4, 0xfeed);
            let mut kept = Vec::new();
            for _ in 0..64 {
                let root = t.next_span_with_parent(None);
                let child = t.next_span_with_parent(Some(root));
                emit(&t, root);
                emit(&t, child);
                let root_kept = t.events_for_span(root).len() == 1;
                let child_kept = t.events_for_span(child).len() == 1;
                assert_eq!(root_kept, child_kept, "children follow their root");
                kept.push(root_kept);
            }
            (kept, t.events().len(), t.blackbox_len())
        };
        let (kept, events, boxed) = run();
        let survivors = kept.iter().filter(|k| **k).count();
        assert!(survivors > 0 && survivors < 64, "{survivors}/64 kept");
        assert_eq!(events, survivors * 2);
        assert_eq!(boxed, survivors * 2, "sampled-out spans skip the blackbox");
        assert_eq!(run().0, kept, "the keep set is a pure function of the seed");

        // Unstamped events are never sampled away, and rate 1 keeps all.
        let t = Tracer::new();
        t.set_trace_sample(4, 0xfeed);
        t.record(SimTime::ZERO, TraceCategory::Net, None, "unstamped");
        assert_eq!(t.events().len(), 1);
        let t1 = Tracer::new();
        t1.set_trace_sample(1, 0xfeed);
        emit(&t1, t1.next_span());
        assert_eq!(t1.events().len(), 1);
    }

    #[test]
    fn blackbox_ring_is_bounded_and_oldest_first() {
        let t = Tracer::new();
        t.set_blackbox_capacity(3);
        for i in 0..7 {
            t.record(
                SimTime::from_millis(i),
                TraceCategory::Net,
                None,
                format!("e{i}"),
            );
        }
        let kept: Vec<String> = t
            .blackbox_events()
            .into_iter()
            .map(|e| e.message())
            .collect();
        assert_eq!(kept, vec!["e4", "e5", "e6"], "oldest evicted first");
        // The main ring kept everything — the two rings are independent.
        assert_eq!(t.events().len(), 7);
        // Shrinking discards from the front.
        t.set_blackbox_capacity(1);
        assert_eq!(t.blackbox_events()[0].message(), "e6");
    }

    #[test]
    fn blackbox_jsonl_matches_main_encoding() {
        let t = Tracer::new();
        t.record(SimTime::from_millis(2), TraceCategory::Rpc, Some(1), "x");
        assert_eq!(t.blackbox_jsonl(), t.to_jsonl());
    }

    #[test]
    fn clones_share_storage() {
        let t = Tracer::new();
        let t2 = t.clone();
        t2.record(SimTime::ZERO, TraceCategory::Vm, None, "shared");
        assert!(t.saw("shared"));
    }

    #[test]
    fn clones_share_span_counter() {
        let t = Tracer::new();
        let t2 = t.clone();
        let a = t.next_span();
        let b = t2.next_span();
        assert_ne!(a, b, "span ids unique across clones");
        assert_eq!(a, SpanId(1));
        assert_eq!(b, SpanId(2));
    }

    #[test]
    fn span_wire_round_trip() {
        assert_eq!(SpanId::to_wire(None), 0);
        assert_eq!(SpanId::from_wire(0), None);
        assert_eq!(SpanId::from_wire(7), Some(SpanId(7)));
        assert_eq!(SpanId::to_wire(Some(SpanId(7))), 7);
    }

    #[test]
    fn clear_discards() {
        let t = Tracer::new();
        t.record(SimTime::ZERO, TraceCategory::Vm, None, "x");
        t.clear();
        assert!(t.events().is_empty());
    }

    #[test]
    fn eviction_drops_oldest_first() {
        let t = Tracer::with_capacity(3);
        for i in 0..7 {
            t.record(
                SimTime::from_millis(i),
                TraceCategory::Vm,
                None,
                format!("e{i}"),
            );
        }
        let kept: Vec<String> = t.events().into_iter().map(|e| e.message()).collect();
        assert_eq!(kept, vec!["e4", "e5", "e6"], "oldest events evicted first");
        // Recording continues to rotate the window.
        t.record(SimTime::from_millis(7), TraceCategory::Vm, None, "e7");
        let kept: Vec<String> = t.events().into_iter().map(|e| e.message()).collect();
        assert_eq!(kept, vec!["e5", "e6", "e7"]);
    }

    #[test]
    fn len_and_for_each_track_the_ring_without_cloning() {
        let t = Tracer::with_capacity(3);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        for i in 0..5 {
            t.record(
                SimTime::from_millis(i),
                TraceCategory::Vm,
                None,
                format!("e{i}"),
            );
        }
        assert_eq!(t.len(), 3, "capacity bounds retained events");
        assert!(!t.is_empty());
        let mut seen = Vec::new();
        t.for_each(|e| seen.push(e.message()));
        assert_eq!(seen, vec!["e2", "e3", "e4"], "visits survivors in order");
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn display_includes_node_and_category() {
        let ev = TraceEvent {
            time: SimTime::from_millis(1),
            category: TraceCategory::Debug,
            node: Some(3),
            span: None,
            kind: EventKind::Message("hello".into()),
        };
        assert_eq!(ev.to_string(), "[T+1.000ms debug n3] hello");
    }

    #[test]
    fn display_omits_span_to_preserve_legacy_framing() {
        let ev = TraceEvent {
            time: SimTime::from_millis(1),
            category: TraceCategory::Rpc,
            node: Some(0),
            span: Some(SpanId(9)),
            kind: EventKind::Message("x".into()),
        };
        assert_eq!(ev.to_string(), "[T+1.000ms rpc n0] x");
    }

    #[test]
    fn legacy_renderings_are_byte_stable() {
        // These three renderings are pinned by the semantics-lock
        // snapshot; changing them breaks tier-1.
        assert_eq!(
            EventKind::ClockAdjusted {
                delta: SimDuration::from_micros(29_926),
                now: SimDuration::from_micros(29_926),
            }
            .render(),
            "delta += 29.926ms, now 29.926ms"
        );
        assert_eq!(
            EventKind::Print {
                pid: 1,
                text: "ping 21".into()
            }
            .render(),
            "p1: ping 21"
        );
        assert_eq!(
            EventKind::Faulted {
                pid: 2,
                fault: "Overflow: kaboom".into()
            }
            .render(),
            "p2 faulted: Overflow: kaboom"
        );
        assert_eq!(
            EventKind::ProcessesHalted { count: 3 }.render(),
            "halted 3 processes"
        );
    }

    #[test]
    fn typed_events_stamp_spans() {
        let t = Tracer::new();
        let span = t.next_span();
        t.emit(
            SimTime::ZERO,
            TraceCategory::Rpc,
            Some(0),
            Some(span),
            EventKind::CallStarted {
                call_id: 42,
                proc: "ping".into(),
                args: 0,
                dst: 1,
                protocol: "exactly-once".into(),
                parent_span: 0,
            },
        );
        t.emit(
            SimTime::from_millis(4),
            TraceCategory::Rpc,
            Some(1),
            Some(span),
            EventKind::ServerDispatched {
                call_id: 42,
                proc: "ping".into(),
            },
        );
        t.emit(
            SimTime::from_millis(5),
            TraceCategory::Rpc,
            Some(0),
            None,
            EventKind::CallTimedOut { call_id: 7 },
        );
        let timeline = t.events_for_span(span);
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[0].kind.name(), "CallStarted");
        assert_eq!(timeline[1].kind.name(), "ServerDispatched");
        assert!(timeline[0].time <= timeline[1].time);
    }

    #[test]
    fn echo_writes_to_pluggable_sink() {
        let t = Tracer::new();
        let buf = EchoBuffer::new();
        t.set_echo_writer(Box::new(buf.clone()));
        t.set_echo(true);
        t.record(SimTime::from_millis(2), TraceCategory::Net, Some(1), "boop");
        t.set_echo(false);
        t.record(
            SimTime::from_millis(3),
            TraceCategory::Net,
            Some(1),
            "quiet",
        );
        assert_eq!(buf.contents(), "[T+2.000ms net n1] boop\n");
        buf.clear();
        assert_eq!(buf.contents(), "");
    }

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
            Some(SpanId(5)),
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

    /// One exemplar of every [`EventKind`] variant, with hostile strings
    /// (quotes, backslashes, control chars, non-ASCII) where a string
    /// field exists.
    fn all_event_kinds() -> Vec<EventKind> {
        event_kinds_with("say \"hi\"\n\t\\ \u{1} λ")
    }

    /// One exemplar of every [`EventKind`] variant, every string field
    /// set to `s`.
    fn event_kinds_with(s: &str) -> Vec<EventKind> {
        let s = || s.to_string();
        vec![
            EventKind::Message(s()),
            EventKind::PacketSent {
                src: 0,
                dst: 1,
                bytes: 32,
            },
            EventKind::PacketDelivered {
                src: 1,
                dst: 0,
                bytes: 48,
            },
            EventKind::PacketLost {
                src: 2,
                dst: 3,
                bytes: 64,
            },
            EventKind::PacketNacked {
                src: 3,
                dst: 2,
                bytes: 16,
            },
            EventKind::CallStarted {
                call_id: (7u64 << 40) | 1,
                proc: s().into(),
                args: 2,
                dst: 1,
                protocol: s().into(),
                parent_span: 0,
            },
            EventKind::CallRetransmitted {
                call_id: 9,
                attempt: 3,
            },
            EventKind::CallCompleted {
                call_id: u64::MAX,
                ok: false,
                outcome: s().into(),
            },
            EventKind::CallTimedOut { call_id: 11 },
            EventKind::ServerDispatched {
                call_id: 12,
                proc: s().into(),
            },
            EventKind::ReplySent {
                call_id: 13,
                cached: true,
            },
            EventKind::MaybeLostCall { call_id: 14 },
            EventKind::MaybeLostReply { call_id: 15 },
            EventKind::ProcessSpawned {
                pid: 16,
                proc: s().into(),
            },
            EventKind::ProcessExited { pid: 17 },
            EventKind::ProcessesHalted { count: 18 },
            EventKind::ProcessesResumed { count: 19 },
            EventKind::ClockAdjusted {
                delta: SimDuration::from_micros(20),
                now: SimDuration::from_micros(21),
            },
            EventKind::Print { pid: 22, text: s() },
            EventKind::Faulted {
                pid: 23,
                fault: s(),
            },
            EventKind::BreakpointHalt,
            EventKind::HaltBroadcast { origin: 24 },
            EventKind::WatchTripped {
                expr: s(),
                value: -25,
            },
        ]
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
            Some(s) => out.push_str(&s.0.to_string()),
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
                    span: (i % 2 == 1).then_some(SpanId(u64::MAX - i as u64)),
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

    /// The RPC events as the endpoint builds them — a borrowed protocol
    /// name and outcome, one `Arc<str>` shared by both ends of the call —
    /// write the bytes an owned `String` always wrote, and parse back
    /// `==` although the parsed side owns its text.
    #[test]
    fn rpc_events_render_the_same_borrowed_shared_or_owned() {
        for (name, escaped) in [("ping", "ping"), ("a\"b", "a\\\"b"), ("λ→é😀", "λ→é😀")]
        {
            let shared: Arc<str> = name.into();
            let built = [
                EventKind::CallStarted {
                    call_id: (3 << 40) | 9,
                    proc: shared.clone(),
                    args: 1,
                    dst: 2,
                    protocol: Cow::Borrowed("exactly-once"),
                    parent_span: 0,
                },
                EventKind::ServerDispatched {
                    call_id: (3 << 40) | 9,
                    proc: shared.clone(),
                },
                EventKind::CallCompleted {
                    call_id: (3 << 40) | 9,
                    ok: true,
                    outcome: Cow::Borrowed("ok"),
                },
                EventKind::CallCompleted {
                    call_id: (3 << 40) | 9,
                    ok: false,
                    outcome: format!("maybe: {name}").into(),
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
                    span: Some(SpanId(4)),
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
    fn runaway_nesting_in_a_trace_line_is_an_error() {
        let deep = |unit: &str| {
            format!(
                "{{\"time_us\": 1, \"category\": \"vm\", \"node\": null, \"span\": null, \
                 \"kind\": \"BreakpointHalt\", \"message\": \"\", \"data\": {}",
                unit.repeat(100_000)
            )
        };
        for unit in ["[", "{\"a\":"] {
            let err = TraceEvent::parse_json(&deep(unit)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
            let err = TraceEvent::parse_jsonl(&format!("\n{}\n", deep(unit))).unwrap_err();
            assert!(err.starts_with("line 2: nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn every_event_kind_round_trips_through_jsonl() {
        let events: Vec<TraceEvent> = all_event_kinds()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                time: SimTime::from_micros(i as u64 * 17),
                category: TraceCategory::Rpc,
                node: if i % 3 == 0 { None } else { Some(i as u32) },
                span: if i % 2 == 0 {
                    None
                } else {
                    Some(SpanId(i as u64))
                },
                kind,
            })
            .collect();
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

    #[test]
    fn parse_rejects_bad_lines_with_line_numbers() {
        let err = TraceEvent::parse_jsonl("{\"time_us\": 1}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let good = TraceEvent {
            time: SimTime::ZERO,
            category: TraceCategory::Vm,
            node: None,
            span: None,
            kind: EventKind::BreakpointHalt,
        }
        .to_json();
        let err = TraceEvent::parse_jsonl(&format!("{good}\nnot json\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(
            EventKind::from_data("NoSuchKind", &Json::obj(vec![])).is_err(),
            "unknown kinds must be rejected"
        );
    }

    #[test]
    fn divergence_checker_reports_first_differing_field() {
        let base: Vec<TraceEvent> = all_event_kinds()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                time: SimTime::from_micros(i as u64),
                category: TraceCategory::Debug,
                node: Some(0),
                span: Some(SpanId(i as u64 + 1)),
                kind,
            })
            .collect();
        assert!(first_divergence(&base, &base).is_none());

        // Mutate one payload field deep in the middle.
        let mut mutated = base.clone();
        if let EventKind::CallCompleted { ok, .. } = &mut mutated[7].kind {
            *ok = true;
        } else {
            panic!("expected CallCompleted at index 7");
        }
        let d = first_divergence(&base, &mutated).expect("must diverge");
        assert_eq!(d.index, 7);
        assert_eq!(d.fields.len(), 1);
        assert_eq!(d.fields[0].field, "data.ok");
        assert_eq!(d.fields[0].expected, "false");
        assert_eq!(d.fields[0].actual, "true");
        let report = d.report();
        assert!(report.contains("event 7"), "{report}");
        assert!(report.contains("CallCompleted"), "{report}");
        assert!(report.contains("span 8"), "{report}");

        // A truncated trace reports the first missing index.
        let d = first_divergence(&base, &base[..5]).expect("must diverge");
        assert_eq!(d.index, 5);
        assert!(d.actual.is_none());
        assert!(d.report().contains("ended early"), "{}", d.report());

        // A changed kind reports the kind field, not a payload path.
        let mut rekinded = base.clone();
        rekinded[2].kind = EventKind::BreakpointHalt;
        let d = first_divergence(&base, &rekinded).expect("must diverge");
        assert_eq!(d.index, 2);
        assert!(d.fields.iter().any(|f| f.field == "kind"));
    }
}
