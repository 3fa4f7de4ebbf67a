//! The event schema's payload: one [`EventKind`] variant per thing a
//! component can report, and the human-readable rendering of each.
//!
//! A payload's text is of two kinds. Procedure names repeat and are
//! shared `Arc<str>` handles; everything else a variant could spell out
//! from a fixed set — the RPC protocol, a call's success — is typed, so
//! the only owned text is what a component says once: a message, a
//! print, a fault, a watch expression, a call's failure reason.

use std::fmt;
use std::sync::Arc;

use crate::time::SimDuration;

/// Typed payload of a trace event. The string form of every variant is a
/// *rendering* ([`EventKind::render`]), produced lazily on demand; nothing
/// is formatted at emission time.
///
/// Process ids are plain `u64`s, so this crate stays dependency-free; a
/// pid `n` renders as `p{n}`, matching the scheduler's `Pid` display.
/// Procedure names are `Arc<str>`s shared with the process record, the
/// request and the packet, so emitting one clones a handle, not the text.
/// The [`Tracer`](super::Tracer) does not keep the handle: it stores each
/// procedure name as a `u32` id into its own table of names, and hands
/// the `Arc` back when an event is read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Free-form text — the legacy
    /// [`Tracer::record`](super::Tracer::record) path and one-off
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
        /// The call's protocol.
        protocol: RpcProtocol,
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
        /// `None` when results were delivered to the caller, else why
        /// they were not.
        failure: Option<String>,
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

/// Which RPC protocol a remote call uses (paper §2, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RpcProtocol {
    /// Reliable in the absence of node failures; retransmits and dedups.
    ExactlyOnce,
    /// Fast but unreliable: a lost call or reply packet surfaces as failure.
    Maybe,
}

impl RpcProtocol {
    /// The protocol's name as source, traces and debugger output spell it.
    pub fn name(self) -> &'static str {
        match self {
            RpcProtocol::ExactlyOnce => "exactly-once",
            RpcProtocol::Maybe => "maybe",
        }
    }

    /// The inverse of [`name`](RpcProtocol::name).
    pub fn parse(name: &str) -> Option<RpcProtocol> {
        [RpcProtocol::ExactlyOnce, RpcProtocol::Maybe]
            .into_iter()
            .find(|p| p.name() == name)
    }
}

impl fmt::Display for RpcProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
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
    pub(super) fn render_into(&self, out: &mut impl fmt::Write) -> fmt::Result {
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
            EventKind::CallCompleted { call_id, failure } => match failure {
                None => write!(out, "call {call_id} completed: ok"),
                Some(reason) => write!(out, "call {call_id} failed: {reason}"),
            },
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
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

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

    /// One exemplar of every [`EventKind`] variant, with hostile strings
    /// (quotes, backslashes, control chars, non-ASCII) where a string
    /// field exists.
    pub fn all_event_kinds() -> Vec<EventKind> {
        event_kinds_with("say \"hi\"\n\t\\ \u{1} λ")
    }

    /// One exemplar of every [`EventKind`] variant, every string field
    /// set to `s`.
    pub fn event_kinds_with(s: &str) -> Vec<EventKind> {
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
                protocol: RpcProtocol::Maybe,
                parent_span: 0,
            },
            EventKind::CallRetransmitted {
                call_id: 9,
                attempt: 3,
            },
            EventKind::CallCompleted {
                call_id: u64::MAX,
                failure: Some(s()),
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
}
