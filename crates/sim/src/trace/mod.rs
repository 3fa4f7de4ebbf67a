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
//!
//! The schema's envelope lives here ([`TraceCategory`], [`SpanId`],
//! [`TraceEvent`] and the `[time category node] message` framing the
//! semantics lock pins); `kind` owns the payload variants and their
//! rendering, `codec` the JSONL round trip, `diff` the divergence
//! differ, `tracer` the recorder with its masks, sampling and rings, and
//! `record` the fixed-size slot those rings hold, with the table of names
//! its events refer to, and `snapshot` the trace a recording keeps, as
//! text or as a copy of those slots.

mod codec;
mod diff;
mod kind;
mod record;
mod snapshot;
mod tracer;

use std::fmt;
use std::num::NonZeroU64;

use crate::time::SimTime;

pub use diff::{first_divergence, Divergence, FieldDiff};
pub use kind::{EventKind, RpcProtocol};
pub use snapshot::{Lines, Trace};
pub use tracer::{Tracer, BLACKBOX_CAPACITY};

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
/// never issued, so it serves as the wire sentinel for "no span" and as
/// the niche that makes an `Option<SpanId>` eight bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(NonZeroU64);

impl SpanId {
    /// Decodes the wire form, where `0` means "no span".
    pub const fn from_wire(raw: u64) -> Option<SpanId> {
        match NonZeroU64::new(raw) {
            Some(id) => Some(SpanId(id)),
            None => None,
        }
    }

    /// Encodes an optional span for a packet header (`0` = none).
    pub fn to_wire(span: Option<SpanId>) -> u64 {
        span.map_or(0, SpanId::get)
    }

    /// The id as a number (never `0`).
    pub const fn get(self) -> u64 {
        self.0.get()
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
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
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The span deliberately does not appear here: this framing is
        // pinned byte-for-byte by tests/semantics_lock.snapshot.txt.
        write!(f, "[{} {}", self.time, self.category)?;
        if let Some(n) = self.node {
            write!(f, " n{n}")?;
        }
        f.write_str("] ")?;
        self.kind.render_into(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_wire_round_trip() {
        assert_eq!(SpanId::to_wire(None), 0);
        assert_eq!(SpanId::from_wire(0), None);
        let seven = SpanId::from_wire(7).expect("nonzero");
        assert_eq!(seven.get(), 7);
        assert_eq!(SpanId::to_wire(Some(seven)), 7);
    }

    /// The zero niche is what the packed process record, every trace
    /// event and every packet header pay for an optional span: the id
    /// alone, no tag word.
    #[test]
    fn an_optional_span_is_the_id_alone() {
        assert_eq!(std::mem::size_of::<Option<SpanId>>(), 8);
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
            span: SpanId::from_wire(9),
            kind: EventKind::Message("x".into()),
        };
        assert_eq!(ev.to_string(), "[T+1.000ms rpc n0] x");
    }
}
