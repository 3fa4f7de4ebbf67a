//! How the tracer stores an event: a fixed-size [`Record`] per ring slot,
//! its procedure names held once in the tracer's [`Names`] table.
//!
//! A [`TraceEvent`] is 80 bytes because of its widest variant,
//! `CallStarted`, with its 16-byte `Arc<str>` procedure name. A record
//! keeps that name as a `u32` id into a table keyed by content, which
//! grows with the distinct procedure names a run's programs hold and not
//! with the events. An event that owns text (a `Message`, a `Print`, a
//! fault, a watch expression, a call's failure reason) is kept whole in a
//! box instead, evicted with its slot, so the table never grows with free
//! text. Ids never leave the tracer: every reader gets the
//! [`TraceEvent`] back, field for field.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

use super::{EventKind, RpcProtocol, SpanId, TraceCategory, TraceEvent};
use crate::time::{SimDuration, SimTime};

/// One ring slot: an event that owns no text, packed, or one that does,
/// kept whole.
#[derive(Debug, Clone)]
pub(super) enum Record {
    /// Every field inline, procedure names as table ids.
    Packed(Packed),
    /// The event as it was pushed; readers borrow it.
    Owned(Box<TraceEvent>),
}

/// The envelope of a packed event, its payload in [`Body`]. The node is
/// split into a value and a flag so that it packs beside the category.
#[derive(Debug, Clone, Copy)]
pub(super) struct Packed {
    time: SimTime,
    span: Option<SpanId>,
    body: Body,
    node: u32,
    has_node: bool,
    category: TraceCategory,
}

/// An [`EventKind`] without text: every `u32` named `proc` is an id in the
/// tracer's [`Names`]. A `CallCompleted` here is a success; a failure owns
/// its reason and is kept whole. `CallStarted` is the widest variant, at
/// 32 bytes with its tag.
#[derive(Debug, Clone, Copy)]
enum Body {
    PacketSent {
        src: u32,
        dst: u32,
        bytes: u32,
    },
    PacketDelivered {
        src: u32,
        dst: u32,
        bytes: u32,
    },
    PacketLost {
        src: u32,
        dst: u32,
        bytes: u32,
    },
    PacketNacked {
        src: u32,
        dst: u32,
        bytes: u32,
    },
    CallStarted {
        call_id: u64,
        proc: u32,
        args: u32,
        dst: u32,
        protocol: RpcProtocol,
        parent_span: u64,
    },
    CallRetransmitted {
        call_id: u64,
        attempt: u32,
    },
    CallCompleted {
        call_id: u64,
    },
    CallTimedOut {
        call_id: u64,
    },
    ServerDispatched {
        call_id: u64,
        proc: u32,
    },
    ReplySent {
        call_id: u64,
        cached: bool,
    },
    MaybeLostCall {
        call_id: u64,
    },
    MaybeLostReply {
        call_id: u64,
    },
    ProcessSpawned {
        pid: u64,
        proc: u32,
    },
    ProcessExited {
        pid: u64,
    },
    ProcessesHalted {
        count: u64,
    },
    ProcessesResumed {
        count: u64,
    },
    ClockAdjusted {
        delta: SimDuration,
        now: SimDuration,
    },
    BreakpointHalt,
    HaltBroadcast {
        origin: u32,
    },
}

impl Record {
    /// The event's category, read without unpacking it.
    pub(super) fn category(&self) -> TraceCategory {
        match self {
            Record::Packed(p) => p.category,
            Record::Owned(ev) => ev.category,
        }
    }

    /// The event's span, read without unpacking it.
    pub(super) fn span(&self) -> Option<SpanId> {
        match self {
            Record::Packed(p) => p.span,
            Record::Owned(ev) => ev.span,
        }
    }

    /// The event this record holds: rebuilt from a packed one against
    /// `names`, the table it was packed with; lent from a kept one.
    /// Always inlined, with the helpers it calls, so that the event is
    /// built where the reader uses it rather than copied out.
    #[inline(always)]
    pub(super) fn event<'r>(&'r self, names: &[Arc<str>]) -> Cow<'r, TraceEvent> {
        match self {
            Record::Owned(ev) => Cow::Borrowed(ev),
            Record::Packed(p) => Cow::Owned(TraceEvent {
                time: p.time,
                category: p.category,
                node: p.has_node.then_some(p.node),
                span: p.span,
                kind: p.body.kind(names),
            }),
        }
    }
}

/// Names the fast path remembers before it forgets the oldest.
const RECENT: usize = 8;

/// One name the fast path remembers: the address and length of the
/// table's copy, which the table keeps alive, so no other text can come to
/// sit at that address; and its id.
#[derive(Debug)]
struct Recent {
    at: (usize, usize),
    id: u32,
}

/// The tracer's append-only table of procedure names: id `i` is the
/// `i`-th distinct name met. Bounded by the procedure and process names
/// the world's programs and nodes hold, never by the events.
#[derive(Debug, Default)]
pub(super) struct Names {
    names: Vec<Arc<str>>,
    /// Each name's id. A fixed hasher, so that the table does not vary
    /// from one process to the next.
    ids: HashMap<Arc<str>, u32, BuildHasherDefault<DefaultHasher>>,
    /// The last few names looked up. A name met again under the table's
    /// own `Arc` costs two compares, and under another one a string
    /// compare; neither hashes it.
    recent: Vec<Recent>,
    /// The entry of `recent` the next miss replaces, once it is full.
    next: usize,
}

impl Names {
    /// The id of procedure name `name`, interning it on first sight.
    #[inline]
    fn intern(&mut self, name: &Arc<str>) -> u32 {
        let at = (name.as_ptr() as usize, name.len());
        let known =
            |r: &&Recent| r.at == at || r.at.1 == at.1 && *self.names[r.id as usize] == **name;
        match self.recent.iter().find(known) {
            Some(r) => r.id,
            None => self.look_up(name),
        }
    }

    /// [`intern`](Names::intern) past the names it remembers.
    #[inline(never)]
    fn look_up(&mut self, name: &Arc<str>) -> u32 {
        let id = match self.ids.get(name) {
            Some(&id) => id,
            None => {
                let id = self.names.len() as u32;
                self.names.push(name.clone());
                self.ids.insert(name.clone(), id);
                id
            }
        };
        let kept = &self.names[id as usize];
        let entry = Recent {
            at: (kept.as_ptr() as usize, kept.len()),
            id,
        };
        if self.recent.len() < RECENT {
            self.recent.push(entry);
        } else {
            self.recent[self.next] = entry;
            self.next = (self.next + 1) % RECENT;
        }
        id
    }

    /// Packs `ev` into a ring slot. Always inlined, like
    /// [`Ring::push`](crate::Ring::push), so that the record is built in
    /// the slot it is pushed to.
    #[inline(always)]
    pub(super) fn pack(&mut self, ev: TraceEvent) -> Record {
        match self.body(&ev.kind) {
            Some(body) => Record::Packed(Packed {
                time: ev.time,
                span: ev.span,
                body,
                node: ev.node.unwrap_or(0),
                has_node: ev.node.is_some(),
                category: ev.category,
            }),
            None => Record::Owned(Box::new(ev)),
        }
    }

    /// `kind` without its text, or `None` when it owns some.
    #[inline(always)]
    fn body(&mut self, kind: &EventKind) -> Option<Body> {
        Some(match *kind {
            EventKind::PacketSent { src, dst, bytes } => Body::PacketSent { src, dst, bytes },
            EventKind::PacketDelivered { src, dst, bytes } => {
                Body::PacketDelivered { src, dst, bytes }
            }
            EventKind::PacketLost { src, dst, bytes } => Body::PacketLost { src, dst, bytes },
            EventKind::PacketNacked { src, dst, bytes } => Body::PacketNacked { src, dst, bytes },
            EventKind::CallStarted {
                call_id,
                ref proc,
                args,
                dst,
                protocol,
                parent_span,
            } => Body::CallStarted {
                call_id,
                proc: self.intern(proc),
                args,
                dst,
                protocol,
                parent_span,
            },
            EventKind::CallRetransmitted { call_id, attempt } => {
                Body::CallRetransmitted { call_id, attempt }
            }
            EventKind::CallCompleted {
                call_id,
                failure: None,
            } => Body::CallCompleted { call_id },
            EventKind::CallTimedOut { call_id } => Body::CallTimedOut { call_id },
            EventKind::ServerDispatched { call_id, ref proc } => Body::ServerDispatched {
                call_id,
                proc: self.intern(proc),
            },
            EventKind::ReplySent { call_id, cached } => Body::ReplySent { call_id, cached },
            EventKind::MaybeLostCall { call_id } => Body::MaybeLostCall { call_id },
            EventKind::MaybeLostReply { call_id } => Body::MaybeLostReply { call_id },
            EventKind::ProcessSpawned { pid, ref proc } => Body::ProcessSpawned {
                pid,
                proc: self.intern(proc),
            },
            EventKind::ProcessExited { pid } => Body::ProcessExited { pid },
            EventKind::ProcessesHalted { count } => Body::ProcessesHalted { count },
            EventKind::ProcessesResumed { count } => Body::ProcessesResumed { count },
            EventKind::ClockAdjusted { delta, now } => Body::ClockAdjusted { delta, now },
            EventKind::BreakpointHalt => Body::BreakpointHalt,
            EventKind::HaltBroadcast { origin } => Body::HaltBroadcast { origin },
            EventKind::Message(_)
            | EventKind::Print { .. }
            | EventKind::Faulted { .. }
            | EventKind::WatchTripped { .. }
            | EventKind::CallCompleted { .. } => return None,
        })
    }

    /// The table the packed records index, id `i` at position `i`.
    pub(super) fn table(&self) -> &[Arc<str>] {
        &self.names
    }
}

impl Body {
    /// The event kind, each procedure name the `Arc` it was interned
    /// from.
    #[inline(always)]
    fn kind(self, names: &[Arc<str>]) -> EventKind {
        let arc = |id: u32| names[id as usize].clone();
        match self {
            Body::PacketSent { src, dst, bytes } => EventKind::PacketSent { src, dst, bytes },
            Body::PacketDelivered { src, dst, bytes } => {
                EventKind::PacketDelivered { src, dst, bytes }
            }
            Body::PacketLost { src, dst, bytes } => EventKind::PacketLost { src, dst, bytes },
            Body::PacketNacked { src, dst, bytes } => EventKind::PacketNacked { src, dst, bytes },
            Body::CallStarted {
                call_id,
                proc,
                args,
                dst,
                protocol,
                parent_span,
            } => EventKind::CallStarted {
                call_id,
                proc: arc(proc),
                args,
                dst,
                protocol,
                parent_span,
            },
            Body::CallRetransmitted { call_id, attempt } => {
                EventKind::CallRetransmitted { call_id, attempt }
            }
            Body::CallCompleted { call_id } => EventKind::CallCompleted {
                call_id,
                failure: None,
            },
            Body::CallTimedOut { call_id } => EventKind::CallTimedOut { call_id },
            Body::ServerDispatched { call_id, proc } => EventKind::ServerDispatched {
                call_id,
                proc: arc(proc),
            },
            Body::ReplySent { call_id, cached } => EventKind::ReplySent { call_id, cached },
            Body::MaybeLostCall { call_id } => EventKind::MaybeLostCall { call_id },
            Body::MaybeLostReply { call_id } => EventKind::MaybeLostReply { call_id },
            Body::ProcessSpawned { pid, proc } => EventKind::ProcessSpawned {
                pid,
                proc: arc(proc),
            },
            Body::ProcessExited { pid } => EventKind::ProcessExited { pid },
            Body::ProcessesHalted { count } => EventKind::ProcessesHalted { count },
            Body::ProcessesResumed { count } => EventKind::ProcessesResumed { count },
            Body::ClockAdjusted { delta, now } => EventKind::ClockAdjusted { delta, now },
            Body::BreakpointHalt => EventKind::BreakpointHalt,
            Body::HaltBroadcast { origin } => EventKind::HaltBroadcast { origin },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::kind::tests::event_kinds_with;
    use super::*;
    use crate::check::{check, ensure, ensure_eq, int_range, vecs, zip};

    /// A 56-byte slot, where a `TraceEvent` is 80: the flag and the
    /// category pack beside the node, the body is 32 bytes, and the box
    /// of a kept event sits in the packed one's niche.
    #[test]
    fn a_record_is_56_bytes() {
        assert_eq!(std::mem::size_of::<Body>(), 32);
        assert_eq!(std::mem::size_of::<Packed>(), 56);
        assert_eq!(std::mem::size_of::<Record>(), 56);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 80);
    }

    /// Text the generated events carry, the hostile exemplar among it.
    const TEXT: [&str; 5] = ["", "ping", "say \"hi\"\n\t\\ \u{1} λ", "exactly-once", "ok"];

    /// Every integer field of `kind` at its type's maximum.
    fn maxed(kind: EventKind) -> EventKind {
        const M: u32 = u32::MAX;
        const L: u64 = u64::MAX;
        match kind {
            EventKind::PacketSent { .. } => EventKind::PacketSent {
                src: M,
                dst: M,
                bytes: M,
            },
            EventKind::PacketDelivered { .. } => EventKind::PacketDelivered {
                src: M,
                dst: M,
                bytes: M,
            },
            EventKind::PacketLost { .. } => EventKind::PacketLost {
                src: M,
                dst: M,
                bytes: M,
            },
            EventKind::PacketNacked { .. } => EventKind::PacketNacked {
                src: M,
                dst: M,
                bytes: M,
            },
            EventKind::CallStarted { proc, protocol, .. } => EventKind::CallStarted {
                call_id: L,
                proc,
                args: M,
                dst: M,
                protocol,
                parent_span: L,
            },
            EventKind::CallRetransmitted { .. } => EventKind::CallRetransmitted {
                call_id: L,
                attempt: M,
            },
            EventKind::CallCompleted { failure, .. } => EventKind::CallCompleted {
                call_id: L,
                failure,
            },
            EventKind::CallTimedOut { .. } => EventKind::CallTimedOut { call_id: L },
            EventKind::ServerDispatched { proc, .. } => {
                EventKind::ServerDispatched { call_id: L, proc }
            }
            EventKind::ReplySent { cached, .. } => EventKind::ReplySent {
                call_id: L,
                cached: !cached,
            },
            EventKind::MaybeLostCall { .. } => EventKind::MaybeLostCall { call_id: L },
            EventKind::MaybeLostReply { .. } => EventKind::MaybeLostReply { call_id: L },
            EventKind::ProcessSpawned { proc, .. } => EventKind::ProcessSpawned { pid: L, proc },
            EventKind::ProcessExited { .. } => EventKind::ProcessExited { pid: L },
            EventKind::ProcessesHalted { .. } => EventKind::ProcessesHalted { count: L },
            EventKind::ProcessesResumed { .. } => EventKind::ProcessesResumed { count: L },
            EventKind::ClockAdjusted { .. } => EventKind::ClockAdjusted {
                delta: SimDuration::from_micros(L),
                now: SimDuration::from_micros(L),
            },
            EventKind::HaltBroadcast { .. } => EventKind::HaltBroadcast { origin: M },
            EventKind::Print { text, .. } => EventKind::Print { pid: L, text },
            EventKind::Faulted { fault, .. } => EventKind::Faulted { pid: L, fault },
            EventKind::WatchTripped { expr, .. } => EventKind::WatchTripped {
                expr,
                value: i64::MIN,
            },
            kind @ (EventKind::Message(_) | EventKind::BreakpointHalt) => kind,
        }
    }

    /// One generated event: exemplar `variant` with its text `TEXT[text]`
    /// (a fresh `Arc` per name, so one name meets the table under many),
    /// a call exactly-once or a success by `bits & 1`, its integers at
    /// their maxima by `bits & 2`, and node and span absent, small or at
    /// their maxima by `envelope`.
    fn event((variant, text): (i64, i64), (envelope, bits): (i64, i64)) -> TraceEvent {
        let text = TEXT[text as usize];
        let mut kind = event_kinds_with(text).swap_remove(variant as usize);
        if bits & 1 == 0 {
            match &mut kind {
                EventKind::CallStarted { protocol, .. } => *protocol = RpcProtocol::ExactlyOnce,
                EventKind::CallCompleted { failure, .. } => *failure = None,
                _ => {}
            }
        }
        if bits & 2 != 0 {
            kind = maxed(kind);
        }
        let categories = [
            TraceCategory::Sched,
            TraceCategory::Net,
            TraceCategory::Rpc,
            TraceCategory::Debug,
            TraceCategory::Clock,
            TraceCategory::Vm,
            TraceCategory::Service,
        ];
        TraceEvent {
            time: SimTime::from_micros([0, 7, u64::MAX][envelope as usize % 3]),
            category: categories[(variant + envelope) as usize % categories.len()],
            node: [None, Some(3), Some(u32::MAX)][envelope as usize % 3],
            span: [None, SpanId::from_wire(1), SpanId::from_wire(u64::MAX)][envelope as usize / 3],
            kind,
        }
    }

    /// `unpack(pack(e)) == e` for sequences of every variant through one
    /// table, checked after the whole sequence is packed so that an id
    /// resolved against the wrong entry shows; an event is boxed if and
    /// only if it owns text, and the table holds no more than the
    /// distinct names.
    #[test]
    fn a_packed_event_unpacks_to_itself() {
        let one = zip(
            zip(int_range(0, 23), int_range(0, 5)),
            zip(int_range(0, 9), int_range(0, 4)),
        );
        check("unpack(pack(e)) == e", &vecs(one, 60), |script| {
            let mut names = Names::default();
            let events: Vec<TraceEvent> = script.iter().map(|&(a, b)| event(a, b)).collect();
            let records: Vec<Record> = events.iter().map(|e| names.pack(e.clone())).collect();
            for (ev, record) in events.iter().zip(&records) {
                ensure_eq(&*record.event(names.table()), ev)?;
                let owns_text = matches!(
                    ev.kind,
                    EventKind::Message(_)
                        | EventKind::Print { .. }
                        | EventKind::Faulted { .. }
                        | EventKind::WatchTripped { .. }
                        | EventKind::CallCompleted {
                            failure: Some(_),
                            ..
                        }
                );
                ensure_eq(matches!(record, Record::Owned(_)), owns_text)?;
                ensure_eq(record.category(), ev.category)?;
                ensure_eq(record.span(), ev.span)?;
            }
            ensure(
                names.names.len() <= TEXT.len(),
                "the table grew past the names",
            )
        });
    }

    /// An event that names a procedure for the first time is packed, and
    /// the table holds one entry per distinct procedure name, under any
    /// `Arc`. An event that owns text is boxed and never enters the table:
    /// a failure reason spelling a procedure's name does not, nor do a
    /// hundred one-off messages.
    #[test]
    fn a_procedure_name_is_interned_on_first_sight() {
        let mut names = Names::default();
        let mut pack = |kind| {
            let packed = matches!(
                names.pack(TraceEvent {
                    time: SimTime::ZERO,
                    category: TraceCategory::Rpc,
                    node: None,
                    span: None,
                    kind,
                }),
                Record::Packed(_)
            );
            (packed, names.names.len())
        };
        let spawned = |proc: &str| EventKind::ProcessSpawned {
            pid: 1,
            proc: proc.into(),
        };
        let completed = |failure: Option<&str>| EventKind::CallCompleted {
            call_id: 1,
            failure: failure.map(str::to_string),
        };
        assert_eq!(pack(spawned("ping")), (true, 1));
        assert_eq!(pack(spawned("ping")), (true, 1));
        assert_eq!(
            pack(EventKind::ServerDispatched {
                call_id: 1,
                proc: "pong".into(),
            }),
            (true, 2)
        );
        assert_eq!(pack(completed(None)), (true, 2));
        assert_eq!(pack(completed(Some("ping"))), (false, 2));
        for i in 0..100 {
            assert_eq!(pack(EventKind::Message(format!("ping #{i}"))), (false, 2));
        }
        assert_eq!(pack(spawned("pong")), (true, 2));
        assert_eq!(names.ids.len(), 2);
    }
}
