//! Causal critical-path analysis over a span-linked trace.
//!
//! Every RPC call carries a causal span id through all of its trace
//! events (client, wire, server — including retransmissions), and nested
//! calls record their parent's span in `CallStarted::parent_span`.
//! [`CausalGraph`] rebuilds that tree in one pass over the events and
//! attributes each span's simulated time to four segments:
//!
//! * **queue** — call issued until the first request packet hit the wire
//!   (client-side serialization behind the node's transmitter);
//! * **net** — time request/reply packets spent in flight (matched
//!   send→deliver pairs);
//! * **server** — dispatch of the server process until its reply was
//!   sent;
//! * **wait** — everything else: retransmit backoff, loss gaps, and
//!   the server-node scheduling delay before dispatch.
//!
//! All arithmetic is integer microseconds over already-deterministic
//! traces, so every rendering here is byte-identical across same-seed
//! runs and replays.

use std::collections::{HashMap, VecDeque};

use crate::time::SimTime;
use crate::trace::{EventKind, TraceEvent};

/// One span's reconstructed profile.
#[derive(Debug, Clone)]
pub struct SpanProfile {
    /// The span id.
    pub span: u64,
    /// Parent span id; 0 for a root call.
    pub parent: u64,
    /// Client node that originated the call (if the trace recorded it).
    pub node: Option<u32>,
    /// Remote procedure name.
    pub proc: String,
    /// Destination node.
    pub dst: u32,
    /// Call identifier.
    pub call_id: u64,
    /// Time of `CallStarted`.
    pub start: SimTime,
    /// Time of the terminal event (completion, timeout, or the last
    /// event seen for still-open spans).
    pub end: SimTime,
    /// Client-side serialization before the first packet (µs).
    pub queue_us: u64,
    /// In-flight time of matched packets (µs).
    pub net_us: u64,
    /// Server dispatch-to-reply time (µs).
    pub server_us: u64,
    /// Unattributed remainder: backoff, loss gaps, scheduling (µs).
    pub wait_us: u64,
    /// Number of request retransmissions.
    pub retransmits: u32,
    /// Whether a terminal `CallCompleted`/`CallTimedOut` was seen.
    pub completed: bool,
    /// Outcome rendering (`ok`, failure reason, `timeout`, or `open`).
    pub outcome: String,
    /// Events observed for this span.
    pub events: usize,
}

impl SpanProfile {
    /// A profile with nothing attributed: span 0, which no span has, until
    /// its `CallStarted` fills it in.
    fn empty() -> SpanProfile {
        SpanProfile {
            span: 0,
            parent: 0,
            node: None,
            proc: String::new(),
            dst: 0,
            call_id: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            queue_us: 0,
            net_us: 0,
            server_us: 0,
            wait_us: 0,
            retransmits: 0,
            completed: false,
            outcome: String::new(),
            events: 0,
        }
    }

    /// Total simulated time from call start to terminal event (µs).
    pub fn total_us(&self) -> u64 {
        self.end.as_micros().saturating_sub(self.start.as_micros())
    }

    /// One-line rendering used by the REPL and `pilgrim trace`.
    pub fn render(&self) -> String {
        let node = match self.node {
            Some(n) => n.to_string(),
            None => "?".to_string(),
        };
        format!(
            "span {} {} n{}->n{} total {}us = queue {}us + net {}us + server {}us + wait {}us ({} retransmits, {})",
            self.span,
            self.proc,
            node,
            self.dst,
            self.total_us(),
            self.queue_us,
            self.net_us,
            self.server_us,
            self.wait_us,
            self.retransmits,
            self.outcome
        )
    }
}

/// The span DAG reconstructed from a trace, with per-span time
/// attribution.
#[derive(Debug, Default)]
pub struct CausalGraph {
    /// Profiles sorted by span id, so a lookup is a binary search.
    spans: Vec<SpanProfile>,
    /// parent span id → child span ids (ascending).
    children: HashMap<u64, Vec<u64>>,
}

/// The state of one pass over a trace. What outlives the pass is
/// `spans`; the rest is what the pass still waits for, and it shrinks as
/// packets and replies match.
#[derive(Default)]
struct Fold {
    /// One profile per span, in order of the span's first event. A span
    /// whose `CallStarted` never arrives (evicted from a bounded ring,
    /// say) keeps an empty profile that [`Fold::finish`] drops.
    spans: Vec<SpanProfile>,
    /// span id → its slot.
    slots: HashMap<u64, Slot>,
    /// Send times of packets neither delivered nor lost yet, oldest
    /// first, per (span, src, dst). An entry goes when its queue empties.
    in_flight: HashMap<(u64, u32, u32), VecDeque<u64>>,
    /// span id → when its server call was dispatched, until it replies.
    dispatched: HashMap<u64, u64>,
}

/// Where a span's profile sits in [`Fold::spans`].
struct Slot {
    at: usize,
    /// A packet was sent for the span: its `queue` segment is closed
    /// (only the first send ends it, even one before `CallStarted`).
    sent: bool,
}

/// The oldest (`pop_front`) or newest (`pop_back`) send time in flight
/// on `key`, dropping the entry once it is empty.
fn retire(
    in_flight: &mut HashMap<(u64, u32, u32), VecDeque<u64>>,
    key: (u64, u32, u32),
    pop: fn(&mut VecDeque<u64>) -> Option<u64>,
) -> Option<u64> {
    let queue = in_flight.get_mut(&key)?;
    let sent = pop(queue);
    if queue.is_empty() {
        in_flight.remove(&key);
    }
    sent
}

impl Fold {
    fn add(&mut self, ev: &TraceEvent) {
        let Some(span) = ev.span else { return };
        let span = span.get();
        let Fold {
            spans,
            slots,
            in_flight,
            dispatched,
        } = self;
        let slot = slots.entry(span).or_insert_with(|| {
            spans.push(SpanProfile::empty());
            Slot {
                at: spans.len() - 1,
                sent: false,
            }
        });
        // Before its `CallStarted` a span's profile is empty, and what is
        // attributed to it then is overwritten when that event arrives;
        // only the event count, the `sent` mark and the side tables
        // carry over (as they do into a repeated `CallStarted`).
        let p = &mut spans[slot.at];
        p.events += 1;
        let now = ev.time.as_micros();
        match &ev.kind {
            EventKind::CallStarted {
                call_id,
                proc,
                dst,
                parent_span,
                ..
            } => {
                *p = SpanProfile {
                    span,
                    parent: *parent_span,
                    node: ev.node,
                    proc: proc.to_string(),
                    dst: *dst,
                    call_id: *call_id,
                    start: ev.time,
                    outcome: "open".to_string(),
                    events: p.events,
                    ..SpanProfile::empty()
                };
            }
            EventKind::PacketSent { src, dst, .. } => {
                if !slot.sent {
                    p.queue_us = now.saturating_sub(p.start.as_micros());
                    slot.sent = true;
                }
                in_flight
                    .entry((span, *src, *dst))
                    .or_default()
                    .push_back(now);
            }
            EventKind::PacketDelivered { src, dst, .. } => {
                if let Some(sent) = retire(in_flight, (span, *src, *dst), VecDeque::pop_front) {
                    p.net_us += now.saturating_sub(sent);
                }
            }
            // Loss is decided at send time, so a lost/nacked packet's
            // event trails its own `PacketSent` — retire that send so
            // FIFO matching pairs the delivery with the surviving copy
            // and lost time lands in `wait`, not `net`.
            EventKind::PacketLost { src, dst, .. } | EventKind::PacketNacked { src, dst, .. } => {
                retire(in_flight, (span, *src, *dst), VecDeque::pop_back);
            }
            EventKind::CallRetransmitted { .. } => p.retransmits += 1,
            EventKind::ServerDispatched { .. } => {
                dispatched.insert(span, now);
            }
            EventKind::ReplySent { .. } => {
                if let Some(d) = dispatched.remove(&span) {
                    p.server_us += now.saturating_sub(d);
                }
            }
            EventKind::CallCompleted { ok, outcome, .. } => {
                p.end = ev.time;
                p.completed = true;
                p.outcome = if *ok {
                    "ok".to_string()
                } else {
                    outcome.to_string()
                };
            }
            EventKind::CallTimedOut { .. } => {
                p.end = ev.time;
                p.completed = true;
                p.outcome = "timeout".to_string();
            }
            _ => {}
        }
        // An open span ends at the last event seen for it.
        if !p.completed {
            p.end = ev.time;
        }
    }

    fn finish(self) -> CausalGraph {
        let mut spans = self.spans;
        spans.retain(|p| p.span != 0);
        for p in &mut spans {
            let attributed = p.queue_us + p.net_us + p.server_us;
            p.wait_us = p.total_us().saturating_sub(attributed);
        }
        spans.sort_unstable_by_key(|p| p.span);
        spans.shrink_to_fit();
        // In span order, so each child list comes out ascending.
        let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
        for p in &spans {
            children.entry(p.parent).or_default().push(p.span);
        }
        CausalGraph { spans, children }
    }
}

impl CausalGraph {
    /// Builds the graph from a flat, time-ordered event slice. Events
    /// without a span stamp are ignored; spans without a `CallStarted`
    /// (evicted from a bounded ring, say) are dropped.
    pub fn from_events(events: &[TraceEvent]) -> CausalGraph {
        CausalGraph::from_events_with(|sink| events.iter().for_each(sink))
    }

    /// [`from_events`](CausalGraph::from_events) for events that live
    /// behind a visitor rather than in a slice: `walk` hands every event,
    /// in order, to the sink it is given. A tracer's ring is read in
    /// place this way (`|sink| tracer.for_each(sink)`) instead of being
    /// cloned into a `Vec` first.
    pub fn from_events_with(walk: impl FnOnce(&mut dyn FnMut(&TraceEvent))) -> CausalGraph {
        let mut fold = Fold::default();
        walk(&mut |ev: &TraceEvent| fold.add(ev));
        fold.finish()
    }

    /// Every reconstructed span, ascending by span id.
    pub fn spans(&self) -> &[SpanProfile] {
        &self.spans
    }

    /// The profile of one span, if present.
    pub fn profile(&self, span: u64) -> Option<&SpanProfile> {
        let at = self.spans.binary_search_by_key(&span, |p| p.span);
        at.ok().map(|i| &self.spans[i])
    }

    /// Child spans of `span` (calls issued while serving it), ascending.
    pub fn children(&self, span: u64) -> &[u64] {
        self.children.get(&span).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Root spans (no recorded parent), ascending.
    pub fn roots(&self) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|p| p.parent == 0 || self.profile(p.parent).is_none())
            .map(|p| p.span)
            .collect()
    }

    /// The `k` slowest spans by total time, ties broken by span id.
    pub fn slowest(&self, k: usize) -> Vec<&SpanProfile> {
        let mut all: Vec<&SpanProfile> = self.spans.iter().collect();
        all.sort_by(|a, b| b.total_us().cmp(&a.total_us()).then(a.span.cmp(&b.span)));
        all.truncate(k);
        all
    }

    /// The critical-path chain starting at `span`: at each step, descend
    /// into the child contributing the most total time (ties favor the
    /// smaller span id).
    pub fn path_from(&self, span: u64) -> Vec<u64> {
        let mut chain = Vec::new();
        let mut cur = span;
        while self.profile(cur).is_some() {
            chain.push(cur);
            let next = self.children(cur).iter().copied().max_by(|a, b| {
                let ta = self.profile(*a).map_or(0, SpanProfile::total_us);
                let tb = self.profile(*b).map_or(0, SpanProfile::total_us);
                ta.cmp(&tb).then(b.cmp(a)) // ties favor the smaller id
            });
            match next {
                Some(n) => cur = n,
                None => break,
            }
        }
        chain
    }

    /// The world's critical path: the chain from the slowest root.
    pub fn critical_path(&self) -> Vec<u64> {
        let root = self.roots().into_iter().max_by(|a, b| {
            let ta = self.profile(*a).map_or(0, SpanProfile::total_us);
            let tb = self.profile(*b).map_or(0, SpanProfile::total_us);
            ta.cmp(&tb).then(b.cmp(a))
        });
        match root {
            Some(r) => self.path_from(r),
            None => Vec::new(),
        }
    }

    /// Renders the critical-path chain from `span`, one indented line
    /// per hop.
    pub fn render_path(&self, span: u64) -> String {
        let chain = self.path_from(span);
        if chain.is_empty() {
            return format!("path: no span {span} in trace\n");
        }
        let mut out = String::new();
        for (depth, s) in chain.iter().enumerate() {
            if let Some(p) = self.profile(*s) {
                out.push_str(&"  ".repeat(depth));
                out.push_str(&p.render());
                out.push('\n');
            }
        }
        out
    }

    /// Renders the world critical path (slowest root downward).
    pub fn render_critical(&self) -> String {
        match self.critical_path().first() {
            Some(&root) => {
                let mut out = String::from("critical path:\n");
                out.push_str(&self.render_path(root));
                out
            }
            None => "critical path: no spans in trace\n".to_string(),
        }
    }

    /// Renders the top-`k` slowest spans, one line each.
    pub fn render_slowest(&self, k: usize) -> String {
        let slow = self.slowest(k);
        if slow.is_empty() {
            return "slow: no spans in trace\n".to_string();
        }
        let mut out = format!("slowest {} of {} spans:\n", slow.len(), self.spans.len());
        for p in slow {
            out.push_str(&p.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, HashSet};

    use super::*;
    use crate::check::{boolean, check_n, ensure_eq, int_range, map, vecs, zip, Gen};
    use crate::trace::{SpanId, TraceCategory};

    fn ev(us: u64, span: u64, node: Option<u32>, kind: EventKind) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_micros(us),
            category: TraceCategory::Rpc,
            node,
            span: SpanId::from_wire(span),
            kind,
        }
    }

    fn call_started(us: u64, span: u64, node: u32, dst: u32, parent: u64) -> TraceEvent {
        ev(
            us,
            span,
            Some(node),
            EventKind::CallStarted {
                call_id: span * 100,
                proc: "ping".into(),
                args: 1,
                dst,
                protocol: "exactly-once".into(),
                parent_span: parent,
            },
        )
    }

    fn sent(us: u64, span: u64, src: u32, dst: u32) -> TraceEvent {
        ev(
            us,
            span,
            Some(src),
            EventKind::PacketSent {
                src,
                dst,
                bytes: 64,
            },
        )
    }

    fn delivered(us: u64, span: u64, src: u32, dst: u32) -> TraceEvent {
        ev(
            us,
            span,
            Some(dst),
            EventKind::PacketDelivered {
                src,
                dst,
                bytes: 64,
            },
        )
    }

    fn completed(us: u64, span: u64) -> TraceEvent {
        ev(
            us,
            span,
            Some(0),
            EventKind::CallCompleted {
                call_id: span * 100,
                ok: true,
                outcome: "ok".into(),
            },
        )
    }

    /// One clean request/reply: 10µs queue, 20µs request flight, 30µs
    /// server, 20µs reply flight, completing at t=160.
    fn clean_call() -> Vec<TraceEvent> {
        vec![
            call_started(80, 7, 0, 1, 0),
            sent(90, 7, 0, 1),
            delivered(110, 7, 0, 1),
            ev(
                115,
                7,
                Some(1),
                EventKind::ServerDispatched {
                    call_id: 700,
                    proc: "ping".into(),
                },
            ),
            ev(
                145,
                7,
                Some(1),
                EventKind::ReplySent {
                    call_id: 700,
                    cached: false,
                },
            ),
            sent(145, 7, 1, 0),
            delivered(165, 7, 1, 0),
            completed(170, 7),
        ]
    }

    #[test]
    fn attributes_segments_of_a_clean_call() {
        let g = CausalGraph::from_events(&clean_call());
        let p = g.profile(7).expect("span reconstructed");
        assert_eq!(p.total_us(), 90);
        assert_eq!(p.queue_us, 10);
        assert_eq!(p.net_us, 40, "request + reply flight");
        assert_eq!(p.server_us, 30);
        assert_eq!(
            p.wait_us, 10,
            "delivery→dispatch and delivery→complete gaps"
        );
        assert_eq!(p.retransmits, 0);
        assert!(p.completed);
        assert_eq!(p.outcome, "ok");
        assert_eq!(
            p.render(),
            "span 7 ping n0->n1 total 90us = queue 10us + net 40us + server 30us + wait 10us (0 retransmits, ok)"
        );
    }

    #[test]
    fn retransmissions_and_loss_fall_into_wait() {
        let events = vec![
            call_started(0, 3, 0, 1, 0),
            sent(5, 3, 0, 1),
            // Packet lost: no delivery. Retry fires much later.
            ev(
                5,
                3,
                Some(0),
                EventKind::PacketLost {
                    src: 0,
                    dst: 1,
                    bytes: 64,
                },
            ),
            ev(
                1_000,
                3,
                Some(0),
                EventKind::CallRetransmitted {
                    call_id: 300,
                    attempt: 1,
                },
            ),
            sent(1_000, 3, 0, 1),
            delivered(1_020, 3, 0, 1),
            completed(1_100, 3),
        ];
        let g = CausalGraph::from_events(&events);
        let p = g.profile(3).unwrap();
        assert_eq!(p.retransmits, 1);
        assert_eq!(p.queue_us, 5);
        // Only the delivered copy is matched; the lost first send stays
        // unmatched and its time lands in wait.
        assert_eq!(p.net_us, 20);
        assert_eq!(p.total_us(), 1_100);
        assert_eq!(p.wait_us, 1_075, "backoff + unmatched loss time");
    }

    #[test]
    fn nested_calls_chain_into_a_critical_path() {
        let mut events = clean_call(); // span 7, root, total 90
                                       // Span 9: child of 7, on the server node, slower than any sibling.
        events.push(call_started(116, 9, 1, 2, 7));
        events.push(sent(120, 9, 1, 2));
        events.push(delivered(130, 9, 1, 2));
        events.push(completed(140, 9));
        // Span 10: faster sibling child of 7.
        events.push(call_started(116, 10, 1, 3, 7));
        events.push(completed(120, 10));
        let g = CausalGraph::from_events(&events);
        assert_eq!(g.roots(), vec![7]);
        assert_eq!(g.children(7), &[9, 10]);
        assert_eq!(g.critical_path(), vec![7, 9]);
        let rendered = g.render_critical();
        assert!(
            rendered.starts_with("critical path:\nspan 7 "),
            "{rendered}"
        );
        assert!(rendered.contains("\n  span 9 "), "{rendered}");
    }

    #[test]
    fn slowest_ranks_by_total_then_span() {
        let events = vec![
            call_started(0, 1, 0, 1, 0),
            completed(50, 1),
            call_started(0, 2, 0, 1, 0),
            completed(100, 2),
            call_started(10, 4, 0, 1, 0),
            completed(60, 4), // same 50µs total as span 1
        ];
        let g = CausalGraph::from_events(&events);
        let slow: Vec<u64> = g.slowest(3).iter().map(|p| p.span).collect();
        assert_eq!(slow, vec![2, 1, 4], "total desc, then span asc");
        let out = g.render_slowest(2);
        assert!(out.starts_with("slowest 2 of 3 spans:\n"), "{out}");
    }

    #[test]
    fn open_and_unknown_spans_degrade_gracefully() {
        let events = vec![call_started(0, 5, 0, 1, 0), sent(10, 5, 0, 1)];
        let g = CausalGraph::from_events(&events);
        let p = g.profile(5).unwrap();
        assert!(!p.completed);
        assert_eq!(p.outcome, "open");
        assert_eq!(
            p.end,
            SimTime::from_micros(10),
            "last event closes open spans"
        );
        assert_eq!(g.render_path(99), "path: no span 99 in trace\n");
        let empty = CausalGraph::from_events(&[]);
        assert_eq!(
            empty.render_critical(),
            "critical path: no spans in trace\n"
        );
        assert_eq!(empty.render_slowest(3), "slow: no spans in trace\n");
    }

    #[test]
    fn span_lacking_call_started_is_dropped() {
        let events = vec![sent(10, 8, 0, 1), delivered(20, 8, 0, 1)];
        let g = CausalGraph::from_events(&events);
        assert!(g.profile(8).is_none());
        assert!(g.spans().is_empty());
    }

    /// The fold this module shipped before it streamed into its output:
    /// a map of per-span accumulators, each with its own map of packets
    /// in flight, turned into profiles, an index and a child map at the
    /// end. Kept as the oracle.
    struct Accumulated {
        spans: Vec<SpanProfile>,
        index: HashMap<u64, usize>,
        children: HashMap<u64, Vec<u64>>,
    }

    #[derive(Default)]
    struct Accum {
        profile: Option<SpanProfile>,
        in_flight: HashMap<(u32, u32), Vec<u64>>,
        dispatched_at: Option<u64>,
        last_seen: SimTime,
        events: usize,
    }

    fn accumulated(events: &[TraceEvent]) -> Accumulated {
        let mut acc: HashMap<u64, Accum> = HashMap::new();
        for ev in events {
            let Some(span) = ev.span else { continue };
            let a = acc.entry(span.get()).or_default();
            a.events += 1;
            a.last_seen = ev.time;
            match &ev.kind {
                EventKind::CallStarted {
                    call_id,
                    proc,
                    dst,
                    parent_span,
                    ..
                } => {
                    a.profile = Some(SpanProfile {
                        span: span.get(),
                        parent: *parent_span,
                        node: ev.node,
                        proc: proc.to_string(),
                        dst: *dst,
                        call_id: *call_id,
                        start: ev.time,
                        end: ev.time,
                        queue_us: 0,
                        net_us: 0,
                        server_us: 0,
                        wait_us: 0,
                        retransmits: 0,
                        completed: false,
                        outcome: "open".to_string(),
                        events: 0,
                    });
                }
                EventKind::PacketSent { src, dst, .. } => {
                    if let Some(p) = &mut a.profile {
                        if p.queue_us == 0 && a.in_flight.is_empty() && p.net_us == 0 {
                            p.queue_us = ev.time.as_micros().saturating_sub(p.start.as_micros());
                        }
                    }
                    a.in_flight
                        .entry((*src, *dst))
                        .or_default()
                        .push(ev.time.as_micros());
                }
                EventKind::PacketDelivered { src, dst, .. } => {
                    if let Some(q) = a.in_flight.get_mut(&(*src, *dst)) {
                        if !q.is_empty() {
                            let sent = q.remove(0);
                            if let Some(p) = &mut a.profile {
                                p.net_us += ev.time.as_micros().saturating_sub(sent);
                            }
                        }
                    }
                }
                EventKind::PacketLost { src, dst, .. }
                | EventKind::PacketNacked { src, dst, .. } => {
                    if let Some(q) = a.in_flight.get_mut(&(*src, *dst)) {
                        q.pop();
                    }
                }
                EventKind::CallRetransmitted { .. } => {
                    if let Some(p) = &mut a.profile {
                        p.retransmits += 1;
                    }
                }
                EventKind::ServerDispatched { .. } => {
                    a.dispatched_at = Some(ev.time.as_micros());
                }
                EventKind::ReplySent { .. } => {
                    if let Some(d) = a.dispatched_at.take() {
                        if let Some(p) = &mut a.profile {
                            p.server_us += ev.time.as_micros().saturating_sub(d);
                        }
                    }
                }
                EventKind::CallCompleted { ok, outcome, .. } => {
                    if let Some(p) = &mut a.profile {
                        p.end = ev.time;
                        p.completed = true;
                        p.outcome = if *ok {
                            "ok".to_string()
                        } else {
                            outcome.to_string()
                        };
                    }
                }
                EventKind::CallTimedOut { .. } => {
                    if let Some(p) = &mut a.profile {
                        p.end = ev.time;
                        p.completed = true;
                        p.outcome = "timeout".to_string();
                    }
                }
                _ => {}
            }
        }
        let mut spans: Vec<SpanProfile> = acc
            .into_values()
            .filter_map(|a| {
                let events = a.events;
                let last = a.last_seen;
                a.profile.map(|mut p| {
                    if !p.completed {
                        p.end = last;
                    }
                    p.events = events;
                    let attributed = p.queue_us + p.net_us + p.server_us;
                    p.wait_us = p.total_us().saturating_sub(attributed);
                    p
                })
            })
            .collect();
        spans.sort_by_key(|p| p.span);
        let index = spans.iter().enumerate().map(|(i, p)| (p.span, i)).collect();
        let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
        for p in &spans {
            children.entry(p.parent).or_default().push(p.span);
        }
        for kids in children.values_mut() {
            kids.sort_unstable();
        }
        Accumulated {
            spans,
            index,
            children,
        }
    }

    /// One generated event: (kind, span) and ((src, dst), (time step,
    /// flag)). Span 0 is an event with no span.
    type Raw = ((i64, i64), ((i64, i64), (i64, bool)));

    fn event_of(time: u64, &((kind, span), ((src, dst), (_, flag))): &Raw) -> TraceEvent {
        let (span, src, dst) = (span as u64, src as u32, dst as u32);
        let call_id = span * 100;
        let kind = match kind {
            0 => EventKind::CallStarted {
                call_id,
                proc: format!("p{src}").into(),
                args: 0,
                dst,
                protocol: "exactly-once".into(),
                parent_span: u64::from(src + dst) % 5,
            },
            1 => EventKind::PacketSent {
                src,
                dst,
                bytes: 64,
            },
            2 | 3 => EventKind::PacketDelivered {
                src,
                dst,
                bytes: 64,
            },
            4 => EventKind::PacketLost {
                src,
                dst,
                bytes: 64,
            },
            5 => EventKind::PacketNacked {
                src,
                dst,
                bytes: 64,
            },
            6 => EventKind::CallRetransmitted {
                call_id,
                attempt: 1,
            },
            7 => EventKind::ServerDispatched {
                call_id,
                proc: "p".into(),
            },
            8 => EventKind::ReplySent {
                call_id,
                cached: flag,
            },
            9 => EventKind::CallCompleted {
                call_id,
                ok: flag,
                outcome: if flag { "ok" } else { "failed: gone" }.into(),
            },
            10 => EventKind::CallTimedOut { call_id },
            _ => EventKind::ProcessExited { pid: span },
        };
        ev(time, span, Some(src), kind)
    }

    /// Event streams over four spans and three stations, time-ordered,
    /// with every kind the fold reads and one it does not.
    fn streams() -> impl Gen<Value = Vec<TraceEvent>> {
        let one = zip(
            zip(int_range(0, 12), int_range(0, 5)),
            zip(
                zip(int_range(0, 3), int_range(0, 3)),
                zip(int_range(0, 40), boolean()),
            ),
        );
        map(vecs(one, 48), |raws: &Vec<Raw>| {
            let mut time = 0;
            raws.iter()
                .map(|raw| {
                    time += raw.1 .1 .0 as u64;
                    event_of(time, raw)
                })
                .collect()
        })
    }

    /// Which of the shapes the oracle property must meet a stream shows.
    fn shapes(events: &[TraceEvent]) -> Vec<&'static str> {
        let mut started = HashSet::new();
        let mut closed = HashSet::new();
        let mut out = Vec::new();
        for e in events {
            let Some(span) = e.span else {
                out.push("no span");
                continue;
            };
            match e.kind {
                EventKind::CallStarted { .. } if !started.insert(span) => {
                    out.push("repeated CallStarted")
                }
                EventKind::CallStarted { .. } => {}
                _ if !started.contains(&span) => out.push("before CallStarted"),
                EventKind::PacketLost { .. } => out.push("loss"),
                EventKind::PacketNacked { .. } => out.push("NACK"),
                EventKind::PacketDelivered { .. } if closed.contains(&span) => {
                    out.push("delivery after completion")
                }
                EventKind::CallCompleted { .. } | EventKind::CallTimedOut { .. } => {
                    closed.insert(span);
                }
                _ => {}
            }
        }
        out
    }

    #[test]
    fn the_streamed_fold_matches_the_accumulator_fold() {
        let seen = RefCell::new(HashSet::new());
        check_n(
            "streamed causal fold == accumulator fold",
            300,
            &streams(),
            |events: &Vec<TraceEvent>| {
                seen.borrow_mut().extend(shapes(events));
                let got = CausalGraph::from_events(events);
                let want = accumulated(events);
                ensure_eq(format!("{:?}", got.spans()), format!("{:?}", want.spans))?;
                let ordered = |m: &HashMap<u64, Vec<u64>>| {
                    m.iter()
                        .map(|(k, v)| (*k, v.clone()))
                        .collect::<BTreeMap<_, _>>()
                };
                ensure_eq(ordered(&got.children), ordered(&want.children))?;
                let roots: Vec<u64> = want
                    .spans
                    .iter()
                    .filter(|p| p.parent == 0 || !want.index.contains_key(&p.parent))
                    .map(|p| p.span)
                    .collect();
                ensure_eq(got.roots(), roots)?;
                let want = CausalGraph {
                    spans: want.spans,
                    children: want.children,
                };
                ensure_eq(got.render_critical(), want.render_critical())?;
                for k in [1, 3, 10] {
                    ensure_eq(got.render_slowest(k), want.render_slowest(k))?;
                }
                Ok(())
            },
        );
        let seen = seen.into_inner();
        for shape in [
            "repeated CallStarted",
            "before CallStarted",
            "loss",
            "NACK",
            "delivery after completion",
            "no span",
        ] {
            assert!(seen.contains(shape), "no stream had a {shape} event");
        }
    }
}
