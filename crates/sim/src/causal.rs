//! Causal critical-path analysis over a span-linked trace.
//!
//! Every RPC call carries a causal span id through all of its trace
//! events (client, wire, server — including retransmissions), and nested
//! calls record their parent's span in `CallStarted::parent_span`.
//! [`CausalGraph`] rebuilds that tree from a flat event slice and
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
//! traces, so every rendering here is byte-identical across serial runs,
//! parallel runs, and replays.

use std::collections::HashMap;

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
    /// Profiles sorted by span id.
    spans: Vec<SpanProfile>,
    /// span id → index into `spans`.
    index: HashMap<u64, usize>,
    /// parent span id → child span ids (ascending).
    children: HashMap<u64, Vec<u64>>,
}

/// Per-span accumulation state while scanning the trace.
#[derive(Debug, Default)]
struct Accum {
    profile: Option<SpanProfile>,
    /// Unmatched `PacketSent` times keyed by (src, dst), FIFO.
    in_flight: HashMap<(u32, u32), Vec<u64>>,
    /// Pending `ServerDispatched` time.
    dispatched_at: Option<u64>,
    last_seen: SimTime,
    events: usize,
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
        let mut acc: HashMap<u64, Accum> = HashMap::new();
        walk(&mut |ev: &TraceEvent| {
            let Some(span) = ev.span else { return };
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
                // Loss is decided at send time, so a lost/nacked packet's
                // event trails its own `PacketSent` — retire that send so
                // FIFO matching pairs the delivery with the surviving copy
                // and lost time lands in `wait`, not `net`.
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
        });

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
        let index: HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, p)| (p.span, i)).collect();
        let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
        for p in &spans {
            children.entry(p.parent).or_default().push(p.span);
        }
        for kids in children.values_mut() {
            kids.sort_unstable();
        }
        CausalGraph {
            spans,
            index,
            children,
        }
    }

    /// Every reconstructed span, ascending by span id.
    pub fn spans(&self) -> &[SpanProfile] {
        &self.spans
    }

    /// The profile of one span, if present.
    pub fn profile(&self, span: u64) -> Option<&SpanProfile> {
        self.index.get(&span).map(|&i| &self.spans[i])
    }

    /// Child spans of `span` (calls issued while serving it), ascending.
    pub fn children(&self, span: u64) -> &[u64] {
        self.children.get(&span).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Root spans (no recorded parent), ascending.
    pub fn roots(&self) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|p| p.parent == 0 || !self.index.contains_key(&p.parent))
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
        while self.index.contains_key(&cur) {
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
    use super::*;
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
}
