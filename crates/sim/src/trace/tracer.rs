//! The recorder: a shared [`Tracer`] with its two category masks, head
//! sampling of spans, and the two bounded rings events are admitted to.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::num::NonZeroU64;
use std::rc::Rc;
use std::sync::Arc;

use super::codec::{line_digest, JSONL_LINE_BYTES};
use super::record::{Names, Record};
use super::{EventKind, SpanId, TraceCategory, TraceEvent};
use crate::ring::Ring;
use crate::rng::splitmix64;
use crate::time::SimTime;

/// Both rings hold [`Record`]s: an event packed to a fixed size, its
/// procedure names as ids into `names`, which both rings share.
struct TracerInner {
    main: Ring<Record>,
    /// The flight recorder: a small, always-on tail of recent events,
    /// retained even when the main trace is filtered off.
    blackbox: Ring<Record>,
    names: Names,
    /// Span ids admitted by head-based sampling. Only consulted while a
    /// sample rate is set; holds kept spans only, so its size is the
    /// kept fraction of all spans, not the span count.
    kept: HashSet<u64>,
}

/// Main trace ring size: a million events, oldest discarded first.
const TRACE_CAPACITY: usize = 1_000_000;

/// Default flight-recorder ring size: enough to hold the last few
/// lockstep windows of a busy world without rivalling the main trace.
pub const BLACKBOX_CAPACITY: usize = 512;

struct Shared {
    /// Two enabled-category bitmasks packed into one word — low byte is
    /// the main trace filter, high byte the flight-recorder filter — so
    /// the hot-path `wants` check stays a single load.
    masks: Cell<u16>,
    next_span: Cell<NonZeroU64>,
    /// Head-based span sampling: keep 1-in-`sample_rate` root spans
    /// (0 or 1 = keep everything, the zero-cost default).
    sample_rate: Cell<u32>,
    /// Seed mixed into the root-span keep decision so different worlds
    /// sample different spans, deterministically.
    sample_seed: Cell<u64>,
    inner: RefCell<TracerInner>,
}

/// Shift of the flight-recorder mask within [`Shared::masks`].
const BLACKBOX_SHIFT: u16 = 8;

/// `len` records as JSON Lines, oldest first, written into a buffer
/// sized for the longest lines, then returned at its exact length.
fn jsonl<'r>(
    records: impl IntoIterator<Item = &'r Record>,
    len: usize,
    names: &[Arc<str>],
) -> String {
    let mut out = String::with_capacity(len * JSONL_LINE_BYTES);
    for record in records {
        record.event(names).write_json(&mut out);
        out.push('\n');
    }
    out.shrink_to_fit();
    out
}

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
    shared: Rc<Shared>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.shared.inner.borrow();
        let masks = self.shared.masks.get();
        f.debug_struct("Tracer")
            .field("events", &inner.main.len())
            .field("mask", &((masks & 0xff) as u8))
            .field("blackbox_mask", &((masks >> BLACKBOX_SHIFT) as u8))
            .field("blackbox", &inner.blackbox.len())
            .field("capacity", &inner.main.capacity())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// Bytes a ring slot takes: what one retained event costs, beyond the
    /// text it owns and the names the tracer keeps once.
    pub const EVENT_BYTES: usize = std::mem::size_of::<Record>();

    /// Creates a tracer that records every category into a ring of a
    /// million events, oldest discarded first.
    ///
    /// The flight recorder starts armed for every category except `vm`
    /// (per-instruction events would churn the small ring and tax the
    /// interpreter hot path for nothing a post-mortem needs).
    pub fn new() -> Tracer {
        let blackbox_mask = TraceCategory::ALL & !TraceCategory::Vm.bit();
        Tracer {
            shared: Rc::new(Shared {
                masks: Cell::new(
                    TraceCategory::ALL as u16 | (blackbox_mask as u16) << BLACKBOX_SHIFT,
                ),
                next_span: Cell::new(NonZeroU64::MIN),
                sample_rate: Cell::new(0),
                sample_seed: Cell::new(0),
                inner: RefCell::new(TracerInner {
                    main: Ring::new(TRACE_CAPACITY),
                    blackbox: Ring::new(BLACKBOX_CAPACITY),
                    names: Names::default(),
                    kept: HashSet::new(),
                }),
            }),
        }
    }

    /// Replaces the mask byte at `shift` with one admitting exactly
    /// `categories`, leaving the other byte as it is.
    fn store_mask(&self, shift: u16, categories: &[TraceCategory]) {
        let mask = categories.iter().fold(0, |m, c| m | c.bit() as u16);
        let old = self.shared.masks.get();
        self.shared
            .masks
            .set((old & !(0xff << shift)) | mask << shift);
    }

    /// Restricts recording to the given categories.
    pub fn set_filter(&self, categories: &[TraceCategory]) {
        self.store_mask(0, categories);
    }

    /// Restricts the flight recorder to the given categories. An empty
    /// list disarms it entirely, restoring the strict tracing-off hot
    /// path (one masked load, nothing constructed).
    pub fn set_blackbox_filter(&self, categories: &[TraceCategory]) {
        self.store_mask(BLACKBOX_SHIFT, categories);
    }

    /// Returns whether `category` is wanted by the main trace *or* the
    /// flight recorder — one load, an or, and a mask; no allocation, no
    /// borrow. Check this *before* constructing an
    /// [`EventKind`] so fully disabled tracing costs nothing.
    #[inline]
    pub fn wants(&self, category: TraceCategory) -> bool {
        let m = self.shared.masks.get();
        ((m | (m >> BLACKBOX_SHIFT)) as u8) & category.bit() != 0
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
    /// kept when `splitmix64(seed ^ id) % rate == 0` — a pure function of
    /// the recipe-carried seed and the deterministic id, identical across
    /// a run and its replay; the mixing round decorrelates
    /// consecutive ids so "every Nth span" doesn't alias with periodic
    /// workloads. A child inherits its parent's verdict, so every kept
    /// trace is causally complete.
    pub fn next_span_with_parent(&self, parent: Option<SpanId>) -> SpanId {
        let span = self.shared.next_span.get();
        self.shared.next_span.set(span.saturating_add(1));
        let id = span.get();
        let rate = self.shared.sample_rate.get();
        if rate > 1 {
            let mut inner = self.shared.inner.borrow_mut();
            let keep = match parent {
                Some(p) => inner.kept.contains(&p.get()),
                None => {
                    let mut state = self.shared.sample_seed.get() ^ id;
                    splitmix64(&mut state).is_multiple_of(rate as u64)
                }
            };
            if keep {
                inner.kept.insert(id);
            }
        }
        SpanId(span)
    }

    /// Arms head-based span sampling: keep 1-in-`rate` root spans (and
    /// every child of a kept root). Rates 0 and 1 disable sampling; the
    /// disabled path costs one load per span allocation and
    /// nothing per event. Span-stamped events whose span was sampled out
    /// are dropped from the main trace and the flight recorder alike;
    /// unstamped events always record.
    pub fn set_trace_sample(&self, rate: u32, seed: u64) {
        self.shared.sample_seed.set(seed);
        self.shared.sample_rate.set(rate);
    }

    /// Records a typed event. [`push_event`](Tracer::push_event) filters
    /// it, so callers that skipped their own [`wants`](Tracer::wants)
    /// guard still filter correctly, but hot paths should guard first and
    /// only then build `kind`.
    pub fn emit(
        &self,
        time: SimTime,
        category: TraceCategory,
        node: Option<u32>,
        span: Option<SpanId>,
        kind: EventKind,
    ) {
        self.push_event(TraceEvent {
            time,
            category,
            node,
            span,
            kind,
        });
    }

    /// The one admission check: routes an event to the main trace ring,
    /// the flight-recorder ring, or both according to the two masks, and
    /// drops it when neither wants its category or sampling discarded its
    /// span.
    pub fn push_event(&self, ev: TraceEvent) {
        let masks = self.shared.masks.get();
        let bit = ev.category.bit();
        let recorded = (masks as u8) & bit != 0;
        let boxed = ((masks >> BLACKBOX_SHIFT) as u8) & bit != 0;
        if !recorded && !boxed {
            return;
        }
        let mut inner = self.shared.inner.borrow_mut();
        if let Some(s) = ev.span {
            // Head-based sampling: a span that lost the keep draw leaves
            // no trace in either ring.
            let rate = self.shared.sample_rate.get();
            if rate > 1 && !inner.kept.contains(&s.get()) {
                return;
            }
        }
        let inner = &mut *inner;
        let record = inner.names.pack(ev);
        // Cloned only when both rings take the event.
        if boxed && recorded {
            inner.blackbox.push(record.clone());
            inner.main.push(record);
        } else if boxed {
            inner.blackbox.push(record);
        } else {
            inner.main.push(record);
        }
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
        self.shared.inner.borrow().main.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every retained event in order without cloning the ring.
    ///
    /// The storage sits behind a `RefCell`, so iteration is exposed as an
    /// internal visitor rather than an `Iterator` (which would have to
    /// either clone, as [`events`](Tracer::events) does, or leak a borrow
    /// guard). `f` must not record into this tracer.
    pub fn for_each(&self, mut f: impl FnMut(&TraceEvent)) {
        let inner = self.shared.inner.borrow();
        for record in inner.main.iter() {
            f(&record.event(inner.names.table()));
        }
    }

    /// The retained events `keep` admits, unpacked, in order.
    fn collect(&self, keep: impl Fn(&Record) -> bool) -> Vec<TraceEvent> {
        let inner = self.shared.inner.borrow();
        let wanted = inner.main.iter().filter(|r| keep(r));
        wanted
            .map(|r| r.event(inner.names.table()).into_owned())
            .collect()
    }

    /// A snapshot of every recorded event, in order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.collect(|_| true)
    }

    /// A snapshot of the events in one category.
    pub fn events_in(&self, category: TraceCategory) -> Vec<TraceEvent> {
        self.collect(|r| r.category() == category)
    }

    /// Every retained event stamped with `span`, in recording (= time)
    /// order: the cross-node timeline of one causal activity.
    pub fn events_for_span(&self, span: SpanId) -> Vec<TraceEvent> {
        self.collect(|r| r.span() == Some(span))
    }

    /// The whole retained trace as JSON Lines — one object per event,
    /// newline-terminated, suitable for external tooling.
    pub fn to_jsonl(&self) -> String {
        let inner = self.shared.inner.borrow();
        jsonl(inner.main.iter(), inner.main.len(), inner.names.table())
    }

    /// The digest of each retained event's JSON line, oldest first: what
    /// a recording keeps of the trace. Each event is written into one
    /// reused line and hashed by [`line_digest`](super::line_digest).
    pub fn digests(&self) -> Vec<u64> {
        let inner = self.shared.inner.borrow();
        let mut line = String::with_capacity(JSONL_LINE_BYTES);
        let mut out = Vec::with_capacity(inner.main.len());
        for record in inner.main.iter() {
            line.clear();
            record.event(inner.names.table()).write_json(&mut line);
            out.push(line_digest(line.as_bytes()));
        }
        out
    }

    /// Events the main trace has dropped to stay within its budget.
    pub fn evicted(&self) -> u64 {
        self.shared.inner.borrow().main.evicted()
    }

    /// Number of events currently held by the flight recorder.
    pub fn blackbox_len(&self) -> usize {
        self.shared.inner.borrow().blackbox.len()
    }

    /// The flight-recorder ring budget, as enforced: at least 1.
    pub fn blackbox_capacity(&self) -> usize {
        self.shared.inner.borrow().blackbox.capacity()
    }

    /// Events the flight recorder has dropped: overwritten by newer ones
    /// or cut by a smaller budget.
    pub fn blackbox_evicted(&self) -> u64 {
        self.shared.inner.borrow().blackbox.evicted()
    }

    /// Resizes the flight-recorder ring (oldest events discarded first
    /// if the new budget is smaller). A budget of 0 is held as 1.
    pub fn set_blackbox_capacity(&self, capacity: usize) {
        self.shared
            .inner
            .borrow_mut()
            .blackbox
            .set_capacity(capacity);
    }

    /// The flight-recorder ring as JSON Lines, oldest first — same
    /// encoding as [`to_jsonl`](Tracer::to_jsonl).
    pub fn blackbox_jsonl(&self) -> String {
        let inner = self.shared.inner.borrow();
        jsonl(
            inner.blackbox.iter(),
            inner.blackbox.len(),
            inner.names.table(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rendered messages a tracer retains, in order.
    fn messages(t: &Tracer) -> Vec<String> {
        let mut seen = Vec::new();
        t.for_each(|e| seen.push(e.message()));
        seen
    }

    /// The rendered messages the flight recorder retains, oldest first.
    fn boxed(t: &Tracer) -> Vec<String> {
        let events = TraceEvent::parse_jsonl(&t.blackbox_jsonl()).expect("own dump parses");
        events.iter().map(TraceEvent::message).collect()
    }

    #[test]
    fn records_and_filters() {
        let t = Tracer::new();
        t.record(SimTime::ZERO, TraceCategory::Net, None, "a");
        t.record(SimTime::ZERO, TraceCategory::Rpc, Some(2), "b");
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events_in(TraceCategory::Rpc).len(), 1);
        assert_eq!(messages(&t), ["a", "b"]);
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
        assert_eq!(messages(&t), ["kept"]);
        t.set_filter(&[TraceCategory::Clock, TraceCategory::Net]);
        assert!(t.wants(TraceCategory::Net));
        t.record(SimTime::ZERO, TraceCategory::Net, None, "now kept");
        assert_eq!(messages(&t), ["kept", "now kept"]);
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
            }
        }
    }

    #[test]
    fn blackbox_captures_with_tracing_off() {
        let t = Tracer::new();
        t.set_filter(&[]);
        // The combined admission check still wants non-vm categories...
        assert!(t.wants(TraceCategory::Net));
        // ...and vm stays excluded by the default flight-recorder mask.
        assert!(!t.wants(TraceCategory::Vm));
        t.record(SimTime::ZERO, TraceCategory::Net, None, "boxed only");
        assert!(t.events().is_empty(), "main trace is off");
        assert_eq!(t.blackbox_len(), 1);
        assert_eq!(boxed(&t), ["boxed only"]);
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
                EventKind::Message(format!("{span}")),
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
        assert_eq!(boxed(&t), ["e4", "e5", "e6"], "oldest evicted first");
        assert_eq!(t.blackbox_evicted(), 4);
        // The main ring kept everything — the two rings are independent.
        assert_eq!((t.events().len(), t.evicted()), (7, 0));
        // Shrinking discards from the front, and counts it.
        t.set_blackbox_capacity(1);
        assert_eq!(boxed(&t), ["e6"]);
        assert_eq!(t.blackbox_evicted(), 6);
        // A budget of 0 is held, and reported, as 1.
        t.set_blackbox_capacity(0);
        assert_eq!(t.blackbox_capacity(), 1);
        t.record(SimTime::ZERO, TraceCategory::Net, None, "b");
        assert_eq!(boxed(&t), ["b"]);
        assert_eq!(t.blackbox_evicted(), 7);
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
        assert_eq!(messages(&t), ["shared"]);
    }

    #[test]
    fn clones_share_span_counter() {
        let t = Tracer::new();
        let t2 = t.clone();
        let a = t.next_span();
        let b = t2.next_span();
        assert_ne!(a, b, "span ids unique across clones");
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 2);
    }

    #[test]
    fn len_and_for_each_track_the_ring_without_cloning() {
        let t = Tracer::new();
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
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(
            messages(&t),
            ["e0", "e1", "e2", "e3", "e4"],
            "visits events in order"
        );
    }

    /// Past 65 536 events the main ring's store spans 256 chunks, where a
    /// doubling `Vec` would reallocate: every reader still sees every
    /// event, oldest first, and the flight recorder the newest 512.
    #[test]
    fn a_trace_past_the_doubling_step_reads_back_in_order() {
        let t = Tracer::new();
        let mut model = Vec::new();
        for i in 0..70_000u32 {
            let ev = TraceEvent {
                time: SimTime::from_micros(u64::from(i)),
                category: TraceCategory::Rpc,
                node: Some(i % 7),
                span: None,
                kind: EventKind::CallTimedOut {
                    call_id: u64::from(i),
                },
            };
            t.push_event(ev.clone());
            model.push(ev);
        }
        let mut seen = Vec::new();
        t.for_each(|e| seen.push(e.clone()));
        assert!(seen == model, "for_each visits every event in order");
        let lines = |events: &[TraceEvent]| {
            let mut out = String::new();
            for ev in events {
                ev.write_json(&mut out);
                out.push('\n');
            }
            out
        };
        assert!(t.to_jsonl() == lines(&model));
        assert!(t.blackbox_jsonl() == lines(&model[70_000 - BLACKBOX_CAPACITY..]));
        assert_eq!((t.len(), t.evicted()), (70_000, 0));
        // The digests are those of the same lines, one per event.
        let digests: Vec<u64> = lines(&model)
            .lines()
            .map(|l| crate::line_digest(l.as_bytes()))
            .collect();
        assert!(t.digests() == digests);
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
                protocol: crate::RpcProtocol::ExactlyOnce,
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
}
