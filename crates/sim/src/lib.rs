//! Deterministic discrete-event simulation kernel for the Pilgrim
//! reproduction.
//!
//! The original Pilgrim system (Cooper, ICDCS 1987) ran on 8 MHz MC68000
//! nodes attached to a Cambridge Ring. That platform is gone, so the
//! reproduction executes the entire distributed system — every node, the
//! network, and the debugger itself — inside a single-threaded,
//! deterministic simulation. This crate provides the primitives everything
//! else is built from:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time;
//! * [`EventQueue`] — a future-event list with FIFO tie-breaking, so
//!   identical seeds give identical runs;
//! * [`IdWindow`] — the hash-free table both it and the RPC call tables
//!   keep densely issued ids in;
//! * [`Chunked`] — the store of records that grow at their end (process
//!   tables, the stimulus journal, every ring), with no doubling slack;
//! * [`Ring`] — the one bounded FIFO (trace rings, time-series rows, recent
//!   RPC outcomes): a [`Chunked`] store and a head index, which counts
//!   what it evicts;
//! * [`DetRng`] — seeded, forkable randomness for loss models and jitter;
//! * [`Tracer`] — structured, span-linked event recording that tests
//!   assert against (typed [`EventKind`] payloads, lazy rendering);
//! * [`Metrics`] — a hermetic registry of counters, gauges, and
//!   fixed-bucket histograms;
//! * [`CallTree`] / [`TimeLedger`] / [`Watchpoint`] — simulated-time
//!   profiling: folded-stack call profiles, per-process time attribution,
//!   and metric predicates the debugger can halt on;
//! * [`check`] — deterministic property-based testing with shrinking,
//!   used by the workspace's test suites (no external crates).
//!
//! # Examples
//!
//! ```
//! use pilgrim_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut clock = SimTime::ZERO;
//! let mut queue = EventQueue::new();
//! queue.schedule(clock + SimDuration::from_millis(3), "basic block arrives");
//! while let Some((when, what)) = queue.pop() {
//!     clock = when;
//!     assert_eq!(what, "basic block arrives");
//! }
//! assert_eq!(clock, SimTime::from_millis(3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod causal;
pub mod check;
mod chunked;
mod event;
pub mod json;
mod metrics;
mod profile;
mod ring;
mod rng;
mod time;
mod trace;
mod tsdb;
mod window;
mod workload;

pub use causal::{CausalGraph, SpanProfile};
pub use chunked::Chunked;
pub use event::{EventId, EventQueue};
pub use json::{escape_into, quote_into, Json, JsonError};
pub use metrics::{bucket_quantile, render_bucket_bound, Counter, Gauge, Histogram, Metrics};
pub use profile::{
    CallEdge, CallNodeId, CallTree, CmpOp, LedgerBucket, LedgerClock, TimeLedger, Watchpoint,
};
pub use ring::Ring;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use trace::{
    first_divergence, line_digest, Divergence, EventKind, FieldDiff, RpcProtocol, SpanId,
    TraceCategory, TraceEvent, Tracer, BLACKBOX_CAPACITY,
};
pub use tsdb::SeriesStore;
pub use window::IdWindow;
pub use workload::{Arrival, OpMix, OpenLoop};
