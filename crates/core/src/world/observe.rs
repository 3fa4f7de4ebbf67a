//! The observability façade: reports, the time-series store's queries,
//! the causal graph, the flight recorder and metric watchpoints. All of
//! it reads the simulated state; none of it feeds back except a watch
//! trip, which stops the run loop.

use pilgrim_ring::NodeId;
use pilgrim_sim::{CausalGraph, EventKind, SimTime, SpanId, TraceCategory, Watchpoint};

use super::World;
use crate::blackbox::BlackboxSnapshot;
use crate::replay::Stimulus;

/// An armed metric watchpoint and, once tripped, the trip record.
#[derive(Debug, Clone)]
pub(super) struct WatchState {
    id: u64,
    watch: Watchpoint,
    trip: Option<WatchTrip>,
}

/// Where and when a metric watchpoint tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchTrip {
    /// Simulated time of the sync point where the predicate first held.
    pub at: SimTime,
    /// Ordinal of that sync point (pump iterations since build).
    pub sync_index: u64,
    /// The metric value observed at the trip.
    pub value: i64,
    /// Span of the most recent traced event at the trip — the causal
    /// activity that moved the metric, when the trace carries one.
    pub span: Option<SpanId>,
}

impl World {
    /// The whole trace as JSON Lines, one event per line — the export
    /// format for offline timeline reconstruction.
    pub fn trace_jsonl(&self) -> String {
        self.tracer.to_jsonl()
    }

    /// The span allocated for `call_id`, recovered from the trace (the
    /// client table forgets completed calls; the trace does not).
    pub fn span_of_call(&self, call_id: u64) -> Option<SpanId> {
        let mut found = None;
        self.tracer.for_each(|ev| {
            if let EventKind::CallStarted { call_id: c, .. } = &ev.kind {
                if *c == call_id {
                    found = ev.span;
                }
            }
        });
        found
    }

    /// One observability snapshot: refreshes the per-node scheduler gauges
    /// (runnable/blocked/halted process counts and total VM steps — plain
    /// node fields read here at a sync point, never hot-path meters), then
    /// renders the full metrics inventory, followed by per-procedure VM
    /// profiles when [`NodeConfig::profile_vm`] is on.
    ///
    /// [`NodeConfig::profile_vm`]: pilgrim_mayflower::NodeConfig::profile_vm
    pub fn observability_report(&self) -> String {
        for n in &self.nodes {
            let (runnable, blocked, halted) = n.state_counts();
            let id = n.id();
            let gauges = [
                ("runnable", runnable as i64),
                ("blocked", blocked as i64),
                ("halted", halted as i64),
                ("steps", n.steps_total() as i64),
            ];
            for (name, value) in gauges {
                self.metrics
                    .gauge(&format!("sched.node{id}.{name}"))
                    .set(value);
            }
        }
        let mut out = self.metrics.report();
        // Per-node breakdown of the world-global net.*/rpc.* counters:
        // sends, NACKs, and losses attributed to the source station,
        // deliveries to the destination. All-zero stations are skipped so
        // a 100k-node report stays proportional to the active set.
        for i in 0..self.nodes.len() as u32 {
            let s = self.net.station_stats(NodeId(i));
            if s == pilgrim_ring::NetStats::default() {
                continue;
            }
            out.push_str(&format!(
                "net node{i}: sent {} delivered {} nacked {} lost {} bytes {}\n",
                s.sent, s.delivered, s.nacked, s.silently_lost, s.bytes_sent
            ));
        }
        // Per-segment rollup of the same counters, only on bridged
        // topologies (a flat world's single segment would just repeat
        // the aggregate line). All-zero segments are skipped, matching
        // the per-node convention above.
        if self.net.segments() > 1 {
            for seg in 0..self.net.segments() {
                let s = self.net.segment_stats(seg);
                if s == pilgrim_ring::NetStats::default() {
                    continue;
                }
                out.push_str(&format!(
                    "net seg{seg}: sent {} delivered {} nacked {} lost {} bridge_lost {} bytes {}\n",
                    s.sent, s.delivered, s.nacked, s.silently_lost, s.bridge_lost, s.bytes_sent
                ));
            }
        }
        for (i, ep) in self.endpoints.iter().enumerate() {
            let s = ep.stats();
            if s.started == 0 && s.served == 0 && s.failed == 0 && s.retransmits == 0 {
                continue;
            }
            out.push_str(&format!(
                "rpc node{i}: started {} completed {} failed {} retransmits {} served {}\n",
                s.started, s.completed, s.failed, s.retransmits, s.served
            ));
        }
        out.push_str(&self.tsdb_summary());
        for n in &self.nodes {
            for (proc, instrs, cost_us) in n.vm_profile() {
                out.push_str(&format!(
                    "vm node{} {proc}: {instrs} instr {cost_us}us\n",
                    n.id()
                ));
            }
        }
        for n in &self.nodes {
            let id = n.id();
            for (caller, callee, instr, cost) in n.call_edges() {
                let caller = caller.unwrap_or_else(|| "(root)".to_string());
                out.push_str(&format!(
                    "edge node{id} {caller}->{callee}: {instr} instr {cost}us\n"
                ));
            }
            for (pid, name, span, ledger) in n.time_ledgers() {
                let span = match span {
                    Some(s) => format!(" span{}", s.get()),
                    None => String::new(),
                };
                out.push_str(&format!(
                    "ledger node{id} {pid} {name}{span}: {}\n",
                    ledger.render()
                ));
            }
            for (span, wait) in n.rpc_span_waits() {
                out.push_str(&format!(
                    "spanwait node{id} span{}: {}us blocked-on-rpc\n",
                    span.get(),
                    wait.as_micros()
                ));
            }
        }
        out
    }

    /// Merged folded-stack profile across every node, one `stack weight`
    /// line per distinct call path, each frame chain prefixed with the
    /// owning node (`node0;main;fib 4200`). Lines are sorted per node, so
    /// two identical runs render byte-identical output. Empty unless at
    /// least one node has [`NodeConfig::profile_vm`] on.
    ///
    /// [`NodeConfig::profile_vm`]: pilgrim_mayflower::NodeConfig::profile_vm
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            let id = n.id();
            for (stack, weight) in n.folded_stacks() {
                out.push_str(&format!("node{id};{stack} {weight}\n"));
            }
        }
        out
    }

    /// Renders one metric's windowed history: per-window deltas and rates
    /// for counters, min/mean/max for gauges, count/mean/percentiles for
    /// histograms. `window` selects how many samples each rendered window
    /// aggregates; how many sync points a sample spans is the store's
    /// shape ([`WorldBuilder::coarse_window`]).
    ///
    /// [`WorldBuilder::coarse_window`]: super::WorldBuilder::coarse_window
    pub fn tsdb_report(&self, metric: &str, window: usize) -> String {
        self.series.render(metric, window)
    }

    /// One-line-per-series inventory of the time-series store.
    pub fn tsdb_summary(&self) -> String {
        self.series.summary()
    }

    /// A counter's retained windows as data rather than text:
    /// `(window_start_us, window_end_us, delta)` per window, mirroring
    /// [`tsdb_report`](World::tsdb_report) exactly. Empty for unknown
    /// metrics. Run reports are built from this, never from re-parsing
    /// rendered output.
    pub fn tsdb_counter_windows(&self, metric: &str, window: usize) -> Vec<(u64, u64, u64)> {
        self.series.counter_windows(metric, window)
    }

    /// A histogram's retained windows as data:
    /// `(window_start_us, window_end_us, count, p99_bucket_bound)`.
    pub fn tsdb_hist_windows(
        &self,
        metric: &str,
        window: usize,
    ) -> Vec<(u64, u64, u64, Option<u64>)> {
        self.series.hist_windows(metric, window)
    }

    /// Every bridge link of the world's topology, normalized `(low,
    /// high)` and sorted — the keys under which per-link meters register.
    pub fn bridge_links(&self) -> Vec<(u32, u32)> {
        self.net.bridge_links()
    }

    /// Number of topology segments (1 for flat worlds).
    pub fn net_segments(&self) -> u32 {
        self.net.segments()
    }

    /// Stations in one network segment (utilization denominator for the
    /// per-segment `tx_busy_us` series).
    pub fn segment_stations(&self, seg: u32) -> u32 {
        self.net.stations_in(seg)
    }

    /// Reconstructs the span DAG from the trace retained so far. Build it
    /// once and ask it several questions; the three `*_report` methods
    /// below each build their own.
    pub fn causal_graph(&self) -> CausalGraph {
        CausalGraph::from_events_with(|sink| self.tracer.for_each(sink))
    }

    /// Renders the causal path of one span: its chain of parents down to
    /// the span itself, each with per-segment time attribution.
    pub fn span_path_report(&self, span: u64) -> String {
        self.causal_graph().render_path(span)
    }

    /// Renders the causal critical path — the root-to-leaf chain with
    /// the largest total simulated time.
    pub fn critical_path_report(&self) -> String {
        self.causal_graph().render_critical()
    }

    /// Renders the `k` slowest spans by total attributed time.
    pub fn slowest_report(&self, k: usize) -> String {
        self.causal_graph().render_slowest(k)
    }

    /// Freezes the flight recorder into a snapshot: the metrics inventory
    /// right now, the time-series store's retained windows, and the
    /// recent-event ring the tracer keeps even with full tracing off.
    ///
    /// Deliberately reads `Metrics::report`, not
    /// [`World::observability_report`]: the latter lazily registers
    /// per-node scheduler gauges, and a mid-run registration would change
    /// which series later sync points sample — diverging a live run from
    /// its replay.
    pub fn blackbox_snapshot(&self, reason: &str) -> BlackboxSnapshot {
        BlackboxSnapshot {
            reason: reason.to_string(),
            at: self.now,
            sync_index: self.sync_points,
            metrics: self.metrics.report(),
            windows: self.series.summary(),
            series: self.series.render_all(1),
            events: self.tracer.blackbox_jsonl(),
        }
    }

    /// Takes a snapshot and remembers it as the most recent dump.
    pub(super) fn snap_blackbox(&mut self, reason: &str) {
        self.blackbox_last = Some(self.blackbox_snapshot(reason).render());
    }

    /// The rendered artifact of the most recent automatic flight-recorder
    /// dump (watch trip or maybe-call diagnosis), if any.
    pub fn blackbox_last(&self) -> Option<&str> {
        self.blackbox_last.as_deref()
    }

    /// Evaluates every armed, untripped watchpoint against the metrics at
    /// the sync point just completed. The first trip wins deterministically
    /// (arm order); tripped watches never re-fire.
    pub(super) fn check_watches(&mut self) {
        let mut first_new_trip: Option<String> = None;
        for i in 0..self.watches.len() {
            if self.watches[i].trip.is_some() {
                continue;
            }
            let Some(value) = self.watches[i].watch.tripped(&self.metrics) else {
                continue;
            };
            // The tripping activity: the span of the most recent traced
            // event that carries one (the metric moved inside this pump
            // iteration, so the trace tail is the closest causal record).
            let mut span = None;
            self.tracer.for_each(|ev| {
                if ev.span.is_some() {
                    span = ev.span;
                }
            });
            let trip = WatchTrip {
                at: self.now,
                sync_index: self.sync_points,
                value,
                span,
            };
            let expr = self.watches[i].watch.expr();
            self.watches[i].trip = Some(trip);
            self.watch_halt = true;
            if first_new_trip.is_none() {
                first_new_trip = Some(expr.clone());
            }
            if self.tracer.wants(TraceCategory::Debug) {
                self.tracer.emit(
                    self.now,
                    TraceCategory::Debug,
                    None,
                    span,
                    EventKind::WatchTripped { expr, value },
                );
            }
        }
        // One dump per sync point, after every trip of the batch has
        // emitted its event, so the ring carries the full picture.
        if let Some(expr) = first_new_trip {
            self.snap_blackbox(&format!("watch {expr}"));
        }
    }

    /// Drains the watch-halt flag set by a tripping watchpoint.
    pub(super) fn take_watch_halt(&mut self) -> bool {
        std::mem::take(&mut self.watch_halt)
    }

    /// Arms a metric watchpoint from an expression like `rpc.failed > 0`
    /// and returns its id. The world halts (the current `run_*` call
    /// returns) at the first sync point where the predicate holds;
    /// inspect the trip with [`World::watch_trips`]. Recorded.
    ///
    /// # Errors
    ///
    /// A description of the malformed expression.
    pub fn arm_watch(&mut self, expr: &str) -> Result<u64, String> {
        let watch = Watchpoint::parse(expr)?;
        // Journal the canonical form so replay re-parses exactly what ran.
        let stimulus = Stimulus::ArmWatch { expr: watch.expr() };
        Ok(self.drive(stimulus, |w| {
            let id = w.next_watch_id;
            w.next_watch_id += 1;
            w.watches.push(WatchState {
                id,
                watch,
                trip: None,
            });
            id
        }))
    }

    /// Disarms watchpoint `id`; false when no such watch. Recorded.
    pub fn clear_watch(&mut self, id: u64) -> bool {
        self.drive(Stimulus::ClearWatch { id }, |w| {
            let before = w.watches.len();
            w.watches.retain(|watch| watch.id != id);
            w.watches.len() != before
        })
    }

    /// Every armed watchpoint: `(id, canonical expression, trip)`.
    pub fn watches(&self) -> Vec<(u64, String, Option<WatchTrip>)> {
        self.watches
            .iter()
            .map(|w| (w.id, w.watch.expr(), w.trip))
            .collect()
    }

    /// Tripped watchpoints only: `(id, canonical expression, trip)`.
    pub fn watch_trips(&self) -> Vec<(u64, String, WatchTrip)> {
        self.watches
            .iter()
            .filter_map(|w| w.trip.map(|t| (w.id, w.watch.expr(), t)))
            .collect()
    }
}
