//! The distributed world: nodes, ring, RPC runtimes, agents, and the
//! debugger, advanced together under one deterministic clock.
//!
//! A [`World`] is the reproduction's stand-in for "a local computer
//! network and ... the other programs and services which exist on such a
//! network" (§1). The synchronous-looking debugger methods
//! ([`World::debug_request`] and friends) play the programmer at the
//! terminal: they transmit a request over the simulated ring and pump the
//! simulation until the reply packet comes back, so every debugger action
//! pays its real network cost.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use pilgrim_cclu::{compile, CompileError, Program, Value};
use pilgrim_mayflower::{Node, NodeConfig, Outcall, Pid, SpawnOpts, UnknownProc};
use pilgrim_ring::{Medium, Network, NetworkConfig, NodeId, TxClass, TxStatus};
use pilgrim_rpc::{RpcConfig, RpcEndpoint, RpcNet, RpcPacket, WireValue};
use pilgrim_sim::{
    CausalGraph, EventKind, Json, Metrics, SeriesStore, SimDuration, SimTime, SpanId,
    TraceCategory, Tracer, Watchpoint, BLACKBOX_CAPACITY,
};

use crate::agent::{Agent, AgentConfig, DebugNet};
use crate::blackbox::BlackboxSnapshot;
use crate::debugger::{BreakpointInfo, DebugEvent, Debugger};
use crate::pool::StepPool;
use crate::proto::{
    AgentReply, AgentRequest, DebugMsg, FrameSummary, KnowledgeView, ProcView, RpcFrameView,
    SessionId,
};
use crate::replay::{Artifact, Recipe, Stimulus};

/// Everything that travels on the ring: RPC packets and debugger traffic.
#[derive(Debug, Clone)]
pub enum Wire {
    /// Mayflower RPC protocol.
    Rpc(RpcPacket),
    /// Pilgrim debugger–agent protocol.
    Debug(DebugMsg),
}

/// Byte overhead of the network header on debug messages.
const DEBUG_HEADER: usize = 16;

/// Adapter presenting the world's network to the RPC layer (the orphan
/// rule forbids implementing the foreign `RpcNet` trait directly on the
/// foreign `Network` type).
struct AsRpcNet<'a>(&'a mut Network<Wire>);

impl RpcNet for AsRpcNet<'_> {
    fn send_rpc(&mut self, at: SimTime, src: NodeId, dst: NodeId, pkt: RpcPacket, bytes: usize) {
        // Lift the packet's span header onto the network layer so every
        // wire-level event of the call shares the call's span.
        let span = pkt.span();
        let _ = self
            .0
            .send_spanned(at, src, dst, Wire::Rpc(pkt), bytes, TxClass::Data, span);
    }
    fn node_count(&self) -> u32 {
        self.0.nodes()
    }
}

impl DebugNet for Network<Wire> {
    fn send_debug(&mut self, at: SimTime, src: NodeId, dst: NodeId, msg: DebugMsg) -> TxStatus {
        let bytes = msg.wire_bytes() + DEBUG_HEADER;
        // Debugger–agent traffic rides the ring's hardware NACK like the
        // halt protocol: an interface-level refusal is retransmitted a few
        // times before the sender gives up (a genuinely crashed node still
        // yields a final NACK).
        self.send_with_retransmit(at, src, dst, Wire::Debug(msg), bytes, 8)
            .0
    }
    fn send_debug_reliable(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        msg: DebugMsg,
        max_attempts: u32,
    ) -> (TxStatus, u32) {
        let bytes = msg.wire_bytes() + DEBUG_HEADER;
        self.send_with_retransmit(at, src, dst, Wire::Debug(msg), bytes, max_attempts)
    }
    fn broadcast_debug(&mut self, at: SimTime, src: NodeId, msg: DebugMsg) -> Option<SimTime> {
        let bytes = msg.wire_bytes() + DEBUG_HEADER;
        self.broadcast(at, src, Wire::Debug(msg), bytes)
    }
    fn medium(&self) -> Medium {
        self.config().medium
    }
}

/// Errors from world construction.
#[derive(Debug)]
pub enum BuildError {
    /// A program failed to compile.
    Compile {
        /// Node whose program failed (None = the shared program).
        node: Option<u32>,
        /// The compiler error.
        err: CompileError,
    },
    /// A world needs at least one user node.
    NoNodes,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Compile { node: Some(n), err } => {
                write!(f, "program for node {n} failed to compile: {err}")
            }
            BuildError::Compile { node: None, err } => {
                write!(f, "program failed to compile: {err}")
            }
            BuildError::NoNodes => f.write_str("world needs at least one node"),
        }
    }
}
impl std::error::Error for BuildError {}

/// Errors from debugger operations.
#[derive(Debug)]
pub enum DebugError {
    /// The world was built without a debugger station.
    NoDebugger,
    /// No session is active.
    NotConnected,
    /// An agent refused the connection (already owned by another session
    /// and `force` was not given).
    Refused,
    /// No reply arrived within the simulated deadline.
    Timeout,
    /// The agent reported an error.
    Agent(String),
    /// The debugger proper could not resolve a source-level name.
    Source(String),
    /// An unexpected reply kind arrived (protocol error).
    Protocol(String),
}

impl std::fmt::Display for DebugError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DebugError::NoDebugger => f.write_str("world has no debugger"),
            DebugError::NotConnected => f.write_str("no debugging session is active"),
            DebugError::Refused => f.write_str("agent refused the connection"),
            DebugError::Timeout => f.write_str("timed out waiting for the agent"),
            DebugError::Agent(e) => write!(f, "agent error: {e}"),
            DebugError::Source(e) => write!(f, "source mapping: {e}"),
            DebugError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}
impl std::error::Error for DebugError {}

/// A source-level stack frame as shown to the user.
#[derive(Debug, Clone)]
pub struct BacktraceFrame {
    /// Node the frame lives on.
    pub node: u32,
    /// Process the frame belongs to.
    pub pid: u64,
    /// Frame index within its process (0 = oldest).
    pub index: u32,
    /// Procedure name (mapped by the debugger proper).
    pub proc_name: String,
    /// Source line.
    pub line: Option<u32>,
    /// Frame role ("normal", "rpc-stub", "server-root", "agent-invoke").
    pub kind: String,
    /// Entry sequence complete (§5.5)?
    pub well_formed: bool,
    /// RPC information block, if the frame has one.
    pub rpc: Option<RpcFrameView>,
}

impl std::fmt::Display for BacktraceFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node{} p{} #{} {}",
            self.node, self.pid, self.index, self.proc_name
        )?;
        if let Some(l) = self.line {
            write!(f, ":{l}")?;
        }
        if self.kind != "normal" {
            write!(f, " [{}]", self.kind)?;
        }
        if let Some(r) = &self.rpc {
            write!(
                f,
                " call#{} {} ({} — {})",
                r.call_id, r.remote_proc, r.protocol, r.state
            )?;
        }
        Ok(())
    }
}

/// Outcome of diagnosing a failed `maybe` call (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaybeDiagnosis {
    /// The call packet was lost: the server never saw the call.
    LostCall,
    /// The reply packet was lost: the server executed and replied.
    LostReply,
    /// The remote procedure itself failed.
    RemoteFailed,
    /// The server is still executing (the client timed out too early).
    StillExecuting,
}

/// Configures and creates a [`World`].
#[derive(Debug)]
pub struct WorldBuilder {
    nodes: u32,
    default_source: Option<String>,
    per_node_source: HashMap<u32, String>,
    net: NetworkConfig,
    rpc: RpcConfig,
    node_cfg: NodeConfig,
    agent_cfg: AgentConfig,
    window: SimDuration,
    seed: u64,
    with_debugger: bool,
    with_agents: bool,
    step_threads: usize,
    tsdb: bool,
    trace_sample: u32,
    blackbox_capacity: usize,
    coarse_interval: u64,
    coarse_budget: usize,
}

impl Default for WorldBuilder {
    fn default() -> Self {
        WorldBuilder {
            nodes: 1,
            default_source: None,
            per_node_source: HashMap::new(),
            net: NetworkConfig::default(),
            rpc: RpcConfig::default(),
            node_cfg: NodeConfig::default(),
            agent_cfg: AgentConfig::default(),
            window: SimDuration::from_millis(1),
            seed: 0,
            with_debugger: true,
            with_agents: true,
            step_threads: 1,
            tsdb: false,
            trace_sample: 0,
            blackbox_capacity: BLACKBOX_CAPACITY,
            coarse_interval: TSDB_COARSE_INTERVAL,
            coarse_budget: TSDB_COARSE_BUDGET,
        }
    }
}

impl WorldBuilder {
    /// Starts a builder with defaults (one node, debugger attached).
    pub fn new() -> WorldBuilder {
        WorldBuilder::default()
    }

    /// Number of user nodes.
    pub fn nodes(mut self, n: u32) -> Self {
        self.nodes = n;
        self
    }

    /// The Concurrent CLU program every node runs (a distributed program
    /// is one program running on all its nodes, distinguished by
    /// `my_node()`).
    pub fn program(mut self, source: &str) -> Self {
        self.default_source = Some(source.to_string());
        self
    }

    /// Overrides the program for one node.
    pub fn program_for(mut self, node: u32, source: &str) -> Self {
        self.per_node_source.insert(node, source.to_string());
        self
    }

    /// Network model configuration.
    pub fn network(mut self, cfg: NetworkConfig) -> Self {
        self.net = cfg;
        self
    }

    /// RPC runtime configuration.
    pub fn rpc(mut self, cfg: RpcConfig) -> Self {
        self.rpc = cfg;
        self
    }

    /// Supervisor configuration.
    pub fn node_config(mut self, cfg: NodeConfig) -> Self {
        self.node_cfg = cfg;
        self
    }

    /// Agent configuration.
    pub fn agent(mut self, cfg: AgentConfig) -> Self {
        self.agent_cfg = cfg;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Lockstep window: how far a node may run ahead between sync points.
    /// The builder still enforces its conservative floor (the network's
    /// base latency) at build time.
    pub fn lockstep_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// Attach a debugger station (default true).
    pub fn debugger(mut self, on: bool) -> Self {
        self.with_debugger = on;
        self
    }

    /// Link agents into the nodes (default true). Without agents the
    /// program cannot be debugged at all — the E7 baseline.
    pub fn agents(mut self, on: bool) -> Self {
        self.with_agents = on;
        self
    }

    /// Arm the full-resolution time-series store: sample every registered
    /// metric at every sync point into bounded delta-encoded rings
    /// (default false). Part of the reproduction [`Recipe`] — a replayed
    /// world must sample at the same points to render identical `tsdb`
    /// output. A coarse always-on store feeds the flight recorder
    /// regardless of this knob.
    pub fn tsdb(mut self, on: bool) -> Self {
        self.tsdb = on;
        self
    }

    /// Head-based span sampling: keep 1-in-`rate` root spans (children
    /// follow their root's verdict, so kept traces stay causally
    /// complete). 0 or 1 disables sampling — the default, with zero cost
    /// on the tracing hot path. The keep decision is a pure function of
    /// the recipe-carried rate, the world seed, and the deterministic
    /// span id, so sampled traces are byte-identical across serial,
    /// parallel, and replay runs.
    pub fn trace_sample(mut self, rate: u32) -> Self {
        self.trace_sample = rate;
        self
    }

    /// Flight-recorder ring budget in events (default
    /// [`BLACKBOX_CAPACITY`] = 512). Part of the reproduction
    /// [`Recipe`]: a replay must retain the same tail for its blackbox
    /// dumps to match.
    ///
    /// [`BLACKBOX_CAPACITY`]: pilgrim_sim::BLACKBOX_CAPACITY
    pub fn blackbox_capacity(mut self, events: usize) -> Self {
        self.blackbox_capacity = events;
        self
    }

    /// Shape of the coarse always-on time-series store: one sample every
    /// `interval` sync points, `budget` samples retained per series
    /// (default 64 × 64). Recipe-carried, like every sampling knob.
    pub fn coarse_window(mut self, interval: u64, budget: usize) -> Self {
        self.coarse_interval = interval;
        self.coarse_budget = budget;
        self
    }

    /// Number of worker threads used to step nodes between sync points
    /// (default 1 = serial, no pool). A runtime execution knob, not part
    /// of the world's identity: it is deliberately excluded from the
    /// reproduction [`Recipe`], because thread count must not change any
    /// observable behaviour — the twin-run gate enforces exactly that.
    pub fn step_threads(mut self, threads: usize) -> Self {
        self.step_threads = threads;
        self
    }

    /// Builds the world.
    ///
    /// # Errors
    ///
    /// Fails when a program does not compile or no nodes were requested.
    pub fn build(self) -> Result<World, BuildError> {
        if self.nodes == 0 {
            return Err(BuildError::NoNodes);
        }
        // Capture the reproduction recipe before any input is consumed:
        // these are exactly the inputs a replay needs to rebuild this
        // world bit-for-bit.
        let mut per_node_source: Vec<(u32, String)> = self
            .per_node_source
            .iter()
            .map(|(n, s)| (*n, s.clone()))
            .collect();
        per_node_source.sort_by_key(|(n, _)| *n);
        let recipe = Recipe {
            nodes: self.nodes,
            seed: self.seed,
            window: self.window,
            default_source: self.default_source.clone(),
            per_node_source,
            net: self.net.clone(),
            rpc: self.rpc.clone(),
            node_cfg: self.node_cfg.clone(),
            agent_cfg: self.agent_cfg.clone(),
            with_debugger: self.with_debugger,
            with_agents: self.with_agents,
            tsdb: self.tsdb,
            trace_sample: self.trace_sample,
            blackbox_capacity: self.blackbox_capacity,
            coarse_interval: self.coarse_interval,
            coarse_budget: self.coarse_budget,
            setup: Vec::new(),
        };
        let tracer = Tracer::new();
        if self.trace_sample > 1 {
            tracer.set_trace_sample(self.trace_sample, self.seed);
        }
        if self.blackbox_capacity != BLACKBOX_CAPACITY {
            tracer.set_blackbox_capacity(self.blackbox_capacity);
        }
        let metrics = Metrics::new();
        // Program interning: compile each distinct source once and share
        // the result as `Arc<Program>` across every node that runs it, so
        // a 100k-node world holds one compiled program, not 100k deep
        // clones. Breakpoint planting still works — `Node::program_mut`
        // copies-on-write, so a patched node forks its own copy while the
        // rest keep sharing.
        let empty_program: Arc<Program> = Arc::new(Program::default());
        let default_program = match &self.default_source {
            Some(src) => Some(Arc::new(
                compile(src).map_err(|err| BuildError::Compile { node: None, err })?,
            )),
            None => None,
        };
        let mut programs: Vec<Arc<Program>> = Vec::new();
        for i in 0..self.nodes {
            let program = match self.per_node_source.get(&i) {
                Some(src) => Arc::new(
                    compile(src).map_err(|err| BuildError::Compile { node: Some(i), err })?,
                ),
                None => default_program
                    .clone()
                    .unwrap_or_else(|| empty_program.clone()),
            };
            programs.push(program);
        }

        let stations = self.nodes + u32::from(self.with_debugger);
        let mut netcfg = self.net.clone();
        netcfg.seed ^= self.seed;
        let mut net: Network<Wire> = Network::new(netcfg, stations);
        net.attach_tracer(tracer.clone());
        net.attach_metrics(&metrics);

        let mut nodes = Vec::new();
        let mut endpoints = Vec::new();
        let mut agents: Vec<Option<Agent>> = Vec::new();
        for i in 0..stations {
            let program = programs
                .get(i as usize)
                .cloned()
                .unwrap_or_else(|| empty_program.clone());
            let mut cfg = self.node_cfg.clone();
            cfg.seed ^= self.seed.rotate_left(i % 64);
            nodes.push(Node::new(i, program, cfg, tracer.clone()));
            let mut endpoint = RpcEndpoint::new(NodeId(i), self.rpc.clone(), tracer.clone());
            endpoint.attach_metrics(&metrics);
            endpoints.push(endpoint);
            let is_user = i < self.nodes;
            if is_user && self.with_agents {
                let agent = Agent::new(NodeId(i), self.agent_cfg.clone(), tracer.clone());
                endpoints[i as usize]
                    .register_handler("get_debuggee_status", agent.status_handler());
                agents.push(Some(agent));
            } else {
                agents.push(None);
            }
        }

        let debugger = if self.with_debugger {
            let station = NodeId(stations - 1);
            let mut d = Debugger::new(station, tracer.clone());
            for (i, p) in programs.iter().enumerate() {
                d.load_program(NodeId(i as u32), p.clone());
            }
            endpoints[station.0 as usize]
                .register_handler("convert_debuggee_time", d.convert_time_handler());
            Some(d)
        } else {
            None
        };

        Ok(World {
            nodes,
            endpoints,
            agents,
            debugger,
            net,
            tracer,
            metrics,
            now: SimTime::ZERO,
            user_nodes: self.nodes,
            // Conservative-window lookahead: every cross-node delivery
            // arrives at least `base_latency` after it was sent (interface
            // refusals are synchronous sender-side statuses, not
            // deliveries), so lockstep windows up to that latency cannot
            // let a node advance past an incoming packet. Degenerate
            // low-latency configurations keep the builder's floor.
            window: self.window.max(self.net.base_latency),
            recipe,
            journal: Vec::new(),
            watches: Vec::new(),
            next_watch_id: 1,
            sync_points: 0,
            watch_halt: false,
            pool: (self.step_threads > 1).then(|| StepPool::new(self.step_threads)),
            node_next: Vec::new(),
            node_heap: BinaryHeap::new(),
            active_nodes: 0,
            ep_next: Vec::new(),
            ep_heap: BinaryHeap::new(),
            active_eps: 0,
            outcall_flag: Vec::new(),
            outcall_pending: Vec::new(),
            index_dirty: true,
            reference_pump: false,
            driving: false,
            empty_program,
            tsdb: self
                .tsdb
                .then(|| SeriesStore::new(TSDB_FULL_INTERVAL, TSDB_FULL_BUDGET)),
            coarse: SeriesStore::new(self.coarse_interval, self.coarse_budget),
            blackbox_last: None,
        })
    }
}

/// An armed metric watchpoint and, once tripped, the trip record.
#[derive(Debug, Clone)]
struct WatchState {
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

/// The simulated distributed system.
pub struct World {
    nodes: Vec<Node>,
    endpoints: Vec<RpcEndpoint>,
    agents: Vec<Option<Agent>>,
    debugger: Option<Debugger>,
    net: Network<Wire>,
    tracer: Tracer,
    metrics: Metrics,
    now: SimTime,
    user_nodes: u32,
    window: SimDuration,
    recipe: Recipe,
    journal: Vec<Stimulus>,
    watches: Vec<WatchState>,
    next_watch_id: u64,
    /// Pump iterations completed since build — the sync-point ordinal
    /// watch trips are pinned to.
    sync_points: u64,
    /// Set when a watchpoint trips; the run loops drain it and stop.
    watch_halt: bool,
    /// Worker threads for parallel node stepping; `None` steps serially.
    pool: Option<StepPool>,
    /// Activity index: cached `Node::next_activity` per station, kept
    /// exact at every sync point so the pump touches only stations with
    /// work. `None` = quiescent.
    node_next: Vec<Option<SimTime>>,
    /// Lazy min-heap over `(activity time, station)`. Entries may be
    /// stale; an entry is live iff it matches `node_next` at pop time.
    node_heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Stations with `node_next[i].is_some()` — O(1) idleness.
    active_nodes: usize,
    /// Cached `RpcEndpoint::next_timer` per station.
    ep_next: Vec<Option<SimTime>>,
    /// Lazy min-heap twin of `node_heap` for endpoint protocol timers.
    ep_heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Stations with `ep_next[i].is_some()`.
    active_eps: usize,
    /// True while station `i` sits in `outcall_pending`.
    outcall_flag: Vec<bool>,
    /// Stations holding undrained outcalls (e.g. `ProcCreated` from a
    /// spawn onto an otherwise quiescent node); they must be stepped next
    /// window so the outcall reaches the agent, exactly when the
    /// full-scan pump would have drained it.
    outcall_pending: Vec<usize>,
    /// Set by unindexed mutation paths (`node_mut`, `endpoint_mut`);
    /// the next pump rebuilds the index from scratch.
    index_dirty: bool,
    /// Forces the full-scan reference pump (twin-testing knob).
    reference_pump: bool,
    /// Re-entrancy guard of [`World::drive`]: true while a journalled
    /// driver call is on the stack.
    driving: bool,
    /// Shared empty program; placeholder bodies for nodes lent to the
    /// worker pool borrow it instead of allocating.
    empty_program: Arc<Program>,
    /// Full-resolution time-series store, armed by [`WorldBuilder::tsdb`]:
    /// samples every metric at every sync point.
    tsdb: Option<SeriesStore>,
    /// Coarse always-on store: one sample every
    /// [`TSDB_COARSE_INTERVAL`] sync points, feeding the flight recorder.
    coarse: SeriesStore,
    /// Rendered artifact of the most recent automatic flight-recorder
    /// snapshot (watch trip or maybe-call diagnosis).
    blackbox_last: Option<String>,
}

/// Sampling cadence of the full-resolution store: every sync point.
const TSDB_FULL_INTERVAL: u64 = 1;
/// Ring budget (windows per series) of the full-resolution store.
const TSDB_FULL_BUDGET: usize = 4096;
/// Default sampling cadence of the always-on coarse store.
pub(crate) const TSDB_COARSE_INTERVAL: u64 = 64;
/// Default ring budget of the always-on coarse store — small enough that
/// the dormant-path cost stays inside the `node/step_storm` 3% gate.
pub(crate) const TSDB_COARSE_BUDGET: usize = 64;

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("user_nodes", &self.user_nodes)
            .field("debugger", &self.debugger.is_some())
            .finish()
    }
}

impl World {
    /// Starts building a world.
    pub fn builder() -> WorldBuilder {
        WorldBuilder::new()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of user (non-debugger) nodes.
    pub fn user_nodes(&self) -> u32 {
        self.user_nodes
    }

    /// The debugger's network station, when one is attached.
    pub fn debugger_station(&self) -> Option<NodeId> {
        self.debugger.as_ref().map(Debugger::station)
    }

    /// The shared tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared metrics registry (`net.*`, `rpc.*`, and the scheduler
    /// gauges refreshed by [`World::observability_report`]).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

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
            self.metrics
                .gauge(&format!("sched.node{id}.runnable"))
                .set(runnable as i64);
            self.metrics
                .gauge(&format!("sched.node{id}.blocked"))
                .set(blocked as i64);
            self.metrics
                .gauge(&format!("sched.node{id}.halted"))
                .set(halted as i64);
            self.metrics
                .gauge(&format!("sched.node{id}.steps"))
                .set(n.steps_total() as i64);
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
                    Some(s) => format!(" span{}", s.0),
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
                    span.0,
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

    /// The active time-series store: the full-resolution store when the
    /// world was built with [`WorldBuilder::tsdb`], otherwise the coarse
    /// always-on store that feeds the flight recorder.
    fn tsdb_store(&self) -> &SeriesStore {
        self.tsdb.as_ref().unwrap_or(&self.coarse)
    }

    /// Renders one metric's windowed history: per-window deltas and rates
    /// for counters, min/mean/max for gauges, count/mean/percentiles for
    /// histograms. `window` selects how many sync-point samples each
    /// rendered window aggregates.
    pub fn tsdb_report(&self, metric: &str, window: usize) -> String {
        self.tsdb_store().render(metric, window)
    }

    /// One-line-per-series inventory of the active time-series store.
    pub fn tsdb_summary(&self) -> String {
        self.tsdb_store().summary()
    }

    /// A counter's retained windows as data rather than text:
    /// `(window_start_us, window_end_us, delta)` per window, mirroring
    /// [`tsdb_report`](World::tsdb_report) exactly. Empty for unknown
    /// metrics. Run reports are built from this, never from re-parsing
    /// rendered output.
    pub fn tsdb_counter_windows(&self, metric: &str, window: usize) -> Vec<(u64, u64, u64)> {
        self.tsdb_store().counter_windows(metric, window)
    }

    /// A histogram's retained windows as data:
    /// `(window_start_us, window_end_us, count, p99_bucket_bound)`.
    pub fn tsdb_hist_windows(
        &self,
        metric: &str,
        window: usize,
    ) -> Vec<(u64, u64, u64, Option<u64>)> {
        self.tsdb_store().hist_windows(metric, window)
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

    /// Reconstructs the span DAG from the trace and renders the causal
    /// path of one span: its chain of parents down to the span itself,
    /// each with per-segment time attribution.
    pub fn span_path_report(&self, span: u64) -> String {
        CausalGraph::from_events(&self.tracer.events()).render_path(span)
    }

    /// Renders the causal critical path — the root-to-leaf chain with
    /// the largest total simulated time.
    pub fn critical_path_report(&self) -> String {
        CausalGraph::from_events(&self.tracer.events()).render_critical()
    }

    /// Renders the `k` slowest spans by total attributed time.
    pub fn slowest_report(&self, k: usize) -> String {
        CausalGraph::from_events(&self.tracer.events()).render_slowest(k)
    }

    /// Freezes the flight recorder into a snapshot: the metrics inventory
    /// right now, the coarse store's retained windows, and the
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
            windows: self.coarse.summary(),
            series: self.coarse.render_all(1),
            events: self.tracer.blackbox_jsonl(),
        }
    }

    /// Takes a snapshot and remembers it as the most recent dump.
    fn snap_blackbox(&mut self, reason: &str) {
        self.blackbox_last = Some(self.blackbox_snapshot(reason).render());
    }

    /// The rendered artifact of the most recent automatic flight-recorder
    /// dump (watch trip or maybe-call diagnosis), if any.
    pub fn blackbox_last(&self) -> Option<&str> {
        self.blackbox_last.as_deref()
    }

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a station.
    pub fn node(&self, i: u32) -> &Node {
        &self.nodes[i as usize]
    }

    /// Mutable node access (service setup, direct inspection in tests).
    /// Invalidates the pump's activity index — the caller may change the
    /// node's schedule arbitrarily — so the next pump rebuilds it.
    pub fn node_mut(&mut self, i: u32) -> &mut Node {
        self.index_dirty = true;
        &mut self.nodes[i as usize]
    }

    /// Immutable RPC endpoint access.
    pub fn endpoint(&self, i: u32) -> &RpcEndpoint {
        &self.endpoints[i as usize]
    }

    /// Mutable RPC endpoint access (handler registration). Invalidates
    /// the pump's activity index, like [`World::node_mut`].
    pub fn endpoint_mut(&mut self, i: u32) -> &mut RpcEndpoint {
        self.index_dirty = true;
        &mut self.endpoints[i as usize]
    }

    /// The agent on node `i`, if one is linked in.
    pub fn agent(&self, i: u32) -> Option<&Agent> {
        self.agents.get(i as usize).and_then(Option::as_ref)
    }

    /// Mutable network access. This is an *unrecorded* escape hatch:
    /// mutations made through it are invisible to the replay journal.
    /// Scenario drivers should prefer [`World::inject_drop`] and
    /// [`World::set_node_up`], which record themselves.
    pub fn net_mut(&mut self) -> &mut Network<Wire> {
        &mut self.net
    }

    /// Forces the next `count` packets from `src` to `dst` to be lost
    /// in flight — the recorded form of fault injection.
    pub fn inject_drop(&mut self, src: u32, dst: u32, count: u32) {
        self.drive(Stimulus::DropNext { src, dst, count }, |w| {
            w.net.drop_next(NodeId(src), NodeId(dst), count);
        });
    }

    /// Marks a station's network interface up or down (a down interface
    /// NACKs on the ring, drops silently on Ethernet) — recorded.
    pub fn set_node_up(&mut self, node: u32, up: bool) {
        self.drive(Stimulus::SetNodeUp { node, up }, |w| {
            w.net.set_up(NodeId(node), up);
        });
    }

    /// Forces the bridge link between segments `a` and `b` down or back
    /// up — the recorded form of a network partition. Scheduled
    /// [`pilgrim_ring::PartitionWindow`]s in the network config still
    /// apply on top of the forced state.
    pub fn set_link_up(&mut self, a: u32, b: u32, up: bool) {
        self.drive(Stimulus::SetLinkUp { a, b, up }, |w| {
            w.net.set_link_up(a, b, up);
        });
    }

    /// Records a Rust-side setup step in the recipe so replay can
    /// re-perform it. Service installers (nameserver, aotman) call this
    /// with enough parameters to rebuild their native handlers; see
    /// [`crate::replay::replay_with_setup`].
    pub fn note_setup(&mut self, kind: &str, params: Json) {
        self.recipe.setup.push((kind.to_string(), params));
    }

    /// The debugger proper, when attached.
    pub fn debugger(&self) -> Option<&Debugger> {
        self.debugger.as_ref()
    }

    /// Mutable debugger access.
    pub fn debugger_mut(&mut self) -> Option<&mut Debugger> {
        self.debugger.as_mut()
    }

    /// Spawns a process running `entry` on node `i`.
    ///
    /// # Panics
    ///
    /// Panics if there is no such node or the node has no such procedure
    /// (program bugs in examples should fail loudly).
    pub fn spawn(&mut self, i: u32, entry: &str, args: Vec<Value>) -> Pid {
        self.try_spawn(i, entry, args)
            .expect("node and entry procedure exist")
    }

    /// Spawns a process running `entry` on node `i`, surfacing a missing
    /// node or procedure as an error (the REPL's spawn path). Only spawns
    /// that happen are recorded, so a mistyped one cannot poison replay.
    ///
    /// # Errors
    ///
    /// A description of the missing node or procedure.
    pub fn try_spawn(&mut self, i: u32, entry: &str, args: Vec<Value>) -> Result<Pid, String> {
        let node = self
            .nodes
            .get(i as usize)
            .ok_or_else(|| format!("no node {i} in a world of {} stations", self.nodes.len()))?;
        let proc = node
            .program()
            .proc_by_name(entry)
            .ok_or_else(|| UnknownProc(entry.to_string()).to_string())?;
        let stimulus = Stimulus::Spawn {
            node: i,
            entry: entry.to_string(),
            args: args.clone(),
        };
        Ok(self.drive(stimulus, |w| {
            let pid = w.nodes[i as usize].spawn_proc(proc, args, SpawnOpts::default());
            // The spawn made the node runnable (and left a `ProcCreated`
            // outcall pending) — tell the activity index without forcing a
            // full rebuild, so mass spawns stay O(1) each.
            w.refresh_station(i as usize);
            pid
        }))
    }

    /// Console lines printed on node `i`.
    pub fn console(&self, i: u32) -> Vec<String> {
        self.nodes[i as usize]
            .console()
            .iter()
            .map(|(_, s)| s.clone())
            .collect()
    }

    /// Advances the world to `limit`.
    pub fn run_until(&mut self, limit: SimTime) {
        let stimulus = Stimulus::RunUntil {
            until_us: limit.as_micros(),
        };
        self.drive(stimulus, |w| {
            while w.now < limit {
                w.pump_step(limit);
                if w.take_watch_halt() {
                    break;
                }
            }
        });
    }

    /// Advances the world by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        let stimulus = Stimulus::RunFor {
            dur_us: d.as_micros(),
        };
        self.drive(stimulus, |w| w.run_until(w.now + d));
    }

    /// Runs until nothing is runnable, no packet is in flight and no
    /// protocol timer is pending — or until `limit`.
    pub fn run_until_idle(&mut self, limit: SimTime) {
        let stimulus = Stimulus::RunUntilIdle {
            limit_us: limit.as_micros(),
        };
        self.drive(stimulus, |w| {
            while w.now < limit {
                w.pump_step(limit);
                if w.take_watch_halt() {
                    break;
                }
                // The activity index already knows whether anything is
                // pending — O(1) instead of the full node + endpoint
                // rescan the reference pump needs.
                let idle = if w.reference_pump {
                    w.nodes.iter_mut().all(|n| n.next_activity().is_none())
                        && w.net.next_delivery_at().is_none()
                        && w.endpoints.iter_mut().all(|e| e.next_timer().is_none())
                } else {
                    w.active_nodes == 0 && w.net.next_delivery_at().is_none() && w.active_eps == 0
                };
                if idle {
                    break;
                }
            }
        });
    }

    /// The one funnel every journalled driver entry goes through. Only
    /// the outermost call records its stimulus — a composite such as
    /// [`World::break_at_line`] calls [`World::debug_request`] directly
    /// without double-journalling — and, if its body pumped, settles the
    /// skipped nodes' clocks once on the way out. [`World::apply`]
    /// dispatches to the same public methods, so the live API and replay
    /// share this path by construction.
    fn drive<R>(&mut self, stimulus: Stimulus, body: impl FnOnce(&mut World) -> R) -> R {
        if self.driving {
            return body(self);
        }
        self.driving = true;
        self.journal.push(stimulus);
        let before = self.sync_points;
        let r = body(self);
        if self.sync_points != before {
            self.settle_clocks();
        }
        self.driving = false;
        r
    }

    /// One pump iteration: pick the next event time, advance every node
    /// with pending work to it, deliver packets, fire protocol timers.
    fn pump_step(&mut self, limit: SimTime) {
        if self.reference_pump {
            self.pump_step_reference(limit);
        } else {
            self.pump_step_skip(limit);
        }
    }

    /// Routes every pump iteration through the full-scan reference loop —
    /// the oracle `tests/pump_gate.rs` compares the production pump
    /// against. Deliberately not journalled: both pumps must produce
    /// byte-identical artifacts, so the choice is not part of the world's
    /// identity. Test hook.
    #[doc(hidden)]
    pub fn set_reference_pump(&mut self, on: bool) {
        self.settle_clocks();
        self.reference_pump = on;
        self.index_dirty = true;
    }

    /// The pre-index pump: scan every station for its next event time,
    /// advance every node, fire every endpoint's timers. O(total
    /// stations) per window — kept as the semantic reference the
    /// quiescence-aware pump is gated against, reachable only through
    /// [`World::set_reference_pump`].
    fn pump_step_reference(&mut self, limit: SimTime) {
        let mut next = self.now + self.window;
        for n in &mut self.nodes {
            if let Some(t) = n.next_activity() {
                if t > self.now {
                    next = next.min(t);
                }
            }
        }
        if let Some(t) = self.net.next_delivery_at() {
            if t > self.now {
                next = next.min(t);
            }
        }
        for e in &mut self.endpoints {
            if let Some(t) = e.next_timer() {
                if t > self.now {
                    next = next.min(t);
                }
            }
        }
        let next = next.min(limit);

        let all: Vec<usize> = (0..self.nodes.len()).collect();
        self.step_nodes(&all, next);

        let (deliveries, _) = self.net.poll(next);
        for d in deliveries {
            self.route_delivery(d.at, d.src, d.dst, d.payload);
        }

        for i in 0..self.endpoints.len() {
            self.endpoints[i].on_timers(next, &mut self.nodes[i], &mut AsRpcNet(&mut self.net));
        }

        self.now = next;
        self.sync_points += 1;
        self.sample_tsdb();
        if !self.watches.is_empty() {
            self.check_watches();
        }
    }

    /// The quiescence-aware pump: O(active stations) per window.
    ///
    /// The activity index answers both questions the reference pump
    /// scanned for — "when is the next event?" (heap minimum) and "who
    /// has work ≤ `next`?" (heap pops). Only those stations are stepped,
    /// in ascending index order, so the event sequence — and therefore
    /// every trace byte — matches the reference pump, which also visits
    /// stations in ascending order and emits nothing for quiescent ones
    /// (an idle `advance_to` produces no events, a timer-less
    /// `on_timers` fires nothing). Skipped nodes keep stale clocks;
    /// they are caught up before anything observes them (delivery
    /// routing, timer dispatch, or [`World::settle_clocks`] on the way
    /// out of [`World::drive`]).
    fn pump_step_skip(&mut self, limit: SimTime) {
        if self.index_dirty {
            self.rebuild_index();
        }
        let now = self.now;
        let mut next = now + self.window;
        let mut to_step: Vec<usize> = Vec::new();
        // Live heap minimum strictly after `now` bounds the window;
        // entries at or before `now` are backlog and step regardless.
        while let Some(&Reverse((t, i))) = self.node_heap.peek() {
            if self.node_next[i] != Some(t) {
                self.node_heap.pop();
                continue;
            }
            if t > now {
                next = next.min(t);
                break;
            }
            self.node_heap.pop();
            to_step.push(i);
        }
        if let Some(t) = self.net.next_delivery_at() {
            if t > now {
                next = next.min(t);
            }
        }
        while let Some(&Reverse((t, i))) = self.ep_heap.peek() {
            if self.ep_next[i] != Some(t) {
                self.ep_heap.pop();
                continue;
            }
            if t > now {
                next = next.min(t);
            }
            break;
        }
        let next = next.min(limit);

        // Everything due inside the window joins the step / fire sets.
        while let Some(&Reverse((t, i))) = self.node_heap.peek() {
            if self.node_next[i] != Some(t) {
                self.node_heap.pop();
                continue;
            }
            if t > next {
                break;
            }
            self.node_heap.pop();
            to_step.push(i);
        }
        let mut due_eps: Vec<usize> = Vec::new();
        while let Some(&Reverse((t, i))) = self.ep_heap.peek() {
            if self.ep_next[i] != Some(t) {
                self.ep_heap.pop();
                continue;
            }
            if t > next {
                break;
            }
            self.ep_heap.pop();
            due_eps.push(i);
        }
        let pending = std::mem::take(&mut self.outcall_pending);
        for &i in &pending {
            self.outcall_flag[i] = false;
        }
        to_step.extend(pending);
        to_step.sort_unstable();
        to_step.dedup();
        due_eps.sort_unstable();
        due_eps.dedup();

        self.step_nodes(&to_step, next);
        let mut touched = to_step;

        let (deliveries, _) = self.net.poll(next);
        for d in deliveries {
            let i = d.dst.0 as usize;
            // The reference pump advanced every node before routing; a
            // skipped destination must observe the same clock.
            self.nodes[i].catch_up_clock(next);
            touched.push(i);
            self.route_delivery(d.at, d.src, d.dst, d.payload);
        }

        for &i in &due_eps {
            self.nodes[i].catch_up_clock(next);
            self.endpoints[i].on_timers(next, &mut self.nodes[i], &mut AsRpcNet(&mut self.net));
        }
        touched.extend_from_slice(&due_eps);

        touched.sort_unstable();
        touched.dedup();
        for i in touched {
            self.refresh_station(i);
        }

        self.now = next;
        self.sync_points += 1;
        self.sample_tsdb();
        if !self.watches.is_empty() {
            self.check_watches();
        }
    }

    /// Samples the metrics registry into the time-series stores. Runs at
    /// the tail of both pumps — after the clock advance, before the watch
    /// check — so serial, parallel, and replayed runs sample at identical
    /// sync points and render byte-identical `tsdb` output.
    fn sample_tsdb(&mut self) {
        let now = self.now;
        if let Some(store) = &mut self.tsdb {
            store.on_sync(now, &self.metrics);
        }
        self.coarse.on_sync(now, &self.metrics);
    }

    /// Rebuilds the activity index from scratch: first pump after build,
    /// and after any unindexed mutation flagged `index_dirty`.
    fn rebuild_index(&mut self) {
        let n = self.nodes.len();
        self.node_next = vec![None; n];
        self.ep_next = vec![None; n];
        self.node_heap.clear();
        self.ep_heap.clear();
        self.active_nodes = 0;
        self.active_eps = 0;
        self.outcall_flag = vec![false; n];
        self.outcall_pending.clear();
        self.index_dirty = false;
        for i in 0..n {
            self.refresh_station(i);
        }
    }

    /// Re-derives station `i`'s index entries after its node or endpoint
    /// state may have changed. Caches are exact — `next_activity` and
    /// `next_timer` shed their own stale entries — so a skipped station's
    /// cached time is always its true next event time.
    fn refresh_station(&mut self, i: usize) {
        if self.index_dirty {
            return; // the next pump rebuilds everything anyway
        }
        let node = self.nodes[i].next_activity();
        if self.node_next[i].is_some() {
            self.active_nodes -= 1;
        }
        self.node_next[i] = node;
        if let Some(t) = node {
            self.active_nodes += 1;
            self.node_heap.push(Reverse((t, i)));
        }
        let ep = self.endpoints[i].next_timer();
        if self.ep_next[i].is_some() {
            self.active_eps -= 1;
        }
        self.ep_next[i] = ep;
        if let Some(t) = ep {
            self.active_eps += 1;
            self.ep_heap.push(Reverse((t, i)));
        }
        if self.nodes[i].has_pending_outcalls() && !self.outcall_flag[i] {
            self.outcall_flag[i] = true;
            self.outcall_pending.push(i);
        }
    }

    /// Brings every skipped-quiescent node's clock up to the world clock.
    /// [`World::drive`] runs it after every driver call that pumped, so
    /// external observers — semantics digests read `Node::clock`, reports
    /// read scheduler state — see exactly what the full-scan pump would
    /// have produced.
    fn settle_clocks(&mut self) {
        if self.reference_pump {
            return; // the reference pump never lets a clock lag
        }
        let now = self.now;
        for n in &mut self.nodes {
            n.catch_up_clock(now);
        }
    }

    /// Asserts every cached activity/timer entry matches a fresh query
    /// and every live entry is represented in its heap — the invariants
    /// the quiescence-aware pump rests on. Test hook; O(stations).
    #[doc(hidden)]
    pub fn debug_validate_index(&mut self) {
        if self.reference_pump || self.index_dirty {
            return;
        }
        let mut active_nodes = 0;
        let mut active_eps = 0;
        for i in 0..self.nodes.len() {
            let node = self.nodes[i].next_activity();
            assert_eq!(
                self.node_next[i], node,
                "node {i}: cached activity out of sync"
            );
            if let Some(t) = node {
                active_nodes += 1;
                assert!(
                    self.node_heap.iter().any(|&Reverse(e)| e == (t, i)),
                    "node {i}: live activity missing from heap"
                );
            }
            let ep = self.endpoints[i].next_timer();
            assert_eq!(
                self.ep_next[i], ep,
                "endpoint {i}: cached timer out of sync"
            );
            if let Some(t) = ep {
                active_eps += 1;
                assert!(
                    self.ep_heap.iter().any(|&Reverse(e)| e == (t, i)),
                    "endpoint {i}: live timer missing from heap"
                );
            }
            if self.nodes[i].has_pending_outcalls() {
                assert!(
                    self.outcall_flag[i],
                    "node {i}: pending outcalls not flagged"
                );
            }
        }
        assert_eq!(self.active_nodes, active_nodes, "active node count drifted");
        assert_eq!(self.active_eps, active_eps, "active endpoint count drifted");
    }

    /// Steps the stations in `to_step` (ascending) to the window end and
    /// routes their outcalls — serially, or on the worker pool when there
    /// is one and more than one station has work.
    fn step_nodes(&mut self, to_step: &[usize], next: SimTime) {
        if self.pool.is_some() && to_step.len() > 1 {
            self.step_nodes_parallel_subset(to_step, next);
            return;
        }
        for &i in to_step {
            let outcalls = self.nodes[i].advance_to(next);
            for oc in outcalls {
                self.route_outcall(i, oc);
            }
        }
    }

    /// The parallel twin of the serial loop in [`World::step_nodes`]:
    /// the nodes in `to_step` step to the window end on the worker pool
    /// with trace output diverted into per-node buffers, then the main
    /// thread merges buffers and routes outcalls in canonical node order.
    /// Nodes cannot observe each other while stepping — every cross-node
    /// interaction is mediated by the world at the sync barrier (network
    /// poll, timer dispatch, outcall routing) — so the serialized merge
    /// reproduces the serial loop's event sequence exactly: [node i's
    /// step events][node i's routing effects] for i in node order.
    ///
    /// Only the active subset travels to the pool. Extracted nodes leave
    /// a hollow placeholder behind (sharing the world's interned empty
    /// program, so the swap allocates no program) and return to their
    /// slots before any routing, preserving the canonical ascending merge
    /// order.
    fn step_nodes_parallel_subset(&mut self, to_step: &[usize], next: SimTime) {
        for &i in to_step {
            self.nodes[i].begin_trace_buffer();
        }
        let batch: Vec<Node> = to_step
            .iter()
            .map(|&i| {
                let hollow = Node::new(
                    self.nodes[i].id(),
                    self.empty_program.clone(),
                    NodeConfig::default(),
                    Tracer::new(),
                );
                std::mem::replace(&mut self.nodes[i], hollow)
            })
            .collect();
        let pool = self.pool.as_ref().expect("parallel stepping needs a pool");
        let (batch, mut outcalls) = pool.step(batch, next);
        for (k, node) in batch.into_iter().enumerate() {
            self.nodes[to_step[k]] = node;
        }
        for (k, ocs) in outcalls.iter_mut().enumerate() {
            let i = to_step[k];
            for ev in self.nodes[i].take_trace_buffer() {
                self.tracer.push_event(ev);
            }
            for oc in ocs.drain(..) {
                self.route_outcall(i, oc);
            }
        }
    }

    /// Number of threads stepping nodes between sync points (1 = serial).
    pub fn step_threads(&self) -> usize {
        self.pool.as_ref().map_or(1, StepPool::threads)
    }

    /// Reconfigures parallel stepping at run time: `threads <= 1` returns
    /// to the serial loop, larger values (re)build the worker pool. Like
    /// [`WorldBuilder::step_threads`] this is not recorded in the journal
    /// — replaying a parallel run serially (or the reverse) must produce
    /// identical artifacts.
    pub fn set_step_threads(&mut self, threads: usize) {
        if threads <= 1 {
            self.pool = None;
        } else if self.step_threads() != threads {
            self.pool = Some(StepPool::new(threads));
        }
    }

    /// Evaluates every armed, untripped watchpoint against the metrics at
    /// the sync point just completed. The first trip wins deterministically
    /// (arm order); tripped watches never re-fire.
    fn check_watches(&mut self) {
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
    fn take_watch_halt(&mut self) -> bool {
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

    fn route_outcall(&mut self, i: usize, oc: Outcall) {
        match &oc {
            Outcall::Rpc {
                pid,
                token,
                req,
                at,
            } => {
                self.endpoints[i].start_call(
                    *at,
                    &mut self.nodes[i],
                    *pid,
                    *token,
                    req,
                    &mut AsRpcNet(&mut self.net),
                );
            }
            Outcall::ProcExited { pid, at } => {
                self.endpoints[i].on_proc_exited(
                    *at,
                    &mut self.nodes[i],
                    *pid,
                    &mut AsRpcNet(&mut self.net),
                );
                if let Some(agent) = self.agents[i].as_mut() {
                    agent.on_outcall(&mut self.nodes[i], &self.endpoints[i], &oc, &mut self.net);
                }
            }
            Outcall::Fault { pid, fault, at } => {
                let was_server = self.endpoints[i].on_proc_faulted(
                    *at,
                    &mut self.nodes[i],
                    *pid,
                    fault,
                    &mut AsRpcNet(&mut self.net),
                );
                if !was_server {
                    if let Some(agent) = self.agents[i].as_mut() {
                        agent.on_outcall(
                            &mut self.nodes[i],
                            &self.endpoints[i],
                            &oc,
                            &mut self.net,
                        );
                    }
                }
            }
            Outcall::Trap { .. } | Outcall::TraceStop { .. } | Outcall::ProcCreated { .. } => {
                if let Some(agent) = self.agents[i].as_mut() {
                    agent.on_outcall(&mut self.nodes[i], &self.endpoints[i], &oc, &mut self.net);
                }
            }
            Outcall::Print { .. } => {}
        }
    }

    fn route_delivery(&mut self, at: SimTime, src: NodeId, dst: NodeId, payload: Wire) {
        let i = dst.0 as usize;
        match payload {
            Wire::Rpc(pkt) => {
                self.endpoints[i].on_packet(
                    at,
                    &mut self.nodes[i],
                    src,
                    pkt,
                    &mut AsRpcNet(&mut self.net),
                );
            }
            Wire::Debug(msg) => {
                if Some(dst) == self.debugger_station() {
                    if let Some(d) = self.debugger.as_mut() {
                        d.on_msg(at, src, msg);
                    }
                } else if let Some(agent) = self.agents[i].as_mut() {
                    agent.on_msg(
                        at,
                        &mut self.nodes[i],
                        &self.endpoints[i],
                        src,
                        msg,
                        &mut self.net,
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Debugger front end: the user at the terminal
    // ------------------------------------------------------------------

    /// Connects the debugger to `nodes`, which become the session cohort.
    ///
    /// # Errors
    ///
    /// [`DebugError::Refused`] when some agent already belongs to another
    /// session and `force` is false.
    pub fn debug_connect(&mut self, nodes: &[u32], force: bool) -> Result<SessionId, DebugError> {
        let stimulus = Stimulus::Connect {
            nodes: nodes.to_vec(),
            force,
        };
        self.drive(stimulus, |w| {
            let dbg = w.debugger.as_mut().ok_or(DebugError::NoDebugger)?;
            let session = dbg.fresh_session();
            let cohort: Vec<NodeId> = nodes.iter().map(|n| NodeId(*n)).collect();
            dbg.begin_connect(session, cohort.clone());
            let station = dbg.station();
            for dst in &cohort {
                let msg = DebugMsg::Connect {
                    session,
                    force,
                    debugger: station,
                    cohort: cohort.clone(),
                };
                w.net.send_debug(w.now, station, *dst, msg);
            }
            let deadline = w.now + SimDuration::from_secs(5);
            while w.now < deadline {
                w.pump_step(deadline);
                let d = w.debugger.as_ref().expect("debugger exists");
                if d.connect_refusals() > 0 {
                    w.debugger.as_mut().expect("debugger exists").abandon();
                    return Err(DebugError::Refused);
                }
                if d.connect_acks() == nodes.len() {
                    return Ok(session);
                }
            }
            Err(DebugError::Timeout)
        })
    }

    /// Ends the session: agents clear breakpoints, resume halted
    /// processes, and reset their logical clocks to real time (§5.2 warns
    /// the effects of continuing "may be unpredictable").
    pub fn debug_disconnect(&mut self) -> Result<(), DebugError> {
        self.drive(Stimulus::Disconnect, |w| {
            let dbg = w.debugger.as_mut().ok_or(DebugError::NoDebugger)?;
            let Some(session) = dbg.session() else {
                return Ok(());
            };
            let cohort = dbg.cohort().to_vec();
            let station = dbg.station();
            dbg.abandon();
            for dst in cohort {
                w.net
                    .send_debug(w.now, station, dst, DebugMsg::Disconnect { session });
            }
            w.run_for(SimDuration::from_millis(20));
            Ok(())
        })
    }

    /// Drops the session client-side without telling the agents —
    /// simulates a crashed debugger. Only a forcible reconnect gets the
    /// agents back (§3).
    pub fn debug_abandon(&mut self) {
        self.drive(Stimulus::Abandon, |w| {
            if let Some(d) = w.debugger.as_mut() {
                d.abandon();
            }
        });
    }

    /// Sends one logical request to the agent on `node` and pumps the
    /// simulation until its reply returns.
    ///
    /// # Errors
    ///
    /// [`DebugError::Agent`] carries agent-side failures;
    /// [`DebugError::Timeout`] fires after 30 simulated seconds.
    pub fn debug_request(
        &mut self,
        node: u32,
        req: AgentRequest,
    ) -> Result<AgentReply, DebugError> {
        let stimulus = Stimulus::Request {
            node,
            req: req.clone(),
        };
        self.drive(stimulus, |w| {
            let dbg = w.debugger.as_mut().ok_or(DebugError::NoDebugger)?;
            let session = dbg.session().ok_or(DebugError::NotConnected)?;
            let seq = dbg.next_seq();
            let station = dbg.station();
            w.net.send_debug(
                w.now,
                station,
                NodeId(node),
                DebugMsg::Request { session, seq, req },
            );
            let deadline = w.now + SimDuration::from_secs(30);
            while w.now < deadline {
                w.pump_step(deadline);
                if let Some(reply) = w
                    .debugger
                    .as_mut()
                    .expect("debugger exists")
                    .take_reply(seq)
                {
                    return match reply {
                        AgentReply::Error(e) => Err(DebugError::Agent(e)),
                        ok => Ok(ok),
                    };
                }
            }
            Err(DebugError::Timeout)
        })
    }

    /// Drains pending debugger events (breakpoint hits, faults).
    pub fn debug_events(&mut self) -> Vec<DebugEvent> {
        self.drive(Stimulus::DrainEvents, |w| {
            w.debugger
                .as_mut()
                .map(Debugger::take_events)
                .unwrap_or_default()
        })
    }

    /// Pumps the simulation until a debugger event arrives (or `timeout`).
    pub fn wait_for_stop(&mut self, timeout: SimDuration) -> Result<DebugEvent, DebugError> {
        let stimulus = Stimulus::WaitForStop {
            timeout_us: timeout.as_micros(),
        };
        self.drive(stimulus, |w| {
            let deadline = w.now + timeout;
            loop {
                if let Some(ev) = w
                    .debugger
                    .as_mut()
                    .ok_or(DebugError::NoDebugger)?
                    .take_events()
                    .into_iter()
                    .next()
                {
                    return Ok(ev);
                }
                if w.now >= deadline {
                    return Err(DebugError::Timeout);
                }
                w.pump_step(deadline);
            }
        })
    }

    /// Plants a breakpoint at the first executable address of `line` on
    /// `node`.
    pub fn break_at_line(&mut self, node: u32, line: u32) -> Result<u16, DebugError> {
        self.drive(Stimulus::BreakAtLine { node, line }, |w| {
            let addr = w
                .debugger
                .as_ref()
                .ok_or(DebugError::NoDebugger)?
                .addr_for_line(NodeId(node), line)
                .ok_or_else(|| DebugError::Source(format!("no code at line {line}")))?;
            w.set_breakpoint_addr(node, addr, Some(line))
        })
    }

    /// Plants a breakpoint at the entry of procedure `name` on `node`.
    pub fn break_at_proc(&mut self, node: u32, name: &str) -> Result<u16, DebugError> {
        let stimulus = Stimulus::BreakAtProc {
            node,
            name: name.to_string(),
        };
        self.drive(stimulus, |w| {
            let addr = w
                .debugger
                .as_ref()
                .ok_or(DebugError::NoDebugger)?
                .addr_for_proc(NodeId(node), name)
                .ok_or_else(|| DebugError::Source(format!("no procedure `{name}`")))?;
            w.set_breakpoint_addr(node, addr, None)
        })
    }

    /// The shared tail of the `break_at_*` composites; always runs inside
    /// their funnel entry, so its request is not journalled separately.
    fn set_breakpoint_addr(
        &mut self,
        node: u32,
        addr: pilgrim_cclu::CodeAddr,
        line: Option<u32>,
    ) -> Result<u16, DebugError> {
        let reply = self.debug_request(
            node,
            AgentRequest::SetBreakpoint {
                proc_id: addr.proc.0,
                pc: addr.pc,
            },
        )?;
        match reply {
            AgentReply::BreakpointSet { bp } => {
                if let Some(d) = self.debugger.as_mut() {
                    d.record_breakpoint(BreakpointInfo {
                        node: NodeId(node),
                        bp,
                        addr,
                        line,
                    });
                }
                Ok(bp)
            }
            other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Clears a breakpoint by agent slot.
    pub fn clear_breakpoint(&mut self, node: u32, bp: u16) -> Result<(), DebugError> {
        self.drive(Stimulus::ClearBreakpoint { node, bp }, |w| {
            w.debug_request(node, AgentRequest::ClearBreakpoint { bp })?;
            if let Some(d) = w.debugger.as_mut() {
                d.forget_breakpoint(NodeId(node), bp);
            }
            Ok(())
        })
    }

    /// Halts the whole cohort by asking `origin`'s agent to halt and
    /// broadcast (§5.2).
    pub fn debug_halt_all(&mut self, origin: u32) -> Result<usize, DebugError> {
        self.drive(Stimulus::HaltAll { origin }, |w| {
            let begin = w.now;
            let reply = w.debug_request(origin, AgentRequest::HaltAll)?;
            if let Some(d) = w.debugger.as_mut() {
                d.log().borrow_mut().begin_halt(begin);
            }
            match reply {
                AgentReply::Halted(n) => Ok(n),
                other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
            }
        })
    }

    /// Resumes every cohort node. Each agent folds its own measured halt
    /// duration into its node's logical-clock delta; the debugger closes
    /// its breakpoint-log entry with the longest reported duration.
    pub fn debug_resume_all(&mut self) -> Result<(), DebugError> {
        self.drive(Stimulus::ResumeAll, |w| {
            let cohort: Vec<u32> = w
                .debugger
                .as_ref()
                .ok_or(DebugError::NoDebugger)?
                .cohort()
                .iter()
                .map(|n| n.0)
                .collect();
            // Send every resume request back-to-back (they serialize on the
            // ring at ~3.5 ms apart, mirroring the halt broadcast) and only
            // then collect the replies — otherwise each node's halt would be
            // lengthened by the previous node's reply round trip and the
            // logical clocks would drift apart.
            let station = w.debugger.as_ref().expect("debugger exists").station();
            let session = w
                .debugger
                .as_ref()
                .and_then(Debugger::session)
                .ok_or(DebugError::NotConnected)?;
            let mut seqs = Vec::new();
            for n in &cohort {
                let seq = w.debugger.as_mut().expect("debugger exists").next_seq();
                w.net.send_debug(
                    w.now,
                    station,
                    NodeId(*n),
                    DebugMsg::Request {
                        session,
                        seq,
                        req: AgentRequest::ResumeAll,
                    },
                );
                seqs.push(seq);
            }
            let deadline = w.now + SimDuration::from_secs(30);
            let mut max_halt = SimDuration::ZERO;
            while !seqs.is_empty() {
                if w.now >= deadline {
                    return Err(DebugError::Timeout);
                }
                w.pump_step(deadline);
                seqs.retain(|seq| {
                    match w
                        .debugger
                        .as_mut()
                        .expect("debugger exists")
                        .take_reply(*seq)
                    {
                        Some(AgentReply::Resumed { halted_for_us }) => {
                            max_halt = max_halt.max(SimDuration::from_micros(halted_for_us));
                            false
                        }
                        Some(_) => false,
                        None => true,
                    }
                });
            }
            if let Some(d) = w.debugger.as_mut() {
                let log = d.log();
                let mut log = log.borrow_mut();
                if log.is_halted() {
                    // Close the open interruption with the agents' measured
                    // duration.
                    log.end_halt_after(max_halt);
                }
            }
            Ok(())
        })
    }

    /// Lists processes on a node.
    pub fn debug_processes(&mut self, node: u32) -> Result<Vec<ProcView>, DebugError> {
        match self.debug_request(node, AgentRequest::ListProcesses)? {
            AgentReply::Processes(ps) => Ok(ps),
            other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// A single-process source-level backtrace.
    pub fn backtrace(&mut self, node: u32, pid: u64) -> Result<Vec<BacktraceFrame>, DebugError> {
        let frames = self.read_stack(node, pid)?;
        Ok(self.map_frames(node, pid, &frames))
    }

    fn read_stack(&mut self, node: u32, pid: u64) -> Result<Vec<FrameSummary>, DebugError> {
        match self.debug_request(node, AgentRequest::ReadStack { pid })? {
            AgentReply::Stack(frames) => Ok(frames),
            other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    fn map_frames(&self, node: u32, pid: u64, frames: &[FrameSummary]) -> Vec<BacktraceFrame> {
        let dbg = self.debugger.as_ref();
        frames
            .iter()
            .map(|f| {
                let (proc_name, line) = match dbg {
                    Some(d) => d.source_position(NodeId(node), f.proc_id, f.pc),
                    None => (format!("proc#{}", f.proc_id), None),
                };
                BacktraceFrame {
                    node,
                    pid,
                    index: f.index,
                    proc_name,
                    line,
                    kind: f.kind.clone(),
                    well_formed: f.well_formed,
                    rpc: f.rpc.clone(),
                }
            })
            .collect()
    }

    /// A stack backtrace that crosses node boundaries (§4.1, Figure 1):
    /// starting from `(node, pid)`, walks *up* through server-root
    /// information blocks to the outermost client, then *down* through
    /// client stubs and the server tables, producing the whole distributed
    /// call chain, outermost caller first.
    pub fn distributed_backtrace(
        &mut self,
        node: u32,
        pid: u64,
    ) -> Result<Vec<BacktraceFrame>, DebugError> {
        // Climb to the outermost caller.
        let (mut cur_node, mut cur_pid) = (node, pid);
        for _ in 0..16 {
            let frames = self.read_stack(cur_node, cur_pid)?;
            let Some(root) = frames.first() else { break };
            if root.kind != "server-root" {
                break;
            }
            let Some(rpc) = &root.rpc else { break };
            let Some(peer) = rpc.peer else { break };
            let call_id = rpc.call_id;
            match self.debug_request(peer.0, AgentRequest::ClientProcess { call_id })? {
                AgentReply::ClientOf(Some(client_pid)) => {
                    cur_node = peer.0;
                    cur_pid = client_pid;
                }
                _ => break,
            }
        }
        // Walk down, collecting frames.
        let mut out = Vec::new();
        for _ in 0..16 {
            let frames = self.read_stack(cur_node, cur_pid)?;
            let mapped = self.map_frames(cur_node, cur_pid, &frames);
            let hop = frames.last().and_then(|top| {
                if top.kind == "rpc-stub" {
                    top.rpc
                        .as_ref()
                        .and_then(|r| r.peer.map(|p| (p, r.call_id)))
                } else {
                    None
                }
            });
            out.extend(mapped);
            let Some((dst, call_id)) = hop else { break };
            match self.debug_request(dst.0, AgentRequest::ServingProcess { call_id })? {
                AgentReply::Serving(Some(server_pid)) => {
                    cur_node = dst.0;
                    cur_pid = server_pid;
                }
                _ => break,
            }
        }
        Ok(out)
    }

    /// Renders the value of variable `name` in the newest well-formed
    /// frame of `(node, pid)` where it is in scope, using the program's
    /// print operations (§3, §5.4).
    pub fn inspect(&mut self, node: u32, pid: u64, name: &str) -> Result<String, DebugError> {
        if let Some((frame, slot, _ty)) = self.find_variable(node, pid, name)? {
            match self.debug_request(node, AgentRequest::PrintVar { pid, frame, slot })? {
                AgentReply::Printed(s) => return Ok(s),
                other => return Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
            }
        }
        // Fall back to node-globals.
        let global = self
            .debugger
            .as_ref()
            .ok_or(DebugError::NoDebugger)?
            .resolve_global(NodeId(node), name);
        if let Some((slot, _ty)) = global {
            match self.debug_request(node, AgentRequest::ReadGlobal { slot })? {
                AgentReply::Value(w) => return Ok(render_wire(&w)),
                other => return Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
            }
        }
        Err(DebugError::Source(format!("no variable `{name}` in scope")))
    }

    /// Sets variable `name` in `(node, pid)` after type-checking the value
    /// in the debugger proper (§3: type checking happens debugger-side).
    pub fn set_variable(
        &mut self,
        node: u32,
        pid: u64,
        name: &str,
        value: WireValue,
    ) -> Result<(), DebugError> {
        if let Some((frame, slot, ty)) = self.find_variable(node, pid, name)? {
            let dbg = self.debugger.as_ref().ok_or(DebugError::NoDebugger)?;
            let program = dbg
                .program(NodeId(node))
                .ok_or_else(|| DebugError::Source("no program loaded".into()))?;
            Debugger::check_assignment(&ty, &value, program).map_err(DebugError::Source)?;
            self.debug_request(
                node,
                AgentRequest::WriteVar {
                    pid,
                    frame,
                    slot,
                    value,
                },
            )?;
            return Ok(());
        }
        let dbg = self.debugger.as_ref().ok_or(DebugError::NoDebugger)?;
        if let Some((slot, ty)) = dbg.resolve_global(NodeId(node), name) {
            let program = dbg
                .program(NodeId(node))
                .ok_or_else(|| DebugError::Source("no program loaded".into()))?;
            Debugger::check_assignment(&ty, &value, program).map_err(DebugError::Source)?;
            self.debug_request(node, AgentRequest::WriteGlobal { slot, value })?;
            return Ok(());
        }
        Err(DebugError::Source(format!("no variable `{name}` in scope")))
    }

    /// Locates `name` in the newest well-formed non-stub frame of the
    /// process: `(frame index, slot, type)`.
    fn find_variable(
        &mut self,
        node: u32,
        pid: u64,
        name: &str,
    ) -> Result<Option<(u32, u16, pilgrim_cclu::Type)>, DebugError> {
        let frames = self.read_stack(node, pid)?;
        let dbg = self.debugger.as_ref().ok_or(DebugError::NoDebugger)?;
        for f in frames.iter().rev() {
            if !f.well_formed || f.kind != "normal" && f.kind != "server-root" {
                continue;
            }
            if let Some((slot, ty)) = dbg.resolve_variable(NodeId(node), f.proc_id, f.pc, name) {
                return Ok(Some((f.index, slot, ty)));
            }
        }
        Ok(None)
    }

    /// Steps a trapped process over its breakpoint (§5.5).
    pub fn step_over(&mut self, node: u32, pid: u64) -> Result<(), DebugError> {
        self.debug_request(node, AgentRequest::StepOver { pid })?;
        Ok(())
    }

    /// Continues a stopped process. A process stopped at a breakpoint is
    /// first stepped over it (§5.5) — otherwise it would re-trap on the
    /// still-planted instruction — and then released.
    pub fn continue_process(&mut self, node: u32, pid: u64) -> Result<(), DebugError> {
        match self.debug_request(node, AgentRequest::StepOver { pid }) {
            Ok(_) | Err(DebugError::Agent(_)) => {} // not at a breakpoint: fine
            Err(e) => return Err(e),
        }
        match self.debug_request(node, AgentRequest::ContinueProcess { pid }) {
            // The stepped instruction may have blocked or exited the
            // process, in which case there is nothing left to release.
            Ok(_) | Err(DebugError::Agent(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The in-progress RPC of a process, if any (§4.3).
    pub fn rpc_status(
        &mut self,
        node: u32,
        pid: u64,
    ) -> Result<Option<crate::proto::RpcCallView>, DebugError> {
        match self.debug_request(node, AgentRequest::RpcStatus { pid })? {
            AgentReply::Rpc(v) => Ok(v),
            other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// The ten-slot cyclic buffer of recent call outcomes on a node.
    pub fn recent_calls(&mut self, node: u32) -> Result<Vec<(u64, bool)>, DebugError> {
        match self.debug_request(node, AgentRequest::RecentCalls)? {
            AgentReply::Recent(r) => Ok(r),
            other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Diagnoses a failed maybe call by interrogating the server (§4.1):
    /// was the call packet or the reply packet lost?
    pub fn diagnose_maybe_failure(
        &mut self,
        server_node: u32,
        call_id: u64,
    ) -> Result<MaybeDiagnosis, DebugError> {
        let stimulus = Stimulus::Diagnose {
            node: server_node,
            call_id,
        };
        self.drive(stimulus, |w| {
            let reply = w.debug_request(server_node, AgentRequest::ServerKnowledge { call_id })?;
            let AgentReply::Knowledge(k) = reply else {
                return Err(DebugError::Protocol(format!("unexpected reply {reply:?}")));
            };
            let diagnosis = match k {
                KnowledgeView::NeverSeen => MaybeDiagnosis::LostCall,
                KnowledgeView::Executing => MaybeDiagnosis::StillExecuting,
                KnowledgeView::Replied(true) => MaybeDiagnosis::LostReply,
                KnowledgeView::Replied(false) => MaybeDiagnosis::RemoteFailed,
            };
            // The two §4.1 verdicts get their own event kinds, linked to
            // the failed call's span so a post-mortem timeline ends with
            // the diagnosis.
            let kind = match diagnosis {
                MaybeDiagnosis::LostCall => Some(EventKind::MaybeLostCall { call_id }),
                MaybeDiagnosis::LostReply => Some(EventKind::MaybeLostReply { call_id }),
                _ => None,
            };
            if let Some(kind) = kind {
                if w.tracer.wants(TraceCategory::Rpc) {
                    let span = w.span_of_call(call_id);
                    w.tracer
                        .emit(w.now, TraceCategory::Rpc, Some(server_node), span, kind);
                }
                // A confirmed packet loss is exactly what the flight
                // recorder exists for: dump the recent past now, while the
                // ring still holds the lost call's wake.
                let reason = match diagnosis {
                    MaybeDiagnosis::LostCall => "maybe-lost-call",
                    _ => "maybe-lost-reply",
                };
                w.snap_blackbox(&format!("{reason} call#{call_id}"));
            }
            Ok(diagnosis)
        })
    }

    // ------------------------------------------------------------------
    // Record / replay
    // ------------------------------------------------------------------

    /// The reproduction recipe this world was built from.
    pub fn recipe(&self) -> &Recipe {
        &self.recipe
    }

    /// The stimulus journal: every public driving call made so far, in
    /// order, with concrete arguments.
    pub fn journal(&self) -> &[Stimulus] {
        &self.journal
    }

    /// Packages the recipe, the stimulus journal, and the trace emitted
    /// so far into a self-describing replay artifact. Render it with
    /// [`Artifact::render`]; reproduce it with [`crate::replay::replay`].
    pub fn record(&self) -> Artifact {
        Artifact {
            recipe: self.recipe.clone(),
            stimuli: self.journal.clone(),
            trace: self.trace_jsonl(),
            profile: self
                .recipe
                .node_cfg
                .profile_vm
                .then(|| self.folded_stacks()),
        }
    }

    /// Re-applies one recorded stimulus through the public API, so the
    /// call is journalled again — a replayed world can itself be
    /// re-recorded or driven further interactively.
    ///
    /// Per-stimulus debugger results (`Refused`, `Timeout`, agent errors)
    /// are deliberately discarded: determinism reproduces them exactly as
    /// in the original run, and the trace diff is the real check.
    ///
    /// # Errors
    ///
    /// Only stimuli that cannot be applied at all fail: a spawn onto a
    /// node, or of a procedure, the rebuilt world does not have.
    pub fn apply(&mut self, s: &Stimulus) -> Result<(), String> {
        match s {
            Stimulus::Spawn { node, entry, args } => {
                self.try_spawn(*node, entry, args.clone())?;
            }
            Stimulus::RunUntil { until_us } => self.run_until(SimTime::from_micros(*until_us)),
            Stimulus::RunFor { dur_us } => self.run_for(SimDuration::from_micros(*dur_us)),
            Stimulus::RunUntilIdle { limit_us } => {
                self.run_until_idle(SimTime::from_micros(*limit_us));
            }
            Stimulus::Connect { nodes, force } => {
                let _ = self.debug_connect(nodes, *force);
            }
            Stimulus::Disconnect => {
                let _ = self.debug_disconnect();
            }
            Stimulus::Abandon => self.debug_abandon(),
            Stimulus::Request { node, req } => {
                let _ = self.debug_request(*node, req.clone());
            }
            Stimulus::DrainEvents => {
                let _ = self.debug_events();
            }
            Stimulus::WaitForStop { timeout_us } => {
                let _ = self.wait_for_stop(SimDuration::from_micros(*timeout_us));
            }
            Stimulus::BreakAtLine { node, line } => {
                let _ = self.break_at_line(*node, *line);
            }
            Stimulus::BreakAtProc { node, name } => {
                let _ = self.break_at_proc(*node, name);
            }
            Stimulus::ClearBreakpoint { node, bp } => {
                let _ = self.clear_breakpoint(*node, *bp);
            }
            Stimulus::HaltAll { origin } => {
                let _ = self.debug_halt_all(*origin);
            }
            Stimulus::ResumeAll => {
                let _ = self.debug_resume_all();
            }
            Stimulus::Diagnose { node, call_id } => {
                let _ = self.diagnose_maybe_failure(*node, *call_id);
            }
            Stimulus::DropNext { src, dst, count } => self.inject_drop(*src, *dst, *count),
            Stimulus::SetNodeUp { node, up } => self.set_node_up(*node, *up),
            Stimulus::SetLinkUp { a, b, up } => self.set_link_up(*a, *b, *up),
            Stimulus::ArmWatch { expr } => {
                self.arm_watch(expr)?;
            }
            Stimulus::ClearWatch { id } => {
                self.clear_watch(*id);
            }
        }
        Ok(())
    }
}

/// Renders a marshalled value for display (used for globals, which are
/// copied to the debugger rather than printed in the user program).
pub fn render_wire(w: &WireValue) -> String {
    match w {
        WireValue::Null => "nil".into(),
        WireValue::Int(i) => i.to_string(),
        WireValue::Bool(b) => b.to_string(),
        WireValue::Str(s) => s.to_string(),
        WireValue::Record { type_name, fields } => {
            let inner: Vec<String> = fields.iter().map(render_wire).collect();
            format!("{type_name}${{{}}}", inner.join(", "))
        }
        WireValue::Array(items) => {
            let inner: Vec<String> = items.iter().map(render_wire).collect();
            format!("[{}]", inner.join(", "))
        }
    }
}
