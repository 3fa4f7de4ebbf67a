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
//!
//! This file holds the simulated state ([`World`], grouped by what a
//! snapshot does with each field) and the [`WorldBuilder`] that makes one
//! from a [`Recipe`]; `pump` + `index` advance it (`reference` is the
//! full-scan oracle of `tests/pump_gate.rs`), `journal` records and
//! re-applies what drives it, `debug` and `observe` are the debugger and
//! observability façades. DESIGN.md § "World anatomy" has the map.

mod debug;
mod index;
mod journal;
mod observe;
mod pump;
mod reference;

use std::sync::Arc;

use pilgrim_cclu::{compile, CompileError, Program};
use pilgrim_mayflower::{Node, NodeConfig, Outcall};
use pilgrim_ring::{Delivery, Medium, Network, NetworkConfig, NodeId, TxClass, TxStatus};
use pilgrim_rpc::{RpcConfig, RpcEndpoint, RpcNet, RpcPacket};
use pilgrim_sim::{Chunked, Metrics, SeriesStore, SimDuration, SimTime, Tracer, BLACKBOX_CAPACITY};

use crate::agent::{Agent, AgentConfig, DebugNet, DEBUG_ATTEMPTS};
use crate::debugger::Debugger;
use crate::proto::DebugMsg;
use crate::replay::{Recipe, Stimulus};

pub use debug::{render_wire, BacktraceFrame, DebugError, MaybeDiagnosis};
pub use journal::Setup;
pub use observe::WatchTrip;

use index::ActivityIndex;
use observe::WatchState;

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

/// The shortest lockstep window: how far a node may run ahead between
/// sync points when the network's base latency is shorter still.
pub(crate) const MIN_WINDOW: SimDuration = SimDuration::from_millis(1);

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
    fn send_debug(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        msg: DebugMsg,
    ) -> (TxStatus, u32) {
        let bytes = msg.wire_bytes() + DEBUG_HEADER;
        self.send_with_retransmit(at, src, dst, Wire::Debug(msg), bytes, DEBUG_ATTEMPTS)
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

/// Configures and creates a [`World`]: a [`Recipe`] under construction.
#[derive(Debug, Default)]
pub struct WorldBuilder {
    recipe: Recipe,
}

impl From<Recipe> for WorldBuilder {
    /// A builder that rebuilds the world `recipe` describes.
    fn from(recipe: Recipe) -> Self {
        WorldBuilder { recipe }
    }
}

impl WorldBuilder {
    /// Starts a builder with defaults (one node, debugger attached).
    pub fn new() -> WorldBuilder {
        WorldBuilder::default()
    }

    /// Number of user nodes.
    pub fn nodes(mut self, n: u32) -> Self {
        self.recipe.nodes = n;
        self
    }

    /// The Concurrent CLU program every node runs (a distributed program
    /// is one program running on all its nodes, distinguished by
    /// `my_node()`).
    pub fn program(mut self, source: &str) -> Self {
        self.recipe.default_source = Some(source.to_string());
        self
    }

    /// Overrides the program for one node. Call order does not matter
    /// and the last override of a node wins: the recipe keeps one entry
    /// per node, sorted.
    pub fn program_for(mut self, node: u32, source: &str) -> Self {
        self.recipe.set_program_for(node, source);
        self
    }

    /// Network model configuration.
    pub fn network(mut self, cfg: NetworkConfig) -> Self {
        self.recipe.net = cfg;
        self
    }

    /// RPC runtime configuration.
    pub fn rpc(mut self, cfg: RpcConfig) -> Self {
        self.recipe.rpc = cfg;
        self
    }

    /// Supervisor configuration.
    pub fn node_config(mut self, cfg: NodeConfig) -> Self {
        self.recipe.node_cfg = cfg;
        self
    }

    /// Agent configuration.
    pub fn agent(mut self, cfg: AgentConfig) -> Self {
        self.recipe.agent_cfg = cfg;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.recipe.seed = seed;
        self
    }

    /// Attach a debugger station (default true).
    pub fn debugger(mut self, on: bool) -> Self {
        self.recipe.with_debugger = on;
        self
    }

    /// Link agents into the nodes (default true). Without agents the
    /// program cannot be debugged at all — the E7 baseline.
    pub fn agents(mut self, on: bool) -> Self {
        self.recipe.with_agents = on;
        self
    }

    /// Head-based span sampling: keep 1-in-`rate` root spans (children
    /// follow their root's verdict, so kept traces stay causally
    /// complete). 0 or 1 disables sampling — the default, with zero cost
    /// on the tracing hot path. The keep decision is a pure function of
    /// the recipe-carried rate, the world seed, and the deterministic
    /// span id, so sampled traces are byte-identical across a run and
    /// its replay.
    pub fn trace_sample(mut self, rate: u32) -> Self {
        self.recipe.trace_sample = rate;
        self
    }

    /// Flight-recorder ring budget in events (default
    /// [`BLACKBOX_CAPACITY`] = 512). Part of the reproduction
    /// [`Recipe`]: a replay must retain the same tail for its blackbox
    /// dumps to match.
    ///
    /// [`BLACKBOX_CAPACITY`]: pilgrim_sim::BLACKBOX_CAPACITY
    pub fn blackbox_capacity(mut self, events: usize) -> Self {
        self.recipe.blackbox_capacity = events;
        self
    }

    /// Shape of the always-on time-series store: one sample of every
    /// registered metric every `interval` sync points, `budget` samples
    /// retained per series (default 64 × 64; `coarse_window(1, 4096)` is
    /// full resolution). Recipe-carried, like every sampling knob: a
    /// replayed world must sample at the same points to render identical
    /// `tsdb` output. The one store answers the `tsdb_*` queries and
    /// feeds the flight recorder.
    pub fn coarse_window(mut self, interval: u64, budget: usize) -> Self {
        self.recipe.coarse_interval = interval;
        self.recipe.coarse_budget = budget;
        self
    }

    /// Ignored: nodes step on one thread. Kept only because `benchmark/`
    /// still calls it; ROADMAP item 1 deletes it together with the
    /// `core.pool.*` probe.
    #[doc(hidden)]
    pub fn step_threads(self, _: usize) -> Self {
        self
    }

    /// Builds the world. The recipe built up so far becomes the world's
    /// own: these are exactly the inputs a replay needs to rebuild it
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// Fails when a program does not compile or no nodes were requested.
    pub fn build(self) -> Result<World, BuildError> {
        let WorldBuilder { recipe } = self;
        if recipe.nodes == 0 {
            return Err(BuildError::NoNodes);
        }
        let tracer = Tracer::new();
        if recipe.trace_sample > 1 {
            tracer.set_trace_sample(recipe.trace_sample, recipe.seed);
        }
        if recipe.blackbox_capacity != BLACKBOX_CAPACITY {
            tracer.set_blackbox_capacity(recipe.blackbox_capacity);
        }
        let metrics = Metrics::new();
        // Program interning: compile each distinct source once and share
        // the result as `Arc<Program>` across every node that runs it, so
        // a 100k-node world holds one compiled program, not 100k deep
        // clones. Breakpoint planting still works — `Node::program_mut`
        // copies-on-write, so a patched node forks its own copy while the
        // rest keep sharing.
        let empty_program: Arc<Program> = Arc::new(Program::default());
        let default_program = match &recipe.default_source {
            Some(src) => Some(Arc::new(
                compile(src).map_err(|err| BuildError::Compile { node: None, err })?,
            )),
            None => None,
        };
        let mut programs: Vec<Arc<Program>> = Vec::new();
        for i in 0..recipe.nodes {
            let own = recipe
                .per_node_source
                .binary_search_by_key(&i, |(n, _)| *n)
                .map(|at| &recipe.per_node_source[at].1);
            let program = match own {
                Ok(src) => Arc::new(
                    compile(src).map_err(|err| BuildError::Compile { node: Some(i), err })?,
                ),
                Err(_) => default_program
                    .clone()
                    .unwrap_or_else(|| empty_program.clone()),
            };
            programs.push(program);
        }

        let stations = recipe.stations();
        let mut netcfg = recipe.net.clone();
        netcfg.seed ^= recipe.seed;
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
            let mut cfg = recipe.node_cfg.clone();
            cfg.seed ^= recipe.seed.rotate_left(i % 64);
            nodes.push(Node::new(i, program, cfg, tracer.clone()));
            let mut endpoint = RpcEndpoint::new(NodeId(i), recipe.rpc.clone(), tracer.clone());
            endpoint.attach_metrics(&metrics);
            endpoints.push(endpoint);
            let is_user = i < recipe.nodes;
            if is_user && recipe.with_agents {
                let agent = Agent::new(NodeId(i), recipe.agent_cfg.clone(), tracer.clone());
                agent.register_status(&mut endpoints[i as usize]);
                agents.push(Some(agent));
            } else {
                agents.push(None);
            }
        }

        let debugger = if recipe.with_debugger {
            let station = NodeId(stations - 1);
            let mut d = Debugger::new(station, tracer.clone());
            for (i, p) in programs.iter().enumerate() {
                d.load_program(NodeId(i as u32), p.clone());
            }
            d.register_convert_time(&mut endpoints[station.0 as usize]);
            Some(d)
        } else {
            None
        };

        let mut world = World {
            nodes,
            endpoints,
            agents,
            debugger,
            net,
            now: SimTime::ZERO,
            sync_points: 0,
            outcall_flag: Vec::new(),
            outcall_pending: Vec::new(),
            // Conservative-window lookahead: every cross-node delivery
            // arrives at least `base_latency` after it was sent (interface
            // refusals are synchronous sender-side statuses, not
            // deliveries), so lockstep windows up to that latency cannot
            // let a node advance past an incoming packet. Degenerate
            // low-latency configurations keep the 1 ms floor.
            window: recipe.net.base_latency.max(MIN_WINDOW),
            node_index: ActivityIndex::default(),
            ep_index: ActivityIndex::default(),
            outcall_buf: Vec::new(),
            delivery_buf: Vec::new(),
            reference_pump: false,
            series: SeriesStore::new(recipe.coarse_interval, recipe.coarse_budget),
            recipe,
            journal: Chunked::default(),
            driving: false,
            tracer,
            metrics,
            watches: Vec::new(),
            next_watch_id: 1,
            watch_halt: false,
            blackbox_last: None,
        };
        world.rebuild_index();
        Ok(world)
    }
}

/// The simulated distributed system. Fields are grouped by what a
/// checkpoint would do with them (DESIGN.md § "World anatomy").
pub struct World {
    // -- Simulated state: a snapshot must capture all of it. ------------
    nodes: Vec<Node>,
    endpoints: Vec<RpcEndpoint>,
    agents: Vec<Option<Agent>>,
    debugger: Option<Debugger>,
    net: Network<Wire>,
    now: SimTime,
    /// Pump iterations completed since build — the sync-point ordinal
    /// watch trips are pinned to.
    sync_points: u64,
    /// True while station `i` sits in `outcall_pending`.
    outcall_flag: Vec<bool>,
    /// Stations holding undrained outcalls (e.g. `ProcCreated` from a
    /// spawn onto an otherwise quiescent node); they must be stepped next
    /// window so the outcall reaches the agent, exactly when the
    /// full-scan pump would have drained it.
    outcall_pending: Vec<usize>,

    // -- Derived from the recipe or the state above: rebuildable. -------
    window: SimDuration,
    /// Activity index over `Node::next_activity`, kept exact at every
    /// sync point so the pump touches only stations with work. Owns the
    /// per-window step list.
    node_index: ActivityIndex,
    /// Its twin over `RpcEndpoint::next_timer`; owns the per-window list
    /// of endpoints with due timers.
    ep_index: ActivityIndex,
    /// The stepping loop's outcall buffer: lent to each node for
    /// its `advance_into`, drained by the router, empty between windows.
    outcall_buf: Vec<Outcall>,
    /// Its twin for the network: the pump's `poll_into` target, drained
    /// by the delivery router, empty between windows.
    delivery_buf: Vec<Delivery<Wire>>,
    /// Forces the full-scan reference pump (twin-testing knob).
    reference_pump: bool,

    // -- Journal: rides alongside; replaying it *is* the restore. -------
    recipe: Recipe,
    journal: Chunked<Stimulus>,
    /// Re-entrancy guard of `World::drive`: true while a journalled
    /// driver call is on the stack.
    driving: bool,

    // -- Observability: rides alongside, shared handles included. -------
    tracer: Tracer,
    metrics: Metrics,
    /// The time-series store: one sample of every registered metric per
    /// `recipe.coarse_interval` sync points. Answers every `tsdb_*` query
    /// and supplies the flight recorder's windows.
    series: SeriesStore,
    watches: Vec<WatchState>,
    next_watch_id: u64,
    /// Set when a watchpoint trips; the run loops drain it and stop.
    watch_halt: bool,
    /// Rendered artifact of the most recent automatic flight-recorder
    /// snapshot (watch trip or maybe-call diagnosis).
    blackbox_last: Option<String>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("user_nodes", &self.recipe.nodes)
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
        self.recipe.nodes
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

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a station.
    pub fn node(&self, i: u32) -> &Node {
        &self.nodes[i as usize]
    }

    /// Immutable RPC endpoint access. Mutable access is lent only by
    /// [`World::install`], which records what it was lent for.
    pub fn endpoint(&self, i: u32) -> &RpcEndpoint {
        &self.endpoints[i as usize]
    }

    /// The agent on node `i`, if one is linked in.
    pub fn agent(&self, i: u32) -> Option<&Agent> {
        self.agents.get(i as usize).and_then(Option::as_ref)
    }

    /// The debugger proper, when attached.
    pub fn debugger(&self) -> Option<&Debugger> {
        self.debugger.as_ref()
    }

    /// Console lines printed on node `i`.
    pub fn console(&self, i: u32) -> Vec<String> {
        self.nodes[i as usize]
            .console()
            .iter()
            .map(|(_, s)| s.clone())
            .collect()
    }

    /// Ignored: nodes step on one thread. Kept only because `benchmark/`
    /// still calls it; ROADMAP item 1 deletes it together with the
    /// `core.pool.*` probe.
    #[doc(hidden)]
    pub fn set_step_threads(&mut self, _: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "main = proc ()\n print(\"a\")\nend";
    const B: &str = "main = proc ()\n print(\"b\")\nend";
    const C: &str = "main = proc ()\n print(\"c\")\nend";

    fn recipe_text(w: &World) -> String {
        let mut out = String::new();
        w.recipe().to_json().write(&mut out);
        out
    }

    /// The recipe is the world's identity, so the order `program_for`
    /// calls were written in — and overrides later overridden — must not
    /// show in it: one entry per node, sorted, last write wins.
    #[test]
    fn program_for_order_and_overwrites_do_not_reach_the_recipe() {
        let base = || World::builder().nodes(4).program(A).seed(9);
        let in_order = base()
            .program_for(1, B)
            .program_for(3, C)
            .build()
            .expect("builds");
        let shuffled = base()
            .program_for(3, A)
            .program_for(1, C)
            .program_for(3, C)
            .program_for(1, B)
            .build()
            .expect("builds");
        assert_eq!(
            shuffled.recipe().per_node_source,
            vec![(1, B.to_string()), (3, C.to_string())]
        );
        assert_eq!(recipe_text(&shuffled), recipe_text(&in_order));

        let run = |mut w: World| {
            for node in 0..4 {
                w.spawn(node, "main", vec![]);
            }
            w.run_until_idle(SimTime::from_secs(1));
            assert_eq!(w.console(1), vec!["b"]);
            assert_eq!(w.console(3), vec!["c"]);
            w.record().render()
        };
        assert_eq!(run(shuffled), run(in_order));
    }

    /// `WorldBuilder::from(recipe)` is the replay path: the rebuilt
    /// world's recipe is the recipe it was given, setup markers included.
    #[test]
    fn a_recipe_round_trips_through_the_builder() {
        let mut w = World::builder()
            .nodes(2)
            .program(A)
            .program_for(1, B)
            .coarse_window(8, 32)
            .build()
            .expect("builds");
        w.install("marker", pilgrim_sim::Json::Null, |_| ());
        let rebuilt = w.recipe().build_world().expect("rebuilds");
        assert_eq!(recipe_text(&rebuilt), recipe_text(&w));
    }
}
