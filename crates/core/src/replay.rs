//! Record/replay: capture a world's full reproduction recipe and its
//! stimulus journal, then rebuild and re-run it offline.
//!
//! The paper rejects reversible execution as too costly (§5.3); the cheap
//! alternative is determinism. Every [`World`] is a closed, seeded
//! discrete-event simulation, so the *complete* reproduction recipe is
//! small: the builder inputs (seed, topology, configs, programs, lockstep
//! window) plus the ordered journal of public driver calls ([`Stimulus`])
//! that pumped it. [`World::record`] packages those alongside the emitted
//! trace into a single self-describing [`Artifact`]; [`replay`] rebuilds
//! the world from the artifact alone, re-applies the journal, and diffs
//! the fresh trace against the recorded one event-by-event with
//! [`first_divergence`] — the same idea as URDB's record/replay and
//! out-of-place debugging's "replay away from the live system".
//!
//! # Examples
//!
//! ```
//! use pilgrim::replay::{replay, Artifact};
//! use pilgrim::World;
//! use pilgrim_sim::SimTime;
//!
//! let mut w = World::builder()
//!     .program("main = proc ()\n print(\"hi\")\n end")
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! w.spawn(0, "main", vec![]);
//! w.run_until_idle(SimTime::from_secs(1));
//!
//! let text = w.record().render();
//! let report = replay(&Artifact::parse(&text).unwrap()).unwrap();
//! assert!(report.divergence.is_none());
//! ```

use std::fmt;
use std::sync::Arc;

use pilgrim_cclu::Value;
use pilgrim_mayflower::NodeConfig;
use pilgrim_ring::NetworkConfig;
use pilgrim_rpc::{RpcConfig, WireValue};
use pilgrim_sim::{
    first_divergence, quote_into, Divergence, Json, SimDuration, TraceEvent, BLACKBOX_CAPACITY,
};

use crate::agent::AgentConfig;
use crate::proto::{AgentRequest, Invocation};
use crate::saved::Saved;
use crate::world::{BuildError, World, WorldBuilder};

/// Artifact format tag, checked on load.
pub const FORMAT: &str = "pilgrim-replay";
/// Artifact format version, checked on load.
pub const VERSION: u32 = 1;

/// Everything [`crate::WorldBuilder`] needs to rebuild a world
/// bit-for-bit: topology, seeds, configs, programs, and the lockstep
/// window. The builder's setters write it directly, so this struct (with
/// its `Default` and JSON) is where a recipe-carried input is declared.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Number of user nodes.
    pub nodes: u32,
    /// Master seed.
    pub seed: u64,
    /// Requested lockstep window (the builder still applies its
    /// base-latency floor when rebuilding).
    pub window: SimDuration,
    /// The shared program source, if one was set.
    pub default_source: Option<String>,
    /// Per-node program overrides, sorted by node, one entry per node.
    pub per_node_source: Vec<(u32, String)>,
    /// Network model configuration.
    pub net: NetworkConfig,
    /// RPC runtime configuration.
    pub rpc: RpcConfig,
    /// Supervisor configuration.
    pub node_cfg: NodeConfig,
    /// Agent configuration.
    pub agent_cfg: AgentConfig,
    /// Whether a debugger station is attached.
    pub with_debugger: bool,
    /// Whether agents are linked into the nodes.
    pub with_agents: bool,
    /// Head-based span sampling rate (0 or 1 = off). Recipe-carried so a
    /// replay keeps exactly the spans the live run kept.
    pub trace_sample: u32,
    /// Flight-recorder ring budget in events.
    pub blackbox_capacity: usize,
    /// The time-series store's cadence: sync points per sample. In the
    /// recipe so a replayed world's `tsdb` output is byte-identical.
    pub coarse_interval: u64,
    /// The time-series store's ring budget: samples retained per series.
    pub coarse_budget: usize,
    /// Rust-side setup steps that ran against the built world before the
    /// first stimulus — native service installs (nameserver, aotman),
    /// trace filters, and the like. These cannot be journalled as
    /// stimuli (they register native handler closures), so the recipe
    /// records `(kind, params)` markers and [`rerun`] asks its caller's
    /// installer to re-perform them. A plain [`replay`] of a
    /// setup-bearing artifact fails with a message naming the kinds.
    pub setup: Vec<(String, Json)>,
}

/// Default sampling cadence of the always-on time-series store.
const TSDB_COARSE_INTERVAL: u64 = 64;
/// Default ring budget of the always-on time-series store — small enough
/// that a world nobody queries pays next to nothing for it
/// (`sim.tsdb.ns_per_sample` in `benchmark/` prices one sample).
const TSDB_COARSE_BUDGET: usize = 64;
/// Store shape of a recording whose `"tsdb": true` armed the former
/// full-resolution store: every sync point, 4096 samples per series.
const LEGACY_TSDB_SHAPE: (u64, usize) = (1, 4096);
/// Most user nodes a recipe read from a file may ask for: a world costs
/// kilobytes per station before anything runs.
const MAX_NODES: u64 = 1 << 20;

impl Default for Recipe {
    /// What [`World::builder`] starts from: one node with no program, the
    /// debugger and agents attached, every sampling knob at its default.
    fn default() -> Recipe {
        Recipe {
            nodes: 1,
            seed: 0,
            window: SimDuration::from_millis(1),
            default_source: None,
            per_node_source: Vec::new(),
            net: NetworkConfig::default(),
            rpc: RpcConfig::default(),
            node_cfg: NodeConfig::default(),
            agent_cfg: AgentConfig::default(),
            with_debugger: true,
            with_agents: true,
            trace_sample: 0,
            blackbox_capacity: BLACKBOX_CAPACITY,
            coarse_interval: TSDB_COARSE_INTERVAL,
            coarse_budget: TSDB_COARSE_BUDGET,
            setup: Vec::new(),
        }
    }
}

impl Recipe {
    /// Stations on the world's network: the user nodes, then the
    /// debugger's when one is attached.
    pub(crate) fn stations(&self) -> u32 {
        self.nodes + u32::from(self.with_debugger)
    }

    /// Sets node `node`'s program override, keeping the list sorted by
    /// node with one entry each: the last write for a node wins.
    pub(crate) fn set_program_for(&mut self, node: u32, source: &str) {
        match self
            .per_node_source
            .binary_search_by_key(&node, |(n, _)| *n)
        {
            Ok(at) => self.per_node_source[at].1 = source.to_string(),
            Err(at) => self.per_node_source.insert(at, (node, source.to_string())),
        }
    }

    /// The recipe as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nodes", Json::Int(self.nodes as i128)),
            ("seed", Json::Int(self.seed as i128)),
            ("window_us", Json::Int(self.window.as_micros() as i128)),
            (
                "default_program",
                match &self.default_source {
                    Some(s) => Json::Str(s.clone()),
                    None => Json::Null,
                },
            ),
            (
                "programs",
                Json::Array(
                    self.per_node_source
                        .iter()
                        .map(|(node, src)| {
                            Json::obj(vec![
                                ("node", Json::Int(*node as i128)),
                                ("source", Json::Str(src.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("net", self.net.to_json()),
            ("rpc", self.rpc.to_json()),
            ("node_cfg", self.node_cfg.to_json()),
            ("agent", self.agent_cfg.to_json()),
            ("debugger", Json::Bool(self.with_debugger)),
            ("agents", Json::Bool(self.with_agents)),
            ("trace_sample", Json::Int(self.trace_sample as i128)),
            (
                "blackbox_capacity",
                Json::Int(self.blackbox_capacity as i128),
            ),
            ("coarse_interval", Json::Int(self.coarse_interval as i128)),
            ("coarse_budget", Json::Int(self.coarse_budget as i128)),
            (
                "setup",
                Json::Array(
                    self.setup
                        .iter()
                        .map(|(kind, params)| {
                            Json::obj(vec![
                                ("kind", Json::Str(kind.clone())),
                                ("params", params.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a recipe from [`to_json`](Recipe::to_json) output. The
    /// text is outside input, so counts are bounded here, before
    /// anything allocates for them.
    ///
    /// # Errors
    ///
    /// Missing, mistyped or out-of-range fields.
    pub fn from_json(v: &Json) -> Result<Recipe, String> {
        let missing = |field: &str| format!("recipe: missing `{field}`");
        let part = |field: &str| v.get(field).ok_or_else(|| missing(field));
        let uint = |field: &str| v.get(field).and_then(Json::as_u64);
        let flag = |field: &str| v.get(field).and_then(Json::as_bool);

        let nodes = uint("nodes").ok_or_else(|| missing("nodes"))?;
        if !(1..=MAX_NODES).contains(&nodes) {
            return Err(format!(
                "recipe: `nodes` is {nodes}, outside 1..={MAX_NODES}"
            ));
        }
        let mut recipe = Recipe {
            nodes: nodes as u32,
            seed: uint("seed").ok_or_else(|| missing("seed"))?,
            window: uint("window_us")
                .map(SimDuration::from_micros)
                .ok_or_else(|| missing("window_us"))?,
            default_source: match v.get("default_program") {
                None | Some(Json::Null) => None,
                Some(s) => Some(
                    s.as_str()
                        .ok_or("recipe: non-string `default_program`")?
                        .to_string(),
                ),
            },
            net: NetworkConfig::from_json(part("net")?)?,
            rpc: RpcConfig::from_json(part("rpc")?)?,
            node_cfg: NodeConfig::from_json(part("node_cfg")?)?,
            agent_cfg: AgentConfig::from_json(part("agent")?)?,
            with_debugger: flag("debugger").ok_or_else(|| missing("debugger"))?,
            with_agents: flag("agents").ok_or_else(|| missing("agents"))?,
            ..Recipe::default()
        };
        // The observability knobs (and setup markers) are absent in
        // artifacts recorded before they existed; those worlds ran at the
        // then-hard-coded values, which are still the defaults.
        if let Some(n) = uint("trace_sample").and_then(|n| u32::try_from(n).ok()) {
            recipe.trace_sample = n;
        }
        if let Some(n) = uint("blackbox_capacity") {
            recipe.blackbox_capacity = n as usize;
        }
        if let Some(n) = uint("coarse_interval") {
            recipe.coarse_interval = n;
        }
        if let Some(n) = uint("coarse_budget") {
            recipe.coarse_budget = n as usize;
        }
        // Recordings made while `"tsdb": true` armed a second store have
        // no other way to say "full resolution": the key wins over the
        // coarse shape written beside it, because the armed store was the
        // one that answered every `tsdb` query of that run.
        if flag("tsdb") == Some(true) {
            (recipe.coarse_interval, recipe.coarse_budget) = LEGACY_TSDB_SHAPE;
        }
        for p in part("programs")?
            .as_array()
            .ok_or_else(|| missing("programs"))?
        {
            let node = p
                .get("node")
                .and_then(Json::as_u64)
                .ok_or("recipe: program entry missing `node`")?;
            if node >= nodes {
                return Err(format!(
                    "recipe: program entry for node {node} in a world of {nodes} nodes"
                ));
            }
            let source = p
                .get("source")
                .and_then(Json::as_str)
                .ok_or("recipe: program entry missing `source`")?;
            recipe.set_program_for(node as u32, source);
        }
        for e in v
            .get("setup")
            .and_then(Json::as_array)
            .into_iter()
            .flatten()
        {
            let kind = e
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("recipe: setup entry missing `kind`")?;
            let params = e.get("params").cloned().unwrap_or(Json::Null);
            recipe.setup.push((kind.to_string(), params));
        }
        Ok(recipe)
    }

    /// Builds a fresh world from the recipe.
    ///
    /// # Errors
    ///
    /// Program compilation failures and empty topologies.
    pub fn build_world(&self) -> Result<World, BuildError> {
        WorldBuilder::from(self.clone()).build()
    }
}

/// One recorded call into the world's public driving API, with concrete
/// arguments. Determinism makes the journal self-sufficient: replaying
/// the same stimuli against the same recipe reproduces every pid, call
/// id, and packet of the original run.
///
/// A world journals one per public driving call for as long as it lives, so a
/// stimulus is 40 bytes: what varies in length is boxed, and a spawn's
/// entry shares the name the node's program interns.
#[derive(Debug, Clone)]
pub enum Stimulus {
    /// [`World::spawn`] / [`World::try_spawn`].
    Spawn {
        /// Target node.
        node: u32,
        /// Entry procedure.
        entry: Arc<str>,
        /// Arguments.
        args: Box<[Value]>,
    },
    /// [`World::run_until`].
    RunUntil {
        /// Absolute limit, µs.
        until_us: u64,
    },
    /// [`World::run_for`].
    RunFor {
        /// Duration, µs.
        dur_us: u64,
    },
    /// [`World::run_until_idle`].
    RunUntilIdle {
        /// Absolute limit, µs.
        limit_us: u64,
    },
    /// [`World::debug_connect`].
    Connect {
        /// Session cohort.
        nodes: Box<[u32]>,
        /// Forcible connection.
        force: bool,
    },
    /// [`World::debug_disconnect`].
    Disconnect,
    /// [`World::debug_abandon`].
    Abandon,
    /// [`World::debug_request`] — also the funnel for every composite
    /// query method (backtrace, inspect, …), which records one `Request`
    /// per wire round trip it makes.
    Request {
        /// Target node.
        node: u32,
        /// The request body.
        req: AgentRequest,
    },
    /// [`World::debug_events`].
    DrainEvents,
    /// [`World::wait_for_stop`].
    WaitForStop {
        /// Timeout, µs.
        timeout_us: u64,
    },
    /// [`World::break_at_line`].
    BreakAtLine {
        /// Target node.
        node: u32,
        /// Source line.
        line: u32,
    },
    /// [`World::break_at_proc`].
    BreakAtProc {
        /// Target node.
        node: u32,
        /// Procedure name.
        name: Arc<str>,
    },
    /// [`World::clear_breakpoint`].
    ClearBreakpoint {
        /// Target node.
        node: u32,
        /// Agent breakpoint slot.
        bp: u16,
    },
    /// [`World::debug_halt_all`].
    HaltAll {
        /// Node whose agent initiates the halt.
        origin: u32,
    },
    /// [`World::debug_resume_all`].
    ResumeAll,
    /// [`World::diagnose_maybe_failure`].
    Diagnose {
        /// Server node.
        node: u32,
        /// The failed call.
        call_id: u64,
    },
    /// [`World::inject_drop`].
    DropNext {
        /// Sending node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Packets to drop.
        count: u32,
    },
    /// [`World::set_node_up`].
    SetNodeUp {
        /// Target station.
        node: u32,
        /// New interface state.
        up: bool,
    },
    /// [`World::set_link_up`].
    SetLinkUp {
        /// One end of the bridge link (a segment id).
        a: u32,
        /// The other end.
        b: u32,
        /// New link state.
        up: bool,
    },
    /// [`World::arm_watch`]. The expression is journalled in canonical
    /// form, so replay re-parses exactly what the original run armed.
    ArmWatch {
        /// Watch expression, e.g. `rpc.failed > 0`.
        expr: String,
    },
    /// [`World::clear_watch`].
    ClearWatch {
        /// Watch id returned by `arm_watch`.
        id: u64,
    },
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::obj(vec![("kind", Json::Str("null".into()))]),
        Value::Int(i) => Json::obj(vec![
            ("kind", Json::Str("int".into())),
            ("value", Json::Int(*i as i128)),
        ]),
        Value::Bool(b) => Json::obj(vec![
            ("kind", Json::Str("bool".into())),
            ("value", Json::Bool(*b)),
        ]),
        Value::Str(s) => Json::obj(vec![
            ("kind", Json::Str("str".into())),
            ("value", Json::Str(s.to_string())),
        ]),
        // Handles and heap references are node-local run-time state; a
        // journal containing one cannot be replayed and says so on load.
        Value::Sem(_) | Value::Mutex(_) | Value::Ref(_) => {
            Json::obj(vec![("kind", Json::Str("opaque".into()))])
        }
    }
}

fn value_from_json(v: &Json) -> Result<Value, String> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("value: missing `kind`")?;
    Ok(match kind {
        "null" => Value::Null,
        "int" => Value::Int(
            v.get("value")
                .and_then(Json::as_i64)
                .ok_or("value: missing int `value`")?,
        ),
        "bool" => Value::Bool(
            v.get("value")
                .and_then(Json::as_bool)
                .ok_or("value: missing bool `value`")?,
        ),
        "str" => Value::Str(
            v.get("value")
                .and_then(Json::as_str)
                .ok_or("value: missing str `value`")?
                .into(),
        ),
        "opaque" => {
            return Err(
                "value: a spawn argument was a node-local handle (semaphore, mutex, or heap \
                 reference); such journals cannot be replayed"
                    .to_string(),
            )
        }
        other => return Err(format!("value: unknown kind `{other}`")),
    })
}

fn request_to_json(req: &AgentRequest) -> Json {
    let t = |name: &str| ("type", Json::Str(name.to_string()));
    let u = |v: u64| Json::Int(v as i128);
    match req {
        AgentRequest::Ping => Json::obj(vec![t("Ping")]),
        AgentRequest::SetBreakpoint { proc_id, pc } => Json::obj(vec![
            t("SetBreakpoint"),
            ("proc_id", u(*proc_id as u64)),
            ("pc", u(*pc as u64)),
        ]),
        AgentRequest::ClearBreakpoint { bp } => {
            Json::obj(vec![t("ClearBreakpoint"), ("bp", u(*bp as u64))])
        }
        AgentRequest::ListBreakpoints => Json::obj(vec![t("ListBreakpoints")]),
        AgentRequest::HaltAll => Json::obj(vec![t("HaltAll")]),
        AgentRequest::ResumeAll => Json::obj(vec![t("ResumeAll")]),
        AgentRequest::ListProcesses => Json::obj(vec![t("ListProcesses")]),
        AgentRequest::ProcessState { pid } => Json::obj(vec![t("ProcessState"), ("pid", u(*pid))]),
        AgentRequest::ReadStack { pid } => Json::obj(vec![t("ReadStack"), ("pid", u(*pid))]),
        AgentRequest::ReadVar { pid, frame, slot } => Json::obj(vec![
            t("ReadVar"),
            ("pid", u(*pid)),
            ("frame", u(*frame as u64)),
            ("slot", u(*slot as u64)),
        ]),
        AgentRequest::WriteVar {
            pid,
            frame,
            slot,
            value,
        } => Json::obj(vec![
            t("WriteVar"),
            ("pid", u(*pid)),
            ("frame", u(*frame as u64)),
            ("slot", u(*slot as u64)),
            ("value", value.to_json()),
        ]),
        AgentRequest::ReadGlobal { slot } => {
            Json::obj(vec![t("ReadGlobal"), ("slot", u(*slot as u64))])
        }
        AgentRequest::WriteGlobal { slot, value } => Json::obj(vec![
            t("WriteGlobal"),
            ("slot", u(*slot as u64)),
            ("value", value.to_json()),
        ]),
        AgentRequest::PrintVar { pid, frame, slot } => Json::obj(vec![
            t("PrintVar"),
            ("pid", u(*pid)),
            ("frame", u(*frame as u64)),
            ("slot", u(*slot as u64)),
        ]),
        AgentRequest::Invoke(call) => Json::obj(vec![
            t("Invoke"),
            ("proc", Json::Str(call.proc.clone())),
            (
                "args",
                Json::Array(call.args.iter().map(WireValue::to_json).collect()),
            ),
        ]),
        AgentRequest::StepOver { pid } => Json::obj(vec![t("StepOver"), ("pid", u(*pid))]),
        AgentRequest::ContinueProcess { pid } => {
            Json::obj(vec![t("ContinueProcess"), ("pid", u(*pid))])
        }
        AgentRequest::ForceRunnable { pid } => {
            Json::obj(vec![t("ForceRunnable"), ("pid", u(*pid))])
        }
        AgentRequest::HaltProcess { pid } => Json::obj(vec![t("HaltProcess"), ("pid", u(*pid))]),
        AgentRequest::ResumeProcess { pid } => {
            Json::obj(vec![t("ResumeProcess"), ("pid", u(*pid))])
        }
        AgentRequest::RpcStatus { pid } => Json::obj(vec![t("RpcStatus"), ("pid", u(*pid))]),
        AgentRequest::RecentCalls => Json::obj(vec![t("RecentCalls")]),
        AgentRequest::RecentServed => Json::obj(vec![t("RecentServed")]),
        AgentRequest::ServingProcess { call_id } => {
            Json::obj(vec![t("ServingProcess"), ("call_id", u(*call_id))])
        }
        AgentRequest::ServerKnowledge { call_id } => {
            Json::obj(vec![t("ServerKnowledge"), ("call_id", u(*call_id))])
        }
        AgentRequest::ClientProcess { call_id } => {
            Json::obj(vec![t("ClientProcess"), ("call_id", u(*call_id))])
        }
        AgentRequest::ReadConsole { from } => {
            Json::obj(vec![t("ReadConsole"), ("from", u(*from as u64))])
        }
    }
}

fn request_from_json(v: &Json) -> Result<AgentRequest, String> {
    let ty = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or("request: missing `type`")?;
    let u = |field: &str| -> Result<u64, String> {
        v.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("request {ty}: missing `{field}`"))
    };
    let u16f = |field: &str| -> Result<u16, String> {
        u(field).and_then(|n| {
            u16::try_from(n).map_err(|_| format!("request {ty}: `{field}` out of range"))
        })
    };
    let u32f = |field: &str| -> Result<u32, String> {
        u(field).and_then(|n| {
            u32::try_from(n).map_err(|_| format!("request {ty}: `{field}` out of range"))
        })
    };
    let wire = |field: &str| -> Result<Box<WireValue>, String> {
        WireValue::from_json(
            v.get(field)
                .ok_or_else(|| format!("request {ty}: missing `{field}`"))?,
        )
        .map(Box::new)
    };
    Ok(match ty {
        "Ping" => AgentRequest::Ping,
        "SetBreakpoint" => AgentRequest::SetBreakpoint {
            proc_id: u16f("proc_id")?,
            pc: u32f("pc")?,
        },
        "ClearBreakpoint" => AgentRequest::ClearBreakpoint { bp: u16f("bp")? },
        "ListBreakpoints" => AgentRequest::ListBreakpoints,
        "HaltAll" => AgentRequest::HaltAll,
        "ResumeAll" => AgentRequest::ResumeAll,
        "ListProcesses" => AgentRequest::ListProcesses,
        "ProcessState" => AgentRequest::ProcessState { pid: u("pid")? },
        "ReadStack" => AgentRequest::ReadStack { pid: u("pid")? },
        "ReadVar" => AgentRequest::ReadVar {
            pid: u("pid")?,
            frame: u32f("frame")?,
            slot: u16f("slot")?,
        },
        "WriteVar" => AgentRequest::WriteVar {
            pid: u("pid")?,
            frame: u32f("frame")?,
            slot: u16f("slot")?,
            value: wire("value")?,
        },
        "ReadGlobal" => AgentRequest::ReadGlobal {
            slot: u16f("slot")?,
        },
        "WriteGlobal" => AgentRequest::WriteGlobal {
            slot: u16f("slot")?,
            value: wire("value")?,
        },
        "PrintVar" => AgentRequest::PrintVar {
            pid: u("pid")?,
            frame: u32f("frame")?,
            slot: u16f("slot")?,
        },
        "Invoke" => AgentRequest::Invoke(Box::new(Invocation {
            proc: v
                .get("proc")
                .and_then(Json::as_str)
                .ok_or("request Invoke: missing `proc`")?
                .to_string(),
            args: v
                .get("args")
                .and_then(Json::as_array)
                .ok_or("request Invoke: missing `args`")?
                .iter()
                .map(WireValue::from_json)
                .collect::<Result<_, _>>()?,
        })),
        "StepOver" => AgentRequest::StepOver { pid: u("pid")? },
        "ContinueProcess" => AgentRequest::ContinueProcess { pid: u("pid")? },
        "ForceRunnable" => AgentRequest::ForceRunnable { pid: u("pid")? },
        "HaltProcess" => AgentRequest::HaltProcess { pid: u("pid")? },
        "ResumeProcess" => AgentRequest::ResumeProcess { pid: u("pid")? },
        "RpcStatus" => AgentRequest::RpcStatus { pid: u("pid")? },
        "RecentCalls" => AgentRequest::RecentCalls,
        "RecentServed" => AgentRequest::RecentServed,
        "ServingProcess" => AgentRequest::ServingProcess {
            call_id: u("call_id")?,
        },
        "ServerKnowledge" => AgentRequest::ServerKnowledge {
            call_id: u("call_id")?,
        },
        "ClientProcess" => AgentRequest::ClientProcess {
            call_id: u("call_id")?,
        },
        "ReadConsole" => AgentRequest::ReadConsole {
            from: u32f("from")?,
        },
        other => return Err(format!("request: unknown type `{other}`")),
    })
}

impl Stimulus {
    /// The station ids the driver call hands to the network, which
    /// indexes and asserts on them. `DropNext` is absent: its pair only
    /// keys a map, and the live call accepts any, so a recording may
    /// hold one the world does not have.
    fn stations(&self) -> &[u32] {
        match self {
            Stimulus::Connect { nodes, .. } => nodes,
            Stimulus::Spawn { node, .. }
            | Stimulus::Request { node, .. }
            | Stimulus::BreakAtLine { node, .. }
            | Stimulus::BreakAtProc { node, .. }
            | Stimulus::ClearBreakpoint { node, .. }
            | Stimulus::HaltAll { origin: node }
            | Stimulus::Diagnose { node, .. }
            | Stimulus::SetNodeUp { node, .. } => std::slice::from_ref(node),
            _ => &[],
        }
    }

    /// The stimulus as a tagged JSON object.
    pub fn to_json(&self) -> Json {
        let op = |name: &str| ("op", Json::Str(name.to_string()));
        let u = |v: u64| Json::Int(v as i128);
        match self {
            Stimulus::Spawn { node, entry, args } => Json::obj(vec![
                op("spawn"),
                ("node", u(*node as u64)),
                ("entry", Json::Str(entry.to_string())),
                (
                    "args",
                    Json::Array(args.iter().map(value_to_json).collect()),
                ),
            ]),
            Stimulus::RunUntil { until_us } => {
                Json::obj(vec![op("run_until"), ("until_us", u(*until_us))])
            }
            Stimulus::RunFor { dur_us } => Json::obj(vec![op("run_for"), ("dur_us", u(*dur_us))]),
            Stimulus::RunUntilIdle { limit_us } => {
                Json::obj(vec![op("run_until_idle"), ("limit_us", u(*limit_us))])
            }
            Stimulus::Connect { nodes, force } => Json::obj(vec![
                op("connect"),
                (
                    "nodes",
                    Json::Array(nodes.iter().map(|n| u(*n as u64)).collect()),
                ),
                ("force", Json::Bool(*force)),
            ]),
            Stimulus::Disconnect => Json::obj(vec![op("disconnect")]),
            Stimulus::Abandon => Json::obj(vec![op("abandon")]),
            Stimulus::Request { node, req } => Json::obj(vec![
                op("request"),
                ("node", u(*node as u64)),
                ("req", request_to_json(req)),
            ]),
            Stimulus::DrainEvents => Json::obj(vec![op("drain_events")]),
            Stimulus::WaitForStop { timeout_us } => {
                Json::obj(vec![op("wait_for_stop"), ("timeout_us", u(*timeout_us))])
            }
            Stimulus::BreakAtLine { node, line } => Json::obj(vec![
                op("break_at_line"),
                ("node", u(*node as u64)),
                ("line", u(*line as u64)),
            ]),
            Stimulus::BreakAtProc { node, name } => Json::obj(vec![
                op("break_at_proc"),
                ("node", u(*node as u64)),
                ("name", Json::Str(name.to_string())),
            ]),
            Stimulus::ClearBreakpoint { node, bp } => Json::obj(vec![
                op("clear_breakpoint"),
                ("node", u(*node as u64)),
                ("bp", u(*bp as u64)),
            ]),
            Stimulus::HaltAll { origin } => {
                Json::obj(vec![op("halt_all"), ("origin", u(*origin as u64))])
            }
            Stimulus::ResumeAll => Json::obj(vec![op("resume_all")]),
            Stimulus::Diagnose { node, call_id } => Json::obj(vec![
                op("diagnose"),
                ("node", u(*node as u64)),
                ("call_id", u(*call_id)),
            ]),
            Stimulus::DropNext { src, dst, count } => Json::obj(vec![
                op("drop_next"),
                ("src", u(*src as u64)),
                ("dst", u(*dst as u64)),
                ("count", u(*count as u64)),
            ]),
            Stimulus::SetNodeUp { node, up } => Json::obj(vec![
                op("set_node_up"),
                ("node", u(*node as u64)),
                ("up", Json::Bool(*up)),
            ]),
            Stimulus::SetLinkUp { a, b, up } => Json::obj(vec![
                op("set_link_up"),
                ("a", u(*a as u64)),
                ("b", u(*b as u64)),
                ("up", Json::Bool(*up)),
            ]),
            Stimulus::ArmWatch { expr } => {
                Json::obj(vec![op("arm_watch"), ("expr", Json::Str(expr.clone()))])
            }
            Stimulus::ClearWatch { id } => Json::obj(vec![op("clear_watch"), ("id", u(*id))]),
        }
    }

    /// Rebuilds a stimulus from [`to_json`](Stimulus::to_json) output.
    ///
    /// # Errors
    ///
    /// Unknown ops and missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<Stimulus, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("stimulus: missing `op`")?;
        let u = |field: &str| -> Result<u64, String> {
            v.get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stimulus {op}: missing `{field}`"))
        };
        let n32 = |field: &str| -> Result<u32, String> {
            u(field).and_then(|n| {
                u32::try_from(n).map_err(|_| format!("stimulus {op}: `{field}` out of range"))
            })
        };
        let b = |field: &str| -> Result<bool, String> {
            v.get(field)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("stimulus {op}: missing `{field}`"))
        };
        Ok(match op {
            "spawn" => Stimulus::Spawn {
                node: n32("node")?,
                entry: v
                    .get("entry")
                    .and_then(Json::as_str)
                    .ok_or("stimulus spawn: missing `entry`")?
                    .into(),
                args: v
                    .get("args")
                    .and_then(Json::as_array)
                    .ok_or("stimulus spawn: missing `args`")?
                    .iter()
                    .map(value_from_json)
                    .collect::<Result<_, _>>()?,
            },
            "run_until" => Stimulus::RunUntil {
                until_us: u("until_us")?,
            },
            "run_for" => Stimulus::RunFor {
                dur_us: u("dur_us")?,
            },
            "run_until_idle" => Stimulus::RunUntilIdle {
                limit_us: u("limit_us")?,
            },
            "connect" => Stimulus::Connect {
                nodes: v
                    .get("nodes")
                    .and_then(Json::as_array)
                    .ok_or("stimulus connect: missing `nodes`")?
                    .iter()
                    .map(|n| {
                        n.as_u64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or("stimulus connect: bad node".to_string())
                    })
                    .collect::<Result<_, _>>()?,
                force: b("force")?,
            },
            "disconnect" => Stimulus::Disconnect,
            "abandon" => Stimulus::Abandon,
            "request" => Stimulus::Request {
                node: n32("node")?,
                req: request_from_json(v.get("req").ok_or("stimulus request: missing `req`")?)?,
            },
            "drain_events" => Stimulus::DrainEvents,
            "wait_for_stop" => Stimulus::WaitForStop {
                timeout_us: u("timeout_us")?,
            },
            "break_at_line" => Stimulus::BreakAtLine {
                node: n32("node")?,
                line: n32("line")?,
            },
            "break_at_proc" => Stimulus::BreakAtProc {
                node: n32("node")?,
                name: v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("stimulus break_at_proc: missing `name`")?
                    .into(),
            },
            "clear_breakpoint" => Stimulus::ClearBreakpoint {
                node: n32("node")?,
                bp: u("bp").and_then(|n| {
                    u16::try_from(n)
                        .map_err(|_| "stimulus clear_breakpoint: `bp` out of range".to_string())
                })?,
            },
            "halt_all" => Stimulus::HaltAll {
                origin: n32("origin")?,
            },
            "resume_all" => Stimulus::ResumeAll,
            "diagnose" => Stimulus::Diagnose {
                node: n32("node")?,
                call_id: u("call_id")?,
            },
            "drop_next" => Stimulus::DropNext {
                src: n32("src")?,
                dst: n32("dst")?,
                count: n32("count")?,
            },
            "set_node_up" => Stimulus::SetNodeUp {
                node: n32("node")?,
                up: b("up")?,
            },
            "set_link_up" => Stimulus::SetLinkUp {
                a: n32("a")?,
                b: n32("b")?,
                up: b("up")?,
            },
            "arm_watch" => Stimulus::ArmWatch {
                expr: v
                    .get("expr")
                    .and_then(Json::as_str)
                    .ok_or("stimulus arm_watch: missing `expr`")?
                    .to_string(),
            },
            "clear_watch" => Stimulus::ClearWatch { id: u("id")? },
            other => return Err(format!("stimulus: unknown op `{other}`")),
        })
    }
}

/// A self-describing recording: recipe + stimulus journal + the trace the
/// original run emitted.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// World reconstruction inputs.
    pub recipe: Recipe,
    /// Ordered public-API calls that drove the world.
    pub stimuli: Vec<Stimulus>,
    /// The recorded run's `trace_jsonl()` output, byte-exact.
    pub trace: String,
    /// Folded-stack profile snapshot (`World::folded_stacks`), captured
    /// when the recorded world profiled its VMs. Replay diffs a fresh
    /// profile against this, so a recording also pins *where simulated
    /// time went*, not just what happened.
    pub profile: Option<String>,
}

impl Artifact {
    /// Renders the artifact as one self-describing JSON document
    /// (trailing newline included).
    pub fn render(&self) -> String {
        // The four small sections go through the `Json` writer; the trace
        // and the profile are the bulk of the document and are escaped
        // straight into the output instead of being cloned into a tree
        // first. Byte for byte the six-key object `Json::write` renders.
        let head = Json::obj(vec![
            ("format", Json::Str(FORMAT.to_string())),
            ("version", Json::Int(VERSION as i128)),
            ("recipe", self.recipe.to_json()),
            (
                "stimuli",
                Json::Array(self.stimuli.iter().map(Stimulus::to_json).collect()),
            ),
        ]);
        // Escaping grows a trace by about an eighth (its quotes and
        // newlines); reserve a quarter so the buffer is sized once.
        let bulk = self.trace.len() + self.profile.as_ref().map_or(0, String::len);
        let mut out = String::with_capacity(bulk + bulk / 4 + 4096);
        head.write(&mut out);
        out.pop(); // reopen the object: drop the `}`
        out.push_str(", \"trace\": ");
        quote_into(&self.trace, &mut out);
        out.push_str(", \"profile\": ");
        match &self.profile {
            Some(p) => quote_into(p, &mut out),
            None => out.push_str("null"),
        }
        out.push_str("}\n");
        out
    }

    /// Parses an artifact rendered by [`render`](Artifact::render).
    ///
    /// # Errors
    ///
    /// Everything [`Saved::parse`] rejects, and a well-formed document of
    /// the other kind (a blackbox dump).
    pub fn parse(text: &str) -> Result<Artifact, ReplayError> {
        Saved::parse(text)
            .and_then(Saved::recording)
            .map_err(ReplayError::Format)
    }

    /// The sections of a parsed document whose `format` tag and version
    /// [`Saved::parse`] has already checked.
    pub(crate) fn from_doc(mut doc: Json) -> Result<Artifact, String> {
        let recipe = Recipe::from_json(doc.get("recipe").ok_or("missing `recipe`")?)?;
        let stimuli: Vec<Stimulus> = doc
            .get("stimuli")
            .and_then(Json::as_array)
            .ok_or("missing `stimuli`")?
            .iter()
            .map(Stimulus::from_json)
            .collect::<Result<_, _>>()?;
        // A journal is outside input too: a station its own recipe does
        // not have is refused here, before a re-run can index with it.
        let stations = recipe.stations();
        if let Some(n) = stimuli
            .iter()
            .flat_map(Stimulus::stations)
            .find(|n| **n >= stations)
        {
            return Err(format!(
                "stimuli: no node {n} in a world of {stations} stations"
            ));
        }
        // Last, because they gut the document: the trace and the profile
        // are most of an artifact's bytes, so they are moved out rather
        // than copied. The profile is absent in artifacts recorded before
        // profiling existed; optional.
        let profile = match doc.get_mut("profile") {
            Some(Json::Str(s)) => Some(std::mem::take(s)),
            _ => None,
        };
        let trace = match doc.get_mut("trace") {
            Some(Json::Str(s)) => std::mem::take(s),
            _ => return Err("missing `trace`".to_string()),
        };
        Ok(Artifact {
            recipe,
            stimuli,
            trace,
            profile,
        })
    }
}

/// Errors from loading or replaying an artifact.
#[derive(Debug)]
pub enum ReplayError {
    /// The artifact text is malformed or has the wrong format/version.
    Format(String),
    /// The recipe no longer builds (e.g. the program fails to compile).
    Build(BuildError),
    /// A journal entry could not be applied.
    Stimulus(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Format(e) => write!(f, "artifact format: {e}"),
            ReplayError::Build(e) => write!(f, "rebuilding world: {e}"),
            ReplayError::Stimulus(e) => write!(f, "applying stimulus: {e}"),
        }
    }
}
impl std::error::Error for ReplayError {}

/// Outcome of a replay run.
#[derive(Debug)]
pub struct ReplayReport {
    /// The replayed world, positioned after the last stimulus — ready for
    /// further interactive debugging past the recorded horizon.
    pub world: World,
    /// First difference between the recorded and fresh traces, if any.
    pub divergence: Option<Divergence>,
    /// Number of events in the recorded trace.
    pub recorded_events: usize,
    /// Whether the fresh trace is byte-identical to the recorded one
    /// (stronger than `divergence.is_none()`: it also pins the JSONL
    /// rendering itself).
    pub byte_identical: bool,
    /// When the artifact embedded a folded-stack profile: whether the
    /// replayed world's profile is byte-identical to it. `None` when the
    /// recording carried no profile.
    pub profile_identical: Option<bool>,
}

/// Rebuilds the world named by `artifact` and re-runs its journal, then
/// diffs the fresh trace against the recorded one.
///
/// # Errors
///
/// [`ReplayError::Build`] when the recipe no longer builds;
/// [`ReplayError::Stimulus`] when a journal entry cannot be applied
/// (e.g. a spawn argument that was recorded as opaque).
pub fn replay(artifact: &Artifact) -> Result<ReplayReport, ReplayError> {
    replay_with(artifact, 1, None)
}

/// [`replay`] with the two things a caller may add: `threads` worker
/// threads stepping the rebuilt world, and an `installer` re-performing
/// the recipe's Rust-side [`Recipe::setup`] steps (see [`rerun`]).
///
/// Thread count is an execution knob, not part of the recorded recipe, so
/// a run recorded serially must replay byte-identically in parallel and
/// vice versa — this entry point is how the parallel gate proves it.
///
/// # Errors
///
/// Those of [`replay`], plus [`ReplayError::Stimulus`] when the
/// installer rejects a setup entry.
pub fn replay_with(
    artifact: &Artifact,
    threads: usize,
    installer: Option<&mut SetupInstaller<'_>>,
) -> Result<ReplayReport, ReplayError> {
    verify(artifact, rerun(artifact, threads, installer)?)
}

/// The kind of callback [`rerun`] uses to re-perform a recipe's
/// Rust-side setup steps against the freshly built world.
pub type SetupInstaller<'a> = dyn FnMut(&mut World, &str, &Json) -> Result<(), String> + 'a;

/// Rebuilds the world `artifact` names and drives it through the recorded
/// journal: build from the recipe, step on `threads` workers, re-perform
/// the recipe's Rust-side [`Recipe::setup`] steps, apply every stimulus.
/// The one way a recording is re-run — replay verifies the world this
/// returns, `pilgrim prof` reads its profile.
///
/// `installer` is called once per recorded `(kind, params)` entry, in
/// order, after the build and before the first stimulus; it must
/// re-create exactly what the recording run did. Without one, an
/// artifact that needs setup is refused by name: re-driving its journal
/// against a world with no handlers would be a different run.
///
/// # Errors
///
/// [`ReplayError::Format`] for a setup-bearing artifact and no installer;
/// [`ReplayError::Build`] when the recipe no longer builds;
/// [`ReplayError::Stimulus`] when the installer rejects a setup entry or
/// a journal entry cannot be applied (e.g. an opaque spawn argument).
pub fn rerun(
    artifact: &Artifact,
    threads: usize,
    installer: Option<&mut SetupInstaller<'_>>,
) -> Result<World, ReplayError> {
    let setup = &artifact.recipe.setup;
    if installer.is_none() && !setup.is_empty() {
        let kinds: Vec<&str> = setup.iter().map(|(k, _)| k.as_str()).collect();
        return Err(ReplayError::Format(format!(
            "artifact needs Rust-side setup ({}); replay it with \
             `replay_with` and an installer that knows these kinds",
            kinds.join(", ")
        )));
    }
    let mut world = artifact.recipe.build_world().map_err(ReplayError::Build)?;
    world.set_step_threads(threads);
    if let Some(install) = installer {
        for (kind, params) in setup {
            install(&mut world, kind, params)
                .map_err(|e| ReplayError::Stimulus(format!("setup `{kind}`: {e}")))?;
        }
    }
    for s in &artifact.stimuli {
        world.apply(s).map_err(ReplayError::Stimulus)?;
    }
    Ok(world)
}

/// Diffs a re-run world's trace (and profile) against the recording.
fn verify(artifact: &Artifact, world: World) -> Result<ReplayReport, ReplayError> {
    // Verification is bytes first, and streamed: each replayed event is
    // rendered into one reused line and matched against the recording
    // where the last match ended, so no second copy of the trace is
    // made. Equal bytes parse to equal events, so there is nothing for
    // the structural differ to explain and neither trace is parsed; the
    // recorded trace then holds exactly one line per event the replayed
    // tracer retains.
    let mut rest = artifact.trace.as_str();
    let mut matched = true;
    let mut line = String::new();
    world.tracer().for_each(|ev| {
        if matched {
            line.clear();
            ev.write_json(&mut line);
            line.push('\n');
            match rest.strip_prefix(line.as_str()) {
                Some(after) => rest = after,
                None => matched = false,
            }
        }
    });
    let byte_identical = matched && rest.is_empty();
    let (divergence, recorded_events) = if byte_identical {
        (None, world.tracer().len())
    } else {
        let recorded = TraceEvent::parse_jsonl(&artifact.trace)
            .map_err(|e| ReplayError::Format(format!("recorded trace: {e}")))?;
        let fresh_events = TraceEvent::parse_jsonl(&world.trace_jsonl())
            .map_err(|e| ReplayError::Format(format!("fresh trace: {e}")))?;
        (first_divergence(&recorded, &fresh_events), recorded.len())
    };
    Ok(ReplayReport {
        divergence,
        recorded_events,
        byte_identical,
        profile_identical: artifact
            .profile
            .as_ref()
            .map(|p| *p == world.folded_stacks()),
        world,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world keeps one stimulus per public driving call for its whole life, so
    /// the entry is pinned: boxed arguments, a shared entry name, and a
    /// request whose value-carrying variants box their payload.
    #[test]
    fn a_journal_entry_fits_in_40_bytes() {
        assert!(std::mem::size_of::<Stimulus>() <= 40);
        assert!(std::mem::size_of::<AgentRequest>() <= 24);
    }

    #[test]
    fn stimuli_round_trip_through_json() {
        let all = vec![
            Stimulus::Spawn {
                node: 1,
                entry: "main".into(),
                args: vec![
                    Value::Null,
                    Value::Int(-7),
                    Value::Bool(true),
                    Value::Str("hi \"there\"\n".into()),
                ]
                .into(),
            },
            Stimulus::RunUntil { until_us: u64::MAX },
            Stimulus::RunFor { dur_us: 1 },
            Stimulus::RunUntilIdle {
                limit_us: 30_000_000,
            },
            Stimulus::Connect {
                nodes: vec![0, 1, 2].into(),
                force: true,
            },
            Stimulus::Disconnect,
            Stimulus::Abandon,
            Stimulus::Request {
                node: 0,
                req: AgentRequest::WriteVar {
                    pid: 3,
                    frame: 1,
                    slot: 2,
                    value: Box::new(WireValue::Record {
                        type_name: "pt".into(),
                        fields: vec![WireValue::Int(1), WireValue::Array(vec![])],
                    }),
                },
            },
            Stimulus::DrainEvents,
            Stimulus::WaitForStop {
                timeout_us: 5_000_000,
            },
            Stimulus::BreakAtLine { node: 0, line: 12 },
            Stimulus::BreakAtProc {
                node: 1,
                name: "ping".into(),
            },
            Stimulus::ClearBreakpoint { node: 1, bp: 0 },
            Stimulus::HaltAll { origin: 0 },
            Stimulus::ResumeAll,
            Stimulus::Diagnose {
                node: 1,
                call_id: (1u64 << 40) | 5,
            },
            Stimulus::DropNext {
                src: 0,
                dst: 1,
                count: 3,
            },
            Stimulus::SetNodeUp { node: 2, up: false },
            Stimulus::SetLinkUp {
                a: 0,
                b: 3,
                up: false,
            },
            Stimulus::ArmWatch {
                expr: "rpc.failed > 0".into(),
            },
            Stimulus::ClearWatch { id: 1 },
        ];
        for s in &all {
            let mut rendered = String::new();
            s.to_json().write(&mut rendered);
            let parsed = Json::parse(&rendered).expect("valid JSON");
            let back = Stimulus::from_json(&parsed).expect("decodes");
            let mut rendered2 = String::new();
            back.to_json().write(&mut rendered2);
            assert_eq!(rendered, rendered2, "stimulus did not round-trip: {s:?}");
        }
    }

    #[test]
    fn every_agent_request_round_trips() {
        let reqs = vec![
            AgentRequest::Ping,
            AgentRequest::SetBreakpoint { proc_id: 1, pc: 2 },
            AgentRequest::ClearBreakpoint { bp: 3 },
            AgentRequest::ListBreakpoints,
            AgentRequest::HaltAll,
            AgentRequest::ResumeAll,
            AgentRequest::ListProcesses,
            AgentRequest::ProcessState { pid: 4 },
            AgentRequest::ReadStack { pid: 5 },
            AgentRequest::ReadVar {
                pid: 6,
                frame: 7,
                slot: 8,
            },
            AgentRequest::WriteVar {
                pid: 9,
                frame: 10,
                slot: 11,
                value: Box::new(WireValue::Str("x".into())),
            },
            AgentRequest::ReadGlobal { slot: 12 },
            AgentRequest::WriteGlobal {
                slot: 13,
                value: Box::new(WireValue::Null),
            },
            AgentRequest::PrintVar {
                pid: 14,
                frame: 15,
                slot: 16,
            },
            AgentRequest::Invoke(Box::new(Invocation {
                proc: "p".into(),
                args: vec![WireValue::Bool(false)],
            })),
            AgentRequest::StepOver { pid: 17 },
            AgentRequest::ContinueProcess { pid: 18 },
            AgentRequest::ForceRunnable { pid: 19 },
            AgentRequest::HaltProcess { pid: 20 },
            AgentRequest::ResumeProcess { pid: 21 },
            AgentRequest::RpcStatus { pid: 22 },
            AgentRequest::RecentCalls,
            AgentRequest::RecentServed,
            AgentRequest::ServingProcess { call_id: 23 },
            AgentRequest::ServerKnowledge { call_id: 24 },
            AgentRequest::ClientProcess { call_id: 25 },
            AgentRequest::ReadConsole { from: 26 },
        ];
        for req in &reqs {
            let mut rendered = String::new();
            request_to_json(req).write(&mut rendered);
            let parsed = Json::parse(&rendered).expect("valid JSON");
            let back = request_from_json(&parsed).expect("decodes");
            let mut rendered2 = String::new();
            request_to_json(&back).write(&mut rendered2);
            assert_eq!(rendered, rendered2, "request did not round-trip: {req:?}");
        }
    }

    #[test]
    fn opaque_spawn_args_fail_replay_loudly() {
        let rendered = {
            let mut out = String::new();
            value_to_json(&Value::Sem(3)).write(&mut out);
            out
        };
        let parsed = Json::parse(&rendered).unwrap();
        let err = value_from_json(&parsed).unwrap_err();
        assert!(err.contains("node-local"), "{err}");
    }

    #[test]
    fn artifact_rejects_foreign_documents() {
        assert!(matches!(
            Artifact::parse("{\"format\": \"other\"}"),
            Err(ReplayError::Format(_))
        ));
        assert!(matches!(
            Artifact::parse("not json"),
            Err(ReplayError::Format(_))
        ));
    }

    /// A small recorded run, profiled or not, whose trace and profile are
    /// then overwritten with text that exercises every escape class.
    fn hostile_artifact(profile: bool) -> Artifact {
        let mut w = World::builder()
            .program("main = proc (s: string)\n print(s)\n end")
            .seed(7)
            .node_config(NodeConfig {
                profile_vm: profile,
                ..NodeConfig::default()
            })
            .build()
            .expect("builds");
        w.spawn(0, "main", vec![Value::Str("arg \"q\"".into())]);
        w.run_until_idle(pilgrim_sim::SimTime::from_secs(1));
        let mut artifact = w.record();
        assert_eq!(artifact.profile.is_some(), profile);
        let hostile = "\"quoted\" back\\slash\ttab \u{1}\u{1f} λ\"→\\😀\n";
        artifact.trace.push_str(hostile);
        if let Some(p) = &mut artifact.profile {
            p.push_str(hostile);
        }
        artifact
    }

    /// The artifact as the six-key document `render` used to build as a
    /// `Json` tree (cloning the trace into it) before it streamed.
    fn document(a: &Artifact) -> Vec<(String, Json)> {
        let Json::Object(pairs) = Json::obj(vec![
            ("format", Json::Str(FORMAT.to_string())),
            ("version", Json::Int(VERSION as i128)),
            ("recipe", a.recipe.to_json()),
            (
                "stimuli",
                Json::Array(a.stimuli.iter().map(Stimulus::to_json).collect()),
            ),
            ("trace", Json::Str(a.trace.clone())),
            (
                "profile",
                match &a.profile {
                    Some(p) => Json::Str(p.clone()),
                    None => Json::Null,
                },
            ),
        ]) else {
            unreachable!("obj builds an object")
        };
        pairs
    }

    fn render_document(pairs: Vec<(String, Json)>) -> String {
        let mut out = String::new();
        Json::Object(pairs).write(&mut out);
        out.push('\n');
        out
    }

    #[test]
    fn streamed_render_matches_the_json_document() {
        for profile in [false, true] {
            let a = hostile_artifact(profile);
            let text = a.render();
            assert_eq!(text, render_document(document(&a)));
            let back = Artifact::parse(&text).expect("parses");
            assert_eq!(back.trace, a.trace);
            assert_eq!(back.profile, a.profile);
            assert_eq!(back.render(), text);
        }
    }

    /// `Artifact::parse` moves the trace out of the parsed document; what
    /// it accepts and which `trace` key wins must not have moved with it.
    #[test]
    fn trace_key_handling_is_unchanged_by_moving_it_out() {
        let a = hostile_artifact(false);
        let missing_trace =
            |pairs: Vec<(String, Json)>| match Artifact::parse(&render_document(pairs)) {
                Err(ReplayError::Format(e)) => assert_eq!(e, "missing `trace`"),
                other => panic!("expected a format error, got {other:?}"),
            };
        let at = |pairs: &[(String, Json)]| pairs.iter().position(|(k, _)| k == "trace").unwrap();

        let mut pairs = document(&a);
        pairs.remove(at(&pairs));
        missing_trace(pairs);

        for not_a_string in [Json::Int(5), Json::Null, Json::Array(vec![])] {
            let mut pairs = document(&a);
            let i = at(&pairs);
            pairs[i].1 = not_a_string;
            // A later, well-formed duplicate does not rescue it: lookup
            // is first-key-wins.
            pairs.push(("trace".to_string(), Json::Str("later".into())));
            missing_trace(pairs);
        }

        let mut pairs = document(&a);
        pairs.push(("trace".to_string(), Json::Str("later".into())));
        let first_wins = Artifact::parse(&render_document(pairs)).expect("parses");
        assert_eq!(first_wins.trace, a.trace);
        assert_eq!(first_wins.render(), a.render());
    }

    #[test]
    fn runaway_nesting_in_an_artifact_is_an_error() {
        for unit in ["[", "{\"a\":"] {
            let bare = unit.repeat(100_000);
            let in_recipe =
                format!("{{\"format\": \"{FORMAT}\", \"version\": {VERSION}, \"recipe\": {bare}");
            for text in [bare.as_str(), in_recipe.as_str()] {
                match Artifact::parse(text) {
                    Err(ReplayError::Format(e)) => {
                        assert!(e.contains("nesting deeper than"), "{e}")
                    }
                    other => panic!("expected a format error, got {other:?}"),
                }
            }
        }
    }
}
