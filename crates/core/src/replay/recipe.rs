//! The recipe: everything a world is built from, and its JSON.

use pilgrim_mayflower::NodeConfig;
use pilgrim_ring::NetworkConfig;
use pilgrim_rpc::RpcConfig;
use pilgrim_sim::json::Fields;
use pilgrim_sim::{Json, BLACKBOX_CAPACITY};

use crate::agent::AgentConfig;
use crate::world::{BuildError, World, WorldBuilder};

/// Everything [`crate::WorldBuilder`] needs to rebuild a world
/// bit-for-bit: topology, seeds, configs and programs. The builder's
/// setters write it directly, so this struct (with its `Default` and
/// JSON) is where a recipe-carried input is declared.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Number of user nodes.
    pub nodes: u32,
    /// Master seed.
    pub seed: u64,
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
    /// Rust-side setup steps taken against the built world — native
    /// service installs (nameserver, aotman), name registrations, trace
    /// filters, and the like — each noted by [`World::install`]. These
    /// cannot be journalled as stimuli (they register native handler
    /// closures), so the recipe records `(kind, params)` markers and
    /// [`rerun`](super::rerun) asks its caller's installer to re-perform
    /// them. A plain [`replay`](super::replay) of a setup-bearing artifact
    /// fails with a message naming the kinds; an
    /// [`UNRECORDED`](super::UNRECORDED) entry, noted by
    /// [`World::unrecorded_node`], is refused by every replay.
    pub setup: Vec<(String, Json)>,
}

/// Default sampling cadence of the always-on time-series store.
const TSDB_COARSE_INTERVAL: u64 = 64;
/// Default ring budget of the always-on time-series store — small enough
/// that a world nobody queries pays next to nothing for it
/// (`sim.tsdb.ns_per_sample` in `benchmark/` prices one sample).
const TSDB_COARSE_BUDGET: usize = 64;
/// Most user nodes a recipe read from a file may ask for: a world costs
/// kilobytes per station before anything runs.
const MAX_NODES: u32 = 1 << 20;

impl Default for Recipe {
    /// What [`World::builder`] starts from: one node with no program, the
    /// debugger and agents attached, every sampling knob at its default.
    fn default() -> Recipe {
        Recipe {
            nodes: 1,
            seed: 0,
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
    pub fn stations(&self) -> u32 {
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
        let f = Fields::new(v, &"recipe");
        let nodes = f.uint("nodes")?;
        if !(1..=MAX_NODES).contains(&nodes) {
            return Err(format!(
                "recipe: `nodes` is {nodes}, outside 1..={MAX_NODES}"
            ));
        }
        let mut recipe = Recipe {
            nodes,
            seed: f.uint("seed")?,
            // `null` is how the writer says "no shared program".
            default_source: match f.get("default_program")? {
                Json::Null => None,
                _ => Some(f.str("default_program")?.to_string()),
            },
            per_node_source: Vec::new(),
            net: NetworkConfig::from_json(f.object("net")?)?,
            rpc: RpcConfig::from_json(f.object("rpc")?)?,
            node_cfg: NodeConfig::from_json(f.object("node_cfg")?)?,
            agent_cfg: AgentConfig::from_json(f.object("agent")?)?,
            with_debugger: f.bool("debugger")?,
            with_agents: f.bool("agents")?,
            trace_sample: f.uint("trace_sample")?,
            blackbox_capacity: f.uint("blackbox_capacity")?,
            coarse_interval: f.uint("coarse_interval")?,
            coarse_budget: f.uint("coarse_budget")?,
            setup: f.list("setup", |e| {
                let entry = Fields::new(e, &"recipe: setup entry");
                let setup = (entry.str("kind")?.to_string(), entry.get("params")?.clone());
                entry.finish()?;
                Ok(setup)
            })?,
        };
        let programs: Vec<(u32, &str)> = f.list("programs", |p| {
            let entry = Fields::new(p, &"recipe: program entry");
            let program = (entry.uint("node")?, entry.str("source")?);
            entry.finish()?;
            Ok(program)
        })?;
        f.finish()?;
        for (node, source) in programs {
            if node >= nodes {
                return Err(format!(
                    "recipe: program entry for node {node} in a world of {nodes} nodes"
                ));
            }
            recipe.set_program_for(node, source);
        }
        // A segment count is read from outside input and the network keeps
        // an entry per segment and per bridge, so it is bounded by the
        // stations it carves up before anything is built for it.
        let (segments, stations) = (recipe.net.topology.segments(), recipe.stations());
        if segments > stations {
            return Err(format!(
                "recipe: the topology has {segments} segments, more than the world's {stations} stations"
            ));
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
