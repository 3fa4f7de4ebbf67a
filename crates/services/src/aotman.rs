//! AOTMan, the authentication manager (§6.2).
//!
//! "The authentication manager, AOTMan, issues temporary unique
//! identifiers or TUIDs which are capability-like objects describing
//! rights of access or service. TUIDs must be continually refreshed before
//! their timeouts, typically two to five minutes long, expire."
//!
//! Clients call the RPC endpoints:
//!
//! * `aot_issue() returns (tuid, lifetime_ms)` — mint a TUID for the
//!   calling node;
//! * `aot_refresh(tuid) returns (ok)` — reset its timeout;
//! * `aot_check(tuid) returns (valid)` — is it still live?
//!
//! Each TUID is guarded by a [`Watcher`] process running the configured
//! [`TimeoutStrategy`]; with a debug-aware strategy, a client halted at a
//! breakpoint keeps its TUIDs (experiment E6).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use pilgrim::World;
use pilgrim_cclu::{Type, Value};
use pilgrim_mayflower::SemId;
use pilgrim_ring::NodeId;
use pilgrim_rpc::{HandlerCtx, RpcEndpoint};
use pilgrim_sim::json::Fields;
use pilgrim_sim::{Json, SimDuration, SimTime};

use crate::strategy::{GrantHooks, StrategyEvent, StrategyStats, TimeoutStrategy, Watcher};
use crate::{opt_strategy, sig, signal, us};

/// AOTMan configuration.
#[derive(Debug, Clone)]
pub struct AotConfig {
    /// TUID lifetime (the paper: two to five minutes; default 2 minutes).
    pub lifetime: SimDuration,
    /// The paper's `clock_tolerance` (default 100 ms).
    pub clock_tolerance: SimDuration,
    /// How timeouts of debugged clients are treated.
    pub strategy: TimeoutStrategy,
}

impl Default for AotConfig {
    fn default() -> Self {
        AotConfig {
            lifetime: SimDuration::from_mins(2),
            clock_tolerance: SimDuration::from_millis(100),
            strategy: TimeoutStrategy::StatusAndConvert,
        }
    }
}

impl AotConfig {
    /// The `aotman` setup entry: `node` first, then the lifetime, then
    /// only the keys that differ from the default.
    fn params(&self, node: u32) -> Json {
        let d = AotConfig::default();
        let mut pairs = vec![
            ("node", Json::Int(node.into())),
            ("lifetime_us", us(self.lifetime)),
        ];
        if self.clock_tolerance != d.clock_tolerance {
            pairs.push(("clock_tolerance_us", us(self.clock_tolerance)));
        }
        if self.strategy != d.strategy {
            pairs.push(("strategy", Json::Str(self.strategy.name().into())));
        }
        Json::obj(pairs)
    }

    /// The inverse of [`params`](AotConfig::params), absent keys read as
    /// their defaults.
    pub(crate) fn from_params(f: &Fields<'_>) -> Result<AotConfig, String> {
        let d = AotConfig::default();
        Ok(AotConfig {
            lifetime: SimDuration::from_micros(f.uint("lifetime_us")?),
            clock_tolerance: f
                .opt_uint("clock_tolerance_us")?
                .map_or(d.clock_tolerance, SimDuration::from_micros),
            strategy: opt_strategy(f)?.unwrap_or(d.strategy),
        })
    }
}

/// One issued TUID.
#[derive(Debug, Clone)]
pub struct TuidRecord {
    /// Owning client node.
    pub client: NodeId,
    /// Still valid?
    pub valid: bool,
    /// Refresh semaphore (signalled by `aot_refresh`).
    pub sem: SemId,
    /// Number of refreshes seen.
    pub refreshes: u64,
    /// When it was issued.
    pub issued_at: SimTime,
    /// When it was revoked, if it was.
    pub revoked_at: Option<SimTime>,
}

#[derive(Debug, Default)]
struct AotState {
    tuids: HashMap<u64, TuidRecord>,
    next_tuid: u64,
    stats: StrategyStats,
}

/// The authentication manager service.
#[derive(Debug, Clone)]
pub struct AotMan {
    state: Rc<RefCell<AotState>>,
    config: AotConfig,
    node: u32,
}

impl AotMan {
    /// Installs AOTMan on `node` of `world`, registering its RPC handlers
    /// and noting an `aotman` setup entry.
    pub fn install(world: &mut World, node: u32, config: AotConfig) -> AotMan {
        let state = Rc::new(RefCell::new(AotState::default()));
        world.install("aotman", config.params(node), |setup| {
            AotMan::handlers(setup.endpoint(node), &state, &config);
        });
        AotMan {
            state,
            config,
            node,
        }
    }

    fn handlers(ep: &mut RpcEndpoint, state: &Rc<RefCell<AotState>>, config: &AotConfig) {
        let (s, cfg) = (state.clone(), config.clone());
        ep.register_handler(
            "aot_issue",
            sig(&[], &[Type::Int, Type::Int]),
            Box::new(move |ctx: &mut HandlerCtx<'_>, _| {
                let sem = ctx.node.make_sem(0);
                let tuid = {
                    let mut st = s.borrow_mut();
                    st.next_tuid += 1;
                    let id = st.next_tuid;
                    let record = TuidRecord {
                        client: ctx.caller,
                        valid: true,
                        sem,
                        refreshes: 0,
                        issued_at: ctx.now,
                        revoked_at: None,
                    };
                    st.tuids.insert(id, record);
                    id
                };
                let hooks = TuidHooks {
                    state: s.clone(),
                    tuid,
                };
                let name = format!("aot:watch#{tuid}");
                let (life, tol) = (cfg.lifetime, cfg.clock_tolerance);
                Watcher::spawn(ctx, hooks, &name, sem, life, tol, cfg.strategy);
                Ok(vec![
                    Value::Int(tuid as i64),
                    Value::Int(life.as_millis() as i64),
                ])
            }),
        );
        let s = state.clone();
        ep.register_handler(
            "aot_refresh",
            sig(&[Type::Int], &[Type::Bool]),
            Box::new(move |ctx: &mut HandlerCtx<'_>, args: Vec<Value>| {
                let id = args[0].as_int().ok_or("tuid must be int")? as u64;
                let sem = match s.borrow_mut().tuids.get_mut(&id) {
                    Some(t) if t.valid => {
                        t.refreshes += 1;
                        Some(t.sem)
                    }
                    _ => None,
                };
                signal(ctx, sem)
            }),
        );
        let s = state.clone();
        ep.register_handler(
            "aot_check",
            sig(&[Type::Int], &[Type::Bool]),
            Box::new(move |_: &mut HandlerCtx<'_>, args: Vec<Value>| {
                let id = args[0].as_int().ok_or("tuid must be int")? as u64;
                Ok(vec![Value::Bool(s.borrow().valid(id))])
            }),
        );
    }

    /// The node the service runs on.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The active configuration.
    pub fn config(&self) -> &AotConfig {
        &self.config
    }

    /// Strategy counters (status calls, extensions, revocations...).
    pub fn stats(&self) -> StrategyStats {
        self.state.borrow().stats
    }

    /// Snapshot of one TUID.
    pub fn tuid(&self, id: u64) -> Option<TuidRecord> {
        self.state.borrow().tuids.get(&id).cloned()
    }

    /// Is `id` still valid?
    pub fn is_valid(&self, id: u64) -> bool {
        self.tuid(id).is_some_and(|t| t.valid)
    }

    /// Ids of all TUIDs ever issued.
    pub fn issued(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.state.borrow().tuids.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

impl AotState {
    fn valid(&self, id: u64) -> bool {
        self.tuids.get(&id).is_some_and(|t| t.valid)
    }
}

/// Hook adapter: the watcher revokes one TUID.
struct TuidHooks {
    state: Rc<RefCell<AotState>>,
    tuid: u64,
}

impl GrantHooks for TuidHooks {
    fn revoke(&mut self, at: SimTime) {
        if let Some(t) = self.state.borrow_mut().tuids.get_mut(&self.tuid) {
            t.valid = false;
            t.revoked_at = Some(at);
        }
    }
    fn active(&self) -> bool {
        self.state.borrow().valid(self.tuid)
    }
    fn record(&mut self, ev: StrategyEvent) {
        self.state.borrow_mut().stats.apply(ev);
    }
}
