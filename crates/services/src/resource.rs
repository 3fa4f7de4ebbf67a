//! The Resource Manager (§6.2).
//!
//! "The Resource Manager allocates machines to users and programs. These
//! resources are reclaimed by the manager after long timeouts (typically
//! three hours) have expired." The §6.2 contention refinement is also
//! implemented: a debug-extended allocation is kept "until a client, not
//! under control of the same debugger, requests the resource. At that
//! point the resource is reclaimed and reallocated."
//!
//! RPC endpoints:
//!
//! * `rm_request() returns (resource)` — allocate, `-1` when none free;
//! * `rm_renew(resource) returns (ok)` — reset the lease;
//! * `rm_release(resource) returns (ok)` — give it back.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
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

/// Resource Manager configuration.
#[derive(Debug, Clone)]
pub struct RmConfig {
    /// Number of machines in the pool.
    pub resources: u32,
    /// Lease length before reclamation (the paper: typically three hours).
    pub lease: SimDuration,
    /// The paper's `clock_tolerance`.
    pub clock_tolerance: SimDuration,
    /// Timeout strategy for debugged holders.
    pub strategy: TimeoutStrategy,
    /// Reclaim a debug-extended allocation when another client wants the
    /// resource (§6.2 "Resource contention with other users").
    pub reclaim_on_contention: bool,
}

impl Default for RmConfig {
    fn default() -> Self {
        RmConfig {
            resources: 1,
            lease: SimDuration::from_hours(3),
            clock_tolerance: SimDuration::from_millis(100),
            strategy: TimeoutStrategy::StatusAndConvert,
            reclaim_on_contention: true,
        }
    }
}

impl RmConfig {
    /// The `resource-manager` setup entry: `node` first, then only the
    /// keys that differ from the default.
    fn params(&self, node: u32) -> Json {
        let d = RmConfig::default();
        let mut pairs = vec![("node", Json::Int(node.into()))];
        if self.resources != d.resources {
            pairs.push(("resources", Json::Int(self.resources.into())));
        }
        if self.lease != d.lease {
            pairs.push(("lease_us", us(self.lease)));
        }
        if self.clock_tolerance != d.clock_tolerance {
            pairs.push(("clock_tolerance_us", us(self.clock_tolerance)));
        }
        if self.strategy != d.strategy {
            pairs.push(("strategy", Json::Str(self.strategy.name().into())));
        }
        if self.reclaim_on_contention != d.reclaim_on_contention {
            let reclaim = Json::Bool(self.reclaim_on_contention);
            pairs.push(("reclaim_on_contention", reclaim));
        }
        Json::obj(pairs)
    }

    /// The inverse of [`params`](RmConfig::params), absent keys read as
    /// their defaults.
    pub(crate) fn from_params(f: &Fields<'_>) -> Result<RmConfig, String> {
        let d = RmConfig::default();
        let dur = |key: &str, default: SimDuration| {
            f.opt_uint(key)
                .map(|v| v.map_or(default, SimDuration::from_micros))
        };
        Ok(RmConfig {
            resources: f.opt_uint("resources")?.unwrap_or(d.resources),
            lease: dur("lease_us", d.lease)?,
            clock_tolerance: dur("clock_tolerance_us", d.clock_tolerance)?,
            strategy: opt_strategy(f)?.unwrap_or(d.strategy),
            reclaim_on_contention: f
                .opt_bool("reclaim_on_contention")?
                .unwrap_or(d.reclaim_on_contention),
        })
    }
}

/// Something that happened in the manager, for experiment logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmEvent {
    /// Resource granted to a node.
    Granted {
        /// Which resource.
        resource: u32,
        /// New holder.
        to: NodeId,
    },
    /// A request could not be satisfied.
    Denied {
        /// The requester.
        to: NodeId,
    },
    /// An extended allocation was reclaimed because someone else asked.
    ReclaimedForContention {
        /// Which resource.
        resource: u32,
        /// Previous holder (who was being debugged).
        from: NodeId,
        /// New holder.
        to: NodeId,
    },
    /// A lease genuinely expired.
    Expired {
        /// Which resource.
        resource: u32,
        /// The holder that lost it.
        from: NodeId,
    },
    /// Voluntarily released.
    Released {
        /// Which resource.
        resource: u32,
        /// Former holder.
        from: NodeId,
    },
}

#[derive(Debug)]
struct Allocation {
    holder: NodeId,
    sem: SemId,
    /// Set when the watcher has extended the lease because the holder is
    /// being debugged — the contention policy only preempts these.
    extended: bool,
    /// Epoch guard: bumped on every grant so a stale watcher cannot
    /// revoke a re-allocated resource.
    epoch: u64,
}

#[derive(Debug, Default)]
struct RmState {
    allocations: HashMap<u32, Allocation>,
    /// Released resources, reused last-in first-out before `fresh`.
    free: Vec<u32>,
    /// Resources never granted yet, handed out in ascending order. A
    /// range, so a pool size read from a recording allocates nothing.
    fresh: Range<u32>,
    events: Vec<(SimTime, RmEvent)>,
    stats: StrategyStats,
}

/// The Resource Manager service.
#[derive(Debug, Clone)]
pub struct ResourceManager {
    state: Rc<RefCell<RmState>>,
    config: RmConfig,
    node: u32,
}

impl ResourceManager {
    /// Installs the manager on `node` of `world`, noting a
    /// `resource-manager` setup entry.
    pub fn install(world: &mut World, node: u32, config: RmConfig) -> ResourceManager {
        let state = Rc::new(RefCell::new(RmState {
            fresh: 0..config.resources,
            ..Default::default()
        }));
        world.install("resource-manager", config.params(node), |setup| {
            ResourceManager::handlers(setup.endpoint(node), &state, &config);
        });
        ResourceManager {
            state,
            config,
            node,
        }
    }

    fn handlers(ep: &mut RpcEndpoint, state: &Rc<RefCell<RmState>>, config: &RmConfig) {
        let (s, cfg) = (state.clone(), config.clone());
        ep.register_handler(
            "rm_request",
            sig(&[], &[Type::Int]),
            Box::new(move |ctx: &mut HandlerCtx<'_>, _| {
                let to = ctx.caller;
                let mut st = s.borrow_mut();
                // Epoch = a unique stamp per grant; use the event count.
                let epoch = st.events.len() as u64 + 1;
                let resource = match st.free.pop().or_else(|| st.fresh.next()) {
                    Some(resource) => resource,
                    None => {
                        // Contention (§6.2): preempt a debug-extended
                        // allocation held by somebody else.
                        let victim = st
                            .allocations
                            .iter()
                            .find(|(_, a)| {
                                cfg.reclaim_on_contention && a.extended && a.holder != to
                            })
                            .map(|(r, a)| (*r, a.holder, a.sem));
                        let Some((resource, from, sem)) = victim else {
                            st.events.push((ctx.now, RmEvent::Denied { to }));
                            return Ok(vec![Value::Int(-1)]);
                        };
                        st.allocations.remove(&resource);
                        let ev = RmEvent::ReclaimedForContention { resource, from, to };
                        st.events.push((ctx.now, ev));
                        // Wake the old watcher so it notices the allocation
                        // is gone and exits.
                        ctx.node.signal_sem(sem);
                        resource
                    }
                };
                let sem = ctx.node.make_sem(0);
                let alloc = Allocation {
                    holder: to,
                    sem,
                    extended: false,
                    epoch,
                };
                st.allocations.insert(resource, alloc);
                st.events.push((ctx.now, RmEvent::Granted { resource, to }));
                drop(st);
                let hooks = AllocHooks {
                    state: s.clone(),
                    resource,
                    epoch,
                };
                let name = format!("rm:watch#{resource}");
                let (lease, tol) = (cfg.lease, cfg.clock_tolerance);
                Watcher::spawn(ctx, hooks, &name, sem, lease, tol, cfg.strategy);
                Ok(vec![Value::Int(i64::from(resource))])
            }),
        );
        let s = state.clone();
        ep.register_handler(
            "rm_renew",
            sig(&[Type::Int], &[Type::Bool]),
            Box::new(move |ctx: &mut HandlerCtx<'_>, args: Vec<Value>| {
                let r = args[0].as_int().ok_or("resource must be int")? as u32;
                let sem = match s.borrow_mut().allocations.get_mut(&r) {
                    Some(a) if a.holder == ctx.caller => {
                        a.extended = false;
                        Some(a.sem)
                    }
                    _ => None,
                };
                signal(ctx, sem)
            }),
        );
        let s = state.clone();
        ep.register_handler(
            "rm_release",
            sig(&[Type::Int], &[Type::Bool]),
            Box::new(move |ctx: &mut HandlerCtx<'_>, args: Vec<Value>| {
                let r = args[0].as_int().ok_or("resource must be int")? as u32;
                let mut st = s.borrow_mut();
                let sem = match st.allocations.get(&r) {
                    Some(a) if a.holder == ctx.caller => a.sem,
                    _ => return signal(ctx, None),
                };
                st.allocations.remove(&r);
                st.free.push(r);
                let ev = RmEvent::Released {
                    resource: r,
                    from: ctx.caller,
                };
                st.events.push((ctx.now, ev));
                signal(ctx, Some(sem))
            }),
        );
    }

    /// The node the service runs on.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The active configuration.
    pub fn config(&self) -> &RmConfig {
        &self.config
    }

    /// Strategy counters.
    pub fn stats(&self) -> StrategyStats {
        self.state.borrow().stats
    }

    /// The event log, in order.
    pub fn events(&self) -> Vec<(SimTime, RmEvent)> {
        self.state.borrow().events.clone()
    }

    /// Current holder of `resource`.
    pub fn holder(&self, resource: u32) -> Option<NodeId> {
        let s = self.state.borrow();
        s.allocations.get(&resource).map(|a| a.holder)
    }

    /// Number of unallocated resources.
    pub fn free_count(&self) -> usize {
        let s = self.state.borrow();
        s.free.len() + s.fresh.len()
    }
}

struct AllocHooks {
    state: Rc<RefCell<RmState>>,
    resource: u32,
    epoch: u64,
}

impl AllocHooks {
    /// This grant's allocation, unless the resource has since been
    /// reallocated (a stale watcher).
    fn mine<'s>(&self, s: &'s mut RmState) -> Option<&'s mut Allocation> {
        let a = s.allocations.get_mut(&self.resource)?;
        (a.epoch == self.epoch).then_some(a)
    }
}

impl GrantHooks for AllocHooks {
    fn revoke(&mut self, at: SimTime) {
        let mut s = self.state.borrow_mut();
        let Some(from) = self.mine(&mut s).map(|a| a.holder) else {
            return;
        };
        s.allocations.remove(&self.resource);
        s.free.push(self.resource);
        let resource = self.resource;
        s.events.push((at, RmEvent::Expired { resource, from }));
    }
    fn active(&self) -> bool {
        self.mine(&mut self.state.borrow_mut()).is_some()
    }
    fn record(&mut self, ev: StrategyEvent) {
        let mut s = self.state.borrow_mut();
        s.stats.apply(ev);
        // The contention policy keys off "this allocation has been
        // extended for a debugged holder".
        if ev == StrategyEvent::Extension {
            if let Some(a) = self.mine(&mut s) {
                a.extended = true;
            }
        }
    }
}
