//! The stimulus journal: the one funnel every recorded driver call goes
//! through, the one setup funnel ([`World::install`]) and the one marked
//! hatch ([`World::unrecorded_node`]) beside it, the simulation's own
//! driver calls (spawn, run, fault injection), and `record` / `apply` —
//! the two ends of a replay.

use pilgrim_cclu::Value;
use pilgrim_mayflower::{Node, Pid, SpawnOpts, UnknownProc};
use pilgrim_ring::NodeId;
use pilgrim_rpc::RpcEndpoint;
use pilgrim_sim::{Chunked, Json, SimDuration, SimTime, Tracer};

use super::World;
use crate::replay::{Artifact, Recipe, Stimulus, UNRECORDED};

/// What [`World::install`] lends its body. Every station whose endpoint
/// it hands out has its index entries refreshed when the body returns.
pub struct Setup<'w> {
    world: &'w mut World,
    touched: Vec<usize>,
}

impl Setup<'_> {
    /// Station `i`'s RPC endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a station.
    pub fn endpoint(&mut self, i: u32) -> &mut RpcEndpoint {
        let ep = &mut self.world.endpoints[i as usize];
        self.touched.push(i as usize);
        ep
    }

    /// The world's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.world.tracer
    }
}

impl World {
    /// The reproduction recipe this world was built from.
    pub fn recipe(&self) -> &Recipe {
        &self.recipe
    }

    /// The stimulus journal: every public driving call made so far, in
    /// order, with concrete arguments.
    pub fn journal(&self) -> &Chunked<Stimulus> {
        &self.journal
    }

    /// Packages the recipe, the stimulus journal, and a digest of each
    /// event traced so far ([`Tracer::digests`]) into a self-describing
    /// replay artifact. Render it with [`Artifact::render`]; reproduce it
    /// with [`crate::replay::replay`].
    pub fn record(&self) -> Artifact {
        let mut stimuli = Vec::with_capacity(self.journal.len());
        stimuli.extend(self.journal.iter().cloned());
        Artifact {
            recipe: self.recipe.clone(),
            stimuli,
            digests: self.tracer.digests(),
            profile: self
                .recipe
                .node_cfg
                .profile_vm
                .then(|| self.folded_stacks()),
        }
    }

    /// The one setup funnel: notes `(kind, params)` in the recipe's
    /// [`Recipe::setup`] and lends `body` what a Rust-side installer
    /// needs — the stations' RPC endpoints, to register native procedures
    /// on, and the tracer. `params` must be enough for a replay installer
    /// to redo `body`: [`crate::replay::rerun`] builds the world without
    /// the recorded setup, lets its installer re-note each entry through
    /// here, and refuses the run if the two lists differ.
    pub fn install<R>(
        &mut self,
        kind: &str,
        params: Json,
        body: impl FnOnce(&mut Setup<'_>) -> R,
    ) -> R {
        self.recipe.setup.push((kind.to_string(), params));
        let mut setup = Setup {
            world: self,
            touched: Vec::new(),
        };
        let r = body(&mut setup);
        for i in std::mem::take(&mut setup.touched) {
            self.refresh_station(i);
        }
        r
    }

    /// Raw access to station `i`'s node, for what no journalled call can
    /// do (opaque heap arguments, supervisor pokes in gates). Replay
    /// cannot redo a closure, so the world is marked: the recipe gains an
    /// `("unrecorded", {"node": i})` setup entry, and
    /// [`crate::replay::rerun`] refuses the recording by name instead of
    /// diverging at some later event. Station `i`'s index entries are
    /// refreshed when `body` returns, as after a spawn.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a station.
    pub fn unrecorded_node<R>(&mut self, i: u32, body: impl FnOnce(&mut Node) -> R) -> R {
        let r = body(&mut self.nodes[i as usize]);
        let params = Json::obj(vec![("node", Json::Int(i.into()))]);
        self.recipe.setup.push((UNRECORDED.to_string(), params));
        self.refresh_station(i as usize);
        r
    }

    /// The one funnel every journalled driver entry goes through. Only
    /// the outermost call records its stimulus — a composite such as
    /// [`World::break_at_line`] calls [`World::debug_request`] directly
    /// without double-journalling — and, if its body pumped, settles the
    /// skipped nodes' clocks once on the way out. [`World::apply`]
    /// dispatches to the same public methods, so the live API and replay
    /// share this path by construction.
    pub(super) fn drive<R>(&mut self, stimulus: Stimulus, body: impl FnOnce(&mut World) -> R) -> R {
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
        let program = node.program();
        let proc = program
            .proc_by_name(entry)
            .ok_or_else(|| UnknownProc(entry.to_string()).to_string())?;
        let stimulus = Stimulus::Spawn {
            node: i,
            entry: program.proc(proc).debug.name.clone(),
            args: args.as_slice().into(),
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

    /// Advances the world to `limit`.
    pub fn run_until(&mut self, limit: SimTime) {
        let stimulus = Stimulus::RunUntil {
            until_us: limit.as_micros(),
        };
        self.drive(stimulus, |w| w.pump_to(limit, false));
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
        self.drive(stimulus, |w| w.pump_to(limit, true));
    }

    /// The run loop: pump to `limit`, stopping early when a watchpoint
    /// trips or — if asked — when the world goes idle.
    fn pump_to(&mut self, limit: SimTime, stop_when_idle: bool) {
        while self.now < limit {
            self.pump_step(limit);
            if self.take_watch_halt() || (stop_when_idle && self.is_idle()) {
                break;
            }
        }
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
                self.try_spawn(*node, entry, args.to_vec())?;
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
