//! The production pump: one lockstep window at a time, O(active
//! stations) each, with the stepping and the delivery / outcall routing
//! it drives.

use pilgrim_mayflower::{Node, Outcall};
use pilgrim_ring::NodeId;
use pilgrim_rpc::RpcEndpoint;
use pilgrim_sim::SimTime;

use super::{AsRpcNet, Wire, World};

impl World {
    /// One pump iteration: pick the next event time, advance every node
    /// with pending work to it, deliver packets, fire protocol timers.
    pub(super) fn pump_step(&mut self, limit: SimTime) {
        if self.reference_pump {
            self.pump_step_reference(limit);
        } else {
            self.pump_step_skip(limit);
        }
    }

    /// The quiescence-aware pump: O(active stations) per window.
    ///
    /// The activity index answers both questions the reference pump
    /// scanned for — "when is the next event?" (`live_min`) and "who has
    /// work in the window?" (`drain_window`). Only those stations are
    /// stepped, in ascending index order, so the event sequence — and therefore
    /// every trace byte — matches the reference pump, which also visits
    /// stations in ascending order and emits nothing for quiescent ones
    /// (an idle `advance_into` produces no events, a timer-less
    /// `on_timers` fires nothing). Skipped nodes keep stale clocks;
    /// they are caught up before anything observes them (delivery
    /// routing, timer dispatch, or [`World::settle_clocks`] on the way
    /// out of `World::drive`).
    fn pump_step_skip(&mut self, limit: SimTime) {
        let now = self.now;
        // The two station lists live in the indexes between windows, so a
        // sync point allocates nothing once they have grown.
        let mut to_step = self.node_index.take_scratch();
        let mut due_eps = self.ep_index.take_scratch();

        // Node entries at or before `now` are backlog and step regardless;
        // the earliest event strictly after `now` bounds the window.
        self.node_index.drain_due(now, &mut to_step);
        let mut next = now + self.window;
        let horizon = [
            self.node_index.live_min(),
            self.net.next_delivery_at(),
            self.ep_index.live_min(),
        ];
        for t in horizon.into_iter().flatten() {
            if t > now {
                next = next.min(t);
            }
        }
        let next = next.min(limit);

        // Everything due inside the window joins the step / fire sets. A
        // runnable node whose clock is already `next` is left for the next
        // window: stepping it to its own clock would run nothing.
        self.node_index.drain_window(next, &mut to_step);
        self.ep_index.drain_due(next, &mut due_eps);
        for i in self.outcall_pending.drain(..) {
            self.outcall_flag[i] = false;
            to_step.push(i);
        }
        to_step.sort_unstable();
        to_step.dedup();
        due_eps.sort_unstable();
        due_eps.dedup();

        self.step_nodes(&to_step, next);
        let mut touched = to_step;

        // Lent like `outcall_buf`: routing a delivery may send, never poll.
        let mut deliveries = std::mem::take(&mut self.delivery_buf);
        self.net.poll_into(next, &mut deliveries);
        for d in deliveries.drain(..) {
            let i = d.dst.0 as usize;
            // The reference pump advanced every node before routing; a
            // skipped destination must observe the same clock.
            self.nodes[i].catch_up_clock(next);
            touched.push(i);
            self.route_delivery(d.at, d.src, d.dst, d.payload);
        }
        self.delivery_buf = deliveries;

        for &i in &due_eps {
            self.nodes[i].catch_up_clock(next);
            self.endpoints[i].on_timers(next, &mut self.nodes[i], &mut AsRpcNet(&mut self.net));
        }
        touched.extend_from_slice(&due_eps);

        touched.sort_unstable();
        touched.dedup();
        for &i in &touched {
            self.refresh_station(i);
        }
        self.node_index.put_scratch(touched);
        self.ep_index.put_scratch(due_eps);

        self.end_window(next);
    }

    /// The tail both pumps share: advance the clock, count the sync
    /// point, sample the metrics into the time-series store, then check
    /// watchpoints — so a run and its replay sample at identical sync
    /// points and render byte-identical `tsdb` output.
    pub(super) fn end_window(&mut self, next: SimTime) {
        self.now = next;
        self.sync_points += 1;
        self.series.on_sync(next, &self.metrics);
        if !self.watches.is_empty() {
            self.check_watches();
        }
    }

    /// Nothing runnable, no packet in flight, no protocol timer pending.
    /// The activity index already knows — O(1) instead of the full node +
    /// endpoint rescan the reference pump needs.
    pub(super) fn is_idle(&mut self) -> bool {
        if self.reference_pump {
            return self.reference_is_idle();
        }
        self.node_index.active() == 0
            && self.net.next_delivery_at().is_none()
            && self.ep_index.active() == 0
    }

    /// Rebuilds the activity index from scratch: at build, and when
    /// [`World::set_reference_pump`] hands the world back to this pump.
    /// Everything else keeps it exact one station at a time.
    pub(super) fn rebuild_index(&mut self) {
        let n = self.nodes.len();
        self.node_index.reset(n);
        self.ep_index.reset(n);
        self.outcall_flag = vec![false; n];
        self.outcall_pending.clear();
        for i in 0..n {
            self.refresh_station(i);
        }
    }

    /// Re-derives station `i`'s index entries after its node or endpoint
    /// state may have changed. Caches are exact — `next_activity` and
    /// `next_timer` shed their own stale entries — so a skipped station's
    /// cached time is always its true next event time.
    pub(super) fn refresh_station(&mut self, i: usize) {
        // A node whose next activity is its own clock is schedulable now
        // and will be re-keyed every window it steps in: it goes in the
        // index's runnable list. Anything else waits on a timer: parked.
        let node = &mut self.nodes[i];
        match node.next_activity() {
            Some(t) if t == node.clock() => self.node_index.set_runnable(i, t),
            t => self.node_index.set(i, t),
        }
        self.ep_index.set(i, self.endpoints[i].next_timer());
        if self.nodes[i].has_pending_outcalls() && !self.outcall_flag[i] {
            self.outcall_flag[i] = true;
            self.outcall_pending.push(i);
        }
    }

    /// Brings every skipped-quiescent node's clock up to the world clock.
    /// `World::drive` runs it after every driver call that pumped, so
    /// external observers — semantics digests read `Node::clock`, reports
    /// read scheduler state — see exactly what the full-scan pump would
    /// have produced.
    pub(super) fn settle_clocks(&mut self) {
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
        if self.reference_pump {
            return;
        }
        let nodes = self.nodes.iter_mut().map(Node::next_activity);
        self.node_index.validate("node", nodes);
        let timers = self.endpoints.iter_mut().map(RpcEndpoint::next_timer);
        self.ep_index.validate("endpoint", timers);
        for (i, n) in self.nodes.iter().enumerate() {
            if n.has_pending_outcalls() {
                assert!(
                    self.outcall_flag[i],
                    "node {i}: pending outcalls not flagged"
                );
            }
        }
    }

    /// Steps the stations in `to_step` (ascending) to the window end and
    /// routes their outcalls, one node at a time.
    pub(super) fn step_nodes(&mut self, to_step: &[usize], next: SimTime) {
        // One buffer serves every node of every window, so once it has
        // grown stepping allocates nothing per call.
        let mut outcalls = std::mem::take(&mut self.outcall_buf);
        for &i in to_step {
            self.nodes[i].advance_into(next, &mut outcalls);
            for oc in outcalls.drain(..) {
                self.route_outcall(i, oc);
            }
        }
        self.outcall_buf = outcalls;
    }

    fn route_outcall(&mut self, i: usize, oc: Outcall) {
        // The RPC runtime sees call, exit and fault outcalls first; the
        // node's agent then hears about everything a debugger could ask
        // after — except prints and process creation (the supervisor's
        // process table already answers `ListProcesses`), and except the
        // fault of a server process, which the runtime has already turned
        // into a failed call.
        let tell_agent = match &oc {
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
                false
            }
            Outcall::ProcExited { pid, at } => {
                self.endpoints[i].on_proc_exited(
                    *at,
                    &mut self.nodes[i],
                    *pid,
                    &mut AsRpcNet(&mut self.net),
                );
                true
            }
            Outcall::Fault { pid, fault, at } => !self.endpoints[i].on_proc_faulted(
                *at,
                &mut self.nodes[i],
                *pid,
                fault,
                &mut AsRpcNet(&mut self.net),
            ),
            Outcall::Trap { .. } | Outcall::TraceStop { .. } => true,
            Outcall::ProcCreated { .. } => false,
        };
        if tell_agent {
            if let Some(agent) = self.agents[i].as_mut() {
                agent.on_outcall(&mut self.nodes[i], &self.endpoints[i], &oc, &mut self.net);
            }
        }
    }

    pub(super) fn route_delivery(&mut self, at: SimTime, src: NodeId, dst: NodeId, payload: Wire) {
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
}
