//! The pre-index full-scan pump, kept as the oracle `tests/pump_gate.rs`
//! holds the production pump to: reachable only after a test calls
//! [`World::set_reference_pump`], through `pump`'s two `reference_pump`
//! branches. It shares `pump`'s stepping, routing and end-of-window code.

use pilgrim_sim::SimTime;

use super::{AsRpcNet, World};

impl World {
    /// Routes every pump iteration through the full-scan reference loop —
    /// the oracle `tests/pump_gate.rs` compares the production pump
    /// against. Deliberately not journalled: both pumps must produce
    /// byte-identical artifacts, so the choice is not part of the world's
    /// identity. Test hook.
    #[doc(hidden)]
    pub fn set_reference_pump(&mut self, on: bool) {
        self.settle_clocks();
        self.reference_pump = on;
        self.rebuild_index();
    }

    /// The pre-index pump: scan every station for its next event time,
    /// advance every node, fire every endpoint's timers. O(total
    /// stations) per window — kept as the semantic reference the
    /// quiescence-aware pump is gated against, reachable only through
    /// [`World::set_reference_pump`].
    pub(super) fn pump_step_reference(&mut self, limit: SimTime) {
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

        self.end_window(next);
    }

    /// The reference pump's idleness test: a full rescan.
    pub(super) fn reference_is_idle(&mut self) -> bool {
        self.nodes.iter_mut().all(|n| n.next_activity().is_none())
            && self.net.next_delivery_at().is_none()
            && self.endpoints.iter_mut().all(|e| e.next_timer().is_none())
    }
}
