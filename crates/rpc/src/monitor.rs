//! The rejected packet-monitor design (§4.2), kept as an ablation.
//!
//! Pilgrim's first RPC-debugging design monitored "all RPC packets through
//! a hook in the network device driver", maintaining "a state machine ...
//! for each in-progress RPC". It was rejected because "the work performed
//! in the RPC debugging support would be of the same order as that in the
//! RPC implementation itself. Thus RPCs might take twice as long when
//! under control of the debugger."
//!
//! The monitor really works — it reconstructs call state purely from
//! observed packets — and really costs what the paper says it costs: the
//! endpoint charges its fixed 4 ms `MONITOR_PER_PACKET` for every packet
//! observed. Experiment E2 measures the resulting ~2× slowdown.

use std::collections::HashMap;

use crate::packet::{CallId, RpcPacket};

/// Call state as reconstructed from the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorState {
    /// A call packet has been seen; `attempts` transmissions so far.
    CallSeen {
        /// Number of call transmissions observed.
        attempts: u32,
    },
    /// A reply has been seen.
    Replied {
        /// Whether the reply reported success.
        ok: bool,
    },
}

/// A device-driver hook reconstructing RPC state from packets.
#[derive(Debug, Default)]
pub struct PacketMonitor {
    states: HashMap<CallId, MonitorState>,
    observations: u64,
}

impl PacketMonitor {
    /// An empty monitor.
    pub fn new() -> PacketMonitor {
        PacketMonitor::default()
    }

    /// Feeds one observed packet through the state machine.
    pub fn observe(&mut self, pkt: &RpcPacket) {
        self.observations += 1;
        let id = pkt.call_id();
        match pkt {
            RpcPacket::Call { .. } => {
                let e = self
                    .states
                    .entry(id)
                    .or_insert(MonitorState::CallSeen { attempts: 0 });
                if let MonitorState::CallSeen { attempts } = e {
                    *attempts += 1;
                }
            }
            RpcPacket::Reply { .. } => {
                self.states.insert(id, MonitorState::Replied { ok: true });
            }
            RpcPacket::ReplyFailure { .. } => {
                self.states.insert(id, MonitorState::Replied { ok: false });
            }
        }
    }

    /// The reconstructed state of a call.
    pub fn state(&self, id: CallId) -> Option<&MonitorState> {
        self.states.get(&id)
    }

    /// How many packets have been observed (each one cost
    /// `MONITOR_PER_PACKET` of latency).
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilgrim_cclu::RpcProtocol;

    fn call(id: CallId, attempt: u32) -> RpcPacket {
        RpcPacket::Call {
            call_id: id,
            proc: "f".into(),
            args: vec![],
            protocol: RpcProtocol::ExactlyOnce,
            attempt,
            span: 0,
        }
    }

    #[test]
    fn reconstructs_call_lifecycle() {
        let mut m = PacketMonitor::new();
        m.observe(&call(5, 0));
        assert_eq!(m.state(5), Some(&MonitorState::CallSeen { attempts: 1 }));
        m.observe(&call(5, 1));
        assert_eq!(m.state(5), Some(&MonitorState::CallSeen { attempts: 2 }));
        m.observe(&RpcPacket::Reply {
            call_id: 5,
            results: vec![],
            span: 0,
        });
        assert_eq!(m.state(5), Some(&MonitorState::Replied { ok: true }));
        assert_eq!(m.observations(), 3);
    }

    #[test]
    fn failure_replies_recorded() {
        let mut m = PacketMonitor::new();
        m.observe(&RpcPacket::ReplyFailure {
            call_id: 9,
            reason: "boom".into(),
            span: 0,
        });
        assert_eq!(m.state(9), Some(&MonitorState::Replied { ok: false }));
        assert_eq!(m.state(8), None);
    }
}
