//! RPC wire packets, protocol configuration, and the ten-slot cyclic
//! buffer of recent call outcomes (§4.3).

use std::sync::Arc;

use pilgrim_cclu::RpcProtocol;
use pilgrim_ring::NodeId;
use pilgrim_sim::json::Fields;
use pilgrim_sim::{Json, SpanId};

use crate::marshal::WireValue;

/// A call identifier: "call identifiers ... uniquely name a particular
/// invocation of a remote procedure" (§4.3). The top bits carry the
/// originating node so identifiers are unique network-wide.
pub type CallId = u64;

/// Builds a network-unique call id.
pub fn make_call_id(node: NodeId, counter: u64) -> CallId {
    (u64::from(node.0) << 40) | call_id_counter(counter)
}

/// The node a call id was minted on.
pub fn call_id_node(id: CallId) -> NodeId {
    NodeId((id >> 40) as u32)
}

/// The per-node counter half of a call id.
pub fn call_id_counter(id: CallId) -> u64 {
    id & 0xff_ffff_ffff
}

/// An RPC packet on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcPacket {
    /// A call request.
    Call {
        /// Call identifier.
        call_id: CallId,
        /// Causal span header field (`0` = none; see [`SpanId::to_wire`]).
        /// Retransmissions carry the originating transmission's span
        /// unchanged, so one call is one span across the whole network.
        span: u64,
        /// Remote procedure name.
        proc: Arc<str>,
        /// Marshalled arguments.
        args: Vec<WireValue>,
        /// Protocol in use.
        protocol: RpcProtocol,
        /// Retransmission ordinal (0 for the first transmission).
        attempt: u32,
    },
    /// A successful reply.
    Reply {
        /// Call identifier.
        call_id: CallId,
        /// Causal span header field, echoed from the call packet.
        span: u64,
        /// Marshalled results.
        results: Vec<WireValue>,
    },
    /// A failure reply (remote fault, type mismatch, unknown procedure).
    ReplyFailure {
        /// Call identifier.
        call_id: CallId,
        /// Causal span header field, echoed from the call packet.
        span: u64,
        /// Human-readable reason.
        reason: String,
    },
}

impl RpcPacket {
    /// The call this packet belongs to.
    pub fn call_id(&self) -> CallId {
        match self {
            RpcPacket::Call { call_id, .. }
            | RpcPacket::Reply { call_id, .. }
            | RpcPacket::ReplyFailure { call_id, .. } => *call_id,
        }
    }

    /// The causal span carried in the packet header, if any.
    pub fn span(&self) -> Option<SpanId> {
        match self {
            RpcPacket::Call { span, .. }
            | RpcPacket::Reply { span, .. }
            | RpcPacket::ReplyFailure { span, .. } => SpanId::from_wire(*span),
        }
    }

    /// Payload size in bytes, for latency modelling (header included).
    pub fn wire_bytes(&self) -> usize {
        HEADER_BYTES
            + match self {
                RpcPacket::Call { proc, args, .. } => {
                    proc.len() + args.iter().map(WireValue::wire_bytes).sum::<usize>()
                }
                RpcPacket::Reply { results, .. } => {
                    results.iter().map(WireValue::wire_bytes).sum::<usize>()
                }
                RpcPacket::ReplyFailure { reason, .. } => reason.len(),
            }
    }
}

/// Bytes of header every RPC packet carries before its payload; the
/// span and the call id ride in it, so they are free on the wire.
pub(crate) const HEADER_BYTES: usize = 32;

/// The RPC runtime's switches: the §4.3 debug support, the §4.2 packet
/// monitor ablation and the exactly-once retry budget. The costs and
/// timers the paper fixes are constants of the endpoint (DESIGN.md §
/// "Calibration constants").
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Whether the §4.3 debug support is compiled in.
    pub debug_support: bool,
    /// Whether the rejected §4.2 packet-monitor design is active
    /// (the E2 ablation).
    pub monitor: bool,
    /// Maximum transmissions (first + retries) for exactly-once.
    pub max_attempts: u32,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            debug_support: true,
            monitor: false,
            max_attempts: 4,
        }
    }
}

impl RpcConfig {
    /// The config as a JSON object for the replay recipe.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("debug_support", Json::Bool(self.debug_support)),
            ("monitor", Json::Bool(self.monitor)),
            ("max_attempts", Json::Int(self.max_attempts as i128)),
        ])
    }

    /// Rebuilds a config from [`to_json`](RpcConfig::to_json) output.
    ///
    /// # Errors
    ///
    /// Missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<RpcConfig, String> {
        let f = Fields::new(v, &"rpc config");
        let config = RpcConfig {
            debug_support: f.bool("debug_support")?,
            monitor: f.bool("monitor")?,
            max_attempts: f.uint("max_attempts")?,
        };
        f.finish()?;
        Ok(config)
    }
}

/// Slots in the ten-slot cyclic buffers describing the outcomes of an
/// endpoint's ten most recent RPCs: "The only information maintained is
/// the call identifier and whether the call failed or succeeded" (§4.3).
pub const RECENT_SLOTS: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_ids_are_node_unique() {
        let a = make_call_id(NodeId(1), 7);
        let b = make_call_id(NodeId(2), 7);
        assert_ne!(a, b);
        assert_eq!(call_id_node(a), NodeId(1));
        assert_eq!(call_id_node(b), NodeId(2));
        assert_eq!((call_id_counter(a), call_id_counter(b)), (7, 7));
    }

    #[test]
    fn rpc_config_round_trips_through_json() {
        let cfg = RpcConfig {
            max_attempts: 9,
            debug_support: false,
            monitor: true,
        };
        let mut rendered = String::new();
        cfg.to_json().write(&mut rendered);
        let parsed = Json::parse(&rendered).expect("valid JSON");
        let back = RpcConfig::from_json(&parsed).expect("decodes");
        assert_eq!(back.max_attempts, cfg.max_attempts);
        assert_eq!(back.debug_support, cfg.debug_support);
        assert_eq!(back.monitor, cfg.monitor);
    }

    #[test]
    fn packet_sizes_include_payload() {
        let call = RpcPacket::Call {
            call_id: 1,
            span: 0,
            proc: "square".into(),
            args: vec![WireValue::Int(4)],
            protocol: RpcProtocol::ExactlyOnce,
            attempt: 0,
        };
        // tagged int payload: 1 tag + 8 bytes of i64. The span rides in
        // the fixed 32-byte header allowance, so it is free on the wire.
        assert_eq!(call.wire_bytes(), 32 + 6 + 9);
        let reply = RpcPacket::Reply {
            call_id: 1,
            span: 0,
            results: vec![WireValue::Int(16)],
        };
        assert_eq!(reply.wire_bytes(), 32 + 9);
        assert_eq!(call.call_id(), reply.call_id());
    }

    #[test]
    fn span_header_round_trips() {
        let call = RpcPacket::Call {
            call_id: 1,
            span: 5,
            proc: "square".into(),
            args: vec![],
            protocol: RpcProtocol::Maybe,
            attempt: 0,
        };
        assert_eq!(call.span(), SpanId::from_wire(5));
        let bare = RpcPacket::ReplyFailure {
            call_id: 1,
            span: 0,
            reason: "x".into(),
        };
        assert_eq!(bare.span(), None);
    }
}
