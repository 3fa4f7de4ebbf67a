//! The per-node Mayflower RPC runtime, with the paper's debugging
//! instrumentation (§4.3).
//!
//! Each node has one [`RpcEndpoint`] combining the client and server halves
//! of the RPC mechanism:
//!
//! * a **client table** associating call identifiers with the client
//!   process issuing the call;
//! * a **server table** associating the server process handling a call
//!   with the call identifier;
//! * **information blocks** placed in a known position of the client's top
//!   stack frame and the server's bottom stack frame (Figure 1), holding
//!   the process identifier, remote procedure name, call identifier, and
//!   protocol state;
//! * the **ten-slot cyclic buffer** of recent call outcomes;
//! * both protocols: **exactly-once** (retransmit + duplicate suppression
//!   + reply cache) and **maybe** (single transmission, reply deadline).
//!
//! The debug instrumentation costs simulated time — 240 µs client-side and
//! 160 µs server-side per call, the paper's 400 µs — and can be compiled
//! out ([`RpcConfig::debug_support`]) to measure the difference (E1). The
//! rejected packet-monitor design (§4.2) can be switched on as an ablation
//! ([`RpcConfig::monitor`], E2).

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use pilgrim_cclu::{
    Fault, FaultKind, FrameKind, ProcId, RpcCallState, RpcInfoBlock, RpcProtocol, RpcRequest,
    Signature, Type, Value,
};
use pilgrim_mayflower::{Node, Pid, SpawnOpts};
use pilgrim_ring::NodeId;
use pilgrim_sim::{
    Counter, EventKind, EventQueue, Histogram, IdWindow, Metrics, Ring, SimDuration, SimTime,
    SpanId, TraceCategory, Tracer,
};

use crate::marshal::{default_for, marshal, unmarshal, wire_matches_type, WireValue};
use crate::monitor::PacketMonitor;
use crate::packet::{
    call_id_counter, call_id_node, make_call_id, CallId, RpcConfig, RpcPacket, RECENT_SLOTS,
};
use crate::seen::{Outcome, SeenCalls};

// The endpoint's calibration (DESIGN.md § "Calibration constants"): a
// null exactly-once round trip takes the paper's ~16 ms (two 3.5 ms basic
// blocks plus 9 ms of protocol processing), and the debug support adds
// the paper's 400 µs (§4.3): 240 µs on the client (information block,
// call table, completion bookkeeping and cyclic buffer) and 160 µs on
// the server.

/// Client-side processing before the call packet is transmitted
/// (marshalling, protocol setup).
pub(crate) const CLIENT_SEND: SimDuration = SimDuration::from_micros(2_500);
/// Server-side processing between packet arrival and the server process
/// starting (unmarshal, dispatch, process allocation).
pub(crate) const SERVER_RECV: SimDuration = SimDuration::from_micros(2_500);
/// Server-side processing between procedure return and reply
/// transmission.
pub(crate) const SERVER_SEND: SimDuration = SimDuration::from_micros(2_000);
/// Client-side processing between reply arrival and the calling process
/// resuming.
pub(crate) const CLIENT_RECV: SimDuration = SimDuration::from_micros(2_000);
/// Debug support at call time: information block and call-table insert.
pub(crate) const DEBUG_CLIENT_CALL: SimDuration = SimDuration::from_micros(180);
/// Debug support at completion: table removal and cyclic-buffer write.
pub(crate) const DEBUG_CLIENT_DONE: SimDuration = SimDuration::from_micros(60);
/// Debug support on the server: information block and server table.
pub(crate) const DEBUG_SERVER: SimDuration = SimDuration::from_micros(160);
/// Per-packet cost of the packet monitor's state machine (§4.2, E2).
pub(crate) const MONITOR_PER_PACKET: SimDuration = SimDuration::from_micros(4_000);
/// Retransmission interval of the exactly-once protocol.
pub(crate) const RETRY_INTERVAL: SimDuration = SimDuration::from_millis(200);
/// Reply deadline of the maybe protocol.
pub(crate) const MAYBE_TIMEOUT: SimDuration = SimDuration::from_millis(40);

#[cfg(test)]
mod model;

/// The network interface the endpoint sends packets through. Implemented
/// by the world, which wraps the ring.
pub trait RpcNet {
    /// Hands a packet to the network at time `at` (processing offsets are
    /// already folded in by the endpoint).
    fn send_rpc(&mut self, at: SimTime, src: NodeId, dst: NodeId, pkt: RpcPacket, bytes: usize);
    /// Number of nodes on the network (for destination validation).
    fn node_count(&self) -> u32;
}

/// The body of a native (Rust) RPC procedure — how simulated Cambridge
/// services and the Pilgrim agent export procedures callable from any
/// node. It executes the call with values in the serving node's heap; a
/// returned `Err` becomes an RPC failure at the caller (a fault for
/// exactly-once, `ok = false` for maybe).
pub type NativeBody = Box<dyn FnMut(&mut HandlerCtx<'_>, Vec<Value>) -> Result<Vec<Value>, String>>;

/// Context passed to a [`NativeBody`].
pub struct HandlerCtx<'a> {
    /// The serving node.
    pub node: &'a mut Node,
    /// Who is calling.
    pub caller: NodeId,
    /// The call identifier.
    pub call_id: CallId,
    /// Real time at dispatch.
    pub now: SimTime,
}

impl std::fmt::Debug for HandlerCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HandlerCtx(caller={}, call={})",
            self.caller, self.call_id
        )
    }
}

/// What a server node knows about a call id — the basis for diagnosing
/// maybe-protocol failures ("the debugger ought to allow the programmer to
/// find out which is the case", §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKnowledge {
    /// The call packet never arrived: the *call* was lost.
    NeverSeen,
    /// The call is currently executing.
    Executing,
    /// The server executed the call and sent a reply; if the client saw a
    /// failure anyway, the *reply* was lost.
    Replied(bool),
}

/// Client-side view of an in-progress call, assembled from the call table
/// and the information block (what the debugger displays).
#[derive(Debug, Clone)]
pub struct CallDebug {
    /// Call identifier.
    pub call_id: CallId,
    /// Remote procedure name.
    pub proc: Arc<str>,
    /// Protocol.
    pub protocol: RpcProtocol,
    /// Protocol state from the information block.
    pub state: RpcCallState,
    /// Retransmissions so far.
    pub retries: u32,
    /// Destination node.
    pub dst: NodeId,
}

/// Aggregate endpoint statistics (the measurement surface for E1/E2).
#[derive(Debug, Clone, Copy, Default)]
pub struct RpcStats {
    /// Calls issued from this node.
    pub started: u64,
    /// Calls completed successfully.
    pub completed: u64,
    /// Calls that failed (including maybe-protocol losses).
    pub failed: u64,
    /// Call retransmissions.
    pub retransmits: u64,
    /// Sum of client-observed latency over completed calls.
    pub total_latency: SimDuration,
    /// Calls served by this node.
    pub served: u64,
}

impl RpcStats {
    /// Mean client-observed latency of completed calls.
    pub fn mean_latency(&self) -> SimDuration {
        match self.total_latency.as_micros().checked_div(self.completed) {
            Some(mean) => SimDuration::from_micros(mean),
            None => SimDuration::ZERO,
        }
    }
}

/// Pre-registered [`Metrics`] handles mirroring [`RpcStats`], plus a
/// client-observed latency histogram. Held as direct handles so no call
/// ever performs a name lookup; every node's endpoint feeds the same
/// world-level instruments.
#[derive(Debug, Clone)]
struct RpcMeters {
    started: Counter,
    completed: Counter,
    failed: Counter,
    retransmits: Counter,
    served: Counter,
    latency_us: Histogram,
}

#[derive(Debug)]
struct ClientCall {
    pid: Pid,
    token: u64,
    ret_types: Vec<Type>,
    attempts: u32,
    info: Option<Rc<RpcInfoBlock>>,
    done: bool,
    dst: NodeId,
    /// The call packet, retransmitted as is but for its attempt ordinal.
    pkt: RpcPacket,
    bytes: usize,
    started: SimTime,
    /// The call's causal span, born at `start_call` and carried by every
    /// packet of the call (including retransmissions).
    span: SpanId,
}

impl ClientCall {
    /// The remote procedure and the protocol, as the call packet says.
    fn header(&self) -> (&Arc<str>, RpcProtocol) {
        match &self.pkt {
            RpcPacket::Call { proc, protocol, .. } => (proc, *protocol),
            RpcPacket::Reply { .. } | RpcPacket::ReplyFailure { .. } => {
                unreachable!("a client call keeps the call packet it sent")
            }
        }
    }
}

#[derive(Debug)]
struct ServerCall {
    call_id: CallId,
    caller: NodeId,
    info: Option<Rc<RpcInfoBlock>>,
    /// Span propagated from the caller's packet header.
    span: Option<SpanId>,
}

/// What a call packet's procedure name resolved to when it arrived.
#[derive(Debug, Clone, Copy)]
enum Callee {
    /// Slot in [`RpcEndpoint::handlers`].
    Native(usize),
    /// A procedure of the node's program.
    Proc(ProcId),
}

/// A registered native handler. The body leaves its slot while it runs,
/// so a call arriving re-entrantly finds no such procedure.
struct Handler {
    name: String,
    sig: Signature,
    body: Option<NativeBody>,
}

#[derive(Debug)]
enum Timer {
    Dispatch {
        src: NodeId,
        call_id: CallId,
        proc: Arc<str>,
        callee: Callee,
        args: Vec<WireValue>,
        protocol: RpcProtocol,
        span: Option<SpanId>,
    },
    Retry(CallId),
    MaybeDeadline(CallId),
    Complete {
        call_id: CallId,
        kind: Completion,
    },
}

#[derive(Debug)]
enum Completion {
    Success(Vec<WireValue>),
    MaybeFail(String),
    Hard(String),
}

/// The per-node RPC runtime.
pub struct RpcEndpoint {
    node_id: NodeId,
    config: RpcConfig,
    /// The client table: outstanding calls by the counter half of their
    /// id. This node mints the counters densely (`next_id` is the next
    /// one) and calls retire roughly in order.
    client: IdWindow<ClientCall>,
    /// The §4.3 ten-slot buffers of recent outcomes: `(call, succeeded)`.
    client_recent: Ring<(CallId, bool)>,
    /// The server table: calls executing now, by the pid of the server
    /// process. Pids are issued increasing and server processes retire
    /// roughly in order.
    serving: IdWindow<ServerCall>,
    seen: SeenCalls,
    server_recent: Ring<(CallId, bool)>,
    /// Append-only, so a slot index stays valid while a dispatch is
    /// pending; a node registers a handful.
    handlers: Vec<Handler>,
    timers: EventQueue<Timer>,
    monitor: PacketMonitor,
    stats: RpcStats,
    meters: Option<RpcMeters>,
    tracer: Tracer,
}

impl std::fmt::Debug for RpcEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcEndpoint")
            .field("node", &self.node_id)
            .field("outstanding", &self.client.len())
            .field("serving", &self.serving.len())
            .finish()
    }
}

impl RpcEndpoint {
    /// Creates the endpoint for `node_id`.
    pub fn new(node_id: NodeId, config: RpcConfig, tracer: Tracer) -> RpcEndpoint {
        RpcEndpoint {
            node_id,
            config,
            client: IdWindow::starting_at(1),
            client_recent: Ring::new(RECENT_SLOTS),
            serving: IdWindow::new(),
            seen: SeenCalls::default(),
            server_recent: Ring::new(RECENT_SLOTS),
            handlers: Vec::new(),
            timers: EventQueue::new(),
            monitor: PacketMonitor::new(),
            stats: RpcStats::default(),
            meters: None,
            tracer,
        }
    }

    /// The endpoint's configuration.
    pub fn config(&self) -> &RpcConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> RpcStats {
        self.stats
    }

    /// Registers this endpoint's instruments (`rpc.*`) with a metrics
    /// registry. Counters mirror [`RpcStats`]; the latency histogram
    /// records client-observed completion latency in microseconds. The
    /// top buckets (1/2/5 s) cover the exactly-once retry ladder and a
    /// partition-length stall, so a windowed p99 resolves to a finite
    /// bound there instead of the overflow bucket — a windowed-SLO gate
    /// compares bounds against its ceiling and must not read `overflow`
    /// for latencies the model routinely produces.
    pub fn attach_metrics(&mut self, metrics: &Metrics) {
        self.meters = Some(RpcMeters {
            started: metrics.counter("rpc.started"),
            completed: metrics.counter("rpc.completed"),
            failed: metrics.counter("rpc.failed"),
            retransmits: metrics.counter("rpc.retransmits"),
            served: metrics.counter("rpc.served"),
            latency_us: metrics.histogram(
                "rpc.latency_us",
                &[
                    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 500_000, 1_000_000,
                    2_000_000, 5_000_000,
                ],
            ),
        });
    }

    /// Registers a native procedure `name` with signature `sig` (services,
    /// agent support procedures). A second body under a taken name
    /// replaces the first.
    pub fn register_handler(&mut self, name: &str, sig: Signature, body: NativeBody) {
        match self.handlers.iter_mut().find(|h| h.name == name) {
            Some(h) => (h.sig, h.body) = (sig, Some(body)),
            None => self.handlers.push(Handler {
                name: name.to_string(),
                sig,
                body: Some(body),
            }),
        }
    }

    /// The client table slot of `call_id` — if this node minted it. Reply
    /// packets carry ids from the wire; one minted elsewhere (misrouted,
    /// hostile) must not alias a local call with the same counter.
    fn own_counter(&self, call_id: CallId) -> Option<u64> {
        (call_id_node(call_id) == self.node_id).then(|| call_id_counter(call_id))
    }

    fn client_call(&self, call_id: CallId) -> Option<&ClientCall> {
        self.client.get(self.own_counter(call_id)?)
    }

    /// The server table entry for `call_id`. A debugger query over the
    /// handful of calls executing now, so it scans.
    fn serving_call(&self, call_id: CallId) -> Option<(Pid, &ServerCall)> {
        self.serving
            .iter()
            .find(|(_, s)| s.call_id == call_id)
            .map(|(pid, s)| (Pid(pid), s))
    }

    /// The earliest pending protocol timer.
    pub fn next_timer(&mut self) -> Option<SimTime> {
        self.timers.next_time()
    }

    /// Debug view of the call a client process is blocked in, if any —
    /// what the paper's client table + information block provide.
    pub fn call_for_process(&self, pid: Pid) -> Option<CallDebug> {
        // A process has at most one call outstanding, and this is a
        // debugger query: scan the outstanding calls.
        let (counter, c) = self.client.iter().find(|(_, c)| c.pid == pid)?;
        let (proc, protocol) = c.header();
        Some(CallDebug {
            call_id: make_call_id(self.node_id, counter),
            proc: proc.clone(),
            protocol,
            state: c
                .info
                .as_ref()
                .map(|i| i.state.get())
                .unwrap_or(RpcCallState::CallSent),
            retries: c
                .info
                .as_ref()
                .map(|i| i.retries.get())
                .unwrap_or(c.attempts - 1),
            dst: c.dst,
        })
    }

    /// The server process handling `call_id`, if this node is serving it —
    /// the paper's server table, used for cross-node backtraces.
    pub fn serving_process(&self, call_id: CallId) -> Option<Pid> {
        self.serving_call(call_id).map(|(pid, _)| pid)
    }

    /// The node that issued `call_id`, if this node is serving it
    /// (cross-node backtraces walk upwards through this).
    pub fn caller_of(&self, call_id: CallId) -> Option<NodeId> {
        self.serving_call(call_id).map(|(_, s)| s.caller)
    }

    /// The client process with `call_id` outstanding, if any (reverse
    /// lookup of the client table).
    pub fn client_process(&self, call_id: CallId) -> Option<Pid> {
        self.client_call(call_id).map(|c| c.pid)
    }

    /// What this node knows about `call_id` as a server (maybe-protocol
    /// failure diagnosis, §4.1).
    pub fn server_knowledge(&self, call_id: CallId) -> ServerKnowledge {
        if self.serving_call(call_id).is_some() {
            return ServerKnowledge::Executing;
        }
        // The cached reply is kept for good and says which it was; the
        // ten-slot buffer forgets.
        match self.seen.get(call_id) {
            Some(Some(reply)) => ServerKnowledge::Replied(reply.replied()),
            Some(None) => ServerKnowledge::Executing,
            None => ServerKnowledge::NeverSeen,
        }
    }

    /// Client-side recent-call outcomes (ten-slot cyclic buffer, §4.3).
    pub fn recent_client_calls(&self) -> Vec<(CallId, bool)> {
        self.client_recent.iter().copied().collect()
    }

    /// Server-side recent-call outcomes.
    pub fn recent_served_calls(&self) -> Vec<(CallId, bool)> {
        self.server_recent.iter().copied().collect()
    }

    /// The packet monitor's reconstruction (only meaningful when the E2
    /// ablation is enabled).
    pub fn monitor(&self) -> &PacketMonitor {
        &self.monitor
    }

    /// Starts a call on behalf of process `pid` (the world routes the
    /// supervisor's RPC outcall here).
    pub fn start_call(
        &mut self,
        now: SimTime,
        node: &mut Node,
        pid: Pid,
        token: u64,
        req: &RpcRequest,
        net: &mut dyn RpcNet,
    ) {
        self.stats.started += 1;
        if let Some(m) = &self.meters {
            m.started.inc();
        }
        // Destination validation.
        if req.node < 0 || req.node >= i64::from(net.node_count()) {
            self.fail_now(node, pid, token, req, format!("no such node {}", req.node));
            return;
        }
        let dst = NodeId(req.node as u32);
        // Marshal the arguments out of the client heap.
        let mut args = Vec::with_capacity(req.args.len());
        for a in &req.args {
            match marshal(node.heap(), a) {
                Ok(w) => args.push(w),
                Err(e) => {
                    self.fail_now(node, pid, token, req, e.to_string());
                    return;
                }
            }
        }
        let ret_types = node
            .program()
            .signature_of(&req.proc_name)
            .map(|s| s.returns.clone())
            .unwrap_or_default();

        let call_id = make_call_id(self.node_id, self.client.next_id());
        // The span is born with the call. If the calling process is itself
        // serving an RPC, its inherited span becomes this call's parent —
        // the link that chains nested cross-node calls into one tree.
        let parent_span = node.process(pid).and_then(|p| p.span);
        // The parent decides the sampling fate too: a child call of a
        // kept root is kept, so sampled traces stay causally complete.
        let span = self.tracer.next_span_with_parent(parent_span);
        let mut delay = CLIENT_SEND;

        // §4.3 debug support: information block in a known position of the
        // client's (stub) stack frame, plus the call-table insert.
        let info = if self.config.debug_support {
            delay += DEBUG_CLIENT_CALL;
            let info = Rc::new(RpcInfoBlock {
                process: pid.0,
                remote_proc: req.proc_name.clone(),
                call_id,
                protocol: req.protocol,
                state: Cell::new(RpcCallState::Marshalling),
                retries: Cell::new(0),
            });
            push_stub_frame(node, pid, info.clone());
            Some(info)
        } else {
            None
        };

        let pkt = RpcPacket::Call {
            call_id,
            proc: req.proc_name.clone(),
            args,
            protocol: req.protocol,
            attempt: 0,
            span: span.get(),
        };
        let bytes = pkt.wire_bytes();

        if self.tracer.wants(TraceCategory::Rpc) {
            self.tracer.emit(
                now,
                TraceCategory::Rpc,
                Some(self.node_id.0),
                Some(span),
                EventKind::CallStarted {
                    call_id,
                    proc: req.proc_name.clone(),
                    args: req.args.len() as u32,
                    dst: dst.0,
                    protocol: req.protocol,
                    parent_span: SpanId::to_wire(parent_span),
                },
            );
        }

        // §4.2 ablation: the device-driver hook sees the outgoing packet.
        if self.config.monitor {
            self.monitor.observe(&pkt);
            delay += MONITOR_PER_PACKET;
        }

        let send_at = now + delay;
        net.send_rpc(send_at, self.node_id, dst, pkt.clone(), bytes);
        if let Some(i) = &info {
            i.state.set(RpcCallState::CallSent);
        }
        match req.protocol {
            RpcProtocol::ExactlyOnce => {
                self.timers
                    .schedule(send_at + RETRY_INTERVAL, Timer::Retry(call_id));
            }
            RpcProtocol::Maybe => {
                self.timers
                    .schedule(send_at + MAYBE_TIMEOUT, Timer::MaybeDeadline(call_id));
            }
        }
        self.client.push(ClientCall {
            pid,
            token,
            ret_types,
            attempts: 1,
            info,
            done: false,
            dst,
            pkt,
            bytes,
            started: now,
            span,
        });
        // Profiler hook: attribute the caller's blocked-on-RPC time to
        // this call's causal span (no-op unless the node profiles).
        node.note_rpc_span(pid, span);
    }

    fn fail_now(
        &mut self,
        node: &mut Node,
        pid: Pid,
        token: u64,
        req: &RpcRequest,
        reason: String,
    ) {
        self.stats.failed += 1;
        if let Some(m) = &self.meters {
            m.failed.inc();
        }
        match req.protocol {
            RpcProtocol::ExactlyOnce => node.fail_rpc(
                pid,
                token,
                Fault {
                    kind: FaultKind::RemoteCall,
                    message: reason,
                },
            ),
            RpcProtocol::Maybe => {
                let rets = node
                    .program()
                    .signature_of(&req.proc_name)
                    .map(|s| s.returns.clone())
                    .unwrap_or_default();
                let values = maybe_failure(node, &rets);
                node.resume_rpc(pid, token, values);
            }
        }
    }

    /// Handles an RPC packet arriving from the network.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        node: &mut Node,
        src: NodeId,
        pkt: RpcPacket,
        net: &mut dyn RpcNet,
    ) {
        let mut now = now;
        if self.config.monitor {
            self.monitor.observe(&pkt);
            now += MONITOR_PER_PACKET;
        }
        match pkt {
            RpcPacket::Call {
                call_id,
                proc,
                args,
                protocol,
                attempt: _,
                span,
            } => {
                // Exactly-once duplicate suppression and reply cache: the
                // one find-or-insert that also records a new call.
                let (cached, known) = self.seen.find_or_insert(call_id);
                if known && protocol == RpcProtocol::ExactlyOnce {
                    if let Some(cached) = cached {
                        let reply = cached.packet(call_id);
                        let bytes = reply.wire_bytes();
                        if self.tracer.wants(TraceCategory::Rpc) {
                            self.tracer.emit(
                                now,
                                TraceCategory::Rpc,
                                Some(self.node_id.0),
                                reply.span(),
                                EventKind::ReplySent {
                                    call_id,
                                    cached: true,
                                },
                            );
                        }
                        net.send_rpc(now + SERVER_SEND, self.node_id, src, reply, bytes);
                    }
                    return; // executing or re-replied; drop duplicate
                }
                // A maybe call is never suppressed: it executes again.
                if known {
                    self.seen.restart(call_id);
                }
                // Fully type-checked dispatch: resolve the target signature
                // and validate the decoded arguments against it.
                let program = node.program();
                let native = self
                    .handlers
                    .iter()
                    .position(|h| h.body.is_some() && *h.name == *proc);
                let callee = match native {
                    Some(slot) => Some((Callee::Native(slot), &self.handlers[slot].sig)),
                    None => program
                        .proc_by_name(&proc)
                        .map(|id| (Callee::Proc(id), &program.proc(id).debug.sig)),
                };
                let accepted = match callee {
                    None => Err(format!("unknown remote procedure `{proc}`")),
                    Some((_, sig))
                        if sig.params.len() != args.len()
                            || !args
                                .iter()
                                .zip(sig.params.iter())
                                .all(|(a, t)| wire_matches_type(a, t, &program.records)) =>
                    {
                        Err(format!("arguments do not match `{proc}` signature {sig}"))
                    }
                    Some((callee, _)) => Ok(callee),
                };
                let span = SpanId::from_wire(span);
                let callee = match accepted {
                    Ok(callee) => callee,
                    Err(reason) => {
                        self.reply_failure(now, src, call_id, span, reason, net);
                        return;
                    }
                };
                let mut delay = SERVER_RECV;
                if self.config.debug_support {
                    delay += DEBUG_SERVER;
                }
                self.timers.schedule(
                    now + delay,
                    Timer::Dispatch {
                        src,
                        call_id,
                        proc,
                        callee,
                        args,
                        protocol,
                        span,
                    },
                );
            }
            RpcPacket::Reply {
                call_id,
                results,
                span: _,
            } => {
                self.client_reply(now, call_id, Completion::Success(results));
            }
            RpcPacket::ReplyFailure {
                call_id,
                reason,
                span: _,
            } => {
                let kind = match self.client_call(call_id).map(|c| c.header().1) {
                    Some(RpcProtocol::Maybe) => Completion::MaybeFail(reason),
                    _ => Completion::Hard(reason),
                };
                self.client_reply(now, call_id, kind);
            }
        }
    }

    fn client_reply(&mut self, now: SimTime, call_id: CallId, kind: Completion) {
        let Some(call) = self
            .own_counter(call_id)
            .and_then(|counter| self.client.get_mut(counter))
        else {
            return;
        };
        if call.done {
            return; // duplicate reply
        }
        call.done = true;
        if let Some(i) = &call.info {
            i.state.set(RpcCallState::ReplyReceived);
        }
        let mut delay = CLIENT_RECV;
        if self.config.debug_support {
            delay += DEBUG_CLIENT_DONE;
        }
        self.timers
            .schedule(now + delay, Timer::Complete { call_id, kind });
    }

    fn reply_failure(
        &mut self,
        now: SimTime,
        dst: NodeId,
        call_id: CallId,
        span: Option<SpanId>,
        reason: String,
        net: &mut dyn RpcNet,
    ) {
        let wire_span = SpanId::to_wire(span);
        self.seen
            .record(call_id, wire_span, Outcome::Failed(&reason));
        let pkt = RpcPacket::ReplyFailure {
            call_id,
            reason,
            span: wire_span,
        };
        let bytes = pkt.wire_bytes();
        let mut now = now;
        if self.config.monitor {
            self.monitor.observe(&pkt);
            now += MONITOR_PER_PACKET;
        }
        if self.config.debug_support {
            self.server_recent.push((call_id, false));
        }
        if self.tracer.wants(TraceCategory::Rpc) {
            self.tracer.emit(
                now,
                TraceCategory::Rpc,
                Some(self.node_id.0),
                span,
                EventKind::ReplySent {
                    call_id,
                    cached: false,
                },
            );
        }
        net.send_rpc(now + SERVER_SEND, self.node_id, dst, pkt, bytes);
    }

    /// Fires every protocol timer due at or before `now`.
    pub fn on_timers(&mut self, now: SimTime, node: &mut Node, net: &mut dyn RpcNet) {
        while let Some((at, timer)) = self.timers.pop_due(now) {
            match timer {
                Timer::Dispatch {
                    src,
                    call_id,
                    proc,
                    callee,
                    args,
                    protocol,
                    span,
                } => {
                    self.dispatch(
                        at, node, src, call_id, proc, callee, args, protocol, span, net,
                    );
                }
                Timer::Retry(call_id) => {
                    // §5.2's frozen timeouts extend to the RPC runtime: a
                    // call whose client process is halted by the debugger
                    // must not burn its retransmission budget (the callee
                    // is very likely halted under the same session).
                    if self.client_halted(node, call_id) {
                        self.timers
                            .schedule(at + RETRY_INTERVAL, Timer::Retry(call_id));
                        continue;
                    }
                    self.retry(at, node, call_id, net);
                }
                Timer::MaybeDeadline(call_id) => {
                    if self.client_halted(node, call_id) {
                        self.timers
                            .schedule(at + MAYBE_TIMEOUT, Timer::MaybeDeadline(call_id));
                        continue;
                    }
                    let done = self.client_call(call_id).is_none_or(|c| c.done);
                    if !done {
                        self.deliver(at, node, call_id, Completion::MaybeFail("no reply".into()));
                    }
                }
                Timer::Complete { call_id, kind } => self.deliver(at, node, call_id, kind),
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        now: SimTime,
        node: &mut Node,
        src: NodeId,
        call_id: CallId,
        proc: Arc<str>,
        callee: Callee,
        args: Vec<WireValue>,
        protocol: RpcProtocol,
        span: Option<SpanId>,
        net: &mut dyn RpcNet,
    ) {
        self.stats.served += 1;
        if let Some(m) = &self.meters {
            m.served.inc();
        }
        if self.tracer.wants(TraceCategory::Rpc) {
            self.tracer.emit(
                now,
                TraceCategory::Rpc,
                Some(self.node_id.0),
                span,
                EventKind::ServerDispatched {
                    call_id,
                    proc: proc.clone(),
                },
            );
        }
        let proc_id = match callee {
            Callee::Proc(id) => id,
            // Native handler: runs to completion at dispatch time, out of
            // its slot and back in — no lookup, no key.
            Callee::Native(slot) => {
                let Some(mut body) = self.handlers[slot].body.take() else {
                    let reason = format!("unknown procedure `{proc}`");
                    self.reply_failure(now, src, call_id, span, reason, net);
                    return;
                };
                let values: Vec<Value> =
                    args.iter().map(|w| unmarshal(node.heap_mut(), w)).collect();
                let mut ctx = HandlerCtx {
                    node,
                    caller: src,
                    call_id,
                    now,
                };
                let result = body(&mut ctx, values);
                self.handlers[slot].body = Some(body);
                match result {
                    Ok(rets) => {
                        let wire: Result<Vec<WireValue>, _> =
                            rets.iter().map(|v| marshal(node.heap(), v)).collect();
                        match wire {
                            Ok(results) => self.send_reply(now, src, call_id, results, span, net),
                            Err(e) => {
                                self.reply_failure(now, src, call_id, span, e.to_string(), net)
                            }
                        }
                    }
                    Err(reason) => self.reply_failure(now, src, call_id, span, reason, net),
                }
                return;
            }
        };

        // CCLU procedure: unmarshal the arguments into the server heap and
        // spawn a server process to execute the call (the paper's "server
        // process handling the call").
        let values: Vec<Value> = args.iter().map(|w| unmarshal(node.heap_mut(), w)).collect();
        let opts = SpawnOpts {
            name: Some(node.intern_prefixed("rpc:", proc_id)),
            ..Default::default()
        };
        let pid = node.spawn_proc(proc_id, values, opts);
        // The server process inherits the call's span: its prints, faults,
        // and any onward calls it issues stay linked to the same causal
        // timeline (onward calls record it as their parent span).
        if let Some(p) = node.process_mut(pid) {
            p.span = span;
        }
        // Figure 1, right-hand side: the information block sits at the
        // bottom of the server process's stack.
        let info = if self.config.debug_support {
            let info = Rc::new(RpcInfoBlock {
                process: pid.0,
                remote_proc: proc,
                call_id,
                protocol,
                state: Cell::new(RpcCallState::ServerExecuting),
                retries: Cell::new(0),
            });
            if let Some(p) = node.process_mut(pid) {
                if let Some(vm) = p.vm_mut() {
                    if let Some(root) = vm.frames.first_mut() {
                        root.kind = FrameKind::ServerRoot;
                        root.rpc_info = Some(info.clone());
                    }
                }
            }
            Some(info)
        } else {
            None
        };
        self.serving.insert(
            pid.0,
            ServerCall {
                call_id,
                caller: src,
                info,
                span,
            },
        );
    }

    /// Is the calling process of `call_id` currently halted (or
    /// halt-pending) under the debugger?
    fn client_halted(&self, node: &Node, call_id: CallId) -> bool {
        self.client_call(call_id)
            .filter(|c| !c.done)
            .and_then(|c| node.process(c.pid))
            .map(|p| p.is_halted())
            .unwrap_or(false)
    }

    fn retry(&mut self, now: SimTime, node: &mut Node, call_id: CallId, net: &mut dyn RpcNet) {
        let Some(call) = self
            .own_counter(call_id)
            .and_then(|counter| self.client.get_mut(counter))
        else {
            return;
        };
        if call.done {
            return;
        }
        if call.attempts >= self.config.max_attempts {
            let reason = format!(
                "no response from {} after {} attempts",
                call.dst, call.attempts
            );
            let span = call.span;
            if self.tracer.wants(TraceCategory::Rpc) {
                self.tracer.emit(
                    now,
                    TraceCategory::Rpc,
                    Some(self.node_id.0),
                    Some(span),
                    EventKind::CallTimedOut { call_id },
                );
            }
            self.deliver(now, node, call_id, Completion::Hard(reason));
            return;
        }
        call.attempts += 1;
        self.stats.retransmits += 1;
        if let Some(m) = &self.meters {
            m.retransmits.inc();
        }
        if let Some(i) = &call.info {
            i.retries.set(i.retries.get() + 1);
            i.state.set(RpcCallState::Retransmitting(i.retries.get()));
        }
        // A retransmission is the same causal activity: everything but
        // the attempt ordinal, the span header included, crosses the wire
        // unchanged.
        let mut pkt = call.pkt.clone();
        if let RpcPacket::Call { attempt, .. } = &mut pkt {
            *attempt = call.attempts - 1;
        }
        let (dst, bytes) = (call.dst, call.bytes);
        let (span, attempt) = (call.span, call.attempts - 1);
        if self.tracer.wants(TraceCategory::Rpc) {
            self.tracer.emit(
                now,
                TraceCategory::Rpc,
                Some(self.node_id.0),
                Some(span),
                EventKind::CallRetransmitted { call_id, attempt },
            );
        }
        if self.config.monitor {
            self.monitor.observe(&pkt);
        }
        net.send_rpc(now, self.node_id, dst, pkt, bytes);
        self.timers
            .schedule(now + RETRY_INTERVAL, Timer::Retry(call_id));
    }

    fn send_reply(
        &mut self,
        now: SimTime,
        dst: NodeId,
        call_id: CallId,
        results: Vec<WireValue>,
        span: Option<SpanId>,
        net: &mut dyn RpcNet,
    ) {
        // Cached for exactly-once duplicate calls.
        let wire_span = SpanId::to_wire(span);
        self.seen
            .record(call_id, wire_span, Outcome::Replied(&results));
        let pkt = RpcPacket::Reply {
            call_id,
            results,
            span: wire_span,
        };
        let bytes = pkt.wire_bytes();
        let mut now = now;
        if self.config.monitor {
            self.monitor.observe(&pkt);
            now += MONITOR_PER_PACKET;
        }
        if self.config.debug_support {
            self.server_recent.push((call_id, true));
        }
        if self.tracer.wants(TraceCategory::Rpc) {
            self.tracer.emit(
                now,
                TraceCategory::Rpc,
                Some(self.node_id.0),
                span,
                EventKind::ReplySent {
                    call_id,
                    cached: false,
                },
            );
        }
        net.send_rpc(now + SERVER_SEND, self.node_id, dst, pkt, bytes);
    }

    /// Tells the endpoint a process on this node exited; if it was a
    /// server process, its results are marshalled and the reply sent.
    /// Returns true when the process belonged to the RPC runtime.
    pub fn on_proc_exited(
        &mut self,
        now: SimTime,
        node: &mut Node,
        pid: Pid,
        net: &mut dyn RpcNet,
    ) -> bool {
        let Some(call) = self.serving.remove(pid.0) else {
            return false;
        };
        if let Some(i) = &call.info {
            i.state.set(RpcCallState::Succeeded);
        }
        let results: Vec<WireValue> = node
            .exit_values(pid)
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| marshal(node.heap(), v).ok())
            .collect();
        self.send_reply(now, call.caller, call.call_id, results, call.span, net);
        true
    }

    /// Tells the endpoint a process faulted; if it was a server process,
    /// the caller gets a failure reply ("the callee faulted").
    pub fn on_proc_faulted(
        &mut self,
        now: SimTime,
        node: &mut Node,
        pid: Pid,
        fault: &Fault,
        net: &mut dyn RpcNet,
    ) -> bool {
        let Some(call) = self.serving.remove(pid.0) else {
            return false;
        };
        if let Some(i) = &call.info {
            i.state.set(RpcCallState::Failed);
        }
        let _ = node;
        self.reply_failure(
            now,
            call.caller,
            call.call_id,
            call.span,
            format!("remote fault: {fault}"),
            net,
        );
        true
    }

    fn deliver(&mut self, now: SimTime, node: &mut Node, call_id: CallId, kind: Completion) {
        let Some(call) = self
            .own_counter(call_id)
            .and_then(|counter| self.client.remove(counter))
        else {
            return;
        };
        pop_stub_frame(node, call.pid);
        match kind {
            Completion::Success(results) => {
                self.stats.completed += 1;
                let latency = now.saturating_since(call.started);
                self.stats.total_latency += latency;
                if let Some(m) = &self.meters {
                    m.completed.inc();
                    m.latency_us.observe(latency.as_micros());
                }
                if self.tracer.wants(TraceCategory::Rpc) {
                    self.tracer.emit(
                        now,
                        TraceCategory::Rpc,
                        Some(self.node_id.0),
                        Some(call.span),
                        EventKind::CallCompleted {
                            call_id,
                            failure: None,
                        },
                    );
                }
                if let Some(i) = &call.info {
                    i.state.set(RpcCallState::Succeeded);
                }
                if self.config.debug_support {
                    self.client_recent.push((call_id, true));
                }
                let mut values = Vec::with_capacity(results.len() + 1);
                if call.header().1 == RpcProtocol::Maybe {
                    values.push(Value::Bool(true));
                }
                for w in &results {
                    values.push(unmarshal(node.heap_mut(), w));
                }
                node.resume_rpc(call.pid, call.token, values);
            }
            Completion::MaybeFail(reason) => {
                self.stats.failed += 1;
                if let Some(m) = &self.meters {
                    m.failed.inc();
                }
                if let Some(i) = &call.info {
                    i.state.set(RpcCallState::Failed);
                }
                if self.config.debug_support {
                    self.client_recent.push((call_id, false));
                }
                if self.tracer.wants(TraceCategory::Rpc) {
                    self.tracer.emit(
                        now,
                        TraceCategory::Rpc,
                        Some(self.node_id.0),
                        Some(call.span),
                        EventKind::CallCompleted {
                            call_id,
                            failure: Some(format!("maybe: {reason}")),
                        },
                    );
                }
                let values = maybe_failure(node, &call.ret_types);
                node.resume_rpc(call.pid, call.token, values);
            }
            Completion::Hard(reason) => {
                self.stats.failed += 1;
                if let Some(m) = &self.meters {
                    m.failed.inc();
                }
                if let Some(i) = &call.info {
                    i.state.set(RpcCallState::Failed);
                }
                if self.config.debug_support {
                    self.client_recent.push((call_id, false));
                }
                if self.tracer.wants(TraceCategory::Rpc) {
                    self.tracer.emit(
                        now,
                        TraceCategory::Rpc,
                        Some(self.node_id.0),
                        Some(call.span),
                        EventKind::CallCompleted {
                            call_id,
                            failure: Some(reason.clone()),
                        },
                    );
                }
                node.fail_rpc(
                    call.pid,
                    call.token,
                    Fault {
                        kind: FaultKind::RemoteCall,
                        message: reason,
                    },
                );
            }
        }
    }
}

/// What a failed `maybe` call hands its caller: `false`, then a default
/// value for each declared result.
fn maybe_failure(node: &mut Node, ret_types: &[Type]) -> Vec<Value> {
    let mut values = vec![Value::Bool(false)];
    for t in ret_types {
        values.push(unmarshal(node.heap_mut(), &default_for(t)));
    }
    values
}

/// Pushes the client-side RPC stub frame (Figure 1, left): the top of the
/// client process's stack while the call is outstanding, with the
/// information block in a known position.
fn push_stub_frame(node: &mut Node, pid: Pid, info: Rc<RpcInfoBlock>) {
    if let Some(vm) = node.process_mut(pid).and_then(|p| p.vm_mut()) {
        vm.push_stub(info);
    }
}

/// Removes the stub frame on call completion.
fn pop_stub_frame(node: &mut Node, pid: Pid) {
    if let Some(vm) = node.process_mut(pid).and_then(|p| p.vm_mut()) {
        vm.pop_stub();
    }
}
