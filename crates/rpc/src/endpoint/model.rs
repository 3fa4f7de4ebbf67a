//! The endpoint's tables as they were before they lost their hashing —
//! five `HashMap`s keyed by call id and pid — kept as the model the
//! windowed tables are held to, the way `queue_matches_a_sorted_vec_model`
//! holds `EventQueue` to a sorted `Vec`.
//!
//! [`ModelEndpoint`] is the protocol over those maps with everything that
//! is not table traffic left out (trace events, meters, the packet
//! monitor). The property at the bottom drives a pair of real endpoints
//! and a pair of model endpoints through one random script and compares
//! every public query and every packet handed to the network after every
//! step.

use std::collections::HashMap;

use pilgrim_cclu::compile;
use pilgrim_mayflower::{NodeConfig, Outcall};
use pilgrim_sim::check::{check, ensure_eq, int_range, vecs, zip};

use super::*;

#[derive(Debug)]
struct ModelServerCall {
    pid: Pid,
    caller: NodeId,
    info: Option<Rc<RpcInfoBlock>>,
    span: Option<SpanId>,
}

#[derive(Debug)]
enum ModelTimer {
    Dispatch {
        src: NodeId,
        call_id: CallId,
        proc: Arc<str>,
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

struct ModelEndpoint {
    node_id: NodeId,
    config: RpcConfig,
    counter: u64,
    client: HashMap<CallId, ClientCall>,
    by_pid: HashMap<Pid, CallId>,
    client_recent: Ring<(CallId, bool)>,
    server_exec: HashMap<CallId, ModelServerCall>,
    server_by_pid: HashMap<Pid, CallId>,
    seen: HashMap<CallId, Option<(RpcPacket, usize)>>,
    server_recent: Ring<(CallId, bool)>,
    handlers: HashMap<String, (Signature, NativeBody)>,
    timers: EventQueue<ModelTimer>,
    stats: RpcStats,
    tracer: Tracer,
}

impl ModelEndpoint {
    fn new(node_id: NodeId, config: RpcConfig, tracer: Tracer) -> ModelEndpoint {
        ModelEndpoint {
            node_id,
            config,
            counter: 0,
            client: HashMap::new(),
            by_pid: HashMap::new(),
            client_recent: Ring::new(RECENT_SLOTS),
            server_exec: HashMap::new(),
            server_by_pid: HashMap::new(),
            seen: HashMap::new(),
            server_recent: Ring::new(RECENT_SLOTS),
            handlers: HashMap::new(),
            timers: EventQueue::new(),
            stats: RpcStats::default(),
            tracer,
        }
    }

    fn stats(&self) -> RpcStats {
        self.stats
    }

    fn register_handler(&mut self, name: &str, sig: Signature, body: NativeBody) {
        self.handlers.insert(name.to_string(), (sig, body));
    }

    fn next_timer(&mut self) -> Option<SimTime> {
        self.timers.next_time()
    }

    fn call_for_process(&self, pid: Pid) -> Option<CallDebug> {
        let id = self.by_pid.get(&pid)?;
        let c = self.client.get(id)?;
        let (proc, protocol) = c.header();
        Some(CallDebug {
            call_id: *id,
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

    fn serving_process(&self, call_id: CallId) -> Option<Pid> {
        self.server_exec.get(&call_id).map(|s| s.pid)
    }

    fn caller_of(&self, call_id: CallId) -> Option<NodeId> {
        self.server_exec.get(&call_id).map(|s| s.caller)
    }

    fn client_process(&self, call_id: CallId) -> Option<Pid> {
        self.client.get(&call_id).map(|c| c.pid)
    }

    fn server_knowledge(&self, call_id: CallId) -> ServerKnowledge {
        if self.server_exec.contains_key(&call_id) {
            return ServerKnowledge::Executing;
        }
        match self.seen.get(&call_id) {
            Some(Some((reply, _))) => {
                ServerKnowledge::Replied(matches!(reply, RpcPacket::Reply { .. }))
            }
            Some(None) => ServerKnowledge::Executing,
            None => ServerKnowledge::NeverSeen,
        }
    }

    fn recent_client_calls(&self) -> Vec<(CallId, bool)> {
        self.client_recent.iter().copied().collect()
    }

    fn recent_served_calls(&self) -> Vec<(CallId, bool)> {
        self.server_recent.iter().copied().collect()
    }

    fn start_call(
        &mut self,
        now: SimTime,
        node: &mut Node,
        pid: Pid,
        token: u64,
        req: &RpcRequest,
        net: &mut dyn RpcNet,
    ) {
        self.stats.started += 1;
        if req.node < 0 || req.node >= i64::from(net.node_count()) {
            self.fail_now(node, pid, token, req, format!("no such node {}", req.node));
            return;
        }
        let dst = NodeId(req.node as u32);
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

        self.counter += 1;
        let call_id = make_call_id(self.node_id, self.counter);
        let parent_span = node.process(pid).and_then(|p| p.span);
        let span = self.tracer.next_span_with_parent(parent_span);
        let mut delay = CLIENT_SEND;
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
        let send_at = now + delay;
        net.send_rpc(send_at, self.node_id, dst, pkt.clone(), bytes);
        if let Some(i) = &info {
            i.state.set(RpcCallState::CallSent);
        }
        let timer = match req.protocol {
            RpcProtocol::ExactlyOnce => (RETRY_INTERVAL, ModelTimer::Retry(call_id)),
            RpcProtocol::Maybe => (MAYBE_TIMEOUT, ModelTimer::MaybeDeadline(call_id)),
        };
        self.timers.schedule(send_at + timer.0, timer.1);
        self.client.insert(
            call_id,
            ClientCall {
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
            },
        );
        self.by_pid.insert(pid, call_id);
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

    fn on_packet(
        &mut self,
        now: SimTime,
        node: &mut Node,
        src: NodeId,
        pkt: RpcPacket,
        net: &mut dyn RpcNet,
    ) {
        match pkt {
            RpcPacket::Call {
                call_id,
                proc,
                args,
                protocol,
                attempt: _,
                span,
            } => {
                if protocol == RpcProtocol::ExactlyOnce {
                    if let Some(seen) = self.seen.get(&call_id) {
                        if let Some((reply, bytes)) = seen {
                            let at = now + SERVER_SEND;
                            net.send_rpc(at, self.node_id, src, reply.clone(), *bytes);
                        }
                        return;
                    }
                }
                let sig: Option<Signature> = if let Some((sig, _)) = self.handlers.get(&*proc) {
                    Some(sig.clone())
                } else {
                    node.program()
                        .proc_by_name(&proc)
                        .map(|id| node.program().proc(id).debug.sig.clone())
                };
                let span = SpanId::from_wire(span);
                let Some(sig) = sig else {
                    let reason = format!("unknown remote procedure `{proc}`");
                    self.reply_failure(now, src, call_id, span, reason, net);
                    return;
                };
                if sig.params.len() != args.len()
                    || !args
                        .iter()
                        .zip(sig.params.iter())
                        .all(|(a, t)| wire_matches_type(a, t, &node.program().records))
                {
                    let reason = format!("arguments do not match `{proc}` signature {sig}");
                    self.reply_failure(now, src, call_id, span, reason, net);
                    return;
                }
                self.seen.insert(call_id, None);
                let mut delay = SERVER_RECV;
                if self.config.debug_support {
                    delay += DEBUG_SERVER;
                }
                self.timers.schedule(
                    now + delay,
                    ModelTimer::Dispatch {
                        src,
                        call_id,
                        proc,
                        args,
                        protocol,
                        span,
                    },
                );
            }
            RpcPacket::Reply {
                call_id, results, ..
            } => self.client_reply(now, call_id, Completion::Success(results)),
            RpcPacket::ReplyFailure {
                call_id, reason, ..
            } => {
                let kind = match self.client.get(&call_id).map(|c| c.header().1) {
                    Some(RpcProtocol::Maybe) => Completion::MaybeFail(reason),
                    _ => Completion::Hard(reason),
                };
                self.client_reply(now, call_id, kind);
            }
        }
    }

    fn client_reply(&mut self, now: SimTime, call_id: CallId, kind: Completion) {
        let Some(call) = self.client.get_mut(&call_id) else {
            return;
        };
        if call.done {
            return;
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
            .schedule(now + delay, ModelTimer::Complete { call_id, kind });
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
        let pkt = RpcPacket::ReplyFailure {
            call_id,
            reason,
            span: SpanId::to_wire(span),
        };
        let bytes = pkt.wire_bytes();
        if self.config.debug_support {
            self.server_recent.push((call_id, false));
        }
        self.seen.insert(call_id, Some((pkt.clone(), bytes)));
        net.send_rpc(now + SERVER_SEND, self.node_id, dst, pkt, bytes);
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
        let pkt = RpcPacket::Reply {
            call_id,
            results,
            span: SpanId::to_wire(span),
        };
        let bytes = pkt.wire_bytes();
        if self.config.debug_support {
            self.server_recent.push((call_id, true));
        }
        self.seen.insert(call_id, Some((pkt.clone(), bytes)));
        net.send_rpc(now + SERVER_SEND, self.node_id, dst, pkt, bytes);
    }

    fn on_timers(&mut self, now: SimTime, node: &mut Node, net: &mut dyn RpcNet) {
        while let Some((at, timer)) = self.timers.pop_due(now) {
            match timer {
                ModelTimer::Dispatch {
                    src,
                    call_id,
                    proc,
                    args,
                    protocol,
                    span,
                } => self.dispatch(at, node, src, call_id, &proc, args, protocol, span, net),
                ModelTimer::Retry(call_id) => {
                    if self.client_halted(node, call_id) {
                        let again = at + RETRY_INTERVAL;
                        self.timers.schedule(again, ModelTimer::Retry(call_id));
                        continue;
                    }
                    self.retry(at, node, call_id, net);
                }
                ModelTimer::MaybeDeadline(call_id) => {
                    if self.client_halted(node, call_id) {
                        let again = at + MAYBE_TIMEOUT;
                        self.timers
                            .schedule(again, ModelTimer::MaybeDeadline(call_id));
                        continue;
                    }
                    let done = self.client.get(&call_id).map(|c| c.done).unwrap_or(true);
                    if !done {
                        self.deliver(at, node, call_id, Completion::MaybeFail("no reply".into()));
                    }
                }
                ModelTimer::Complete { call_id, kind } => self.deliver(at, node, call_id, kind),
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
        proc: &Arc<str>,
        args: Vec<WireValue>,
        protocol: RpcProtocol,
        span: Option<SpanId>,
        net: &mut dyn RpcNet,
    ) {
        self.stats.served += 1;
        if let Some((sig, mut body)) = self.handlers.remove(&**proc) {
            let values: Vec<Value> = args.iter().map(|w| unmarshal(node.heap_mut(), w)).collect();
            let mut ctx = HandlerCtx {
                node,
                caller: src,
                call_id,
                now,
            };
            let result = body(&mut ctx, values);
            self.handlers.insert(proc.to_string(), (sig, body));
            let wire = result.and_then(|rets| {
                rets.iter()
                    .map(|v| marshal(node.heap(), v).map_err(|e| e.to_string()))
                    .collect::<Result<Vec<WireValue>, String>>()
            });
            match wire {
                Ok(results) => self.send_reply(now, src, call_id, results, span, net),
                Err(reason) => self.reply_failure(now, src, call_id, span, reason, net),
            }
            return;
        }
        let Some(proc_id) = node.program().proc_by_name(proc) else {
            let reason = format!("unknown procedure `{proc}`");
            self.reply_failure(now, src, call_id, span, reason, net);
            return;
        };
        let values: Vec<Value> = args.iter().map(|w| unmarshal(node.heap_mut(), w)).collect();
        let opts = SpawnOpts {
            name: Some(node.intern_name(&format!("rpc:{proc}"))),
            ..Default::default()
        };
        let pid = node.spawn_proc(proc_id, values, opts);
        if let Some(p) = node.process_mut(pid) {
            p.span = span;
        }
        let info = self.config.debug_support.then(|| {
            Rc::new(RpcInfoBlock {
                process: pid.0,
                remote_proc: proc.clone(),
                call_id,
                protocol,
                state: Cell::new(RpcCallState::ServerExecuting),
                retries: Cell::new(0),
            })
        });
        if let Some(info) = &info {
            if let Some(root) = node
                .process_mut(pid)
                .and_then(|p| p.vm_mut())
                .and_then(|vm| vm.frames.first_mut())
            {
                root.kind = FrameKind::ServerRoot;
                root.rpc_info = Some(info.clone());
            }
        }
        self.server_exec.insert(
            call_id,
            ModelServerCall {
                pid,
                caller: src,
                info,
                span,
            },
        );
        self.server_by_pid.insert(pid, call_id);
    }

    fn client_halted(&self, node: &Node, call_id: CallId) -> bool {
        self.client
            .get(&call_id)
            .filter(|c| !c.done)
            .and_then(|c| node.process(c.pid))
            .map(|p| p.is_halted())
            .unwrap_or(false)
    }

    fn retry(&mut self, now: SimTime, node: &mut Node, call_id: CallId, net: &mut dyn RpcNet) {
        let Some(call) = self.client.get_mut(&call_id) else {
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
            self.deliver(now, node, call_id, Completion::Hard(reason));
            return;
        }
        call.attempts += 1;
        self.stats.retransmits += 1;
        if let Some(i) = &call.info {
            i.retries.set(i.retries.get() + 1);
            i.state.set(RpcCallState::Retransmitting(i.retries.get()));
        }
        let mut pkt = call.pkt.clone();
        if let RpcPacket::Call { attempt, .. } = &mut pkt {
            *attempt = call.attempts - 1;
        }
        net.send_rpc(now, self.node_id, call.dst, pkt, call.bytes);
        self.timers
            .schedule(now + RETRY_INTERVAL, ModelTimer::Retry(call_id));
    }

    fn on_proc_exited(
        &mut self,
        now: SimTime,
        node: &mut Node,
        pid: Pid,
        net: &mut dyn RpcNet,
    ) -> bool {
        let Some(call_id) = self.server_by_pid.remove(&pid) else {
            return false;
        };
        let Some(call) = self.server_exec.remove(&call_id) else {
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
        self.send_reply(now, call.caller, call_id, results, call.span, net);
        true
    }

    fn on_proc_faulted(
        &mut self,
        now: SimTime,
        _node: &mut Node,
        pid: Pid,
        fault: &Fault,
        net: &mut dyn RpcNet,
    ) -> bool {
        let Some(call_id) = self.server_by_pid.remove(&pid) else {
            return false;
        };
        let Some(call) = self.server_exec.remove(&call_id) else {
            return false;
        };
        if let Some(i) = &call.info {
            i.state.set(RpcCallState::Failed);
        }
        let reason = format!("remote fault: {fault}");
        self.reply_failure(now, call.caller, call_id, call.span, reason, net);
        true
    }

    fn deliver(&mut self, now: SimTime, node: &mut Node, call_id: CallId, kind: Completion) {
        let Some(call) = self.client.remove(&call_id) else {
            return;
        };
        self.by_pid.remove(&call.pid);
        pop_stub_frame(node, call.pid);
        let ok = matches!(kind, Completion::Success(_));
        if ok {
            self.stats.completed += 1;
            self.stats.total_latency += now.saturating_since(call.started);
        } else {
            self.stats.failed += 1;
        }
        if let Some(i) = &call.info {
            i.state.set(if ok {
                RpcCallState::Succeeded
            } else {
                RpcCallState::Failed
            });
        }
        if self.config.debug_support {
            self.client_recent.push((call_id, ok));
        }
        match kind {
            Completion::Success(results) => {
                let mut values = Vec::with_capacity(results.len() + 1);
                if call.header().1 == RpcProtocol::Maybe {
                    values.push(Value::Bool(true));
                }
                for w in &results {
                    values.push(unmarshal(node.heap_mut(), w));
                }
                node.resume_rpc(call.pid, call.token, values);
            }
            Completion::MaybeFail(_) => {
                let values = maybe_failure(node, &call.ret_types);
                node.resume_rpc(call.pid, call.token, values);
            }
            Completion::Hard(reason) => node.fail_rpc(
                call.pid,
                call.token,
                Fault {
                    kind: FaultKind::RemoteCall,
                    message: reason,
                },
            ),
        }
    }
}

/// What the harness needs of an endpoint, so one script drives both kinds.
trait Endpoint: Sized {
    fn create(node: NodeId, config: RpcConfig, tracer: Tracer) -> Self;
    fn register(&mut self, name: &str, sig: Signature, body: NativeBody);
    fn start(
        &mut self,
        at: SimTime,
        n: &mut Node,
        pid: Pid,
        token: u64,
        req: &RpcRequest,
        net: &mut Wire,
    );
    fn packet(&mut self, at: SimTime, n: &mut Node, src: NodeId, pkt: RpcPacket, net: &mut Wire);
    fn timers(&mut self, now: SimTime, n: &mut Node, net: &mut Wire);
    fn exited(&mut self, at: SimTime, n: &mut Node, pid: Pid, net: &mut Wire) -> bool;
    fn faulted(
        &mut self,
        at: SimTime,
        n: &mut Node,
        pid: Pid,
        fault: &Fault,
        net: &mut Wire,
    ) -> bool;
    /// Every public query, over every pid and call id the script has met.
    fn observe(&mut self, pids: u64, ids: &[CallId]) -> String;
}

macro_rules! impl_endpoint {
    ($ty:ty) => {
        impl Endpoint for $ty {
            fn create(node: NodeId, config: RpcConfig, tracer: Tracer) -> Self {
                <$ty>::new(node, config, tracer)
            }
            fn register(&mut self, name: &str, sig: Signature, body: NativeBody) {
                self.register_handler(name, sig, body)
            }
            fn start(
                &mut self,
                at: SimTime,
                n: &mut Node,
                pid: Pid,
                token: u64,
                req: &RpcRequest,
                net: &mut Wire,
            ) {
                self.start_call(at, n, pid, token, req, net)
            }
            fn packet(
                &mut self,
                at: SimTime,
                n: &mut Node,
                src: NodeId,
                pkt: RpcPacket,
                net: &mut Wire,
            ) {
                self.on_packet(at, n, src, pkt, net)
            }
            fn timers(&mut self, now: SimTime, n: &mut Node, net: &mut Wire) {
                self.on_timers(now, n, net)
            }
            fn exited(&mut self, at: SimTime, n: &mut Node, pid: Pid, net: &mut Wire) -> bool {
                self.on_proc_exited(at, n, pid, net)
            }
            fn faulted(
                &mut self,
                at: SimTime,
                n: &mut Node,
                pid: Pid,
                fault: &Fault,
                net: &mut Wire,
            ) -> bool {
                self.on_proc_faulted(at, n, pid, fault, net)
            }
            fn observe(&mut self, pids: u64, ids: &[CallId]) -> String {
                use std::fmt::Write;
                let mut out = format!(
                    "{:?} timer={:?} client={:?} served={:?}\n",
                    self.stats(),
                    self.next_timer(),
                    self.recent_client_calls(),
                    self.recent_served_calls(),
                );
                for pid in (1..=pids).map(Pid) {
                    if let Some(c) = self.call_for_process(pid) {
                        writeln!(out, "{pid}: {c:?}").unwrap();
                    }
                }
                for &id in ids {
                    let row = (
                        self.serving_process(id),
                        self.caller_of(id),
                        self.client_process(id),
                        self.server_knowledge(id),
                    );
                    writeln!(out, "{id:#x}: {row:?}").unwrap();
                }
                out
            }
        }
    };
}
impl_endpoint!(RpcEndpoint);
impl_endpoint!(ModelEndpoint);

/// One packet handed to the network: `(at, src, dst, packet, bytes)`.
type Sent = (SimTime, NodeId, NodeId, RpcPacket, usize);

/// The network as the script's plaything: everything an endpoint sends is
/// logged and left in flight until the script delivers, copies or drops it.
#[derive(Default)]
struct Wire {
    log: Vec<Sent>,
    in_flight: Vec<Sent>,
}

impl RpcNet for Wire {
    fn send_rpc(&mut self, at: SimTime, src: NodeId, dst: NodeId, pkt: RpcPacket, bytes: usize) {
        self.log.push((at, src, dst, pkt.clone(), bytes));
        self.in_flight.push((at, src, dst, pkt, bytes));
    }

    fn node_count(&self) -> u32 {
        2
    }
}

const PROGRAM: &str = "\
extern nothere = proc (n: int) returns (int)
extern double = proc (n: int) returns (int)
extern refuse = proc (n: int) returns (int)
echo = proc (n: int) returns (int)
 return (n)
end
slow = proc (n: int) returns (int)
 sleep(30)
 return (n + 1)
end
boom = proc (n: int) returns (int)
 fail(\"server exploded\")
end
report = proc (ok: bool, r: int)
 if ok then
  print(\"ok \" || int$unparse(r))
 else
  print(\"failed\")
 end
end
eo_echo = proc (peer: int)
 r: int := call echo(7) at peer
 report(true, r)
end
eo_slow = proc (peer: int)
 r: int := call slow(7) at peer
 report(true, r)
end
eo_boom = proc (peer: int)
 r: int := call boom(7) at peer
 report(true, r)
end
eo_nothere = proc (peer: int)
 r: int := call nothere(7) at peer
 report(true, r)
end
eo_double = proc (peer: int)
 r: int := call double(7) at peer
 report(true, r)
end
eo_refuse = proc (peer: int)
 r: int := call refuse(7) at peer
 report(true, r)
end
eo_nowhere = proc (peer: int)
 r: int := call echo(7) at 9
 report(true, r)
end
maybe_echo = proc (peer: int)
 ok: bool := true
 r: int := 0
 ok, r := maybecall echo(7) at peer
 report(ok, r)
end
maybe_slow = proc (peer: int)
 ok: bool := true
 r: int := 0
 ok, r := maybecall slow(7) at peer
 report(ok, r)
end
maybe_nothere = proc (peer: int)
 ok: bool := true
 r: int := 0
 ok, r := maybecall nothere(7) at peer
 report(ok, r)
end
maybe_refuse = proc (peer: int)
 ok: bool := true
 r: int := 0
 ok, r := maybecall refuse(7) at peer
 report(ok, r)
end
maybe_nowhere = proc (peer: int)
 ok: bool := true
 r: int := 0
 ok, r := maybecall echo(7) at 9
 report(ok, r)
end";

/// The client procedures a script spawns; the ones that can succeed are
/// listed twice.
const CLIENTS: [&str; 17] = [
    "eo_echo",
    "eo_slow",
    "eo_double",
    "maybe_echo",
    "maybe_slow",
    "eo_echo",
    "eo_slow",
    "eo_double",
    "maybe_echo",
    "maybe_slow",
    "eo_boom",
    "eo_nothere",
    "eo_refuse",
    "eo_nowhere",
    "maybe_nothere",
    "maybe_refuse",
    "maybe_nowhere",
];

/// `double` answers, `refuse` errors: the two ends of a native handler.
fn native(answers: bool) -> (Signature, NativeBody) {
    let sig = Signature {
        params: vec![Type::Int],
        returns: vec![Type::Int],
    };
    let body: NativeBody = Box::new(move |_: &mut HandlerCtx<'_>, args: Vec<Value>| {
        match (answers, args[0].as_int()) {
            (true, Some(n)) => Ok(vec![Value::Int(n * 2)]),
            _ => Err("refused".to_string()),
        }
    });
    (sig, body)
}

/// Two nodes, their endpoints and the wire between them.
struct Side<E> {
    nodes: Vec<Node>,
    eps: Vec<E>,
    wire: Wire,
    now: SimTime,
}

impl<E: Endpoint> Side<E> {
    fn new() -> Side<E> {
        let tracer = Tracer::new();
        let program = compile(PROGRAM).expect("program compiles");
        let nodes = (0..2)
            .map(|i| {
                let config = NodeConfig {
                    seed: u64::from(i) + 1,
                    ..Default::default()
                };
                Node::new(i, program.clone(), config, tracer.clone())
            })
            .collect();
        let eps = (0..2)
            .map(|i| {
                let mut e = E::create(NodeId(i), RpcConfig::default(), tracer.clone());
                for (name, answers) in [("double", true), ("refuse", false)] {
                    let (sig, body) = native(answers);
                    e.register(name, sig, body);
                }
                e
            })
            .collect();
        Side {
            nodes,
            eps,
            wire: Wire::default(),
            now: SimTime::ZERO,
        }
    }

    /// Steps both nodes to `now + us`, routing their outcalls, then fires
    /// the protocol timers due by then. Packets stay in flight.
    fn advance(&mut self, us: u64) {
        self.now += SimDuration::from_micros(us);
        for i in 0..2 {
            let (n, e, w) = (&mut self.nodes[i], &mut self.eps[i], &mut self.wire);
            for oc in n.advance_to(self.now) {
                match oc {
                    Outcall::Rpc {
                        pid,
                        token,
                        req,
                        at,
                    } => e.start(at, n, pid, token, &req, w),
                    Outcall::ProcExited { pid, at } => drop(e.exited(at, n, pid, w)),
                    Outcall::Fault { pid, fault, at } => drop(e.faulted(at, n, pid, &fault, w)),
                    _ => {}
                }
            }
        }
        for i in 0..2 {
            self.eps[i].timers(self.now, &mut self.nodes[i], &mut self.wire);
        }
    }

    fn deliver(&mut self, (at, src, dst, pkt, _): Sent) {
        let i = dst.0 as usize;
        let at = at.max(self.now);
        self.eps[i].packet(at, &mut self.nodes[i], src, pkt, &mut self.wire);
    }

    fn step(&mut self, op: i64, a: u64, b: u64) {
        let pick = |w: &Wire| (!w.in_flight.is_empty()).then(|| a as usize % w.in_flight.len());
        match op {
            0 | 1 => {
                let (node, to) = ((a % 2) as usize, Value::Int(1 - (a % 2) as i64));
                let main = CLIENTS[b as usize % CLIENTS.len()];
                let spawned = self.nodes[node].spawn(main, vec![to], SpawnOpts::default());
                spawned.expect("client procedure exists");
            }
            2..=4 => self.advance(1 + b * 500),
            5 => self.advance(b * 40_000),
            6 | 7 => {
                if let Some(k) = pick(&self.wire) {
                    let sent = self.wire.in_flight.remove(k);
                    self.deliver(sent);
                }
            }
            // A copy arrives and the original stays in flight. A maybe
            // call is left alone: the ring never duplicates, and only
            // exactly-once retransmits.
            8 => {
                if let Some(k) = pick(&self.wire) {
                    let sent = self.wire.in_flight[k].clone();
                    let maybe_call = matches!(
                        sent.3,
                        RpcPacket::Call {
                            protocol: RpcProtocol::Maybe,
                            ..
                        }
                    );
                    if !maybe_call {
                        self.deliver(sent);
                    }
                }
            }
            9 => {
                if let Some(k) = pick(&self.wire) {
                    self.wire.in_flight.remove(k);
                }
            }
            // A reply whose id names the other node with the same counter
            // — or, for `b` odd, a counter never issued — must be a no-op.
            10 => {
                if let Some(k) = pick(&self.wire) {
                    let (at, src, dst, mut pkt, bytes) = self.wire.in_flight[k].clone();
                    let forge = |id: &mut CallId| {
                        let node = NodeId(1 - call_id_node(*id).0);
                        *id = make_call_id(node, call_id_counter(*id) + (b % 2) * 1_000);
                    };
                    match &mut pkt {
                        RpcPacket::Reply { call_id, .. }
                        | RpcPacket::ReplyFailure { call_id, .. } => forge(call_id),
                        RpcPacket::Call { .. } => return,
                    }
                    self.deliver((at, src, dst, pkt, bytes));
                }
            }
            11 => drop(self.nodes[(a % 2) as usize].halt_all()),
            12 => drop(self.nodes[(a % 2) as usize].resume_all()),
            _ => {
                // Everything in flight arrives, oldest first.
                for sent in std::mem::take(&mut self.wire.in_flight) {
                    self.deliver(sent);
                }
            }
        }
    }

    /// Every query of both endpoints, plus what the programs printed.
    fn observe(&mut self, ids: &[CallId]) -> String {
        let mut out = String::new();
        for i in 0..2 {
            let pids = self.nodes[i].process_count() as u64;
            out.push_str(&self.eps[i].observe(pids, ids));
            out.push_str(&format!("{:?}\n", self.nodes[i].console()));
        }
        out
    }
}

/// Random scripts — starts of both protocols to live, unknown, native,
/// faulting and slow procedures and to a node that does not exist;
/// delivery in any order, duplicates, drops, forged reply ids; halts and
/// resumes across retry timers; long waits that run the retry ladder out —
/// on the windowed tables and on the `HashMap` model, comparing after
/// every step.
#[test]
fn tables_match_the_hashmap_model() {
    let ops = vecs(
        zip(int_range(0, 13), zip(int_range(0, 40), int_range(0, 11))),
        80,
    );
    check("rpc tables == hashmap model", &ops, |ops| {
        let mut real: Side<RpcEndpoint> = Side::new();
        let mut model: Side<ModelEndpoint> = Side::new();
        let mut ids: Vec<CallId> = vec![make_call_id(NodeId(7), 1)];
        let mut logged = 0;
        // Afterwards: release anything halted, then let every call run
        // its course (deliver all, wait out a retry interval, repeat).
        let settle = [(12, (0, 0)), (12, (1, 0))]
            .into_iter()
            .chain((0..16).map(|i| (if i % 2 == 0 { 13 } else { 5 }, (0, 11))));
        for (op, (a, b)) in ops.iter().copied().chain(settle) {
            real.step(op, a as u64, b as u64);
            model.step(op, a as u64, b as u64);
            ensure_eq(&real.wire.log[logged..], &model.wire.log[logged..])?;
            for sent in &real.wire.log[logged..] {
                let id = sent.3.call_id();
                let forged = make_call_id(NodeId(1 - call_id_node(id).0), call_id_counter(id));
                for id in [id, forged, forged + 1_000] {
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            }
            logged = real.wire.log.len();
            ensure_eq(real.wire.in_flight.len(), model.wire.in_flight.len())?;
            ensure_eq(real.observe(&ids), model.observe(&ids))?;
        }
        // Every call has run its course: nothing is outstanding, nothing
        // is executing, and the windows have slid shut behind them.
        for e in &real.eps {
            ensure_eq((e.client.len(), e.client.span()), (0, 0))?;
            ensure_eq((e.serving.len(), e.serving.span()), (0, 0))?;
        }
        Ok(())
    });
}
