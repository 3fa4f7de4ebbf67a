//! The Pilgrim agent: "every node of a user program has a piece of
//! debugging support code, called the agent, included in it by the linker"
//! (§3).
//!
//! The agent stays dormant until a debugger connects. Its functions are
//! exactly the paper's list:
//!
//! * session management: accept a connection at any time, validate the
//!   session identifier on every interaction, allow a second debugger to
//!   **forcibly connect** (abandoning the old session and clearing all
//!   breakpoints), use **no timeouts** of its own;
//! * the low-level primitives that must live on the node: memory access,
//!   trap handling, breakpoint set/clear/**step-over** (§5.5), and
//!   procedure invocation with output redirected to the debugger (§3) —
//!   which is also how user-defined print operations are run;
//! * halting: on a breakpoint, hardware exception or user program failure,
//!   halt local processes immediately via the supervisor primitive and
//!   send halt messages serially to every other node under control of the
//!   debugger, retransmitting on ring NACK (§5.2);
//! * the logical-clock delta: on resume, fold the measured halt duration
//!   into the node's delta (§5.2);
//! * the `get_debuggee_status` support procedure for shared servers
//!   (§6.1), exported as an RPC handler on the node.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use pilgrim_cclu::{CodeAddr, Fault, FrameKind, Op, ProcId, Signature, Type, Value};
use pilgrim_mayflower::{Node, Outcall, Pid, Process, RunState, SpawnOpts};
use pilgrim_ring::{Medium, NodeId, TxStatus};
use pilgrim_rpc::{marshal, unmarshal, HandlerCtx, RpcEndpoint};
use pilgrim_sim::json::Fields;
use pilgrim_sim::{EventKind, Json, SimDuration, SimTime, TraceCategory, Tracer};

use crate::proto::{
    AgentEvent, AgentReply, AgentRequest, DebugMsg, FrameSummary, Invocation, ProcView,
    RpcFrameView, SessionId, StateView,
};

/// Transmissions one debugger or agent message may take: an interface
/// that refuses it (a ring NACK, §5.2) is sent it again, up to this many
/// times in all, before the sender gives up (a crashed node still yields
/// a final NACK). The halt broadcast's reliability scheme.
pub(crate) const DEBUG_ATTEMPTS: u32 = 8;

/// Processing cost of one handled request before its reply is sent.
const REQUEST_COST: SimDuration = SimDuration::from_micros(200);

/// Network access for agents (and the debugger). Implemented by the world
/// over the simulated ring.
pub trait DebugNet {
    /// Sends one message with NACK-retransmission, up to eight
    /// transmissions (`DEBUG_ATTEMPTS`). Returns the final status (a NACK
    /// means the destination interface never received it) and the number
    /// of transmissions.
    fn send_debug(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        msg: DebugMsg,
    ) -> (TxStatus, u32);
    /// Data-link broadcast, available only on Ethernet-style media.
    fn broadcast_debug(&mut self, at: SimTime, src: NodeId, msg: DebugMsg) -> Option<SimTime>;
    /// The physical medium.
    fn medium(&self) -> Medium;
}

/// Agent tuning.
#[derive(Debug, Clone, Default)]
pub struct AgentConfig {
    /// Use the medium's data-link broadcast for halting when available
    /// (the Ethernet comparison in §5.2 / experiment E3).
    pub broadcast_halt: bool,
}

impl AgentConfig {
    /// The config as a JSON object for the replay recipe.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![("broadcast_halt", Json::Bool(self.broadcast_halt))])
    }

    /// Rebuilds a config from [`to_json`](AgentConfig::to_json) output.
    ///
    /// # Errors
    ///
    /// Missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<AgentConfig, String> {
        let f = Fields::new(v, &"agent config");
        let config = AgentConfig {
            broadcast_halt: f.bool("broadcast_halt")?,
        };
        f.finish()?;
        Ok(config)
    }
}

/// Counters for the halting experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgentStats {
    /// Requests handled.
    pub requests: u64,
    /// Times this node initiated a halt.
    pub halts_initiated: u64,
    /// Halt messages transmitted (including retransmissions).
    pub halt_messages: u64,
    /// Times this node was halted by a broadcast.
    pub halts_received: u64,
}

/// State shared between the agent and its `get_debuggee_status` handler.
#[derive(Debug, Default)]
pub struct AgentShared {
    /// Current session, if a debugger is connected.
    pub session: Option<SessionId>,
    /// The connected debugger's network address.
    pub debugger: Option<NodeId>,
}

#[derive(Debug)]
struct Breakpoint {
    addr: CodeAddr,
    orig: Op,
}

#[derive(Debug, Clone, Copy)]
enum InvokeKind {
    /// Reply with `Printed` from the redirected output (print operation).
    Print,
    /// Reply with `Invoked { results, output }`.
    Full,
}

#[derive(Debug)]
struct PendingInvoke {
    seq: u64,
    debugger: NodeId,
    kind: InvokeKind,
}

/// The per-node agent.
pub struct Agent {
    node_id: NodeId,
    config: AgentConfig,
    shared: Rc<RefCell<AgentShared>>,
    cohort: Vec<NodeId>,
    breakpoints: Vec<Option<Breakpoint>>,
    pending_invokes: HashMap<Pid, PendingInvoke>,
    stats: AgentStats,
    tracer: Tracer,
}

impl std::fmt::Debug for Agent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Agent")
            .field("node", &self.node_id)
            .field("session", &self.shared.borrow().session)
            .field("breakpoints", &self.breakpoints.iter().flatten().count())
            .finish()
    }
}

impl Agent {
    /// Creates the agent for `node_id`.
    pub fn new(node_id: NodeId, config: AgentConfig, tracer: Tracer) -> Agent {
        Agent {
            node_id,
            config,
            shared: Rc::new(RefCell::new(AgentShared::default())),
            cohort: Vec::new(),
            breakpoints: Vec::new(),
            pending_invokes: HashMap::new(),
            stats: AgentStats::default(),
            tracer,
        }
    }

    /// Counters.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// Is a debugger connected?
    pub fn connected(&self) -> bool {
        self.shared.borrow().session.is_some()
    }

    /// The current session, if any.
    pub fn session(&self) -> Option<SessionId> {
        self.shared.borrow().session
    }

    /// Registers the `get_debuggee_status` support procedure (§6.1) on
    /// this node's endpoint: "The first result is the network address of
    /// the debugger to which this node is connected. A special value
    /// signifies that the node is not currently under control of a
    /// debugger. The second result is the value of the node's logical
    /// clock." The body shares state with the agent, so servers always see
    /// the current connection status.
    pub fn register_status(&self, endpoint: &mut RpcEndpoint) {
        let shared = self.shared.clone();
        let sig = Signature {
            params: vec![],
            returns: vec![Type::Int, Type::Int],
        };
        endpoint.register_handler(
            "get_debuggee_status",
            sig,
            Box::new(move |ctx: &mut HandlerCtx<'_>, _| {
                let debugger = shared
                    .borrow()
                    .debugger
                    .map_or(NOT_DEBUGGED, |n| i64::from(n.0));
                let logical_ms = ctx.node.logical_now().as_millis() as i64;
                Ok(vec![Value::Int(debugger), Value::Int(logical_ms)])
            }),
        );
    }

    /// Processes a supervisor outcall the world routed to this agent.
    pub fn on_outcall(
        &mut self,
        node: &mut Node,
        endpoint: &RpcEndpoint,
        oc: &Outcall,
        net: &mut dyn DebugNet,
    ) {
        match oc {
            Outcall::Trap { pid, bp, addr, at } => {
                self.on_trap(node, *pid, *bp, *addr, *at, net);
            }
            Outcall::Fault { pid, fault, at } => {
                self.on_fault(node, endpoint, *pid, fault, *at, net);
            }
            Outcall::ProcExited { pid, at } => {
                self.on_proc_exited(node, *pid, *at, net);
            }
            _ => {}
        }
    }

    fn on_trap(
        &mut self,
        node: &mut Node,
        pid: Pid,
        bp: u16,
        addr: CodeAddr,
        at: SimTime,
        net: &mut dyn DebugNet,
    ) {
        let Some((session, debugger)) = self.session_and_debugger() else {
            // No debugger: a trap without a session should not exist
            // (forcible disconnect clears breakpoints); release the
            // process defensively.
            node.release_stopped(pid);
            return;
        };
        self.halt_locally_and_broadcast(node, at, net, session);
        let event = AgentEvent::BreakpointHit {
            node: self.node_id,
            pid: pid.0,
            bp,
            proc_id: addr.proc.0,
            pc: addr.pc,
            at,
        };
        net.send_debug(
            at,
            self.node_id,
            debugger,
            DebugMsg::Event { session, event },
        );
    }

    fn on_fault(
        &mut self,
        node: &mut Node,
        _endpoint: &RpcEndpoint,
        pid: Pid,
        fault: &Fault,
        at: SimTime,
        net: &mut dyn DebugNet,
    ) {
        // Faults of agent-invoked procedures complete the invocation with
        // an error instead of halting the world.
        if let Some(pending) = self.pending_invokes.remove(&pid) {
            let reply = AgentReply::Error(format!("invoked procedure failed: {fault}"));
            self.send_reply(at, pending.debugger, pending.seq, reply, net);
            return;
        }
        let Some((session, debugger)) = self.session_and_debugger() else {
            return; // dormant: the process stays Faulted for post-mortem
        };
        // §5.2: the agent uses the halt primitive "upon hardware exceptions
        // and user program failures as well".
        self.halt_locally_and_broadcast(node, at, net, session);
        let event = AgentEvent::ProcessFaulted {
            node: self.node_id,
            pid: pid.0,
            message: fault.to_string(),
            at,
        };
        net.send_debug(
            at,
            self.node_id,
            debugger,
            DebugMsg::Event { session, event },
        );
    }

    fn on_proc_exited(&mut self, node: &mut Node, pid: Pid, at: SimTime, net: &mut dyn DebugNet) {
        // Invokes are rare; skip hashing the pid when none is outstanding.
        if self.pending_invokes.is_empty() {
            return;
        }
        let Some(pending) = self.pending_invokes.remove(&pid) else {
            return;
        };
        let output = node.redirected_output(pid).unwrap_or("").to_string();
        let reply = match pending.kind {
            InvokeKind::Print => {
                // The print procedure returns the rendered string; prefer
                // it, fall back to whatever was printed.
                let rendered = node
                    .exit_values(pid)
                    .and_then(|vs| vs.first())
                    .and_then(|v| v.as_str().map(str::to_string))
                    .unwrap_or(output);
                AgentReply::Printed(rendered)
            }
            InvokeKind::Full => {
                let results = node
                    .exit_values(pid)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|v| marshal(node.heap(), v).ok())
                    .collect();
                AgentReply::Invoked { results, output }
            }
        };
        self.send_reply(at, pending.debugger, pending.seq, reply, net);
    }

    fn session_and_debugger(&self) -> Option<(SessionId, NodeId)> {
        let s = self.shared.borrow();
        Some((s.session?, s.debugger?))
    }

    /// Halts local processes immediately and sends the halt broadcast to
    /// the cohort (§5.2). On the Cambridge Ring the messages go out
    /// serially with NACK-retransmission; with
    /// [`AgentConfig::broadcast_halt`] on an Ethernet medium a single
    /// broadcast is used instead.
    fn halt_locally_and_broadcast(
        &mut self,
        node: &mut Node,
        at: SimTime,
        net: &mut dyn DebugNet,
        session: SessionId,
    ) {
        if self.enter_halt(node, at, EventKind::BreakpointHalt) {
            self.stats.halts_initiated += 1;
        }
        let msg = DebugMsg::HaltBroadcast {
            session,
            origin: self.node_id,
        };
        if self.config.broadcast_halt && net.medium() == Medium::Ethernet {
            net.broadcast_debug(at, self.node_id, msg);
            self.stats.halt_messages += 1;
            return;
        }
        let cohort: Vec<NodeId> = self
            .cohort
            .iter()
            .copied()
            .filter(|n| *n != self.node_id)
            .collect();
        for dst in cohort {
            let (_, attempts) = net.send_debug(at, self.node_id, dst, msg.clone());
            self.stats.halt_messages += u64::from(attempts);
        }
    }

    /// Handles a debugger/agent message delivered to this node.
    pub fn on_msg(
        &mut self,
        now: SimTime,
        node: &mut Node,
        endpoint: &RpcEndpoint,
        src: NodeId,
        msg: DebugMsg,
        net: &mut dyn DebugNet,
    ) {
        match msg {
            DebugMsg::Connect {
                session,
                force,
                debugger,
                cohort,
            } => {
                let accepted = {
                    let current = self.shared.borrow().session;
                    current.is_none() || force || current == Some(session)
                };
                if accepted {
                    if force {
                        // Forcible connection: the original session is
                        // abandoned and all breakpoints etc. cleared (§3).
                        self.clear_session_state(node);
                    }
                    let mut s = self.shared.borrow_mut();
                    s.session = Some(session);
                    s.debugger = Some(debugger);
                    drop(s);
                    self.cohort = cohort;
                }
                net.send_debug(
                    now + REQUEST_COST,
                    self.node_id,
                    src,
                    DebugMsg::ConnectReply {
                        session,
                        accepted,
                        node: self.node_id,
                    },
                );
            }
            DebugMsg::Disconnect { session } => {
                if self.shared.borrow().session == Some(session) {
                    self.clear_session_state(node);
                    // §5.2: at the end of a debugging session the logical
                    // clock is reset to real time (with unpredictable
                    // effect, the paper warns).
                    node.reset_delta();
                }
            }
            DebugMsg::Request { session, seq, req } => {
                self.stats.requests += 1;
                if self.shared.borrow().session != Some(session) {
                    self.send_reply(
                        now,
                        src,
                        seq,
                        AgentReply::Error(format!("bad session {session}")),
                        net,
                    );
                    return;
                }
                // A `None` means the reply is asynchronous (sent when the
                // agent-initiated invocation completes).
                if let Some(reply) = self.handle_request(now, node, endpoint, seq, src, req, net) {
                    self.send_reply(now, src, seq, reply, net);
                }
            }
            DebugMsg::HaltBroadcast { session, origin } => {
                if self.shared.borrow().session != Some(session) {
                    return;
                }
                let halt = EventKind::HaltBroadcast { origin: origin.0 };
                if self.enter_halt(node, now, halt) {
                    self.stats.halts_received += 1;
                }
            }
            DebugMsg::ResumeBroadcast { session, .. } => {
                if self.shared.borrow().session != Some(session) {
                    return;
                }
                Self::resume_node(node);
            }
            // Replies/events/connect-replies are debugger-side messages.
            DebugMsg::ConnectReply { .. } | DebugMsg::Reply { .. } | DebugMsg::Event { .. } => {}
        }
    }

    fn clear_session_state(&mut self, node: &mut Node) {
        // Remove every planted trap.
        for slot in 0..self.breakpoints.len() {
            if let Some(bp) = self.breakpoints[slot].take() {
                node.program_mut().replace_op(bp.addr, bp.orig);
            }
        }
        // Release stopped processes and resume halted ones.
        for pid in node.pids() {
            node.release_stopped(pid);
        }
        Self::resume_node(node);
        self.pending_invokes.clear();
        let mut s = self.shared.borrow_mut();
        s.session = None;
        s.debugger = None;
    }

    /// Halts every local process and freezes the node's logical clock at
    /// `at`, tracing `event` — unless the node is halted already. Returns
    /// whether it entered the halt. The node's halt marker is the one
    /// record of the halt.
    fn enter_halt(&self, node: &mut Node, at: SimTime, event: EventKind) -> bool {
        if node.halt_marker().is_some() {
            return false;
        }
        node.halt_all();
        node.mark_halted(at);
        if self.tracer.wants(TraceCategory::Debug) {
            let station = Some(self.node_id.0);
            self.tracer
                .emit(at, TraceCategory::Debug, station, None, event);
        }
        true
    }

    fn resume_node(node: &mut Node) -> SimDuration {
        let Some(halted_for) = node.clear_halt_marker() else {
            return SimDuration::ZERO;
        };
        // §5.2: delta := current time − time of breakpoint + previous delta.
        node.add_delta(halted_for);
        node.resume_all();
        halted_for
    }

    fn send_reply(
        &self,
        now: SimTime,
        dst: NodeId,
        seq: u64,
        reply: AgentReply,
        net: &mut dyn DebugNet,
    ) {
        let session = self.shared.borrow().session.unwrap_or(SessionId(0));
        net.send_debug(
            now + REQUEST_COST,
            self.node_id,
            dst,
            DebugMsg::Reply {
                session,
                seq,
                reply,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_request(
        &mut self,
        now: SimTime,
        node: &mut Node,
        endpoint: &RpcEndpoint,
        seq: u64,
        debugger: NodeId,
        req: AgentRequest,
        net: &mut dyn DebugNet,
    ) -> Option<AgentReply> {
        Some(match req {
            AgentRequest::Ping => AgentReply::Ok,
            AgentRequest::SetBreakpoint { proc_id, pc } => {
                let addr = CodeAddr {
                    proc: ProcId(proc_id),
                    pc,
                };
                match node.program().op_at(addr) {
                    None => AgentReply::Error(format!("no instruction at {addr}")),
                    Some(Op::Trap(_)) => {
                        AgentReply::Error(format!("breakpoint already planted at {addr}"))
                    }
                    Some(_) => {
                        let slot = self
                            .breakpoints
                            .iter()
                            .position(Option::is_none)
                            .unwrap_or_else(|| {
                                self.breakpoints.push(None);
                                self.breakpoints.len() - 1
                            }) as u16;
                        let orig = node.program_mut().replace_op(addr, Op::Trap(slot));
                        self.breakpoints[slot as usize] = Some(Breakpoint { addr, orig });
                        AgentReply::BreakpointSet { bp: slot }
                    }
                }
            }
            AgentRequest::ClearBreakpoint { bp } => {
                match self.breakpoints.get_mut(bp as usize).and_then(Option::take) {
                    Some(b) => {
                        node.program_mut().replace_op(b.addr, b.orig);
                        AgentReply::Ok
                    }
                    None => AgentReply::Error(format!("no breakpoint #{bp}")),
                }
            }
            AgentRequest::ListBreakpoints => AgentReply::Breakpoints(
                self.breakpoints
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| b.as_ref().map(|b| (i as u16, b.addr.proc.0, b.addr.pc)))
                    .collect(),
            ),
            AgentRequest::HaltAll => {
                let session = self.shared.borrow().session;
                if let Some(session) = session {
                    self.halt_locally_and_broadcast(node, now, net, session);
                }
                AgentReply::Halted(node.process_count())
            }
            AgentRequest::ResumeAll => {
                let halted_for = Self::resume_node(node);
                AgentReply::Resumed {
                    halted_for_us: halted_for.as_micros(),
                }
            }
            // Dead records are listed too: the table keeps them for
            // post-mortem examination, and the reply's simulated size (32
            // bytes a record) is part of every delivery time.
            AgentRequest::ListProcesses => {
                let now = node.clock();
                let mut rows = Vec::with_capacity(node.process_count());
                rows.extend(
                    node.processes()
                        .map(|(pid, p)| Self::proc_view(node, pid, p, now)),
                );
                AgentReply::Processes(rows)
            }
            AgentRequest::ReadStack { pid } => match self.read_stack(node, endpoint, Pid(pid)) {
                Some(frames) => AgentReply::Stack(frames),
                None => AgentReply::Error(format!("no process p{pid}")),
            },
            AgentRequest::ReadVar { pid, frame, slot } => {
                match self.local_value(node, Pid(pid), frame, slot) {
                    Ok(v) => match marshal(node.heap(), &v) {
                        Ok(w) => AgentReply::Value(w),
                        Err(e) => AgentReply::Error(e.to_string()),
                    },
                    Err(e) => AgentReply::Error(e),
                }
            }
            AgentRequest::WriteVar {
                pid,
                frame,
                slot,
                value,
            } => {
                let v = unmarshal(node.heap_mut(), &value);
                match node.process_mut(Pid(pid)).and_then(|p| p.vm_mut()) {
                    Some(vm) => match vm
                        .locals_mut(frame as usize)
                        .and_then(|locals| locals.get_mut(slot as usize))
                    {
                        Some(slot_ref) => {
                            *slot_ref = v;
                            AgentReply::Ok
                        }
                        None => AgentReply::Error("no such frame/slot".into()),
                    },
                    None => AgentReply::Error(format!("no process p{pid}")),
                }
            }
            AgentRequest::ReadGlobal { slot } => match node.globals().get(slot as usize).cloned() {
                Some(v) => match marshal(node.heap(), &v) {
                    Ok(w) => AgentReply::Value(w),
                    Err(e) => AgentReply::Error(e.to_string()),
                },
                None => AgentReply::Error("no such global".into()),
            },
            AgentRequest::WriteGlobal { slot, value } => {
                let v = unmarshal(node.heap_mut(), &value);
                match node.globals_mut().get_mut(slot as usize) {
                    Some(g) => {
                        *g = v;
                        AgentReply::Ok
                    }
                    None => AgentReply::Error("no such global".into()),
                }
            }
            AgentRequest::PrintVar { pid, frame, slot } => {
                let v = match self.local_value(node, Pid(pid), frame, slot) {
                    Ok(v) => v,
                    Err(e) => return Some(AgentReply::Error(e)),
                };
                // User-defined print operations run *in the user program*
                // via the agent's invocation mechanism (§3).
                if let Value::Ref(r) = &v {
                    if let pilgrim_cclu::HeapObject::Record { type_name, .. } = node.heap().get(*r)
                    {
                        let type_name = type_name.clone();
                        if let Some(printer) = node.program().print_op_for(&type_name) {
                            // `print_<type>`'s name: `agent:print_<type>`.
                            let opts = SpawnOpts {
                                name: Some(node.intern_prefixed("agent:", printer)),
                                no_halt: true,
                                redirect_output: true,
                                ..Default::default()
                            };
                            let invoke_pid = node.spawn_proc(printer, vec![v.clone()], opts);
                            self.pending_invokes.insert(
                                invoke_pid,
                                PendingInvoke {
                                    seq,
                                    debugger,
                                    kind: InvokeKind::Print,
                                },
                            );
                            return None; // reply when the invocation exits
                        }
                    }
                }
                AgentReply::Printed(pilgrim_cclu::format_value(node.heap(), &v))
            }
            AgentRequest::Invoke(call) => {
                let Invocation { proc, args } = *call;
                let Some(proc_id) = node.program().proc_by_name(&proc) else {
                    return Some(AgentReply::Error(format!("no procedure `{proc}`")));
                };
                let values: Vec<Value> =
                    args.iter().map(|w| unmarshal(node.heap_mut(), w)).collect();
                let sig = &node.program().proc(proc_id).debug.sig;
                if sig.params.len() != values.len() {
                    return Some(AgentReply::Error(format!(
                        "`{proc}` takes {} arguments",
                        sig.params.len()
                    )));
                }
                let opts = SpawnOpts {
                    name: Some(node.intern_prefixed("agent:", proc_id)),
                    no_halt: true,
                    redirect_output: true,
                    ..Default::default()
                };
                let invoke_pid = node.spawn_proc(proc_id, values, opts);
                self.pending_invokes.insert(
                    invoke_pid,
                    PendingInvoke {
                        seq,
                        debugger,
                        kind: InvokeKind::Full,
                    },
                );
                return None;
            }
            AgentRequest::StepOver { pid } => self.step_over(node, Pid(pid)),
            AgentRequest::ContinueProcess { pid } => {
                if node.release_stopped(Pid(pid)) {
                    AgentReply::Ok
                } else {
                    AgentReply::Error("process is not stopped by the debugger".into())
                }
            }
            AgentRequest::ForceRunnable { pid } => {
                if node.force_runnable(Pid(pid)) {
                    AgentReply::Ok
                } else {
                    AgentReply::Error("process cannot be made runnable".into())
                }
            }
            AgentRequest::HaltProcess { pid } => {
                if node.halt_one(Pid(pid)) {
                    AgentReply::Ok
                } else {
                    AgentReply::Error("process cannot be halted".into())
                }
            }
            AgentRequest::ResumeProcess { pid } => {
                if node.resume_one(Pid(pid)) {
                    AgentReply::Ok
                } else {
                    AgentReply::Error("process is not halted".into())
                }
            }
            AgentRequest::RpcStatus { pid } => AgentReply::Rpc(endpoint.call_for_process(Pid(pid))),
            AgentRequest::RecentCalls => AgentReply::Recent(endpoint.recent_client_calls()),
            AgentRequest::RecentServed => AgentReply::Recent(endpoint.recent_served_calls()),
            AgentRequest::ServingProcess { call_id } => {
                AgentReply::Serving(endpoint.serving_process(call_id).map(|p| p.0))
            }
            AgentRequest::ClientProcess { call_id } => {
                AgentReply::ClientOf(endpoint.client_process(call_id).map(|p| p.0))
            }
            AgentRequest::ServerKnowledge { call_id } => {
                AgentReply::Knowledge(endpoint.server_knowledge(call_id))
            }
            AgentRequest::ReadConsole { from } => AgentReply::Console(
                node.console()
                    .iter()
                    .skip(from as usize)
                    .map(|(_, s)| s.clone())
                    .collect(),
            ),
        })
    }

    /// The §5.5 step-over dance: restore the original instruction, execute
    /// exactly one instruction in trace mode — other processes are halted,
    /// so nobody can run through the un-trapped location — and re-plant
    /// the trap.
    fn step_over(&mut self, node: &mut Node, pid: Pid) -> AgentReply {
        let bp = match node.process(pid).map(|p| p.state.clone()) {
            Some(RunState::Trapped { bp }) => bp,
            Some(other) => {
                return AgentReply::Error(format!(
                    "process is not stopped at a breakpoint ({other:?})"
                ))
            }
            None => return AgentReply::Error(format!("no process {pid}")),
        };
        let Some(b) = self.breakpoints.get(bp as usize).and_then(Option::as_ref) else {
            return AgentReply::Error(format!("unknown breakpoint #{bp}"));
        };
        let (addr, orig) = (b.addr, b.orig.clone());
        // While the trap is removed, every other process must be halted
        // (§5.5). During a breakpoint they already are; enforce anyway.
        if !node.any_halted() {
            node.halt_all();
        }
        let trap = node.program_mut().replace_op(addr, orig);
        if let Some(p) = node.process_mut(pid) {
            if let Some(vm) = p.vm_mut() {
                vm.trace_once = true;
            }
            p.state = RunState::Runnable;
        }
        node.step_one(pid);
        node.program_mut().replace_op(addr, trap);
        AgentReply::Ok
    }

    fn local_value(&self, node: &Node, pid: Pid, frame: u32, slot: u16) -> Result<Value, String> {
        let p = node
            .process(pid)
            .ok_or_else(|| format!("no process {pid}"))?;
        let vm = p.vm().ok_or("not a VM process")?;
        vm.locals(frame as usize)
            .ok_or_else(|| format!("no frame {frame}"))?
            .get(slot as usize)
            .cloned()
            .ok_or_else(|| format!("no local slot {slot}"))
    }

    /// One row of a process listing, built straight from the supervisor's
    /// record: the name is shared, not copied, so a row allocates only for
    /// a fault message.
    fn proc_view(node: &Node, pid: Pid, p: &Process, now: SimTime) -> ProcView {
        let state = match &p.state {
            RunState::Runnable => StateView::Runnable,
            RunState::Sleeping { until } => StateView::Sleeping {
                remaining_ms: until.saturating_since(now).as_millis() as i64,
            },
            RunState::SemWait { sem } => StateView::SemWait {
                sem: *sem,
                remaining_ms: None,
            },
            RunState::SemWaitTimed { sem, deadline } => StateView::SemWait {
                sem: *sem,
                remaining_ms: Some(deadline.saturating_since(now).as_millis() as i64),
            },
            RunState::MutexWait { mutex } => StateView::MutexWait { mutex: *mutex },
            RunState::RpcWait { .. } => StateView::RpcWait,
            RunState::Trapped { bp } => StateView::Trapped { bp: *bp },
            RunState::TraceStopped => StateView::TraceStopped,
            RunState::Faulted(f) => StateView::Faulted {
                message: f.to_string(),
            },
            RunState::Exited => StateView::Exited,
        };
        ProcView {
            pid: pid.0,
            name: node.name(p.name).clone(),
            state,
            halted: p.halted(),
            no_halt: p.no_halt(),
            priority: p.priority,
            frames: p.vm().map_or(0, |vm| vm.frames.len()) as u32,
            addr: p.addr().map(|a| (a.proc.0, a.pc)),
        }
    }

    fn read_stack(
        &self,
        node: &Node,
        endpoint: &RpcEndpoint,
        pid: Pid,
    ) -> Option<Vec<FrameSummary>> {
        let p = node.process(pid)?;
        let vm = p.vm()?;
        let mut out = Vec::with_capacity(vm.frames.len());
        for (i, f) in vm.frames.iter().enumerate() {
            let kind = match f.kind {
                FrameKind::Normal => "normal",
                FrameKind::RpcStub => "rpc-stub",
                FrameKind::ServerRoot => "server-root",
                FrameKind::AgentInvoke => "agent-invoke",
            };
            let rpc = f.rpc_info.as_ref().map(|info| {
                let peer = match f.kind {
                    FrameKind::RpcStub => endpoint.call_for_process(pid).map(|c| c.dst),
                    FrameKind::ServerRoot => endpoint.caller_of(info.call_id),
                    _ => None,
                };
                RpcFrameView {
                    call_id: info.call_id,
                    remote_proc: info.remote_proc.clone(),
                    protocol: info.protocol.name(),
                    state: info.state.get(),
                    retries: info.retries.get(),
                    peer,
                }
            });
            out.push(FrameSummary {
                index: i as u32,
                proc_id: f.proc.0,
                pc: f.pc,
                well_formed: f.well_formed,
                kind,
                rpc,
            });
        }
        Some(out)
    }
}

/// The "special value" returned by `get_debuggee_status` when no debugger
/// is connected.
pub const NOT_DEBUGGED: i64 = -1;
