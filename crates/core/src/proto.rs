//! The debugger–agent wire protocol.
//!
//! Pilgrim is itself a distributed program (§3): the debugger proper runs
//! on its own node and talks to the agents over the network. Design rules
//! from the paper, all honoured here:
//!
//! * every interaction carries the **session identifier**, "a unique but
//!   guessable number" generated at the start of the session;
//! * "expressing each logical request from the debugger as a single
//!   network interaction improves the overall performance" — one request
//!   packet, one reply packet;
//! * the agent side stays dumb: requests are phrased in machine terms
//!   (procedure ids, pcs, slots). All type checking and source mapping
//!   happens in the debugger proper, which owns the compiler's
//!   source-to-object tables;
//! * halt/resume broadcasts travel agent-to-agent (§5.2).

use std::sync::Arc;

use pilgrim_cclu::RpcCallState;
use pilgrim_ring::NodeId;
use pilgrim_rpc::{CallDebug, ServerKnowledge, WireValue};
use pilgrim_sim::json::Fields;
use pilgrim_sim::{Json, SimDuration, SimTime};

/// A debugging-session identifier. The paper calls for "a unique but
/// guessable number" — uniqueness for correctness, with authentication
/// explicitly out of scope (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// A message on the debugger–agent (or agent–agent) channel.
#[derive(Debug, Clone)]
pub enum DebugMsg {
    /// Debugger → agent: begin a session. `force` implements forcible
    /// connection: the existing session is abandoned and all breakpoints
    /// cleared (§3).
    Connect {
        /// The new session.
        session: SessionId,
        /// Evict any existing session.
        force: bool,
        /// Where the debugger lives.
        debugger: NodeId,
        /// Every node under control of this debugger (so the agent knows
        /// whom to send halt broadcasts to).
        cohort: Vec<NodeId>,
    },
    /// Agent → debugger: connection outcome.
    ConnectReply {
        /// Echoed session.
        session: SessionId,
        /// Whether the agent accepted.
        accepted: bool,
        /// The responding node.
        node: NodeId,
    },
    /// Debugger → agent: end the session (the node continues executing,
    /// which §3 notes "is usually unwise" if state was modified).
    Disconnect {
        /// The session being closed.
        session: SessionId,
    },
    /// Debugger → agent: one logical request.
    Request {
        /// Session (validated by the agent).
        session: SessionId,
        /// Request sequence number, echoed in the reply.
        seq: u64,
        /// The request body.
        req: AgentRequest,
    },
    /// Agent → debugger: the reply to `seq`.
    Reply {
        /// Echoed session.
        session: SessionId,
        /// Echoed sequence number.
        seq: u64,
        /// The reply body.
        reply: AgentReply,
    },
    /// Agent → agent: halt your processes (§5.2). Sent serially over the
    /// ring with NACK-retransmission.
    HaltBroadcast {
        /// Session.
        session: SessionId,
        /// The node whose breakpoint triggered the halt.
        origin: NodeId,
    },
    /// Agent → agent: resume; each receiving agent adds its own measured
    /// halt duration to its logical-clock delta (§5.2).
    ResumeBroadcast {
        /// Session.
        session: SessionId,
        /// The node that initiated the resume.
        origin: NodeId,
    },
    /// Agent → debugger: an asynchronous event (breakpoint hit, fault).
    Event {
        /// Session.
        session: SessionId,
        /// The event.
        event: AgentEvent,
    },
}

impl DebugMsg {
    /// Approximate encoded size, for network-latency modelling.
    pub fn wire_bytes(&self) -> usize {
        match self {
            DebugMsg::Connect { cohort, .. } => 40 + cohort.len() * 4,
            DebugMsg::ConnectReply { .. } => 24,
            DebugMsg::Disconnect { .. } => 16,
            DebugMsg::Request { req, .. } => 24 + req.wire_bytes(),
            DebugMsg::Reply { reply, .. } => 24 + reply.wire_bytes(),
            DebugMsg::HaltBroadcast { .. } | DebugMsg::ResumeBroadcast { .. } => 20,
            DebugMsg::Event { event, .. } => 24 + event.wire_bytes(),
        }
    }
}

/// Asynchronous agent → debugger notifications.
#[derive(Debug, Clone)]
pub enum AgentEvent {
    /// A planted breakpoint fired; the node (and, via broadcast, the
    /// cohort) has been halted.
    BreakpointHit {
        /// Node where it fired.
        node: NodeId,
        /// Process that hit it.
        pid: u64,
        /// Agent breakpoint slot.
        bp: u16,
        /// Procedure id.
        proc_id: u16,
        /// Program counter.
        pc: u32,
        /// Node real time of the hit.
        at: SimTime,
    },
    /// A process failed (execution error); the agent halts processes just
    /// as for a breakpoint (§5.2).
    ProcessFaulted {
        /// Node.
        node: NodeId,
        /// Process.
        pid: u64,
        /// Failure description.
        message: String,
        /// Node real time.
        at: SimTime,
    },
}

impl AgentEvent {
    fn wire_bytes(&self) -> usize {
        match self {
            AgentEvent::BreakpointHit { .. } => 32,
            AgentEvent::ProcessFaulted { message, .. } => 28 + message.len(),
        }
    }
}

/// A single logical request to an agent.
///
/// Every request is journalled, so the three that carry values box them
/// and a request is 24 bytes; the rest are a few integers.
#[derive(Debug, Clone)]
pub enum AgentRequest {
    /// Liveness check.
    Ping,
    /// Plant a trap at an object-code address (§5.5).
    SetBreakpoint {
        /// Procedure index.
        proc_id: u16,
        /// Program counter.
        pc: u32,
    },
    /// Remove a planted trap, restoring the original instruction.
    ClearBreakpoint {
        /// Agent breakpoint slot.
        bp: u16,
    },
    /// Enumerate planted breakpoints.
    ListBreakpoints,
    /// Halt every halt-able process on the node (and broadcast to the
    /// cohort, as when a breakpoint fires).
    HaltAll,
    /// Resume the node (and broadcast); each agent folds its halt
    /// duration into its logical-clock delta.
    ResumeAll,
    /// Enumerate processes (answered from the supervisor's process
    /// table, which the §5.4 creation and deletion hooks maintain).
    ListProcesses,
    /// The process's call stack in machine terms.
    ReadStack {
        /// Target process.
        pid: u64,
    },
    /// Low-level memory access: read a local variable slot.
    ReadVar {
        /// Target process.
        pid: u64,
        /// Frame index (0 = oldest).
        frame: u32,
        /// Local slot.
        slot: u16,
    },
    /// Low-level memory access: write a local variable slot.
    WriteVar {
        /// Target process.
        pid: u64,
        /// Frame index.
        frame: u32,
        /// Local slot.
        slot: u16,
        /// New value (marshalled).
        value: Box<WireValue>,
    },
    /// Read a node-global (`own`) variable.
    ReadGlobal {
        /// Global slot.
        slot: u16,
    },
    /// Write a node-global variable.
    WriteGlobal {
        /// Global slot.
        slot: u16,
        /// New value.
        value: Box<WireValue>,
    },
    /// Render a variable using the program's print operations (§3): for
    /// user record types with a `print_<type>` procedure the agent invokes
    /// it in the user program with output redirected to the debugger.
    PrintVar {
        /// Target process.
        pid: u64,
        /// Frame index.
        frame: u32,
        /// Local slot.
        slot: u16,
    },
    /// Invoke a procedure in the user program and return its results and
    /// redirected output (§3).
    Invoke(Box<Invocation>),
    /// Step a process over the breakpoint it is stopped at (§5.5: restore
    /// the instruction, execute one instruction in trace mode while other
    /// processes are halted, re-plant the trap).
    StepOver {
        /// The trapped process.
        pid: u64,
    },
    /// Release a process stopped at a trap or trace-stop.
    ContinueProcess {
        /// The stopped process.
        pid: u64,
    },
    /// §5.4 state transfer: make a waiting process runnable.
    ForceRunnable {
        /// Target process.
        pid: u64,
    },
    /// Halt a single process.
    HaltProcess {
        /// Target process.
        pid: u64,
    },
    /// Resume a single halted process.
    ResumeProcess {
        /// Target process.
        pid: u64,
    },
    /// The in-progress RPC the process is blocked in, from the client
    /// table and information block (§4.3).
    RpcStatus {
        /// Target process.
        pid: u64,
    },
    /// The ten-slot cyclic buffer of recent client-side call outcomes.
    RecentCalls,
    /// Recent server-side outcomes.
    RecentServed,
    /// Which process is serving `call_id` (server table; cross-node
    /// backtraces walk this).
    ServingProcess {
        /// The call.
        call_id: u64,
    },
    /// What this node knows about `call_id` as a server (maybe-failure
    /// diagnosis, §4.1).
    ServerKnowledge {
        /// The call.
        call_id: u64,
    },
    /// Which local process has `call_id` outstanding as a client (upward
    /// cross-node backtraces).
    ClientProcess {
        /// The call.
        call_id: u64,
    },
    /// Console output lines starting at an offset.
    ReadConsole {
        /// First line index wanted.
        from: u32,
    },
}

impl AgentRequest {
    fn wire_bytes(&self) -> usize {
        match self {
            AgentRequest::WriteVar { value, .. } | AgentRequest::WriteGlobal { value, .. } => {
                16 + value.wire_bytes()
            }
            AgentRequest::Invoke(call) => {
                8 + call.proc.len() + call.args.iter().map(WireValue::wire_bytes).sum::<usize>()
            }
            _ => 16,
        }
    }

    /// The request as a `type`-tagged JSON object for the replay journal.
    pub fn to_json(&self) -> Json {
        let t = |name: &str| ("type", Json::Str(name.to_string()));
        let u = |v: u64| Json::Int(v as i128);
        match self {
            AgentRequest::Ping => Json::obj(vec![t("Ping")]),
            AgentRequest::SetBreakpoint { proc_id, pc } => Json::obj(vec![
                t("SetBreakpoint"),
                ("proc_id", u(*proc_id as u64)),
                ("pc", u(*pc as u64)),
            ]),
            AgentRequest::ClearBreakpoint { bp } => {
                Json::obj(vec![t("ClearBreakpoint"), ("bp", u(*bp as u64))])
            }
            AgentRequest::ListBreakpoints => Json::obj(vec![t("ListBreakpoints")]),
            AgentRequest::HaltAll => Json::obj(vec![t("HaltAll")]),
            AgentRequest::ResumeAll => Json::obj(vec![t("ResumeAll")]),
            AgentRequest::ListProcesses => Json::obj(vec![t("ListProcesses")]),
            AgentRequest::ReadStack { pid } => Json::obj(vec![t("ReadStack"), ("pid", u(*pid))]),
            AgentRequest::ReadVar { pid, frame, slot } => Json::obj(vec![
                t("ReadVar"),
                ("pid", u(*pid)),
                ("frame", u(*frame as u64)),
                ("slot", u(*slot as u64)),
            ]),
            AgentRequest::WriteVar {
                pid,
                frame,
                slot,
                value,
            } => Json::obj(vec![
                t("WriteVar"),
                ("pid", u(*pid)),
                ("frame", u(*frame as u64)),
                ("slot", u(*slot as u64)),
                ("value", value.to_json()),
            ]),
            AgentRequest::ReadGlobal { slot } => {
                Json::obj(vec![t("ReadGlobal"), ("slot", u(*slot as u64))])
            }
            AgentRequest::WriteGlobal { slot, value } => Json::obj(vec![
                t("WriteGlobal"),
                ("slot", u(*slot as u64)),
                ("value", value.to_json()),
            ]),
            AgentRequest::PrintVar { pid, frame, slot } => Json::obj(vec![
                t("PrintVar"),
                ("pid", u(*pid)),
                ("frame", u(*frame as u64)),
                ("slot", u(*slot as u64)),
            ]),
            AgentRequest::Invoke(call) => Json::obj(vec![
                t("Invoke"),
                ("proc", Json::Str(call.proc.clone())),
                (
                    "args",
                    Json::Array(call.args.iter().map(WireValue::to_json).collect()),
                ),
            ]),
            AgentRequest::StepOver { pid } => Json::obj(vec![t("StepOver"), ("pid", u(*pid))]),
            AgentRequest::ContinueProcess { pid } => {
                Json::obj(vec![t("ContinueProcess"), ("pid", u(*pid))])
            }
            AgentRequest::ForceRunnable { pid } => {
                Json::obj(vec![t("ForceRunnable"), ("pid", u(*pid))])
            }
            AgentRequest::HaltProcess { pid } => {
                Json::obj(vec![t("HaltProcess"), ("pid", u(*pid))])
            }
            AgentRequest::ResumeProcess { pid } => {
                Json::obj(vec![t("ResumeProcess"), ("pid", u(*pid))])
            }
            AgentRequest::RpcStatus { pid } => Json::obj(vec![t("RpcStatus"), ("pid", u(*pid))]),
            AgentRequest::RecentCalls => Json::obj(vec![t("RecentCalls")]),
            AgentRequest::RecentServed => Json::obj(vec![t("RecentServed")]),
            AgentRequest::ServingProcess { call_id } => {
                Json::obj(vec![t("ServingProcess"), ("call_id", u(*call_id))])
            }
            AgentRequest::ServerKnowledge { call_id } => {
                Json::obj(vec![t("ServerKnowledge"), ("call_id", u(*call_id))])
            }
            AgentRequest::ClientProcess { call_id } => {
                Json::obj(vec![t("ClientProcess"), ("call_id", u(*call_id))])
            }
            AgentRequest::ReadConsole { from } => {
                Json::obj(vec![t("ReadConsole"), ("from", u(*from as u64))])
            }
        }
    }

    /// Rebuilds a request from [`to_json`](AgentRequest::to_json) output.
    ///
    /// # Errors
    ///
    /// Unknown types and missing, mistyped or out-of-range fields.
    pub fn from_json(v: &Json) -> Result<AgentRequest, String> {
        let ty = Fields::new(v, &"request").str("type")?;
        let what = format_args!("request {ty}");
        let f = Fields::new(v, &what);
        // Read above under the name it gives `what`; noted here for `finish`.
        f.get("type")?;
        let request = match ty {
            "Ping" => AgentRequest::Ping,
            "SetBreakpoint" => AgentRequest::SetBreakpoint {
                proc_id: f.uint("proc_id")?,
                pc: f.uint("pc")?,
            },
            "ClearBreakpoint" => AgentRequest::ClearBreakpoint { bp: f.uint("bp")? },
            "ListBreakpoints" => AgentRequest::ListBreakpoints,
            "HaltAll" => AgentRequest::HaltAll,
            "ResumeAll" => AgentRequest::ResumeAll,
            "ListProcesses" => AgentRequest::ListProcesses,
            "ReadStack" => AgentRequest::ReadStack {
                pid: f.uint("pid")?,
            },
            "ReadVar" => AgentRequest::ReadVar {
                pid: f.uint("pid")?,
                frame: f.uint("frame")?,
                slot: f.uint("slot")?,
            },
            "WriteVar" => AgentRequest::WriteVar {
                pid: f.uint("pid")?,
                frame: f.uint("frame")?,
                slot: f.uint("slot")?,
                value: Box::new(WireValue::from_json(f.get("value")?)?),
            },
            "ReadGlobal" => AgentRequest::ReadGlobal {
                slot: f.uint("slot")?,
            },
            "WriteGlobal" => AgentRequest::WriteGlobal {
                slot: f.uint("slot")?,
                value: Box::new(WireValue::from_json(f.get("value")?)?),
            },
            "PrintVar" => AgentRequest::PrintVar {
                pid: f.uint("pid")?,
                frame: f.uint("frame")?,
                slot: f.uint("slot")?,
            },
            "Invoke" => AgentRequest::Invoke(Box::new(Invocation {
                proc: f.str("proc")?.to_string(),
                args: f.list("args", WireValue::from_json)?,
            })),
            "StepOver" => AgentRequest::StepOver {
                pid: f.uint("pid")?,
            },
            "ContinueProcess" => AgentRequest::ContinueProcess {
                pid: f.uint("pid")?,
            },
            "ForceRunnable" => AgentRequest::ForceRunnable {
                pid: f.uint("pid")?,
            },
            "HaltProcess" => AgentRequest::HaltProcess {
                pid: f.uint("pid")?,
            },
            "ResumeProcess" => AgentRequest::ResumeProcess {
                pid: f.uint("pid")?,
            },
            "RpcStatus" => AgentRequest::RpcStatus {
                pid: f.uint("pid")?,
            },
            "RecentCalls" => AgentRequest::RecentCalls,
            "RecentServed" => AgentRequest::RecentServed,
            "ServingProcess" => AgentRequest::ServingProcess {
                call_id: f.uint("call_id")?,
            },
            "ServerKnowledge" => AgentRequest::ServerKnowledge {
                call_id: f.uint("call_id")?,
            },
            "ClientProcess" => AgentRequest::ClientProcess {
                call_id: f.uint("call_id")?,
            },
            "ReadConsole" => AgentRequest::ReadConsole {
                from: f.uint("from")?,
            },
            other => return Err(format!("request: unknown type `{other}`")),
        };
        f.finish()?;
        Ok(request)
    }
}

/// What an [`AgentRequest::Invoke`] runs.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Procedure name.
    pub proc: String,
    /// Arguments.
    pub args: Vec<WireValue>,
}

/// A process's supervisor state, in wire form.
#[derive(Debug, Clone, PartialEq)]
pub enum StateView {
    /// Eligible to run.
    Runnable,
    /// Sleeping; remaining milliseconds.
    Sleeping {
        /// Time left.
        remaining_ms: i64,
    },
    /// Waiting on a semaphore.
    SemWait {
        /// Semaphore handle.
        sem: u32,
        /// Remaining timeout ms (`None` = forever).
        remaining_ms: Option<i64>,
    },
    /// Waiting for a monitor lock.
    MutexWait {
        /// Lock handle.
        mutex: u32,
    },
    /// Blocked in an RPC.
    RpcWait,
    /// Stopped at a breakpoint.
    Trapped {
        /// Breakpoint slot.
        bp: u16,
    },
    /// Stopped after a trace-mode step.
    TraceStopped,
    /// Dead with a failure.
    Faulted {
        /// Description.
        message: String,
    },
    /// Ran to completion.
    Exited,
}

/// One process as reported by the agent.
#[derive(Debug, Clone)]
pub struct ProcView {
    /// Process id.
    pub pid: u64,
    /// Name, sharing the allocation the node's process table interns.
    pub name: Arc<str>,
    /// State.
    pub state: StateView,
    /// Halted by the debugger?
    pub halted: bool,
    /// Exempt from halting?
    pub no_halt: bool,
    /// Priority.
    pub priority: u8,
    /// Stack depth (VM processes).
    pub frames: u32,
    /// Current code position (proc id, pc).
    pub addr: Option<(u16, u32)>,
}

/// RPC information attached to a stack frame (from the information block
/// in its known position, §4.3 / Figure 1).
#[derive(Debug, Clone)]
pub struct RpcFrameView {
    /// Call identifier.
    pub call_id: u64,
    /// Remote procedure name, shared with the information block.
    pub remote_proc: Arc<str>,
    /// Protocol name ("exactly-once" / "maybe").
    pub protocol: &'static str,
    /// Protocol state; its `Display` is the text shown to the user.
    pub state: RpcCallState,
    /// Retransmissions so far.
    pub retries: u32,
    /// The other node: callee for a client stub, caller for a server root.
    pub peer: Option<NodeId>,
}

/// One stack frame in machine terms; the debugger proper maps it to source.
#[derive(Debug, Clone)]
pub struct FrameSummary {
    /// Frame index, 0 = oldest.
    pub index: u32,
    /// Procedure index in the node's program.
    pub proc_id: u16,
    /// Program counter.
    pub pc: u32,
    /// Has the frame's entry sequence completed (§5.5)?
    pub well_formed: bool,
    /// Frame role: "normal", "rpc-stub", "server-root", "agent-invoke".
    pub kind: &'static str,
    /// RPC information block contents, when present.
    pub rpc: Option<RpcFrameView>,
}

/// Reply to an [`AgentRequest`].
#[derive(Debug, Clone)]
pub enum AgentReply {
    /// Success with nothing to report.
    Ok,
    /// The request failed.
    Error(String),
    /// Breakpoint planted.
    BreakpointSet {
        /// Agent slot for later clearing.
        bp: u16,
    },
    /// Planted breakpoints: `(slot, proc_id, pc)`.
    Breakpoints(Vec<(u16, u16, u32)>),
    /// Process list.
    Processes(Vec<ProcView>),
    /// Stack frames, oldest first.
    Stack(Vec<FrameSummary>),
    /// A marshalled value.
    Value(WireValue),
    /// Rendered text from a print operation.
    Printed(String),
    /// Results of an agent-initiated invocation (§3).
    Invoked {
        /// The procedure's return values.
        results: Vec<WireValue>,
        /// Redirected `print` output.
        output: String,
    },
    /// In-progress RPC of a process (None when it is not in a call).
    Rpc(Option<CallDebug>),
    /// Cyclic-buffer contents: `(call_id, succeeded)`, oldest first.
    Recent(Vec<(u64, bool)>),
    /// The serving process for a call id, if any.
    Serving(Option<u64>),
    /// Server-side knowledge about a call.
    Knowledge(ServerKnowledge),
    /// Console lines.
    Console(Vec<String>),
    /// Number of processes halted.
    Halted(usize),
    /// The node resumed; how long it had been halted (which the agent has
    /// just folded into the node's logical-clock delta, §5.2).
    Resumed {
        /// Halt duration in microseconds.
        halted_for_us: u64,
    },
    /// The client process holding a call open (reverse client-table
    /// lookup, for upward cross-node backtraces).
    ClientOf(Option<u64>),
}

impl AgentReply {
    fn wire_bytes(&self) -> usize {
        match self {
            AgentReply::Processes(ps) => 8 + ps.len() * 32,
            AgentReply::Stack(fs) => 8 + fs.len() * 24,
            AgentReply::Value(v) => 8 + v.wire_bytes(),
            AgentReply::Printed(s) => 8 + s.len(),
            AgentReply::Invoked { results, output } => {
                8 + output.len() + results.iter().map(WireValue::wire_bytes).sum::<usize>()
            }
            AgentReply::Console(ls) => 8 + ls.iter().map(|l| l.len() + 2).sum::<usize>(),
            AgentReply::Recent(r) => 8 + r.len() * 9,
            AgentReply::Error(e) => 8 + e.len(),
            _ => 16,
        }
    }
}

/// The result the debugger-side support procedure `convert_debuggee_time`
/// returns (§6.1); bundled with how much halt time was subtracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertedTime {
    /// The equivalent client logical time.
    pub logical: SimTime,
    /// Total halt time subtracted.
    pub subtracted: SimDuration,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn wire_sizes_reflect_payload() {
        let small = DebugMsg::Request {
            session: SessionId(1),
            seq: 1,
            req: AgentRequest::Ping,
        };
        let big = DebugMsg::Request {
            session: SessionId(1),
            seq: 2,
            req: AgentRequest::Invoke(Box::new(Invocation {
                proc: "print_point".into(),
                args: vec![WireValue::Str("a long string value here".into())],
            })),
        };
        assert!(big.wire_bytes() > small.wire_bytes());
        let halt = DebugMsg::HaltBroadcast {
            session: SessionId(1),
            origin: NodeId(0),
        };
        assert!(
            halt.wire_bytes() <= 32,
            "halt messages fit in a small basic block"
        );
    }

    /// One request of each type, every integer at its field's width.
    pub(crate) fn every_agent_request() -> Vec<AgentRequest> {
        vec![
            AgentRequest::Ping,
            AgentRequest::SetBreakpoint {
                proc_id: u16::MAX,
                pc: u32::MAX,
            },
            AgentRequest::ClearBreakpoint { bp: u16::MAX },
            AgentRequest::ListBreakpoints,
            AgentRequest::HaltAll,
            AgentRequest::ResumeAll,
            AgentRequest::ListProcesses,
            AgentRequest::ReadStack { pid: 5 },
            AgentRequest::ReadVar {
                pid: 6,
                frame: u32::MAX,
                slot: u16::MAX,
            },
            AgentRequest::WriteVar {
                pid: u64::MAX,
                frame: u32::MAX,
                slot: u16::MAX,
                value: Box::new(WireValue::Str("x".into())),
            },
            AgentRequest::ReadGlobal { slot: u16::MAX },
            AgentRequest::WriteGlobal {
                slot: 13,
                value: Box::new(WireValue::Null),
            },
            AgentRequest::PrintVar {
                pid: 14,
                frame: u32::MAX,
                slot: u16::MAX,
            },
            AgentRequest::Invoke(Box::new(Invocation {
                proc: "p".into(),
                args: vec![WireValue::Bool(false), WireValue::Int(i64::MIN)],
            })),
            AgentRequest::StepOver { pid: 17 },
            AgentRequest::ContinueProcess { pid: 18 },
            AgentRequest::ForceRunnable { pid: 19 },
            AgentRequest::HaltProcess { pid: 20 },
            AgentRequest::ResumeProcess { pid: 21 },
            AgentRequest::RpcStatus { pid: 22 },
            AgentRequest::RecentCalls,
            AgentRequest::RecentServed,
            AgentRequest::ServingProcess { call_id: u64::MAX },
            AgentRequest::ServerKnowledge { call_id: 24 },
            AgentRequest::ClientProcess { call_id: 25 },
            AgentRequest::ReadConsole { from: u32::MAX },
        ]
    }

    #[test]
    fn every_agent_request_round_trips() {
        for req in &every_agent_request() {
            let mut rendered = String::new();
            req.to_json().write(&mut rendered);
            let parsed = Json::parse(&rendered).expect("valid JSON");
            let back = AgentRequest::from_json(&parsed).expect("decodes");
            let mut rendered2 = String::new();
            back.to_json().write(&mut rendered2);
            assert_eq!(rendered, rendered2, "request did not round-trip: {req:?}");
        }
    }

    #[test]
    fn session_display() {
        assert_eq!(SessionId(77).to_string(), "session#77");
    }
}
