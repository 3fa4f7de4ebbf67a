//! The debugger façade: the user at the terminal. Every method here
//! sends debugger–agent messages over the simulated ring and pumps the
//! world until the reply comes back, so every debugger action pays its
//! real network cost.

use pilgrim_ring::NodeId;
use pilgrim_rpc::{CallDebug, ServerKnowledge, WireValue};
use pilgrim_sim::{EventKind, SimDuration, SimTime, TraceCategory};

use super::World;
use crate::agent::DebugNet;
use crate::debugger::{BreakpointInfo, DebugEvent, Debugger};
use crate::proto::{
    AgentReply, AgentRequest, DebugMsg, FrameSummary, ProcView, RpcFrameView, SessionId,
};
use crate::replay::Stimulus;

/// How long the debugger waits for an agent's reply, in simulated time.
const REPLY_WAIT: SimDuration = SimDuration::from_secs(30);

/// Errors from debugger operations.
#[derive(Debug)]
pub enum DebugError {
    /// The world was built without a debugger station.
    NoDebugger,
    /// No session is active.
    NotConnected,
    /// An agent refused the connection (already owned by another session
    /// and `force` was not given).
    Refused,
    /// No reply arrived within the simulated deadline.
    Timeout,
    /// The agent reported an error.
    Agent(String),
    /// The debugger proper could not resolve a source-level name.
    Source(String),
    /// An unexpected reply kind arrived (protocol error).
    Protocol(String),
}

impl std::fmt::Display for DebugError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DebugError::NoDebugger => f.write_str("world has no debugger"),
            DebugError::NotConnected => f.write_str("no debugging session is active"),
            DebugError::Refused => f.write_str("agent refused the connection"),
            DebugError::Timeout => f.write_str("timed out waiting for the agent"),
            DebugError::Agent(e) => write!(f, "agent error: {e}"),
            DebugError::Source(e) => write!(f, "source mapping: {e}"),
            DebugError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}
impl std::error::Error for DebugError {}

/// A source-level stack frame as shown to the user.
#[derive(Debug, Clone)]
pub struct BacktraceFrame {
    /// Node the frame lives on.
    pub node: u32,
    /// Process the frame belongs to.
    pub pid: u64,
    /// Frame index within its process (0 = oldest).
    pub index: u32,
    /// Procedure name (mapped by the debugger proper).
    pub proc_name: String,
    /// Source line.
    pub line: Option<u32>,
    /// Frame role ("normal", "rpc-stub", "server-root", "agent-invoke").
    pub kind: &'static str,
    /// Entry sequence complete (§5.5)?
    pub well_formed: bool,
    /// RPC information block, if the frame has one.
    pub rpc: Option<RpcFrameView>,
}

impl std::fmt::Display for BacktraceFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node{} p{} #{} {}",
            self.node, self.pid, self.index, self.proc_name
        )?;
        if let Some(l) = self.line {
            write!(f, ":{l}")?;
        }
        if self.kind != "normal" {
            write!(f, " [{}]", self.kind)?;
        }
        if let Some(r) = &self.rpc {
            write!(
                f,
                " call#{} {} ({} — {})",
                r.call_id, r.remote_proc, r.protocol, r.state
            )?;
        }
        Ok(())
    }
}

/// Outcome of diagnosing a failed `maybe` call (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaybeDiagnosis {
    /// The call packet was lost: the server never saw the call.
    LostCall,
    /// The reply packet was lost: the server executed and replied.
    LostReply,
    /// The remote procedure itself failed.
    RemoteFailed,
    /// The server is still executing (the client timed out too early).
    StillExecuting,
}

impl World {
    /// Connects the debugger to `nodes`, which become the session cohort.
    ///
    /// # Errors
    ///
    /// [`DebugError::Refused`] when some agent already belongs to another
    /// session and `force` is false.
    pub fn debug_connect(&mut self, nodes: &[u32], force: bool) -> Result<SessionId, DebugError> {
        let stimulus = Stimulus::Connect {
            nodes: nodes.into(),
            force,
        };
        self.drive(stimulus, |w| {
            let dbg = w.debugger.as_mut().ok_or(DebugError::NoDebugger)?;
            let session = dbg.fresh_session();
            let cohort: Vec<NodeId> = nodes.iter().map(|n| NodeId(*n)).collect();
            dbg.begin_connect(session, cohort.clone());
            let station = dbg.station();
            for dst in &cohort {
                let msg = DebugMsg::Connect {
                    session,
                    force,
                    debugger: station,
                    cohort: cohort.clone(),
                };
                w.net.send_debug(w.now, station, *dst, msg);
            }
            // The first window passes before the first check, so even a
            // connect to no node pumps once.
            let deadline = w.now + SimDuration::from_secs(5);
            w.pump_step(deadline);
            w.pump_until(deadline, |w| {
                let d = w.debugger.as_mut().ok_or(DebugError::NoDebugger)?;
                if d.connect_refusals() > 0 {
                    d.abandon();
                    return Err(DebugError::Refused);
                }
                Ok((d.connect_acks() == nodes.len()).then_some(session))
            })
        })
    }

    /// Ends the session: agents clear breakpoints, resume halted
    /// processes, and reset their logical clocks to real time (§5.2 warns
    /// the effects of continuing "may be unpredictable").
    pub fn debug_disconnect(&mut self) -> Result<(), DebugError> {
        self.drive(Stimulus::Disconnect, |w| {
            let dbg = w.debugger.as_mut().ok_or(DebugError::NoDebugger)?;
            let Some(session) = dbg.session() else {
                return Ok(());
            };
            let cohort = dbg.cohort().to_vec();
            let station = dbg.station();
            dbg.abandon();
            for dst in cohort {
                w.net
                    .send_debug(w.now, station, dst, DebugMsg::Disconnect { session });
            }
            w.run_for(SimDuration::from_millis(20));
            Ok(())
        })
    }

    /// Drops the session client-side without telling the agents —
    /// simulates a crashed debugger. Only a forcible reconnect gets the
    /// agents back (§3).
    pub fn debug_abandon(&mut self) {
        self.drive(Stimulus::Abandon, |w| {
            if let Some(d) = w.debugger.as_mut() {
                d.abandon();
            }
        });
    }

    /// Sends one logical request to the agent on `node` and pumps the
    /// simulation until its reply returns.
    ///
    /// # Errors
    ///
    /// [`DebugError::Agent`] carries agent-side failures;
    /// [`DebugError::Timeout`] fires after 30 simulated seconds.
    pub fn debug_request(
        &mut self,
        node: u32,
        req: AgentRequest,
    ) -> Result<AgentReply, DebugError> {
        let stimulus = Stimulus::Request {
            node,
            req: req.clone(),
        };
        self.drive(stimulus, |w| {
            let seq = w.send_request(node, req)?;
            let reply = w.pump_until(w.now + REPLY_WAIT, |w| {
                let dbg = w.debugger.as_mut().ok_or(DebugError::NoDebugger)?;
                Ok(dbg.take_reply(seq))
            })?;
            match reply {
                AgentReply::Error(e) => Err(DebugError::Agent(e)),
                ok => Ok(ok),
            }
        })
    }

    /// Puts one request for the agent on `node` on the ring, under the
    /// current session. Returns the sequence number its reply will carry.
    fn send_request(&mut self, node: u32, req: AgentRequest) -> Result<u64, DebugError> {
        let dbg = self.debugger.as_mut().ok_or(DebugError::NoDebugger)?;
        let session = dbg.session().ok_or(DebugError::NotConnected)?;
        let seq = dbg.next_seq();
        let msg = DebugMsg::Request { session, seq, req };
        let station = dbg.station();
        self.net.send_debug(self.now, station, NodeId(node), msg);
        Ok(seq)
    }

    /// Pumps until every request in `seqs` has been answered, handing
    /// each reply to `on_reply` as it arrives — or until 30 simulated
    /// seconds have passed.
    fn await_replies(
        &mut self,
        seqs: &[u64],
        mut on_reply: impl FnMut(AgentReply),
    ) -> Result<(), DebugError> {
        let deadline = self.now + REPLY_WAIT;
        let mut outstanding = seqs.len();
        self.pump_until(deadline, |w| {
            let dbg = w.debugger.as_mut().ok_or(DebugError::NoDebugger)?;
            // A reply is taken at most once, so re-probing an answered
            // `seq` finds nothing and the count stays exact.
            for seq in seqs {
                if let Some(reply) = dbg.take_reply(*seq) {
                    on_reply(reply);
                    outstanding -= 1;
                }
            }
            Ok((outstanding == 0).then_some(()))
        })
    }

    /// The debugger's one wait: asks `check` first, then pumps one step
    /// toward `deadline` and asks again, until `check` answers (`Some`)
    /// or fails, or `deadline` has passed ([`DebugError::Timeout`]).
    fn pump_until<T>(
        &mut self,
        deadline: SimTime,
        mut check: impl FnMut(&mut World) -> Result<Option<T>, DebugError>,
    ) -> Result<T, DebugError> {
        loop {
            if let Some(done) = check(self)? {
                return Ok(done);
            }
            if self.now >= deadline {
                return Err(DebugError::Timeout);
            }
            self.pump_step(deadline);
        }
    }

    /// Drains pending debugger events (breakpoint hits, faults).
    pub fn debug_events(&mut self) -> Vec<DebugEvent> {
        self.drive(Stimulus::DrainEvents, |w| {
            w.debugger
                .as_mut()
                .map(Debugger::take_events)
                .unwrap_or_default()
        })
    }

    /// Pumps the simulation until a debugger event arrives (or `timeout`).
    pub fn wait_for_stop(&mut self, timeout: SimDuration) -> Result<DebugEvent, DebugError> {
        let stimulus = Stimulus::WaitForStop {
            timeout_us: timeout.as_micros(),
        };
        self.drive(stimulus, |w| {
            // One event per call: a second node that trapped in the same
            // window stays queued for the next wait.
            w.pump_until(w.now + timeout, |w| {
                let dbg = w.debugger.as_mut().ok_or(DebugError::NoDebugger)?;
                Ok(dbg.take_event())
            })
        })
    }

    /// Plants a breakpoint at the first executable address of `line` on
    /// `node`.
    pub fn break_at_line(&mut self, node: u32, line: u32) -> Result<u16, DebugError> {
        self.drive(Stimulus::BreakAtLine { node, line }, |w| {
            let addr = w
                .debugger
                .as_ref()
                .ok_or(DebugError::NoDebugger)?
                .addr_for_line(NodeId(node), line)
                .ok_or_else(|| DebugError::Source(format!("no code at line {line}")))?;
            w.set_breakpoint_addr(node, addr, Some(line))
        })
    }

    /// Plants a breakpoint at the entry of procedure `name` on `node`.
    pub fn break_at_proc(&mut self, node: u32, name: &str) -> Result<u16, DebugError> {
        let stimulus = Stimulus::BreakAtProc {
            node,
            name: name.into(),
        };
        self.drive(stimulus, |w| {
            let addr = w
                .debugger
                .as_ref()
                .ok_or(DebugError::NoDebugger)?
                .addr_for_proc(NodeId(node), name)
                .ok_or_else(|| DebugError::Source(format!("no procedure `{name}`")))?;
            w.set_breakpoint_addr(node, addr, None)
        })
    }

    /// The shared tail of the `break_at_*` composites; always runs inside
    /// their funnel entry, so its request is not journalled separately.
    fn set_breakpoint_addr(
        &mut self,
        node: u32,
        addr: pilgrim_cclu::CodeAddr,
        line: Option<u32>,
    ) -> Result<u16, DebugError> {
        let reply = self.debug_request(
            node,
            AgentRequest::SetBreakpoint {
                proc_id: addr.proc.0,
                pc: addr.pc,
            },
        )?;
        match reply {
            AgentReply::BreakpointSet { bp } => {
                if let Some(d) = self.debugger.as_mut() {
                    d.record_breakpoint(BreakpointInfo {
                        node: NodeId(node),
                        bp,
                        addr,
                        line,
                    });
                }
                Ok(bp)
            }
            other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Clears a breakpoint by agent slot.
    pub fn clear_breakpoint(&mut self, node: u32, bp: u16) -> Result<(), DebugError> {
        self.drive(Stimulus::ClearBreakpoint { node, bp }, |w| {
            w.debug_request(node, AgentRequest::ClearBreakpoint { bp })?;
            if let Some(d) = w.debugger.as_mut() {
                d.forget_breakpoint(NodeId(node), bp);
            }
            Ok(())
        })
    }

    /// Halts the whole cohort by asking `origin`'s agent to halt and
    /// broadcast (§5.2).
    pub fn debug_halt_all(&mut self, origin: u32) -> Result<usize, DebugError> {
        self.drive(Stimulus::HaltAll { origin }, |w| {
            let begin = w.now;
            let reply = w.debug_request(origin, AgentRequest::HaltAll)?;
            if let Some(d) = w.debugger.as_mut() {
                d.log().borrow_mut().begin_halt(begin);
            }
            match reply {
                AgentReply::Halted(n) => Ok(n),
                other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
            }
        })
    }

    /// Resumes every cohort node. Each agent folds its own measured halt
    /// duration into its node's logical-clock delta; the debugger closes
    /// its breakpoint-log entry with the longest reported duration.
    pub fn debug_resume_all(&mut self) -> Result<(), DebugError> {
        self.drive(Stimulus::ResumeAll, |w| {
            let dbg = w.debugger.as_ref().ok_or(DebugError::NoDebugger)?;
            let cohort: Vec<u32> = dbg.cohort().iter().map(|n| n.0).collect();
            dbg.session().ok_or(DebugError::NotConnected)?;
            // Send every resume request back-to-back (they serialize on the
            // ring at ~3.5 ms apart, mirroring the halt broadcast) and only
            // then collect the replies — otherwise each node's halt would be
            // lengthened by the previous node's reply round trip and the
            // logical clocks would drift apart.
            let mut seqs = Vec::new();
            for n in cohort {
                seqs.push(w.send_request(n, AgentRequest::ResumeAll)?);
            }
            let mut max_halt = SimDuration::ZERO;
            w.await_replies(&seqs, |reply| {
                if let AgentReply::Resumed { halted_for_us } = reply {
                    max_halt = max_halt.max(SimDuration::from_micros(halted_for_us));
                }
            })?;
            if let Some(d) = w.debugger.as_mut() {
                let log = d.log();
                let mut log = log.borrow_mut();
                if log.is_halted() {
                    // Close the open interruption with the agents' measured
                    // duration.
                    log.end_halt_after(max_halt);
                }
            }
            Ok(())
        })
    }

    /// Lists processes on a node.
    pub fn debug_processes(&mut self, node: u32) -> Result<Vec<ProcView>, DebugError> {
        match self.debug_request(node, AgentRequest::ListProcesses)? {
            AgentReply::Processes(ps) => Ok(ps),
            other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// A single-process source-level backtrace.
    pub fn backtrace(&mut self, node: u32, pid: u64) -> Result<Vec<BacktraceFrame>, DebugError> {
        let frames = self.read_stack(node, pid)?;
        Ok(self.map_frames(node, pid, frames))
    }

    fn read_stack(&mut self, node: u32, pid: u64) -> Result<Vec<FrameSummary>, DebugError> {
        match self.debug_request(node, AgentRequest::ReadStack { pid })? {
            AgentReply::Stack(frames) => Ok(frames),
            other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    fn map_frames(&self, node: u32, pid: u64, frames: Vec<FrameSummary>) -> Vec<BacktraceFrame> {
        let dbg = self.debugger.as_ref();
        frames
            .into_iter()
            .map(|f| {
                let (proc_name, line) = match dbg {
                    Some(d) => d.source_position(NodeId(node), f.proc_id, f.pc),
                    None => (format!("proc#{}", f.proc_id), None),
                };
                BacktraceFrame {
                    node,
                    pid,
                    index: f.index,
                    proc_name,
                    line,
                    kind: f.kind,
                    well_formed: f.well_formed,
                    rpc: f.rpc,
                }
            })
            .collect()
    }

    /// A stack backtrace that crosses node boundaries (§4.1, Figure 1):
    /// starting from `(node, pid)`, walks *up* through server-root
    /// information blocks to the outermost client, then *down* through
    /// client stubs and the server tables, producing the whole distributed
    /// call chain, outermost caller first.
    pub fn distributed_backtrace(
        &mut self,
        node: u32,
        pid: u64,
    ) -> Result<Vec<BacktraceFrame>, DebugError> {
        // Climb to the outermost caller.
        let (mut cur_node, mut cur_pid) = (node, pid);
        for _ in 0..16 {
            let frames = self.read_stack(cur_node, cur_pid)?;
            let Some(root) = frames.first() else { break };
            if root.kind != "server-root" {
                break;
            }
            let Some(rpc) = &root.rpc else { break };
            let Some(peer) = rpc.peer else { break };
            let call_id = rpc.call_id;
            match self.debug_request(peer.0, AgentRequest::ClientProcess { call_id })? {
                AgentReply::ClientOf(Some(client_pid)) => {
                    cur_node = peer.0;
                    cur_pid = client_pid;
                }
                _ => break,
            }
        }
        // Walk down, collecting frames.
        let mut out = Vec::new();
        for _ in 0..16 {
            let frames = self.read_stack(cur_node, cur_pid)?;
            let hop = frames.last().and_then(|top| {
                if top.kind == "rpc-stub" {
                    top.rpc
                        .as_ref()
                        .and_then(|r| r.peer.map(|p| (p, r.call_id)))
                } else {
                    None
                }
            });
            out.extend(self.map_frames(cur_node, cur_pid, frames));
            let Some((dst, call_id)) = hop else { break };
            match self.debug_request(dst.0, AgentRequest::ServingProcess { call_id })? {
                AgentReply::Serving(Some(server_pid)) => {
                    cur_node = dst.0;
                    cur_pid = server_pid;
                }
                _ => break,
            }
        }
        Ok(out)
    }

    /// Renders the value of variable `name` in the newest well-formed
    /// frame of `(node, pid)` where it is in scope, using the program's
    /// print operations (§3, §5.4).
    pub fn inspect(&mut self, node: u32, pid: u64, name: &str) -> Result<String, DebugError> {
        if let Some((frame, slot, _ty)) = self.find_variable(node, pid, name)? {
            match self.debug_request(node, AgentRequest::PrintVar { pid, frame, slot })? {
                AgentReply::Printed(s) => return Ok(s),
                other => return Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
            }
        }
        // Fall back to node-globals.
        let global = self
            .debugger
            .as_ref()
            .ok_or(DebugError::NoDebugger)?
            .resolve_global(NodeId(node), name);
        if let Some((slot, _ty)) = global {
            match self.debug_request(node, AgentRequest::ReadGlobal { slot })? {
                AgentReply::Value(w) => return Ok(render_wire(&w)),
                other => return Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
            }
        }
        Err(DebugError::Source(format!("no variable `{name}` in scope")))
    }

    /// Sets variable `name` in `(node, pid)` after type-checking the value
    /// in the debugger proper (§3: type checking happens debugger-side).
    pub fn set_variable(
        &mut self,
        node: u32,
        pid: u64,
        name: &str,
        value: WireValue,
    ) -> Result<(), DebugError> {
        if let Some((frame, slot, ty)) = self.find_variable(node, pid, name)? {
            let dbg = self.debugger.as_ref().ok_or(DebugError::NoDebugger)?;
            let program = dbg
                .program(NodeId(node))
                .ok_or_else(|| DebugError::Source("no program loaded".into()))?;
            Debugger::check_assignment(&ty, &value, program).map_err(DebugError::Source)?;
            self.debug_request(
                node,
                AgentRequest::WriteVar {
                    pid,
                    frame,
                    slot,
                    value: Box::new(value),
                },
            )?;
            return Ok(());
        }
        let dbg = self.debugger.as_ref().ok_or(DebugError::NoDebugger)?;
        if let Some((slot, ty)) = dbg.resolve_global(NodeId(node), name) {
            let program = dbg
                .program(NodeId(node))
                .ok_or_else(|| DebugError::Source("no program loaded".into()))?;
            Debugger::check_assignment(&ty, &value, program).map_err(DebugError::Source)?;
            self.debug_request(
                node,
                AgentRequest::WriteGlobal {
                    slot,
                    value: Box::new(value),
                },
            )?;
            return Ok(());
        }
        Err(DebugError::Source(format!("no variable `{name}` in scope")))
    }

    /// Locates `name` in the newest well-formed non-stub frame of the
    /// process: `(frame index, slot, type)`.
    fn find_variable(
        &mut self,
        node: u32,
        pid: u64,
        name: &str,
    ) -> Result<Option<(u32, u16, pilgrim_cclu::Type)>, DebugError> {
        let frames = self.read_stack(node, pid)?;
        let dbg = self.debugger.as_ref().ok_or(DebugError::NoDebugger)?;
        for f in frames.iter().rev() {
            if !f.well_formed || f.kind != "normal" && f.kind != "server-root" {
                continue;
            }
            if let Some((slot, ty)) = dbg.resolve_variable(NodeId(node), f.proc_id, f.pc, name) {
                return Ok(Some((f.index, slot, ty)));
            }
        }
        Ok(None)
    }

    /// Steps a trapped process over its breakpoint (§5.5).
    pub fn step_over(&mut self, node: u32, pid: u64) -> Result<(), DebugError> {
        self.debug_request(node, AgentRequest::StepOver { pid })?;
        Ok(())
    }

    /// Continues a stopped process. A process stopped at a breakpoint is
    /// first stepped over it (§5.5) — otherwise it would re-trap on the
    /// still-planted instruction — and then released.
    pub fn continue_process(&mut self, node: u32, pid: u64) -> Result<(), DebugError> {
        match self.debug_request(node, AgentRequest::StepOver { pid }) {
            Ok(_) | Err(DebugError::Agent(_)) => {} // not at a breakpoint: fine
            Err(e) => return Err(e),
        }
        match self.debug_request(node, AgentRequest::ContinueProcess { pid }) {
            // The stepped instruction may have blocked or exited the
            // process, in which case there is nothing left to release.
            Ok(_) | Err(DebugError::Agent(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The in-progress RPC of a process, if any (§4.3).
    pub fn rpc_status(&mut self, node: u32, pid: u64) -> Result<Option<CallDebug>, DebugError> {
        match self.debug_request(node, AgentRequest::RpcStatus { pid })? {
            AgentReply::Rpc(v) => Ok(v),
            other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// The ten-slot cyclic buffer of recent call outcomes on a node.
    pub fn recent_calls(&mut self, node: u32) -> Result<Vec<(u64, bool)>, DebugError> {
        match self.debug_request(node, AgentRequest::RecentCalls)? {
            AgentReply::Recent(r) => Ok(r),
            other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Diagnoses a failed maybe call by interrogating the server (§4.1):
    /// was the call packet or the reply packet lost?
    pub fn diagnose_maybe_failure(
        &mut self,
        server_node: u32,
        call_id: u64,
    ) -> Result<MaybeDiagnosis, DebugError> {
        let stimulus = Stimulus::Diagnose {
            node: server_node,
            call_id,
        };
        self.drive(stimulus, |w| {
            let reply = w.debug_request(server_node, AgentRequest::ServerKnowledge { call_id })?;
            let AgentReply::Knowledge(k) = reply else {
                return Err(DebugError::Protocol(format!("unexpected reply {reply:?}")));
            };
            let diagnosis = match k {
                ServerKnowledge::NeverSeen => MaybeDiagnosis::LostCall,
                ServerKnowledge::Executing => MaybeDiagnosis::StillExecuting,
                ServerKnowledge::Replied(true) => MaybeDiagnosis::LostReply,
                ServerKnowledge::Replied(false) => MaybeDiagnosis::RemoteFailed,
            };
            // The two §4.1 verdicts get their own event kinds, linked to
            // the failed call's span so a post-mortem timeline ends with
            // the diagnosis.
            let kind = match diagnosis {
                MaybeDiagnosis::LostCall => Some(EventKind::MaybeLostCall { call_id }),
                MaybeDiagnosis::LostReply => Some(EventKind::MaybeLostReply { call_id }),
                _ => None,
            };
            if let Some(kind) = kind {
                if w.tracer.wants(TraceCategory::Rpc) {
                    let span = w.span_of_call(call_id);
                    w.tracer
                        .emit(w.now, TraceCategory::Rpc, Some(server_node), span, kind);
                }
                // A confirmed packet loss is exactly what the flight
                // recorder exists for: dump the recent past now, while the
                // ring still holds the lost call's wake.
                let reason = match diagnosis {
                    MaybeDiagnosis::LostCall => "maybe-lost-call",
                    _ => "maybe-lost-reply",
                };
                w.snap_blackbox(&format!("{reason} call#{call_id}"));
            }
            Ok(diagnosis)
        })
    }
}

/// Renders a marshalled value for display (used for globals, which are
/// copied to the debugger rather than printed in the user program).
pub fn render_wire(w: &WireValue) -> String {
    match w {
        WireValue::Null => "nil".into(),
        WireValue::Int(i) => i.to_string(),
        WireValue::Bool(b) => b.to_string(),
        WireValue::Str(s) => s.to_string(),
        WireValue::Record { type_name, fields } => {
            let inner: Vec<String> = fields.iter().map(render_wire).collect();
            format!("{type_name}${{{}}}", inner.join(", "))
        }
        WireValue::Array(items) => {
            let inner: Vec<String> = items.iter().map(render_wire).collect();
            format!("[{}]", inner.join(", "))
        }
    }
}
