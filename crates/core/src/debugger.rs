//! The debugger proper: the debugger-side half of Pilgrim.
//!
//! Per §3, "all activities involving the user interface, type-checking,
//! and access to the source-to-object mapping information produced by the
//! compiler and linker are performed in the debugger proper". This module
//! keeps the debugger's connection state, the source-to-object tables for
//! every node, the breakpoint registry, the asynchronous event queue, and
//! the breakpoint log driving `convert_debuggee_time` (§6.1). The
//! request/response pumping lives in [`crate::world::World`], which plays
//! the role of the user at the terminal.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use pilgrim_cclu::{CodeAddr, Program, Signature, Type, Value};
use pilgrim_ring::NodeId;
use pilgrim_rpc::{HandlerCtx, RpcEndpoint};
use pilgrim_sim::{SimTime, TraceCategory, Tracer};

use crate::proto::{AgentEvent, AgentReply, DebugMsg, SessionId};
use crate::timebase::BreakpointLog;

/// A breakpoint as the debugger tracks it.
#[derive(Debug, Clone)]
pub struct BreakpointInfo {
    /// Which node it is planted on.
    pub node: NodeId,
    /// The agent's slot on that node.
    pub bp: u16,
    /// Object-code address.
    pub addr: CodeAddr,
    /// Source line, when set by line.
    pub line: Option<u32>,
}

/// An asynchronous debugger-visible event.
#[derive(Debug, Clone)]
pub enum DebugEvent {
    /// A breakpoint fired; the cohort is halting.
    BreakpointHit {
        /// Node where it fired.
        node: NodeId,
        /// Process that hit it.
        pid: u64,
        /// Agent breakpoint slot.
        bp: u16,
        /// Source line (mapped by the debugger proper).
        line: Option<u32>,
        /// Procedure name.
        proc: String,
        /// Node real time of the hit.
        at: SimTime,
    },
    /// A process faulted; the cohort is halting.
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

/// Debugger-side connection and bookkeeping state.
pub struct Debugger {
    station: NodeId,
    session: Option<SessionId>,
    next_session: u64,
    cohort: Vec<NodeId>,
    next_seq: u64,
    /// Replies that arrived and are not yet collected, keyed by `seq`.
    /// Never more than a cohort's worth outstanding, so a scan beats a
    /// hash probe per awaited `seq` per sync point.
    replies: Vec<(u64, AgentReply)>,
    connect_acks: HashSet<NodeId>,
    connect_refusals: HashSet<NodeId>,
    events: VecDeque<DebugEvent>,
    programs: HashMap<NodeId, Arc<Program>>,
    breakpoints: Vec<BreakpointInfo>,
    log: Rc<RefCell<BreakpointLog>>,
    tracer: Tracer,
}

impl std::fmt::Debug for Debugger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Debugger")
            .field("station", &self.station)
            .field("session", &self.session)
            .field("cohort", &self.cohort)
            .finish()
    }
}

impl Debugger {
    /// Creates a debugger homed at network station `station`.
    pub fn new(station: NodeId, tracer: Tracer) -> Debugger {
        Debugger {
            station,
            session: None,
            next_session: 0,
            cohort: Vec::new(),
            next_seq: 1,
            replies: Vec::new(),
            connect_acks: HashSet::new(),
            connect_refusals: HashSet::new(),
            events: VecDeque::new(),
            programs: HashMap::new(),
            breakpoints: Vec::new(),
            log: Rc::new(RefCell::new(BreakpointLog::new())),
            tracer,
        }
    }

    /// The debugger's network address.
    pub fn station(&self) -> NodeId {
        self.station
    }

    /// The active session, if connected.
    pub fn session(&self) -> Option<SessionId> {
        self.session
    }

    /// Nodes under control of this debugger.
    pub fn cohort(&self) -> &[NodeId] {
        &self.cohort
    }

    /// Gives the debugger proper its copy of a node's source-to-object
    /// mapping information (§3).
    pub fn load_program(&mut self, node: NodeId, program: Arc<Program>) {
        self.programs.insert(node, program);
    }

    /// The program of `node`, if loaded.
    pub fn program(&self, node: NodeId) -> Option<&Program> {
        self.programs.get(&node).map(|p| &**p)
    }

    /// The shared breakpoint log (also read by the
    /// `convert_debuggee_time` handler).
    pub fn log(&self) -> Rc<RefCell<BreakpointLog>> {
        self.log.clone()
    }

    /// Registers the `convert_debuggee_time` procedure (§6.1) on the
    /// debugger's own node: `proc (date) returns (date)` with dates as
    /// millisecond integers, answered from the breakpoint log.
    pub fn register_convert_time(&self, endpoint: &mut RpcEndpoint) {
        let log = self.log.clone();
        let sig = Signature {
            params: vec![Type::Int],
            returns: vec![Type::Int],
        };
        endpoint.register_handler(
            "convert_debuggee_time",
            sig,
            Box::new(move |_: &mut HandlerCtx<'_>, args: Vec<Value>| {
                let real_ms = args[0].as_int().ok_or("date must be an int")?;
                let real = SimTime::from_millis(real_ms.max(0) as u64);
                let converted = log.borrow().convert_debuggee_time(real);
                Ok(vec![Value::Int(converted.logical.as_millis() as i64)])
            }),
        );
    }

    /// Generates the next session identifier — "a unique but guessable
    /// number" (§3): a plain counter offset, deliberately predictable.
    pub fn fresh_session(&mut self) -> SessionId {
        self.next_session += 1;
        SessionId(1_000 + self.next_session)
    }

    /// Marks a connection attempt under way.
    pub fn begin_connect(&mut self, session: SessionId, cohort: Vec<NodeId>) {
        self.session = Some(session);
        self.cohort = cohort;
        self.connect_acks.clear();
        self.connect_refusals.clear();
        self.breakpoints.clear();
    }

    /// Nodes that have acknowledged the connect so far.
    pub fn connect_acks(&self) -> usize {
        self.connect_acks.len()
    }

    /// Nodes that refused the connect.
    pub fn connect_refusals(&self) -> usize {
        self.connect_refusals.len()
    }

    /// Abandons the session client-side without telling the agents —
    /// simulates a crashed debugger, after which only a forcible
    /// connection can reclaim the agents (§3).
    pub fn abandon(&mut self) {
        self.session = None;
        self.cohort.clear();
        self.breakpoints.clear();
    }

    /// Allocates a request sequence number.
    pub fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Takes the reply for `seq` if it has arrived.
    pub fn take_reply(&mut self, seq: u64) -> Option<AgentReply> {
        let i = self.replies.iter().position(|(s, _)| *s == seq)?;
        Some(self.replies.swap_remove(i).1)
    }

    /// Takes the oldest pending event, leaving later ones queued.
    pub fn take_event(&mut self) -> Option<DebugEvent> {
        self.events.pop_front()
    }

    /// Drains pending events.
    pub fn take_events(&mut self) -> Vec<DebugEvent> {
        self.events.drain(..).collect()
    }

    /// Records a planted breakpoint.
    pub fn record_breakpoint(&mut self, info: BreakpointInfo) {
        self.breakpoints.push(info);
    }

    /// Forgets a cleared breakpoint.
    pub fn forget_breakpoint(&mut self, node: NodeId, bp: u16) {
        self.breakpoints.retain(|b| !(b.node == node && b.bp == bp));
    }

    /// Breakpoints currently planted.
    pub fn breakpoints(&self) -> &[BreakpointInfo] {
        &self.breakpoints
    }

    /// Looks up a planted breakpoint by node and slot.
    pub fn breakpoint(&self, node: NodeId, bp: u16) -> Option<&BreakpointInfo> {
        self.breakpoints
            .iter()
            .find(|b| b.node == node && b.bp == bp)
    }

    /// Maps a `(proc_id, pc)` on `node` to `(procedure name, line)` using
    /// the debugger's source-to-object tables.
    pub fn source_position(&self, node: NodeId, proc_id: u16, pc: u32) -> (String, Option<u32>) {
        let Some(program) = self.programs.get(&node) else {
            return (format!("proc#{proc_id}"), None);
        };
        let Some(code) = program.procs.get(proc_id as usize) else {
            return (format!("proc#{proc_id}"), None);
        };
        (code.debug.name.to_string(), code.debug.line_for_pc(pc))
    }

    /// Finds a variable visible at `(proc_id, pc)` on `node`: returns
    /// `(slot, type)`. This is debugger-proper work — the agent only ever
    /// sees slots.
    pub fn resolve_variable(
        &self,
        node: NodeId,
        proc_id: u16,
        pc: u32,
        name: &str,
    ) -> Option<(u16, Type)> {
        let program = self.programs.get(&node)?;
        let code = program.procs.get(proc_id as usize)?;
        let var = code.debug.var_at(name, pc)?;
        Some((var.slot, var.ty.clone()))
    }

    /// Finds a node-global (`own`) variable: `(slot, type)`.
    pub fn resolve_global(&self, node: NodeId, name: &str) -> Option<(u16, Type)> {
        let program = self.programs.get(&node)?;
        program
            .globals
            .iter()
            .position(|g| &*g.name == name)
            .map(|i| (i as u16, program.globals[i].ty.clone()))
    }

    /// Processes a message delivered to the debugger's station.
    pub fn on_msg(&mut self, now: SimTime, _src: NodeId, msg: DebugMsg) {
        match msg {
            DebugMsg::ConnectReply {
                session,
                accepted,
                node,
            } if self.session == Some(session) => {
                if accepted {
                    self.connect_acks.insert(node);
                } else {
                    self.connect_refusals.insert(node);
                }
            }
            DebugMsg::Reply {
                session,
                seq,
                reply,
            } if self.session == Some(session) => {
                self.replies.push((seq, reply));
            }
            DebugMsg::Event { session, event } => {
                if self.session != Some(session) {
                    return;
                }
                match event {
                    AgentEvent::BreakpointHit {
                        node,
                        pid,
                        bp,
                        proc_id,
                        pc,
                        at,
                    } => {
                        // The interruption starts now for the breakpoint
                        // log (§6.1).
                        self.log.borrow_mut().begin_halt(at);
                        let (proc, line) = self.source_position(node, proc_id, pc);
                        self.tracer.record(
                            now,
                            TraceCategory::Debug,
                            Some(self.station.0),
                            format!("breakpoint #{bp} hit on {node} p{pid} at {proc}:{line:?}"),
                        );
                        self.events.push_back(DebugEvent::BreakpointHit {
                            node,
                            pid,
                            bp,
                            line,
                            proc,
                            at,
                        });
                    }
                    AgentEvent::ProcessFaulted {
                        node,
                        pid,
                        message,
                        at,
                    } => {
                        self.log.borrow_mut().begin_halt(at);
                        self.events.push_back(DebugEvent::ProcessFaulted {
                            node,
                            pid,
                            message,
                            at,
                        });
                    }
                }
            }
            // Agent-side messages are never addressed to the debugger.
            _ => {}
        }
    }

    /// Notes that the cohort resumed (driven by the world after the
    /// resume round-trip completes).
    pub fn note_resumed(&mut self, halt_start_plus: SimTime) {
        self.log.borrow_mut().end_halt(halt_start_plus);
    }

    /// Type-checks `value` against `expected`, debugger-proper side, so
    /// ill-typed modifications never reach the agent.
    pub fn check_assignment(
        expected: &Type,
        value: &pilgrim_rpc::WireValue,
        program: &Program,
    ) -> Result<(), String> {
        if pilgrim_rpc::wire_matches_type(value, expected, &program.records) {
            Ok(())
        } else {
            Err(format!("value does not have type {expected}"))
        }
    }

    /// Resolves a first executable address for `line` on `node`.
    pub fn addr_for_line(&self, node: NodeId, line: u32) -> Option<CodeAddr> {
        self.programs.get(&node)?.addr_for_line(line)
    }

    /// Resolves the entry address of procedure `name` on `node` (used for
    /// "break on procedure" — the first instruction after the entry
    /// sequence).
    pub fn addr_for_proc(&self, node: NodeId, name: &str) -> Option<CodeAddr> {
        let program = self.programs.get(&node)?;
        let id = program.proc_by_name(name)?;
        let entry_end = program.proc(id).debug.entry_end;
        Some(CodeAddr {
            proc: id,
            pc: entry_end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_ids_are_unique_but_guessable() {
        let mut d = Debugger::new(NodeId(9), Tracer::new());
        let a = d.fresh_session();
        let b = d.fresh_session();
        assert_ne!(a, b);
        assert_eq!(b.0, a.0 + 1, "guessable: a plain counter");
    }

    #[test]
    fn replies_keyed_by_seq_and_session() {
        let mut d = Debugger::new(NodeId(9), Tracer::new());
        let s = d.fresh_session();
        d.begin_connect(s, vec![NodeId(0)]);
        let seq = d.next_seq();
        // A reply for a stale session is discarded.
        d.on_msg(
            SimTime::ZERO,
            NodeId(0),
            DebugMsg::Reply {
                session: SessionId(999),
                seq,
                reply: AgentReply::Ok,
            },
        );
        assert!(d.take_reply(seq).is_none());
        d.on_msg(
            SimTime::ZERO,
            NodeId(0),
            DebugMsg::Reply {
                session: s,
                seq,
                reply: AgentReply::Ok,
            },
        );
        assert!(matches!(d.take_reply(seq), Some(AgentReply::Ok)));
        assert!(d.take_reply(seq).is_none(), "reply consumed");
    }

    #[test]
    fn source_mapping_uses_loaded_programs() {
        let mut d = Debugger::new(NodeId(9), Tracer::new());
        let program =
            pilgrim_cclu::compile("main = proc ()\n x: int := 1\n print(x)\nend").unwrap();
        d.load_program(NodeId(0), Arc::new(program));
        let (name, line) = d.source_position(NodeId(0), 0, 1);
        assert_eq!(name, "main");
        assert_eq!(line, Some(2));
        let (name, line) = d.source_position(NodeId(3), 0, 1);
        assert_eq!(name, "proc#0");
        assert_eq!(line, None);
        assert!(d.addr_for_line(NodeId(0), 3).is_some());
        assert!(d.addr_for_proc(NodeId(0), "main").is_some());
        let (slot, ty) = d.resolve_variable(NodeId(0), 0, 4, "x").unwrap();
        assert_eq!(slot, 0);
        assert_eq!(ty, Type::Int);
    }

    #[test]
    fn events_update_breakpoint_log() {
        let mut d = Debugger::new(NodeId(9), Tracer::new());
        let s = d.fresh_session();
        d.begin_connect(s, vec![NodeId(0)]);
        d.on_msg(
            SimTime::from_millis(10),
            NodeId(0),
            DebugMsg::Event {
                session: s,
                event: AgentEvent::BreakpointHit {
                    node: NodeId(0),
                    pid: 1,
                    bp: 0,
                    proc_id: 0,
                    pc: 0,
                    at: SimTime::from_millis(10),
                },
            },
        );
        assert!(d.log().borrow().is_halted());
        assert_eq!(d.take_events().len(), 1);
        d.note_resumed(SimTime::from_millis(60));
        assert!(!d.log().borrow().is_halted());
        assert_eq!(
            d.log().borrow().total_halted(SimTime::from_secs(1)),
            pilgrim_sim::SimDuration::from_millis(50)
        );
    }
}
