//! The process arena: slot-addressed records, the one constructor every
//! spawn and fork goes through, the one writer of a dead state, wake-ups,
//! RPC completion, and the names the records point into.

use std::collections::HashMap;
use std::sync::Arc;

use pilgrim_cclu::{Fault, ProcId, Value, VmProcess};
use pilgrim_sim::{EventKind, SpanId, TraceCategory};

use super::{Node, Outcall, ProcTrack};
use crate::process::{
    Flag, Flags, HaltInfo, NameArm, NameId, NativeProcess, Pid, ProcBody, Process, RunState, SemId,
};
use crate::sync::Semaphore;

/// Options for creating a process.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpawnOpts {
    /// Name override, minted by [`Node::intern_name`] on the node that
    /// spawns (defaults to the entry procedure's or the native body's
    /// name).
    pub name: Option<NameId>,
    /// Set the paper's "must not be halted" supervisor bit (§5.2).
    pub no_halt: bool,
    /// Scheduling priority (informational).
    pub priority: u8,
    /// Capture the process's `print` output into a per-process buffer
    /// instead of the console — the agent's output-redirection stream (§3).
    pub redirect_output: bool,
}

/// Error from [`Node::spawn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProc(pub String);

impl std::fmt::Display for UnknownProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no procedure named `{}` in the node's program", self.0)
    }
}
impl std::error::Error for UnknownProc {}

/// The node's table of override names: the names a process runs under
/// that are not its procedure's own (`rpc:<proc>`, `agent:<proc>`, a
/// native body's). Append-only and deduplicated, so a slot stays valid
/// for the node's life and one name costs one entry however many
/// processes bear it. A procedure's own name is never copied in: its
/// [`NameId`] reads the program. Empty, and unallocated, until an
/// override is used.
#[derive(Default)]
pub(super) struct Names {
    table: Vec<Arc<str>>,
    /// The slots of the names interned by text ([`Node::intern_name`]).
    by_text: HashMap<Arc<str>, u32>,
    /// The slots of the names derived from a procedure
    /// ([`Node::intern_prefixed`]), by procedure and prefix, so a spawn
    /// under one does no string work. Searched in order: a node serves
    /// and invokes a handful of procedures. Not in `by_text`, so a node
    /// that only serves calls never builds the map.
    derived: Vec<(ProcId, &'static str, u32)>,
}

impl Names {
    /// The slot holding `text`, in either index.
    fn find(&self, text: &str) -> Option<u32> {
        if let Some(&slot) = self.by_text.get(text) {
            return Some(slot);
        }
        let mut derived = self.derived.iter().map(|e| e.2);
        derived.find(|&slot| *self.table[slot as usize] == *text)
    }

    /// Appends `text` to the table, returning its slot.
    fn push(&mut self, text: &str) -> u32 {
        self.table.push(Arc::from(text));
        (self.table.len() - 1) as u32
    }
}

impl Node {
    /// The arena slot for `pid`. `Pid(0)` wraps to `usize::MAX`, which no
    /// slot can reach, so out-of-range pids simply miss.
    #[inline]
    pub(super) fn slot(pid: Pid) -> usize {
        pid.0.wrapping_sub(1) as usize
    }

    /// The pid of arena slot `slot`, the inverse of [`slot`](Node::slot):
    /// a record's pid is its place, not a field.
    #[inline]
    pub(super) fn pid_at(slot: usize) -> Pid {
        Pid(slot as u64 + 1)
    }

    /// Spawns a process running the named procedure.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownProc`] when the program has no such procedure.
    pub fn spawn(
        &mut self,
        entry: &str,
        args: Vec<Value>,
        opts: SpawnOpts,
    ) -> Result<Pid, UnknownProc> {
        let id = self
            .program
            .proc_by_name(entry)
            .ok_or_else(|| UnknownProc(entry.to_string()))?;
        Ok(self.spawn_proc(id, args, opts))
    }

    /// Spawns a process running procedure `id`.
    pub fn spawn_proc(&mut self, id: ProcId, args: Vec<Value>, opts: SpawnOpts) -> Pid {
        let name = opts.name.unwrap_or(NameId::of_proc(id));
        self.spawn_body(ProcBody::Vm(VmProcess::spawn(id, args)), name, opts)
    }

    /// Spawns a native (Rust state machine) process.
    pub fn spawn_native(&mut self, body: Box<dyn NativeProcess>, opts: SpawnOpts) -> Pid {
        let name = match opts.name {
            Some(name) => name,
            None => self.intern_name(body.name()),
        };
        let body = ProcBody::Native {
            body,
            resume: Vec::new(),
        };
        self.spawn_body(body, name, opts)
    }

    fn spawn_body(&mut self, body: ProcBody, name: NameId, opts: SpawnOpts) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.add_process(pid, name, body, opts, None);
        pid
    }

    /// The id of `name` as an override name on this node, for
    /// [`SpawnOpts::name`]: the slot it already has, or a new one. Ids
    /// are stable for the node's life.
    pub fn intern_name(&mut self, name: &str) -> NameId {
        let slot = match self.names.find(name) {
            Some(slot) => slot,
            None => {
                let slot = self.names.push(name);
                let text = self.names.table[slot as usize].clone();
                self.names.by_text.insert(text, slot);
                slot
            }
        };
        NameId::of_slot(slot)
    }

    /// [`intern_name`](Node::intern_name) of `prefix` followed by
    /// procedure `id`'s name, built and looked up once per prefix and
    /// procedure: the RPC runtime's `rpc:<proc>` server processes and the
    /// agent's `agent:<proc>` invocations spawn under it with no string
    /// work. The cache holds because nothing renames a procedure:
    /// breakpoint patches ([`program_mut`](Node::program_mut)) rewrite
    /// code only.
    pub fn intern_prefixed(&mut self, prefix: &'static str, id: ProcId) -> NameId {
        let names = &mut self.names;
        let slot = match names.derived.iter().find(|e| e.0 == id && e.1 == prefix) {
            Some(&(_, _, slot)) => slot,
            None => {
                let text = [prefix, &self.program.proc(id).debug.name].concat();
                let slot = match names.find(&text) {
                    Some(slot) => slot,
                    None => names.push(&text),
                };
                names.derived.push((id, prefix, slot));
                slot
            }
        };
        NameId::of_slot(slot)
    }

    /// The text of `name`: a procedure's debug name in the node's current
    /// program, or an override slot's. Shared, not copied, so a reader
    /// that keeps it — a listing row, a trace event — clones a handle.
    ///
    /// # Panics
    ///
    /// On an id another node minted that names no slot or procedure here.
    pub fn name(&self, name: NameId) -> &Arc<str> {
        match name.arm() {
            NameArm::Proc(id) => &self.program.proc(id).debug.name,
            NameArm::Slot(slot) => &self.names.table[slot],
        }
    }

    /// The override names interned so far, in slot order.
    pub fn override_names(&self) -> &[Arc<str>] {
        &self.names.table
    }

    /// The one process constructor: every spawn and every fork is born
    /// here, queued, traced and announced to the creation hook (§5.4).
    /// `pid` must be the next slot; `opts.name` is ignored (the caller
    /// resolved `name`); `span` is the causal activity it joins.
    pub(super) fn add_process(
        &mut self,
        pid: Pid,
        name: NameId,
        body: ProcBody,
        opts: SpawnOpts,
        span: Option<SpanId>,
    ) {
        debug_assert_eq!(Self::slot(pid), self.procs.len());
        // A process born while the node is halted by the debugger (e.g. a
        // server process for an RPC that arrived mid-halt) is halted at
        // birth: "the processes on the node" are halted, all of them.
        let halted = self.halt_marker.is_some() && !opts.no_halt;
        if halted {
            let unfrozen = HaltInfo {
                frozen_remaining: None,
            };
            self.halts.insert(pid, unfrozen);
        }
        if self.config.profile_vm {
            self.tracks.push(ProcTrack::new(self.clock));
        }
        let mut flags = Flags::default();
        flags.set(Flag::Halted, halted);
        flags.set(Flag::NoHalt, opts.no_halt);
        flags.set(Flag::PrintRedirect, opts.redirect_output);
        flags.set(Flag::Queued, true);
        self.procs.push(Process {
            name,
            body,
            state: RunState::Runnable,
            priority: opts.priority,
            flags,
            span,
        });
        self.run_queue.push_back(pid);
        if self.tracer.wants(TraceCategory::Sched) {
            let proc = self.name(name).clone();
            self.tracer.emit(
                self.clock,
                TraceCategory::Sched,
                Some(self.id),
                span,
                EventKind::ProcessSpawned { pid: pid.0, proc },
            );
        }
        self.outcalls.push(Outcall::ProcCreated { pid });
    }

    /// The one writer of a dead state: `fault` is `None` for a process
    /// that ran to completion. A dead record keeps what a post-mortem
    /// reads: the VM leaves an exited body holding its exit values alone,
    /// and a faulted one keeps its frames and values, which are its
    /// backtrace and its locals. A native body is kept whole.
    pub(super) fn bury(p: &mut Process, fault: Option<Box<Fault>>) {
        p.state = match fault {
            Some(fault) => RunState::Faulted(fault),
            None => RunState::Exited,
        };
    }

    /// Direct access to a process record.
    #[inline]
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(Self::slot(pid))
    }

    /// Mutable access to a process record (agent memory access path).
    #[inline]
    pub fn process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(Self::slot(pid))
    }

    /// Every process record with its pid, in creation order, dead ones
    /// included (they are retained for post-mortem examination, reduced to
    /// what it reads). Borrowed, so a listing is one pass with no
    /// per-record copy; size its buffer with
    /// [`process_count`](Node::process_count).
    pub fn processes(&self) -> impl Iterator<Item = (Pid, &Process)> {
        self.procs
            .iter()
            .enumerate()
            .map(|(slot, p)| (Self::pid_at(slot), p))
    }

    /// How many process records the node holds, dead ones included: the
    /// length of [`processes`](Node::processes) and of [`pids`](Node::pids).
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// All process ids, in creation order.
    pub fn pids(&self) -> Vec<Pid> {
        (0..self.procs.len()).map(Self::pid_at).collect()
    }

    /// The redirected output captured for `pid`, when it was spawned with
    /// [`SpawnOpts::redirect_output`] (empty until it prints).
    pub fn redirected_output(&self, pid: Pid) -> Option<&str> {
        let p = self.process(pid)?;
        p.print_redirect()
            .then(|| self.buffers.get(&pid).map_or("", String::as_str))
    }

    /// A finished process's return values.
    pub fn exit_values(&self, pid: Pid) -> Option<&[Value]> {
        let p = self.process(pid)?;
        match &p.body {
            ProcBody::Vm(vm) if p.state == RunState::Exited => Some(&vm.exit_values),
            _ => None,
        }
    }

    /// Creates a semaphore from outside a process (used by native services
    /// during setup).
    pub fn make_sem(&mut self, count: i64) -> SemId {
        self.sems.push(Semaphore::new(count));
        (self.sems.len() - 1) as SemId
    }

    /// Signals a semaphore from outside a process (e.g. an RPC runtime
    /// handing work to a server process).
    pub fn signal_sem(&mut self, sem: SemId) {
        if let Some(w) = self.sems.get_mut(sem as usize).and_then(Semaphore::signal) {
            self.wake(w, vec![Value::Bool(true)]);
        }
    }

    /// Resumes `pid` if it is blocked on RPC `token` (both from
    /// [`Outcall::Rpc`]), handing it the call results. Any other pid or
    /// token — stale, exited, never issued — is a no-op.
    pub fn resume_rpc(&mut self, pid: Pid, token: u64, values: Vec<Value>) {
        if self.waits_on(pid, token) {
            self.wake(pid, values);
        }
    }

    /// Terminates `pid` with a fault if it is blocked on RPC `token` — the
    /// fate of an exactly-once call whose destination node has failed.
    pub fn fail_rpc(&mut self, pid: Pid, token: u64, fault: Fault) {
        if !self.waits_on(pid, token) {
            return;
        }
        self.settle_wait(pid);
        let p = self.process_mut(pid).expect("waits_on read the record");
        Self::bury(p, Some(Box::new(fault.clone())));
        let at = self.clock;
        self.outcalls.push(Outcall::Fault { pid, fault, at });
    }

    /// Is `pid` blocked on exactly RPC `token`? Tokens are unique per node,
    /// so one slot read replaces a search of the process table.
    #[inline]
    fn waits_on(&self, pid: Pid, token: u64) -> bool {
        matches!(self.process(pid), Some(p) if p.state == RunState::RpcWait { token })
    }

    /// Makes a waiting `pid` runnable, handing it `values` as the result of
    /// the call it blocked in. A dead process stays dead.
    pub(super) fn wake(&mut self, pid: Pid, values: Vec<Value>) {
        self.settle_wait(pid);
        let Some(p) = self.process_mut(pid) else {
            return;
        };
        if p.state.is_dead() {
            return;
        }
        p.state = RunState::Runnable;
        match &mut p.body {
            ProcBody::Vm(vm) => vm.resume(values),
            ProcBody::Native { resume, .. } => resume.extend(values),
        }
        self.ensure_queued(pid);
    }

    pub(super) fn ensure_queued(&mut self, pid: Pid) {
        let Some(p) = self.process_mut(pid) else {
            return;
        };
        if !p.queued() {
            p.flags.set(Flag::Queued, true);
            self.run_queue.push_back(pid);
        }
    }
}
