//! One Mayflower node: supervisor, scheduler, and system-call layer.
//!
//! A [`Node`] owns everything that lives on one machine of the distributed
//! program: the compiled program (shared code), the heap (shared memory),
//! node-global variables, the process table, semaphores and monitor locks,
//! and the node's clock with its logical-time *delta* (§5.2).
//!
//! The node is driven externally: the world calls [`Node::advance_into`] with
//! a time bound, the node time-slices its runnable processes up to that
//! bound, and everything the node cannot resolve locally — RPC sends, trap
//! hits, faults, process lifecycle — is reported back as [`Outcall`]s for
//! the upper layers (RPC runtime, Pilgrim agent) to handle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use pilgrim_cclu::{
    CodeAddr, ExecEnv, Fault, Frame, Heap, ProcId, Program, RpcRequest, StepOutcome, SysReply,
    Syscalls, Value, VmProcess,
};
use pilgrim_sim::{
    CallNodeId, CallTree, DetRng, EventKind, Json, LedgerBucket, SimDuration, SimTime, SpanId,
    TimeLedger, TraceCategory, TraceEvent, Tracer,
};

use crate::process::{
    HaltInfo, MutexId, NativeProcess, Pid, ProcBody, Process, ProcessInfo, RunState, SemId,
};
use crate::sync::{MonitorLock, Semaphore};

/// Node tuning parameters.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Scheduler time slice (Mayflower time-slices processes, §5.5).
    pub time_slice: SimDuration,
    /// Seed for this node's deterministic randomness.
    pub seed: u64,
    /// Freeze the timeouts of halted processes (§5.2). Disabling this
    /// models a naive debugger without the paper's supervisor support —
    /// the experiment-E4 ablation in which halted waiters still time out.
    pub freeze_timeouts_on_halt: bool,
    /// Accumulate per-procedure instruction and cost counters while
    /// stepping ([`Node::vm_profile`]). Off by default: the books are
    /// kept per instruction, so a profiled node consults its scheduler
    /// per instruction too and takes no bursts ([`Node::advance_into`]).
    pub profile_vm: bool,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            time_slice: SimDuration::from_millis(10),
            seed: 0,
            freeze_timeouts_on_halt: true,
            profile_vm: false,
        }
    }
}

impl NodeConfig {
    /// The config as a JSON object for the replay recipe.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "time_slice_us",
                Json::Int(self.time_slice.as_micros() as i128),
            ),
            ("seed", Json::Int(self.seed as i128)),
            (
                "freeze_timeouts_on_halt",
                Json::Bool(self.freeze_timeouts_on_halt),
            ),
            ("profile_vm", Json::Bool(self.profile_vm)),
        ])
    }

    /// Rebuilds a config from [`to_json`](NodeConfig::to_json) output.
    ///
    /// # Errors
    ///
    /// Missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<NodeConfig, String> {
        Ok(NodeConfig {
            time_slice: v
                .get("time_slice_us")
                .and_then(Json::as_u64)
                .map(SimDuration::from_micros)
                .ok_or("node config: missing `time_slice_us`")?,
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("node config: missing `seed`")?,
            freeze_timeouts_on_halt: v
                .get("freeze_timeouts_on_halt")
                .and_then(Json::as_bool)
                .ok_or("node config: missing `freeze_timeouts_on_halt`")?,
            profile_vm: v
                .get("profile_vm")
                .and_then(Json::as_bool)
                .ok_or("node config: missing `profile_vm`")?,
        })
    }
}

/// Something the node needs the outside world to handle.
#[derive(Debug)]
pub enum Outcall {
    /// A process issued a remote procedure call.
    Rpc {
        /// The calling process (now blocked in `RpcWait`).
        pid: Pid,
        /// Token to resume the call with ([`Node::resume_rpc`]).
        token: u64,
        /// The request.
        req: RpcRequest,
        /// When the call was issued (node real time).
        at: SimTime,
    },
    /// A process hit a planted breakpoint (§5.5). The process is stopped in
    /// [`RunState::Trapped`] until the agent acts.
    Trap {
        /// The stopped process.
        pid: Pid,
        /// The agent's breakpoint slot.
        bp: u16,
        /// Where it stopped.
        addr: CodeAddr,
        /// When the trap was hit (node real time).
        at: SimTime,
    },
    /// A trace-mode single step completed (§5.5 step-over).
    TraceStop {
        /// The stepped process.
        pid: Pid,
        /// When the step completed (node real time).
        at: SimTime,
    },
    /// A process terminated with a run-time failure; the agent fields
    /// these like hardware exceptions (§5.2).
    Fault {
        /// The faulted process.
        pid: Pid,
        /// The failure.
        fault: Fault,
        /// When the fault occurred (node real time).
        at: SimTime,
    },
    /// A process came into existence (the §5.4 creation hook; the process
    /// table it maintains is the node's own, which is what the agent reads).
    ProcCreated {
        /// New process.
        pid: Pid,
        /// Its name (shared with the process record and the program's
        /// debug info).
        name: Arc<str>,
    },
    /// A process ran to completion (§5.4 deletion hook).
    ProcExited {
        /// The process.
        pid: Pid,
        /// When it exited (node real time).
        at: SimTime,
    },
    /// Console output was produced.
    Print {
        /// The printing process.
        pid: Pid,
        /// The text.
        text: String,
    },
}

/// Options for creating a process.
#[derive(Debug, Clone, Default)]
pub struct SpawnOpts {
    /// Name override (defaults to the entry procedure / native name).
    /// The process record shares this allocation, so a caller that spawns
    /// many processes under one name — the RPC runtime's `rpc:<proc>`
    /// server processes — interns it once and clones the handle, as
    /// processes spawned without an override share their procedure's name.
    pub name: Option<Arc<str>>,
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

/// The node's trace outlet: a [`Tracer`] clone plus an optional buffer.
///
/// In serial stepping the buffer is absent and events go straight to the
/// shared tracer ring, exactly as before. While a node executes a lockstep
/// window on a worker thread, the world switches the sink into buffered
/// mode ([`Node::begin_trace_buffer`]); events accumulate privately and are
/// drained into the shared ring in canonical node order at the sync
/// barrier ([`Node::take_trace_buffer`]), so the merged trace is
/// byte-identical to a single-threaded run.
struct NodeSink {
    tracer: Tracer,
    buf: Option<Vec<TraceEvent>>,
}

impl NodeSink {
    fn new(tracer: Tracer) -> NodeSink {
        NodeSink { tracer, buf: None }
    }

    /// Mirrors [`Tracer::wants`]: one relaxed atomic load.
    #[inline]
    fn wants(&self, category: TraceCategory) -> bool {
        self.tracer.wants(category)
    }

    /// Mirrors [`Tracer::emit`], diverting to the window buffer when one
    /// is active. The filter is consulted at emission time in both modes,
    /// so a buffered run records exactly the events a direct run would.
    fn emit(
        &mut self,
        time: SimTime,
        category: TraceCategory,
        node: Option<u32>,
        span: Option<SpanId>,
        kind: EventKind,
    ) {
        if !self.tracer.wants(category) {
            return;
        }
        let ev = TraceEvent {
            time,
            category,
            node,
            span,
            kind,
        };
        match &mut self.buf {
            Some(buf) => buf.push(ev),
            None => self.tracer.push_event(ev),
        }
    }
}

/// One machine of the distributed program.
pub struct Node {
    id: u32,
    config: NodeConfig,
    clock: SimTime,
    delta: SimDuration,
    /// The compiled program, shared across every node running the same
    /// source (interning). Breakpoint planting copy-on-writes a private
    /// copy via [`Node::program_mut`].
    program: Arc<Program>,
    heap: Heap,
    globals: Vec<Value>,
    /// Slot-addressed process arena. Pids are handed out sequentially from
    /// 1 and a record is never removed (dead processes are retained for
    /// post-mortem examination), so process `pid` lives at slot
    /// `pid.0 - 1` and every lookup is a direct index.
    procs: Vec<Process>,
    run_queue: VecDeque<Pid>,
    sems: Vec<Semaphore>,
    locks: Vec<MonitorLock>,
    next_pid: u64,
    next_token: u64,
    rng: DetRng,
    sink: NodeSink,
    console: Vec<(SimTime, String)>,
    buffers: HashMap<u64, String>,
    next_buffer: u64,
    outcalls: Vec<Outcall>,
    slice_used: SimDuration,
    halt_marker: Option<SimTime>,
    /// Pending timer deadlines as a lazy min-heap of `(deadline, pid)`.
    /// Entries are pushed when a process blocks with a deadline (and when
    /// a frozen timeout is re-armed on resume) and validated against the
    /// process table when inspected: an entry is live only while its
    /// process still waits on exactly that deadline and is not halted.
    /// Stale entries (cancelled timers, rewritten deadlines) are popped
    /// and discarded lazily, so deadline queries cost O(log timers)
    /// amortised instead of a process-table scan.
    timers: BinaryHeap<Reverse<(SimTime, Pid)>>,
    /// `expire_timers`' list of due `(pid, was_sem)` entries, kept between
    /// firings for its allocation; always empty outside that function.
    due_scratch: Vec<(Pid, bool)>,
    /// `step_process`' lists of the forks and wake-ups its system calls
    /// asked for, kept between steps for their allocations (grown by use:
    /// a node that never forks never allocates one); always empty outside
    /// that function.
    spawn_scratch: Vec<(Pid, ProcId, Vec<Value>)>,
    wake_scratch: Vec<(Pid, Vec<Value>)>,
    /// Total instructions stepped — one add per instruction, read at
    /// sync points by the world's metrics instead of a hot-path counter.
    steps_total: u64,
    /// Per-procedure `(instructions, cost_us)` accumulation, indexed by
    /// `ProcId`; populated only when [`NodeConfig::profile_vm`] is set.
    vm_profile: Vec<(u64, u64)>,
    /// Caller→callee profile over VM call stacks; populated only when
    /// [`NodeConfig::profile_vm`] is set.
    call_tree: CallTree,
    /// Per-process profiling side records, index-aligned with `procs`;
    /// populated only when [`NodeConfig::profile_vm`] is set.
    tracks: Vec<ProcTrack>,
    /// Simulated time spent blocked on RPCs, per causal span (closed
    /// intervals only; in-flight waits are added on query).
    span_rpc: Vec<(SpanId, SimDuration)>,
}

/// Per-process profiling state kept beside the process arena: the time
/// ledger with its open-interval start, the cached call-tree cursor for
/// incremental stack sync, and the span of any outstanding RPC.
struct ProcTrack {
    ledger: TimeLedger,
    /// When the process entered its current scheduler state.
    since: SimTime,
    /// Call-tree node for the stack observed at the last profiled step.
    cursor: Option<CallNodeId>,
    /// Stack depth observed at the last profiled step.
    depth: usize,
    /// Span of the RPC this process is currently blocked on, if any.
    rpc_span: Option<SpanId>,
}

impl ProcTrack {
    fn new(now: SimTime) -> ProcTrack {
        ProcTrack {
            ledger: TimeLedger::default(),
            since: now,
            cursor: None,
            depth: 0,
            rpc_span: None,
        }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("clock", &self.clock)
            .field("delta", &self.delta)
            .field("processes", &self.procs.len())
            .finish()
    }
}

impl Node {
    /// Creates a node running `program`. Accepts an owned [`Program`] or
    /// an `Arc<Program>`; worlds pass the latter so every node running
    /// the same source shares one compiled copy.
    pub fn new(
        id: u32,
        program: impl Into<Arc<Program>>,
        config: NodeConfig,
        tracer: Tracer,
    ) -> Node {
        let program = program.into();
        let mut heap = Heap::new();
        let mut sems = Vec::new();
        let globals = program
            .globals
            .iter()
            .map(|g| match &g.init {
                pilgrim_cclu::GlobalInit::Literal(v) => v.clone(),
                pilgrim_cclu::GlobalInit::EmptyArray => {
                    Value::Ref(heap.alloc(pilgrim_cclu::HeapObject::Array(Vec::new())))
                }
                pilgrim_cclu::GlobalInit::Semaphore(n) => {
                    sems.push(Semaphore::new(*n));
                    Value::Sem((sems.len() - 1) as u32)
                }
            })
            .collect();
        let rng = DetRng::seed(config.seed ^ (u64::from(id) << 32) ^ 0x6d61_7966);
        Node {
            id,
            config,
            clock: SimTime::ZERO,
            delta: SimDuration::ZERO,
            program,
            heap,
            globals,
            procs: Vec::new(),
            run_queue: VecDeque::new(),
            sems,
            locks: Vec::new(),
            next_pid: 1,
            next_token: 1,
            rng,
            sink: NodeSink::new(tracer),
            console: Vec::new(),
            buffers: HashMap::new(),
            next_buffer: 1,
            outcalls: Vec::new(),
            slice_used: SimDuration::ZERO,
            halt_marker: None,
            timers: BinaryHeap::new(),
            due_scratch: Vec::new(),
            spawn_scratch: Vec::new(),
            wake_scratch: Vec::new(),
            steps_total: 0,
            vm_profile: Vec::new(),
            call_tree: CallTree::new(),
            tracks: Vec::new(),
            span_rpc: Vec::new(),
        }
    }

    /// The arena slot for `pid`. `Pid(0)` wraps to `usize::MAX`, which no
    /// slot can reach, so out-of-range pids simply miss.
    #[inline]
    fn slot(pid: Pid) -> usize {
        pid.0.wrapping_sub(1) as usize
    }

    #[inline]
    fn proc_at(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(Self::slot(pid))
    }

    #[inline]
    fn proc_at_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(Self::slot(pid))
    }

    /// Registers a timer deadline for `pid` in the lazy heap.
    #[inline]
    fn note_timer(timers: &mut BinaryHeap<Reverse<(SimTime, Pid)>>, deadline: SimTime, pid: Pid) {
        timers.push(Reverse((deadline, pid)));
    }

    /// Classifies heap entry `(t, pid)`: `Some(was_sem)` while it is still
    /// a live deadline, `None` when stale. This is the one timer
    /// eligibility rule: a halted process's entry is stale only when halts
    /// freeze timeouts (§5.2) — `resume_one` re-arms it from the frozen
    /// remainder. In the E4 ablation a halted waiter's deadline stays
    /// live, so the activity index sees it and it fires on time.
    fn timer_entry_kind(&self, t: SimTime, pid: Pid) -> Option<bool> {
        let p = self.proc_at(pid)?;
        if p.halted.is_some() && self.config.freeze_timeouts_on_halt {
            return None;
        }
        match &p.state {
            RunState::Sleeping { until } if *until == t => Some(false),
            RunState::SemWait {
                deadline: Some(d), ..
            } if *d == t => Some(true),
            _ => None,
        }
    }

    /// The [`TimeLedger`] bucket a process's current state accrues into;
    /// `None` for dead processes (their lifetime is over). The debug-halt
    /// overlay (and a pending halt) wins over the underlying state.
    fn bucket_of(p: &Process) -> Option<LedgerBucket> {
        if p.halted.is_some() || p.halt_pending {
            return (!p.state.is_dead()).then_some(LedgerBucket::Stopped);
        }
        match &p.state {
            RunState::Runnable => Some(LedgerBucket::Runnable),
            RunState::Sleeping { .. } => Some(LedgerBucket::Sleeping),
            RunState::SemWait { .. } | RunState::MutexWait { .. } => Some(LedgerBucket::BlockedSem),
            RunState::RpcWait { .. } => Some(LedgerBucket::BlockedRpc),
            RunState::Trapped { .. } | RunState::TraceStopped => Some(LedgerBucket::Stopped),
            RunState::Faulted(_) | RunState::Exited => None,
        }
    }

    /// Closes the open ledger interval for `pid` at the node clock,
    /// attributing it to the process's *current* (pre-transition) state.
    /// Every scheduler-state transition calls this first, so the ledger
    /// buckets tile the process's lifetime. No-op when profiling is off.
    fn settle_track(&mut self, pid: Pid) {
        let slot = Self::slot(pid);
        let (Some(p), Some(track)) = (self.procs.get(slot), self.tracks.get_mut(slot)) else {
            return;
        };
        let d = self.clock.saturating_since(track.since);
        track.since = self.clock;
        if d == SimDuration::ZERO {
            return;
        }
        let Some(bucket) = Self::bucket_of(p) else {
            return;
        };
        track.ledger.add(bucket, d);
        if bucket == LedgerBucket::BlockedRpc {
            if let Some(span) = track.rpc_span {
                match self.span_rpc.iter_mut().find(|(s, _)| *s == span) {
                    Some(e) => e.1 += d,
                    None => self.span_rpc.push((span, d)),
                }
            }
        }
    }

    /// Synchronises a process's cached call-tree cursor with its current
    /// VM stack. Consecutive profiled steps see stack deltas of at most
    /// one push or `k` pops (one instruction), so the common cases are a
    /// cache hit, one `child` hop, or a short parent walk; anything else
    /// falls back to interning the whole stack.
    fn sync_cursor(tree: &mut CallTree, track: &mut ProcTrack, frames: &[Frame]) -> CallNodeId {
        let depth = frames.len();
        let top = frames[depth - 1].proc.0 as u32;
        let cursor = match track.cursor {
            Some(c) if track.depth == depth && tree.frame_of(c) == top => Some(c),
            Some(c) if track.depth + 1 == depth => Some(tree.child(c, top)),
            Some(c) if depth < track.depth => {
                let mut cur = Some(c);
                for _ in depth..track.depth {
                    cur = cur.and_then(|n| tree.parent_of(n));
                }
                cur.filter(|&n| tree.frame_of(n) == top)
            }
            _ => None,
        };
        let cursor = cursor.unwrap_or_else(|| {
            tree.intern_stack(frames.iter().map(|f| f.proc.0 as u32))
                .expect("frames is non-empty")
        });
        track.cursor = Some(cursor);
        track.depth = depth;
        cursor
    }

    /// This node's identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The node's real-time clock.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The logical-clock delta (§5.2).
    pub fn delta(&self) -> SimDuration {
        self.delta
    }

    /// Adds to the logical-clock delta; the agent calls this when resuming
    /// from a breakpoint with the halt duration.
    pub fn add_delta(&mut self, d: SimDuration) {
        self.delta += d;
        if self.sink.wants(TraceCategory::Clock) {
            self.sink.emit(
                self.clock,
                TraceCategory::Clock,
                Some(self.id),
                None,
                EventKind::ClockAdjusted {
                    delta: d,
                    now: self.delta,
                },
            );
        }
    }

    /// Resets the logical clock to real time (end of a debugging session;
    /// the paper notes the effects "may be unpredictable").
    pub fn reset_delta(&mut self) {
        self.delta = SimDuration::ZERO;
    }

    /// Switches trace output into a private per-window buffer. Called by
    /// the world before handing this node to a worker thread, so events
    /// emitted while stepping in parallel do not interleave with other
    /// nodes' events in the shared ring.
    pub fn begin_trace_buffer(&mut self) {
        self.sink.buf = Some(Vec::new());
    }

    /// Ends buffered mode and returns the events recorded since
    /// [`begin_trace_buffer`](Node::begin_trace_buffer), in emission
    /// order. The world drains these into the shared tracer in canonical
    /// node order at the sync barrier.
    pub fn take_trace_buffer(&mut self) -> Vec<TraceEvent> {
        self.sink.buf.take().unwrap_or_default()
    }

    /// The node's logical time (§5.2): real time minus the delta. While
    /// the node is halted by the debugger the delta is effectively
    /// `current time − time of breakpoint + previous delta`, so the
    /// logical clock stands still at the breakpoint instant.
    pub fn logical_now(&self) -> SimTime {
        Self::logical_at(self.halt_marker, self.clock, self.delta)
    }

    fn logical_at(halt_marker: Option<SimTime>, clock: SimTime, delta: SimDuration) -> SimTime {
        halt_marker.unwrap_or(clock) - delta
    }

    /// Marks the whole node halted by the debugger at `at` — the start of
    /// a frozen logical-clock interval. Idempotent while already marked.
    pub fn mark_halted(&mut self, at: SimTime) {
        if self.halt_marker.is_none() {
            self.halt_marker = Some(at);
        }
    }

    /// Clears the halt marker, returning how long the node was halted.
    /// The caller (the agent) folds this into the delta.
    pub fn clear_halt_marker(&mut self) -> Option<SimDuration> {
        self.halt_marker
            .take()
            .map(|m| self.clock.saturating_since(m))
    }

    /// Is the node marked halted by the debugger?
    pub fn is_marked_halted(&self) -> bool {
        self.halt_marker.is_some()
    }

    /// The compiled program (shared object code).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The shared handle to the compiled program — lets callers check
    /// interning (`Arc::ptr_eq`) or share it onward without a deep clone.
    pub fn program_shared(&self) -> &Arc<Program> {
        &self.program
    }

    /// Mutable program access — the agent's breakpoint-planting path.
    /// The program is shared across nodes running the same source, so the
    /// first mutation copy-on-writes this node's private copy: planting a
    /// breakpoint on one node never perturbs the others.
    pub fn program_mut(&mut self) -> &mut Program {
        Arc::make_mut(&mut self.program)
    }

    /// The shared heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable heap access (the agent's memory-modification primitive).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Node-global variable storage.
    pub fn globals(&self) -> &[Value] {
        &self.globals
    }

    /// Mutable node-global storage.
    pub fn globals_mut(&mut self) -> &mut [Value] {
        &mut self.globals
    }

    /// Console output so far, with timestamps.
    pub fn console(&self) -> &[(SimTime, String)] {
        &self.console
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
    pub fn spawn_proc(&mut self, id: ProcId, args: Vec<Value>, mut opts: SpawnOpts) -> Pid {
        let name = opts.name.take().unwrap_or_else(|| self.proc_name(id));
        self.insert_process(ProcBody::Vm(VmProcess::spawn(id, args)), name, opts)
    }

    /// Spawns a native (Rust state machine) process.
    pub fn spawn_native(&mut self, body: Box<dyn NativeProcess>, mut opts: SpawnOpts) -> Pid {
        let name = opts.name.take().unwrap_or_else(|| Arc::from(body.name()));
        self.insert_process(
            ProcBody::Native {
                body,
                resume: Vec::new(),
            },
            name,
            opts,
        )
    }

    /// The interned name of procedure `id` — one shared allocation per
    /// procedure, reused by every process spawned from it.
    fn proc_name(&self, id: ProcId) -> Arc<str> {
        self.program.proc(id).debug.name.clone()
    }

    fn insert_process(&mut self, body: ProcBody, name: Arc<str>, opts: SpawnOpts) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let print_redirect = if opts.redirect_output {
            let b = self.next_buffer;
            self.next_buffer += 1;
            self.buffers.insert(b, String::new());
            Some(b)
        } else {
            None
        };
        // A process born while the node is halted by the debugger (e.g. a
        // server process for an RPC that arrived mid-halt) is halted at
        // birth: "the processes on the node" are halted, all of them.
        let halted = match (self.halt_marker, opts.no_halt) {
            (Some(_), false) => Some(HaltInfo {
                since: self.clock,
                frozen_remaining: None,
            }),
            _ => None,
        };
        debug_assert_eq!(Self::slot(pid), self.procs.len());
        if self.config.profile_vm {
            self.tracks.push(ProcTrack::new(self.clock));
        }
        self.procs.push(Process {
            pid,
            name: name.clone(),
            body,
            state: RunState::Runnable,
            halted,
            halt_pending: false,
            no_halt: opts.no_halt,
            priority: opts.priority,
            print_redirect,
            queued: true,
            span: None,
        });
        self.run_queue.push_back(pid);
        if self.sink.wants(TraceCategory::Sched) {
            self.sink.emit(
                self.clock,
                TraceCategory::Sched,
                Some(self.id),
                None,
                EventKind::ProcessSpawned {
                    pid: pid.0,
                    proc: name.clone(),
                },
            );
        }
        self.outcalls.push(Outcall::ProcCreated { pid, name });
        pid
    }

    /// Direct access to a process record.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.proc_at(pid)
    }

    /// Mutable access to a process record (agent memory access path).
    pub fn process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.proc_at_mut(pid)
    }

    /// Every process record in creation order, dead ones included (they
    /// are retained for post-mortem examination). Borrowed, so a listing
    /// is one pass with no per-record copy.
    pub fn processes(&self) -> &[Process] {
        &self.procs
    }

    /// All process ids, in creation order.
    pub fn pids(&self) -> Vec<Pid> {
        self.procs.iter().map(|p| p.pid).collect()
    }

    /// The §5.4 supervisor primitive: everything the supervisor knows about
    /// a process.
    pub fn process_info(&self, pid: Pid) -> Option<ProcessInfo> {
        self.proc_at(pid).map(|p| ProcessInfo {
            pid,
            name: p.name.clone(),
            state: p.state.clone(),
            halted: p.halted.is_some(),
            no_halt: p.no_halt,
            priority: p.priority,
            addr: p.addr(),
            frames: p.vm().map(|vm| vm.frames.len()).unwrap_or(0),
        })
    }

    /// Sets a process's no-halt bit (§5.2).
    pub fn set_no_halt(&mut self, pid: Pid, no_halt: bool) {
        if let Some(p) = self.proc_at_mut(pid) {
            p.no_halt = no_halt;
        }
    }

    /// A semaphore's `(count, waiters)` — debugger visibility (§5.4).
    pub fn sem_state(&self, sem: SemId) -> Option<(i64, Vec<Pid>)> {
        self.sems
            .get(sem as usize)
            .map(|s| (s.count, s.waiters.iter().copied().collect()))
    }

    /// A monitor lock's `(owner, waiters)` (§5.4).
    pub fn lock_state(&self, m: MutexId) -> Option<(Option<Pid>, Vec<Pid>)> {
        self.locks
            .get(m as usize)
            .map(|l| (l.owner, l.waiters.iter().copied().collect()))
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
        if let Some(w) = self
            .sems
            .get_mut(sem as usize)
            .and_then(|s| s.waiters.pop_front())
        {
            self.wake(w, vec![Value::Bool(true)]);
        } else if let Some(s) = self.sems.get_mut(sem as usize) {
            s.count += 1;
        }
    }

    /// The redirected output captured for `pid`, when it was spawned with
    /// [`SpawnOpts::redirect_output`].
    pub fn redirected_output(&self, pid: Pid) -> Option<&str> {
        let token = self.proc_at(pid)?.print_redirect?;
        self.buffers.get(&token).map(|s| s.as_str())
    }

    /// A finished process's return values.
    pub fn exit_values(&self, pid: Pid) -> Option<&[Value]> {
        let p = self.proc_at(pid)?;
        match &p.body {
            ProcBody::Vm(vm) if p.state == RunState::Exited => Some(&vm.exit_values),
            _ => None,
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
        if self.config.profile_vm {
            self.settle_track(pid);
            if let Some(t) = self.tracks.get_mut(Self::slot(pid)) {
                t.rpc_span = None;
            }
        }
        if let Some(p) = self.proc_at_mut(pid) {
            p.state = RunState::Faulted(Box::new(fault.clone()));
            let at = self.clock;
            self.outcalls.push(Outcall::Fault { pid, fault, at });
        }
    }

    /// Is `pid` blocked on exactly RPC `token`? Tokens are unique per node,
    /// so one slot read replaces a search of the process table.
    #[inline]
    fn waits_on(&self, pid: Pid, token: u64) -> bool {
        matches!(self.proc_at(pid), Some(p) if p.state == RunState::RpcWait { token })
    }

    fn wake(&mut self, pid: Pid, values: Vec<Value>) {
        if self.config.profile_vm {
            self.settle_track(pid);
            if let Some(t) = self.tracks.get_mut(Self::slot(pid)) {
                t.rpc_span = None;
            }
        }
        let Some(p) = self.procs.get_mut(Self::slot(pid)) else {
            return;
        };
        if p.state.is_dead() {
            return;
        }
        p.state = RunState::Runnable;
        match &mut p.body {
            ProcBody::Vm(vm) => vm.pending_push.extend(values),
            ProcBody::Native { resume, .. } => resume.extend(values),
        }
        if !p.queued {
            p.queued = true;
            self.run_queue.push_back(pid);
        }
    }

    fn ensure_queued(&mut self, pid: Pid) {
        let Some(p) = self.procs.get_mut(Self::slot(pid)) else {
            return;
        };
        if !p.queued {
            p.queued = true;
            self.run_queue.push_back(pid);
        }
    }

    // ------------------------------------------------------------------
    // Halting (§5.2)
    // ------------------------------------------------------------------

    /// The paper's halt primitive: places every halt-able process on the
    /// debugger's wait queue and freezes the timeouts of waiting processes.
    /// Processes inside the heap-allocator critical region are halted as
    /// soon as they leave it (§5.5). Returns how many processes were
    /// halted (or marked halt-pending).
    pub fn halt_all(&mut self) -> usize {
        let count = self.procs.len() as u64;
        let mut n = 0;
        for i in 1..=count {
            if self.halt_one(Pid(i)) {
                n += 1;
            }
        }
        if self.sink.wants(TraceCategory::Debug) {
            self.sink.emit(
                self.clock,
                TraceCategory::Debug,
                Some(self.id),
                None,
                EventKind::ProcessesHalted { count: n as u64 },
            );
        }
        n
    }

    /// Halts one process (debugger-directed state transfer, §5.4).
    /// Returns false when the process is exempt (no-halt bit), dead, or
    /// already halted.
    pub fn halt_one(&mut self, pid: Pid) -> bool {
        if self.config.profile_vm {
            self.settle_track(pid);
        }
        let clock = self.clock;
        let Some(p) = self.procs.get_mut(Self::slot(pid)) else {
            return false;
        };
        if p.no_halt || p.halted.is_some() || p.state.is_dead() {
            return false;
        }
        if p.in_allocator() {
            p.halt_pending = true;
            return true;
        }
        let freeze = self.config.freeze_timeouts_on_halt;
        Self::apply_halt(p, clock, freeze);
        true
    }

    fn apply_halt(p: &mut Process, clock: SimTime, freeze_timeouts: bool) {
        let frozen_remaining = if freeze_timeouts {
            match &p.state {
                RunState::Sleeping { until } => Some(until.saturating_since(clock)),
                RunState::SemWait {
                    deadline: Some(d), ..
                } => Some(d.saturating_since(clock)),
                _ => None,
            }
        } else {
            None
        };
        p.halted = Some(HaltInfo {
            since: clock,
            frozen_remaining,
        });
        p.halt_pending = false;
    }

    /// Resumes every halted process, re-applying frozen timeouts relative
    /// to the current time (§5.2).
    pub fn resume_all(&mut self) -> usize {
        let count = self.procs.len() as u64;
        let mut n = 0;
        for i in 1..=count {
            if self.resume_one(Pid(i)) {
                n += 1;
            }
        }
        if self.sink.wants(TraceCategory::Debug) {
            self.sink.emit(
                self.clock,
                TraceCategory::Debug,
                Some(self.id),
                None,
                EventKind::ProcessesResumed { count: n as u64 },
            );
        }
        n
    }

    /// Resumes a single halted process.
    pub fn resume_one(&mut self, pid: Pid) -> bool {
        if self.config.profile_vm {
            self.settle_track(pid);
        }
        let clock = self.clock;
        let Some(p) = self.procs.get_mut(Self::slot(pid)) else {
            return false;
        };
        p.halt_pending = false;
        let Some(info) = p.halted.take() else {
            return false;
        };
        if let Some(rem) = info.frozen_remaining {
            match &mut p.state {
                RunState::Sleeping { until } => *until = clock + rem,
                RunState::SemWait {
                    deadline: Some(d), ..
                } => *d = clock + rem,
                _ => {}
            }
            Self::note_timer(&mut self.timers, clock + rem, pid);
        }
        if p.state.is_runnable() {
            self.ensure_queued(pid);
        }
        true
    }

    /// True when any process is currently halted (or halt-pending).
    pub fn any_halted(&self) -> bool {
        self.procs
            .iter()
            .any(|p| p.halted.is_some() || p.halt_pending)
    }

    /// Total instructions stepped on this node so far (every process,
    /// VM and native). A plain field add on the step path; the world's
    /// metrics read it at sync points.
    pub fn steps_total(&self) -> u64 {
        self.steps_total
    }

    /// `(runnable, blocked, halted)` process counts right now: runnable =
    /// schedulable, halted = under a debug halt (or halt-pending), blocked
    /// = alive but waiting (sleep, semaphore, RPC, trap). Dead processes
    /// are in none of the buckets.
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let (mut runnable, mut blocked, mut halted) = (0, 0, 0);
        for p in &self.procs {
            if p.state.is_dead() {
                continue;
            }
            if p.halted.is_some() || p.halt_pending {
                halted += 1;
            } else if p.schedulable() {
                runnable += 1;
            } else {
                blocked += 1;
            }
        }
        (runnable, blocked, halted)
    }

    /// The per-procedure profile accumulated while
    /// [`NodeConfig::profile_vm`] was set: `(procedure name,
    /// instructions, simulated cost µs)`, hottest first. Empty when
    /// profiling is off.
    pub fn vm_profile(&self) -> Vec<(String, u64, u64)> {
        let mut out: Vec<(String, u64, u64)> = self
            .vm_profile
            .iter()
            .enumerate()
            .filter(|(_, (instr, _))| *instr > 0)
            .map(|(i, (instr, cost))| {
                (
                    self.program.proc(ProcId(i as u16)).debug.name.to_string(),
                    *instr,
                    *cost,
                )
            })
            .collect();
        out.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        out
    }

    /// Folded call stacks accumulated while [`NodeConfig::profile_vm`]
    /// was set: `(stack, cost_us)` with procedure names joined by `;`
    /// root-first, sorted lexicographically (so identical runs render
    /// byte-identically). Empty when profiling is off.
    pub fn folded_stacks(&self) -> Vec<(String, u64)> {
        self.call_tree
            .folded(|f| self.program.proc(ProcId(f as u16)).debug.name.to_string())
    }

    /// The caller→callee edge profile: `(caller, callee, instructions,
    /// self cost µs)`, caller `None` for entry procedures, sorted by
    /// caller then callee. Empty when profiling is off.
    pub fn call_edges(&self) -> Vec<(Option<String>, String, u64, u64)> {
        let name = |f: u32| self.program.proc(ProcId(f as u16)).debug.name.to_string();
        self.call_tree
            .edges()
            .into_iter()
            .map(|e| (e.caller.map(name), name(e.callee), e.instr, e.cost))
            .collect()
    }

    /// Per-process time-attribution ledgers, settled virtually up to the
    /// node clock: `(pid, name, span, ledger)` in pid order. Empty when
    /// profiling is off.
    pub fn time_ledgers(&self) -> Vec<(Pid, String, Option<SpanId>, TimeLedger)> {
        self.procs
            .iter()
            .zip(self.tracks.iter())
            .map(|(p, t)| {
                let mut ledger = t.ledger;
                let d = self.clock.saturating_since(t.since);
                if d > SimDuration::ZERO {
                    if let Some(bucket) = Self::bucket_of(p) {
                        ledger.add(bucket, d);
                    }
                }
                (p.pid, p.name.to_string(), p.span, ledger)
            })
            .collect()
    }

    /// Simulated time spent blocked on RPCs per causal span, including
    /// the open interval of calls still in flight, sorted by span. Empty
    /// when profiling is off.
    pub fn rpc_span_waits(&self) -> Vec<(SpanId, SimDuration)> {
        let mut out = self.span_rpc.clone();
        for (p, t) in self.procs.iter().zip(self.tracks.iter()) {
            let Some(span) = t.rpc_span else { continue };
            if Self::bucket_of(p) != Some(LedgerBucket::BlockedRpc) {
                continue;
            }
            let d = self.clock.saturating_since(t.since);
            if d > SimDuration::ZERO {
                match out.iter_mut().find(|(s, _)| *s == span) {
                    Some(e) => e.1 += d,
                    None => out.push((span, d)),
                }
            }
        }
        out.sort_by_key(|(s, _)| s.0);
        out
    }

    /// Associates a client process's outstanding RPC with its causal
    /// span, so blocked-on-RPC time can be attributed per span. The RPC
    /// runtime calls this when it starts a call; no-op when profiling is
    /// off.
    pub fn note_rpc_span(&mut self, pid: Pid, span: SpanId) {
        if let Some(t) = self.tracks.get_mut(Self::slot(pid)) {
            t.rpc_span = Some(span);
        }
    }

    /// Releases a process stopped at a trap or after a trace step back to
    /// the run queue.
    pub fn release_stopped(&mut self, pid: Pid) -> bool {
        if self.config.profile_vm {
            self.settle_track(pid);
        }
        let Some(p) = self.proc_at_mut(pid) else {
            return false;
        };
        if p.state.is_stopped_by_debugger() {
            p.state = RunState::Runnable;
            self.ensure_queued(pid);
            true
        } else {
            false
        }
    }

    /// Debugger-directed state transfer (§5.4): yanks a process out of
    /// whatever queue it is waiting on and makes it runnable. A process
    /// waiting on a semaphore is removed from that semaphore's queue; its
    /// pending wait is answered with `false` (as if timed out).
    pub fn force_runnable(&mut self, pid: Pid) -> bool {
        let Some(p) = self.proc_at_mut(pid) else {
            return false;
        };
        match p.state.clone() {
            RunState::Runnable => true,
            RunState::Sleeping { .. } => {
                self.wake(pid, vec![]);
                true
            }
            RunState::SemWait { sem, .. } => {
                if let Some(s) = self.sems.get_mut(sem as usize) {
                    s.remove_waiter(pid);
                }
                self.wake(pid, vec![Value::Bool(false)]);
                true
            }
            RunState::Trapped { .. } | RunState::TraceStopped => self.release_stopped(pid),
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// When this node next needs CPU: now if anything is schedulable, the
    /// earliest timer deadline otherwise, `None` when fully idle.
    ///
    /// `&mut self` because the lazy timer heap sheds stale entries as a
    /// side effect. The answer is exact — never conservative — which the
    /// world's activity index relies on to skip quiescent nodes without
    /// perturbing the sync-point schedule.
    pub fn next_activity(&mut self) -> Option<SimTime> {
        if self
            .run_queue
            .iter()
            .any(|pid| self.proc_at(*pid).map(|p| p.schedulable()).unwrap_or(false))
        {
            return Some(self.clock);
        }
        self.next_deadline()
    }

    /// The earliest live timer deadline.
    fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, pid))) = self.timers.peek() {
            if self.timer_entry_kind(t, pid).is_some() {
                return Some(t);
            }
            // Stale (cancelled, rewritten, or halted-with-frozen-timeout —
            // the latter re-arms through resume_one, so dropping the old
            // entry is safe).
            self.timers.pop();
        }
        None
    }

    fn expire_timers(&mut self) {
        // Cheap early-out on the hot scheduling path: the heap minimum is
        // a conservative lower bound (stale entries are only ever early),
        // so nothing can be due while it sits in the future.
        match self.timers.peek() {
            Some(&Reverse((t, _))) if t <= self.clock => {}
            _ => return,
        }
        let clock = self.clock;
        let mut due = std::mem::take(&mut self.due_scratch);
        while let Some(&Reverse((t, pid))) = self.timers.peek() {
            if t > clock {
                break;
            }
            self.timers.pop();
            if let Some(was_sem) = self.timer_entry_kind(t, pid) {
                due.push((pid, was_sem));
            }
        }
        // Fire in ascending-pid order — the order a process-table scan
        // would use — and at most once per process (re-blocking on an
        // identical deadline can leave duplicate live entries).
        due.sort_unstable_by_key(|&(pid, _)| pid);
        due.dedup_by_key(|&mut (pid, _)| pid);
        for (pid, was_sem) in due.drain(..) {
            if was_sem {
                if let Some(RunState::SemWait { sem, .. }) =
                    self.proc_at(pid).map(|p| p.state.clone())
                {
                    if let Some(s) = self.sems.get_mut(sem as usize) {
                        s.remove_waiter(pid);
                    }
                }
                // A timed-out semaphore wait delivers `false` (§6's Figure
                // 3/4 algorithms hang off this result).
                self.wake(pid, vec![Value::Bool(false)]);
            } else {
                self.wake(pid, vec![]);
            }
        }
        self.due_scratch = due;
    }

    fn pick_next(&mut self) -> Option<Pid> {
        loop {
            let pid = *self.run_queue.front()?;
            let ok = self.proc_at(pid).map(|p| p.schedulable()).unwrap_or(false);
            if ok {
                return Some(pid);
            }
            self.run_queue.pop_front();
            if let Some(p) = self.proc_at_mut(pid) {
                p.queued = false;
            }
            self.slice_used = SimDuration::ZERO;
        }
    }

    fn rotate(&mut self) {
        if let Some(pid) = self.run_queue.pop_front() {
            self.run_queue.push_back(pid);
        }
        self.slice_used = SimDuration::ZERO;
    }

    /// Runs the node's processes forward until `t` (or until nothing can
    /// run and no timer is due before `t`), appending the accumulated
    /// outcalls — those queued since the last call first — to `out`.
    ///
    /// The node may overshoot `t` by at most one instruction, which is far
    /// below the network's minimum latency — the conservative-window
    /// property the world relies on for causality.
    ///
    /// The scheduler is consulted once per *burst*, not once per
    /// instruction: each turn of the loop computes the horizon — the
    /// earliest instant at which `expire_timers`, `pick_next` or `rotate`
    /// could answer differently — and `step_process` runs the picked
    /// process up to it.
    pub fn advance_into(&mut self, t: SimTime, out: &mut Vec<Outcall>) {
        // Step straight into the caller's buffer: it stands in for
        // `self.outcalls` for the duration of the call, so a caller that
        // reuses one buffer pays for its growth once, and this node keeps
        // only the small allocation of its between-window list.
        out.append(&mut self.outcalls);
        std::mem::swap(&mut self.outcalls, out);
        loop {
            if self.clock >= t {
                break;
            }
            self.expire_timers();
            let Some(pid) = self.pick_next() else {
                match self.next_deadline() {
                    Some(d) if d <= t => {
                        self.clock = self.clock.max(d);
                        continue;
                    }
                    _ => {
                        self.clock = t;
                        break;
                    }
                }
            };
            // The heap minimum is a conservative bound on the next timer
            // (stale entries are only ever early), and nothing inside a
            // burst can push an earlier one.
            let slice_end = self.clock + (self.config.time_slice - self.slice_used);
            let horizon = match self.timers.peek() {
                Some(&Reverse((due, _))) => t.min(slice_end).min(due),
                None => t.min(slice_end),
            };
            self.step_process(pid, horizon);
            if self.slice_used >= self.config.time_slice {
                self.rotate();
            }
        }
        std::mem::swap(&mut self.outcalls, out);
    }

    /// [`advance_into`](Node::advance_into) for callers that want an
    /// owned list: worker threads, tests.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<Outcall> {
        let mut out = Vec::new();
        self.advance_into(t, &mut out);
        out
    }

    /// Are outcalls queued that [`advance_into`](Node::advance_into) has
    /// not yet handed over? Deliveries and debugger actions between
    /// windows can queue outcalls on an otherwise idle node; the world
    /// must still drive such a node through `advance_into` so they reach
    /// the upper layers.
    pub fn has_pending_outcalls(&self) -> bool {
        !self.outcalls.is_empty()
    }

    /// Advances the clock of a *provably quiescent* node: nothing is
    /// schedulable and no timer is due at or before `t`, so this is
    /// exactly what [`advance_into`](Node::advance_into) would compute — the
    /// (entirely non-schedulable) run queue drained and the clock jumped
    /// — minus the window-by-window scans. The world's activity index
    /// uses it to catch a skipped node up before routing work to it.
    pub fn catch_up_clock(&mut self, t: SimTime) {
        if t <= self.clock {
            return;
        }
        let runnable = self.pick_next();
        debug_assert!(runnable.is_none(), "catch_up_clock on a runnable node");
        debug_assert!(
            self.next_deadline().is_none_or(|d| d > t),
            "catch_up_clock past a due timer"
        );
        self.clock = t;
    }

    /// Executes exactly one instruction of `pid` (the agent's trace-mode
    /// stepping path). Returns false when the process is not in a state
    /// that can be stepped.
    pub fn step_one(&mut self, pid: Pid) -> bool {
        let Some(p) = self.proc_at(pid) else {
            return false;
        };
        if p.state.is_dead() {
            return false;
        }
        // A horizon of "now" is already reached: one instruction.
        self.step_process(pid, self.clock);
        true
    }

    /// Steps `pid` — the only caller of the VM — for one instruction, and
    /// then for as many more as end before `horizon` while no scheduler
    /// decision can have changed (a *burst*).
    ///
    /// Inside a burst only `clock`, `slice_used`, `steps_total` and the
    /// context's two clocks move, one instruction at a time, so every
    /// system call sees the clock it would under single stepping. A burst
    /// ends with the first instruction that is not a plain `Ran`, that
    /// leaves work for the epilogue below (a block, a fork, a wake-up),
    /// or that reaches `horizon`; that instruction is committed by the
    /// epilogue like any single step. A process in trace mode or with a
    /// halt pending is stepped once, since its epilogue acts on every
    /// instruction, and so is every process under `profile_vm`, whose
    /// books are kept per instruction.
    fn step_process(&mut self, pid: Pid, horizon: SimTime) {
        // The process is stepped in place: the proc borrow and the borrows
        // handed to the system-call context are disjoint fields of `self`,
        // so no remove/re-insert round trip is needed per instruction.
        self.steps_total += 1;
        let logical_now = self.logical_now();
        if self.config.profile_vm {
            // Close the pre-step interval (time spent in the current
            // scheduler state) before this step's cost is attributed.
            self.settle_track(pid);
        }
        let Some(proc) = self.procs.get_mut(Self::slot(pid)) else {
            return;
        };
        let was_trace = proc.vm().map(|vm| vm.trace_once).unwrap_or(false);
        if let Some(vm) = proc.vm_mut() {
            vm.trace_once = false;
        }
        let profiled = if self.config.profile_vm {
            match proc.vm() {
                // `addr()` is `Some` exactly when the stack is non-empty,
                // so the cursor sync below can index the top frame.
                Some(vm) => vm.addr().map(|a| {
                    let cursor = Self::sync_cursor(
                        &mut self.call_tree,
                        &mut self.tracks[Self::slot(pid)],
                        &vm.frames,
                    );
                    (a.proc, cursor)
                }),
                None => None,
            }
        } else {
            None
        };

        let mut ctx = SysCtx {
            node_id: self.id,
            pid,
            now: self.clock,
            logical_now,
            sems: &mut self.sems,
            locks: &mut self.locks,
            rng: &mut self.rng,
            console: &mut self.console,
            sink: &mut self.sink,
            redirect: proc.print_redirect,
            span: proc.span,
            buffers: &mut self.buffers,
            outcalls: &mut self.outcalls,
            next_pid: &mut self.next_pid,
            next_token: &mut self.next_token,
            spawns: std::mem::take(&mut self.spawn_scratch),
            wakes: std::mem::take(&mut self.wake_scratch),
            block: None,
        };

        let burst = !was_trace && !proc.halt_pending && !self.config.profile_vm;
        let outcome = loop {
            let mut env = ExecEnv {
                heap: &mut self.heap,
                program: &self.program,
                globals: &mut self.globals,
                sys: &mut ctx,
            };
            let outcome = match &mut proc.body {
                // (VM processes receive resume values through pending_push,
                // set at wake time.)
                ProcBody::Vm(vm) => pilgrim_cclu::step(vm, &mut env),
                ProcBody::Native { body, resume } => body.step(std::mem::take(resume), &mut env),
            };
            let StepOutcome::Ran { cost } = outcome else {
                break outcome;
            };
            let d = SimDuration::from_micros(cost);
            let quiet = ctx.block.is_none() && ctx.spawns.is_empty() && ctx.wakes.is_empty();
            if !(burst && quiet && self.clock + d < horizon) {
                break outcome;
            }
            self.clock += d;
            self.slice_used += d;
            self.steps_total += 1;
            ctx.now = self.clock;
            ctx.logical_now = Self::logical_at(self.halt_marker, self.clock, self.delta);
        };

        let block = ctx.block.take();
        let mut spawns = std::mem::take(&mut ctx.spawns);
        let mut wakes = std::mem::take(&mut ctx.wakes);
        drop(ctx);

        if let Some((proc_id, cursor)) = profiled {
            let cost = match &outcome {
                StepOutcome::Ran { cost }
                | StepOutcome::Blocked { cost }
                | StepOutcome::Exited { cost } => *cost,
                StepOutcome::Faulted { cost, .. } => *cost,
                _ => 0,
            };
            let slot = proc_id.0 as usize;
            if self.vm_profile.len() <= slot {
                self.vm_profile.resize(slot + 1, (0, 0));
            }
            let entry = &mut self.vm_profile[slot];
            entry.0 += 1;
            entry.1 += cost;
            // Self cost lands on the stack observed at fetch time.
            self.call_tree.record(cursor, 1, cost);
        }

        match outcome {
            StepOutcome::Ran { cost } => {
                let d = SimDuration::from_micros(cost);
                self.clock += d;
                self.slice_used += d;
                if was_trace {
                    if proc.state.is_runnable() {
                        proc.state = RunState::TraceStopped;
                    }
                    self.outcalls.push(Outcall::TraceStop {
                        pid,
                        at: self.clock,
                    });
                }
            }
            StepOutcome::Blocked { cost } => {
                let d = SimDuration::from_micros(cost);
                self.clock += d;
                self.slice_used += d;
                proc.state = block.unwrap_or(RunState::Runnable);
                match &proc.state {
                    RunState::Sleeping { until } => {
                        Self::note_timer(&mut self.timers, *until, pid);
                    }
                    RunState::SemWait {
                        deadline: Some(d), ..
                    } => Self::note_timer(&mut self.timers, *d, pid),
                    _ => {}
                }
                if was_trace {
                    self.outcalls.push(Outcall::TraceStop {
                        pid,
                        at: self.clock,
                    });
                }
            }
            StepOutcome::Trapped { bp } => {
                let addr = proc.addr().unwrap_or(CodeAddr {
                    proc: ProcId(0),
                    pc: 0,
                });
                proc.state = RunState::Trapped { bp };
                self.outcalls.push(Outcall::Trap {
                    pid,
                    bp,
                    addr,
                    at: self.clock,
                });
            }
            StepOutcome::Exited { cost } => {
                let d = SimDuration::from_micros(cost);
                self.clock += d;
                self.slice_used += d;
                proc.state = RunState::Exited;
                if self.sink.wants(TraceCategory::Sched) {
                    self.sink.emit(
                        self.clock,
                        TraceCategory::Sched,
                        Some(self.id),
                        proc.span,
                        EventKind::ProcessExited { pid: pid.0 },
                    );
                }
                self.outcalls.push(Outcall::ProcExited {
                    pid,
                    at: self.clock,
                });
            }
            StepOutcome::Faulted { fault, cost } => {
                let d = SimDuration::from_micros(cost);
                self.clock += d;
                self.slice_used += d;
                if self.sink.wants(TraceCategory::Vm) {
                    self.sink.emit(
                        self.clock,
                        TraceCategory::Vm,
                        Some(self.id),
                        proc.span,
                        EventKind::Faulted {
                            pid: pid.0,
                            fault: fault.to_string(),
                        },
                    );
                }
                proc.state = RunState::Faulted(fault.clone());
                self.outcalls.push(Outcall::Fault {
                    pid,
                    fault: *fault,
                    at: self.clock,
                });
            }
        }

        if self.config.profile_vm {
            // The step's cost — exactly the clock advance since the
            // pre-step settle — is VM-executing time, charged regardless
            // of which state the instruction left the process in.
            if let Some(track) = self.tracks.get_mut(Self::slot(pid)) {
                track.ledger.executing += self.clock.saturating_since(track.since);
                track.since = self.clock;
            }
        }

        // Deferred halt: a halt arrived while the process was inside the
        // allocator; apply it the moment the allocator is exited (§5.5).
        if proc.halt_pending && !proc.in_allocator() {
            let freeze = self.config.freeze_timeouts_on_halt;
            let clock = self.clock;
            Self::apply_halt(proc, clock, freeze);
        }

        let parent_span = proc.span;
        for (new_pid, proc_id, args) in spawns.drain(..) {
            let name = self.proc_name(proc_id);
            let halted = self.halt_marker.map(|_| HaltInfo {
                since: self.clock,
                frozen_remaining: None,
            });
            debug_assert_eq!(Self::slot(new_pid), self.procs.len());
            if self.config.profile_vm {
                self.tracks.push(ProcTrack::new(self.clock));
            }
            self.procs.push(Process {
                pid: new_pid,
                name: name.clone(),
                body: ProcBody::Vm(VmProcess::spawn(proc_id, args)),
                state: RunState::Runnable,
                halted,
                halt_pending: false,
                no_halt: false,
                priority: 1,
                print_redirect: None,
                queued: true,
                // A forked worker belongs to the same causal activity as
                // its parent (e.g. a server process forking helpers).
                span: parent_span,
            });
            self.run_queue.push_back(new_pid);
            if self.sink.wants(TraceCategory::Sched) {
                self.sink.emit(
                    self.clock,
                    TraceCategory::Sched,
                    Some(self.id),
                    parent_span,
                    EventKind::ProcessSpawned {
                        pid: new_pid.0,
                        proc: name.clone(),
                    },
                );
            }
            self.outcalls
                .push(Outcall::ProcCreated { pid: new_pid, name });
        }
        for (wpid, values) in wakes.drain(..) {
            self.wake(wpid, values);
        }
        self.spawn_scratch = spawns;
        self.wake_scratch = wakes;
    }
}

// ----------------------------------------------------------------------
// System-call context
// ----------------------------------------------------------------------

struct SysCtx<'a> {
    node_id: u32,
    pid: Pid,
    now: SimTime,
    logical_now: SimTime,
    sems: &'a mut Vec<Semaphore>,
    locks: &'a mut Vec<MonitorLock>,
    rng: &'a mut DetRng,
    console: &'a mut Vec<(SimTime, String)>,
    sink: &'a mut NodeSink,
    redirect: Option<u64>,
    span: Option<SpanId>,
    buffers: &'a mut HashMap<u64, String>,
    outcalls: &'a mut Vec<Outcall>,
    next_pid: &'a mut u64,
    next_token: &'a mut u64,
    spawns: Vec<(Pid, ProcId, Vec<Value>)>,
    wakes: Vec<(Pid, Vec<Value>)>,
    block: Option<RunState>,
}

impl Syscalls for SysCtx<'_> {
    fn now_ms(&mut self) -> i64 {
        // Logical time (§5.2): the only time user programs can observe.
        (self.logical_now.as_micros() / 1_000) as i64
    }

    fn pid(&mut self) -> i64 {
        self.pid.0 as i64
    }

    fn node_id(&mut self) -> i64 {
        i64::from(self.node_id)
    }

    fn random(&mut self, bound: i64) -> i64 {
        self.rng.below(bound.max(1) as u64) as i64
    }

    fn print(&mut self, text: &str) {
        if let Some(token) = self.redirect {
            let buf = self.buffers.entry(token).or_default();
            if !buf.is_empty() {
                buf.push('\n');
            }
            buf.push_str(text);
        } else {
            self.console.push((self.now, text.to_string()));
            if self.sink.wants(TraceCategory::Vm) {
                self.sink.emit(
                    self.now,
                    TraceCategory::Vm,
                    Some(self.node_id),
                    self.span,
                    EventKind::Print {
                        pid: self.pid.0,
                        text: text.to_string(),
                    },
                );
            }
            self.outcalls.push(Outcall::Print {
                pid: self.pid,
                text: text.to_string(),
            });
        }
    }

    fn sem_create(&mut self, count: i64) -> u32 {
        self.sems.push(Semaphore::new(count));
        (self.sems.len() - 1) as u32
    }

    fn sem_wait(&mut self, sem: u32, timeout_ms: i64) -> SysReply {
        let Some(s) = self.sems.get_mut(sem as usize) else {
            return SysReply::Val(vec![Value::Bool(false)]);
        };
        if s.count > 0 {
            s.count -= 1;
            return SysReply::Val(vec![Value::Bool(true)]);
        }
        if timeout_ms == 0 {
            return SysReply::Val(vec![Value::Bool(false)]);
        }
        s.waiters.push_back(self.pid);
        let deadline = if timeout_ms < 0 {
            None
        } else {
            Some(self.now + SimDuration::from_millis(timeout_ms as u64))
        };
        self.block = Some(RunState::SemWait { sem, deadline });
        SysReply::Block
    }

    fn sem_signal(&mut self, sem: u32) {
        let Some(s) = self.sems.get_mut(sem as usize) else {
            return;
        };
        if let Some(w) = s.waiters.pop_front() {
            self.wakes.push((w, vec![Value::Bool(true)]));
        } else {
            s.count += 1;
        }
    }

    fn mutex_create(&mut self) -> u32 {
        self.locks.push(MonitorLock::new());
        (self.locks.len() - 1) as u32
    }

    fn mutex_lock(&mut self, m: u32) -> SysReply {
        let Some(l) = self.locks.get_mut(m as usize) else {
            return SysReply::Val(vec![]);
        };
        if l.owner.is_none() {
            l.owner = Some(self.pid);
            SysReply::Val(vec![])
        } else {
            l.waiters.push_back(self.pid);
            self.block = Some(RunState::MutexWait { mutex: m });
            SysReply::Block
        }
    }

    fn mutex_unlock(&mut self, m: u32) {
        let Some(l) = self.locks.get_mut(m as usize) else {
            return;
        };
        if l.owner != Some(self.pid) {
            return; // unlocking a lock you don't hold is a silent no-op
        }
        if let Some(w) = l.waiters.pop_front() {
            l.owner = Some(w);
            self.wakes.push((w, vec![]));
        } else {
            l.owner = None;
        }
    }

    fn fork(&mut self, proc: ProcId, args: Vec<Value>) -> i64 {
        let pid = Pid(*self.next_pid);
        *self.next_pid += 1;
        self.spawns.push((pid, proc, args));
        pid.0 as i64
    }

    fn sleep(&mut self, ms: i64) -> SysReply {
        if ms <= 0 {
            return SysReply::Val(vec![]);
        }
        self.block = Some(RunState::Sleeping {
            until: self.now + SimDuration::from_millis(ms as u64),
        });
        SysReply::Block
    }

    fn rpc(&mut self, req: RpcRequest) -> SysReply {
        let token = *self.next_token;
        *self.next_token += 1;
        self.outcalls.push(Outcall::Rpc {
            pid: self.pid,
            token,
            req,
            at: self.now,
        });
        self.block = Some(RunState::RpcWait { token });
        SysReply::Block
    }
}
