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
//!
//! The node is cut along its seams, one `impl Node` block per file:
//!
//! * `arena.rs` — the chunked, slot-addressed process table, the one
//!   constructor every spawn and fork goes through, the one writer of a
//!   dead state, wake-ups, RPC completion and the override-name table;
//! * `supervisor.rs` — the debugger's primitives: halt and resume with
//!   frozen timeouts (§5.2), the state query and state transfer (§5.4);
//! * `timers.rs` — the lazy deadline heap and its one eligibility rule;
//! * `sched.rs` — the scheduler loop and the one caller of the VM;
//! * `profile.rs` — the opt-in simulated-time profiler's books;
//! * `syscall.rs` — the system calls a step makes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use pilgrim_cclu::{CodeAddr, Fault, Heap, ProcId, Program, RpcRequest, Value};
use pilgrim_sim::json::Fields;
use pilgrim_sim::{
    CallTree, Chunked, DetRng, EventKind, Json, SimDuration, SimTime, SpanId, TraceCategory, Tracer,
};

use crate::process::{HaltInfo, Pid, Process};
use crate::sync::{MonitorLock, Semaphore};

mod arena;
mod profile;
mod sched;
mod supervisor;
mod syscall;
mod timers;

use arena::Names;
pub use arena::{SpawnOpts, UnknownProc};
use profile::ProcTrack;

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
        let f = Fields::new(v, &"node config");
        Ok(NodeConfig {
            time_slice: SimDuration::from_micros(f.uint("time_slice_us")?),
            seed: f.uint("seed")?,
            freeze_timeouts_on_halt: f.bool("freeze_timeouts_on_halt")?,
            profile_vm: f.bool("profile_vm")?,
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
    /// [`RunState::Trapped`](crate::RunState::Trapped) until the agent acts.
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
    },
    /// A process ran to completion (§5.4 deletion hook).
    ProcExited {
        /// The process.
        pid: Pid,
        /// When it exited (node real time).
        at: SimTime,
    },
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
    /// `pid.0 - 1` and every lookup is a direct index. A dead record holds
    /// only what a post-mortem reads ([`Node::bury`]), and the table grows
    /// in fixed chunks, so it carries no doubling slack ([`Chunked`]).
    procs: Chunked<Process>,
    /// The override names records point into; a record named for its
    /// procedure points into `program` instead.
    names: Names,
    run_queue: VecDeque<Pid>,
    sems: Vec<Semaphore>,
    locks: Vec<MonitorLock>,
    next_pid: u64,
    next_token: u64,
    rng: DetRng,
    tracer: Tracer,
    console: Vec<(SimTime, String)>,
    /// Captured output of the processes spawned with
    /// [`SpawnOpts::redirect_output`], created at their first step.
    buffers: HashMap<Pid, String>,
    outcalls: Vec<Outcall>,
    slice_used: SimDuration,
    halt_marker: Option<SimTime>,
    /// The processes under the debug-halt overlay — halted, or with a halt
    /// pending on their way out of the allocator — each with its frozen
    /// timeout (§5.2). A pid is here exactly while its record
    /// [`is_halted`](Process::is_halted), so "is anything halted?" is a
    /// length check, and a record pays nothing for a halt it is not in.
    halts: HashMap<Pid, HaltInfo>,
    /// Pending timer deadlines as a lazy min-heap of `(deadline, pid)`.
    /// Entries are pushed when a process blocks with a deadline (and when
    /// a frozen timeout is re-armed on resume) and validated against the
    /// process table when inspected: an entry is live only while its
    /// process still waits on exactly that deadline and is not halted.
    /// Stale entries (cancelled timers, rewritten deadlines) are popped
    /// and discarded lazily, so deadline queries cost O(log timers)
    /// amortised instead of a process-table scan.
    timers: BinaryHeap<Reverse<(SimTime, Pid)>>,
    /// `expire_timers`' list of due pids, kept between firings for its
    /// allocation; always empty outside that function.
    due_scratch: Vec<Pid>,
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
            procs: Chunked::default(),
            names: Names::default(),
            run_queue: VecDeque::new(),
            sems,
            locks: Vec::new(),
            next_pid: 1,
            next_token: 1,
            rng,
            tracer,
            console: Vec::new(),
            buffers: HashMap::new(),
            outcalls: Vec::new(),
            slice_used: SimDuration::ZERO,
            halt_marker: None,
            halts: HashMap::new(),
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
        if self.tracer.wants(TraceCategory::Clock) {
            self.tracer.emit(
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

    /// The compiled program (shared object code).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Mutable program access — the agent's breakpoint-planting path.
    /// The program is shared across nodes running the same source, so the
    /// first mutation copy-on-writes this node's private copy: planting a
    /// breakpoint on one node never perturbs the others. A patch rewrites
    /// code, never a procedure's name: records named for their procedure
    /// ([`NameId`](crate::NameId)) read the name through this program, and
    /// [`intern_prefixed`](Node::intern_prefixed) caches names built from
    /// it.
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

    /// Total instructions stepped on this node so far (every process,
    /// VM and native). A plain field add on the step path; the world's
    /// metrics read it at sync points.
    pub fn steps_total(&self) -> u64 {
        self.steps_total
    }
}
