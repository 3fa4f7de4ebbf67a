//! The bytecode virtual machine.
//!
//! One [`VmProcess`] is a light-weight Concurrent CLU process: a call stack
//! of [`Frame`]s executing shared per-node code against a shared per-node
//! heap. The VM is deliberately *passive* — it runs only as far as the
//! supervisor lets it and reports the simulated cost — so the Mayflower
//! supervisor retains complete control over scheduling, time, and halting,
//! which is where all the paper's interesting behaviour lives. It has two
//! entry points over one dispatch body: [`step`] executes exactly one
//! instruction, and [`run`] executes a *burst* of plain instructions under
//! a simulated-time budget, stopping before anything the supervisor must
//! see (a system call, an allocation, the end of the budget).
//!
//! Faithful details:
//!
//! * Breakpoints are [`Op::Trap`] opcodes planted over real instructions;
//!   hitting one suspends the process *without* advancing the pc (§5.5).
//! * Allocating instructions execute in two phases while the process is
//!   marked [`VmProcess::in_allocator`], modelling the heap allocator
//!   critical region that must not be halted mid-flight (§5.5).
//! * RPC stub frames carry an information block in a known position
//!   (§4.3, Figure 1), placed there by the RPC runtime.

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::ast::RpcProtocol;
use crate::bytecode::{CodeAddr, Op, OpCost, ProcCode, ProcId, Program};
use crate::value::{format_value, Heap, HeapObject, Value};

/// Maximum call-stack depth before a process faults.
pub const MAX_FRAMES: usize = 512;

/// Why a process stopped executing for good.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Machine-readable kind.
    pub kind: FaultKind,
    /// Human-readable description shown by the debugger.
    pub message: String,
}

/// Categories of run-time failure (the analogue of hardware exceptions,
/// which the paper's agent fields just like breakpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Integer division or modulo by zero.
    DivideByZero,
    /// Array index out of range.
    IndexOutOfRange,
    /// Call stack exceeded [`MAX_FRAMES`].
    StackOverflow,
    /// `fail(msg)` executed.
    Explicit,
    /// A remote call failed in a way the protocol does not mask (e.g. the
    /// callee faulted, or arguments failed the server-side type check).
    RemoteCall,
    /// A CLU signal propagated out of the process's root procedure.
    UncaughtSignal,
    /// Internal inconsistency (compiler bug); never expected.
    Internal,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

/// Protocol state recorded in an RPC information block (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcCallState {
    /// Arguments are being marshalled on the client.
    Marshalling,
    /// The call packet has been transmitted.
    CallSent,
    /// The client has retransmitted the call this many times (exactly-once).
    Retransmitting(u32),
    /// The server is executing the remote procedure.
    ServerExecuting,
    /// The reply packet has been received and is being unmarshalled.
    ReplyReceived,
    /// The call completed successfully.
    Succeeded,
    /// The call failed (timeout, lost packet, or remote fault).
    Failed,
}

impl fmt::Display for RpcCallState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcCallState::Marshalling => f.write_str("marshalling"),
            RpcCallState::CallSent => f.write_str("call sent"),
            RpcCallState::Retransmitting(n) => write!(f, "retransmitting (x{n})"),
            RpcCallState::ServerExecuting => f.write_str("server executing"),
            RpcCallState::ReplyReceived => f.write_str("reply received"),
            RpcCallState::Succeeded => f.write_str("succeeded"),
            RpcCallState::Failed => f.write_str("failed"),
        }
    }
}

/// A `Copy` value that packs into one `u64`, so a [`SyncCell`] can keep it
/// in an atomic word.
pub trait CellWord: Copy {
    /// The value's word.
    fn to_word(self) -> u64;
    /// The value [`to_word`](Self::to_word) packed into `word`.
    fn from_word(word: u64) -> Self;
}

impl CellWord for u32 {
    fn to_word(self) -> u64 {
        u64::from(self)
    }

    fn from_word(word: u64) -> u32 {
        word as u32
    }
}

/// The variant's tag in the high half, `Retransmitting`'s count in the low.
impl CellWord for RpcCallState {
    fn to_word(self) -> u64 {
        let (tag, count) = match self {
            RpcCallState::Marshalling => (0, 0),
            RpcCallState::CallSent => (1, 0),
            RpcCallState::Retransmitting(n) => (2, n),
            RpcCallState::ServerExecuting => (3, 0),
            RpcCallState::ReplyReceived => (4, 0),
            RpcCallState::Succeeded => (5, 0),
            RpcCallState::Failed => (6, 0),
        };
        (tag << 32) | u64::from(count)
    }

    fn from_word(word: u64) -> RpcCallState {
        match word >> 32 {
            0 => RpcCallState::Marshalling,
            1 => RpcCallState::CallSent,
            2 => RpcCallState::Retransmitting(word as u32),
            3 => RpcCallState::ServerExecuting,
            4 => RpcCallState::ReplyReceived,
            5 => RpcCallState::Succeeded,
            _ => RpcCallState::Failed,
        }
    }
}

/// A [`Cell`](std::cell::Cell)-shaped wrapper that is also [`Sync`], so
/// structures shared through [`Arc`] (like [`RpcInfoBlock`]) stay sendable
/// across the parallel-stepping worker threads. The value is one relaxed
/// atomic word: updates happen only in the serial phase of the pump loop,
/// and the pool's hand-off orders them before any worker reads.
pub struct SyncCell<T>(AtomicU64, PhantomData<T>);

impl<T: CellWord> SyncCell<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> SyncCell<T> {
        SyncCell(AtomicU64::new(value.to_word()), PhantomData)
    }

    /// Returns a copy of the contained value.
    pub fn get(&self) -> T {
        T::from_word(self.0.load(Ordering::Relaxed))
    }

    /// Replaces the contained value.
    pub fn set(&self, value: T) {
        self.0.store(value.to_word(), Ordering::Relaxed);
    }
}

impl<T: CellWord + fmt::Debug> fmt::Debug for SyncCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SyncCell").field(&self.get()).finish()
    }
}

/// The "information block" the paper's modified RPC runtime stores at a
/// known position in the client's top stack frame and the server's bottom
/// stack frame (§4.3, Figure 1).
#[derive(Debug)]
pub struct RpcInfoBlock {
    /// Process identifier of the process issuing or serving the call.
    pub process: u64,
    /// Name of the remote procedure.
    pub remote_proc: Arc<str>,
    /// Call identifier, unique per invocation across the network.
    pub call_id: u64,
    /// Which protocol the call uses.
    pub protocol: RpcProtocol,
    /// Current protocol state (shared with the RPC runtime, which updates
    /// it as the call progresses).
    pub state: SyncCell<RpcCallState>,
    /// Number of retransmissions so far.
    pub retries: SyncCell<u32>,
}

// The worker pool moves nodes, and with them their stacks' blocks.
const _: () = {
    const fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<RpcInfoBlock>()
};

/// What role a frame plays, for backtraces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An ordinary procedure activation.
    Normal,
    /// The client-side RPC stub: top of the client stack while a remote
    /// call is in progress (Figure 1, left).
    RpcStub,
    /// The server-side root of a process handling a remote call
    /// (Figure 1, right).
    ServerRoot,
    /// The root of a debugger-initiated procedure invocation (§3).
    AgentInvoke,
}

/// One activation record. It owns no heap memory: its locals are a window
/// of its process's value stack (see [`VmProcess::exit_values`]).
#[derive(Debug)]
pub struct Frame {
    /// Which procedure is executing (meaningless for `RpcStub` frames).
    pub proc: ProcId,
    /// Program counter within the procedure.
    pub pc: u32,
    /// Where the frame's locals start in the value stack.
    pub base: u32,
    /// How many locals the frame has: its arguments until [`Op::Enter`]
    /// runs, the procedure's slot count after.
    pub nlocals: u32,
    /// False until the procedure's entry sequence ([`Op::Enter`]) has
    /// executed — the §5.5 "highest well formed frame" marker.
    pub well_formed: bool,
    /// Role of this frame.
    pub kind: FrameKind,
    /// The RPC information block, present on `RpcStub` and `ServerRoot`
    /// frames. Held in a "known position" exactly as the paper requires.
    pub rpc_info: Option<Arc<RpcInfoBlock>>,
}

impl Frame {
    /// A fresh activation of `proc` whose `nargs` arguments are the values
    /// at `base..` of the value stack.
    fn activation(proc: ProcId, base: usize, nargs: usize) -> Frame {
        Frame {
            proc,
            pc: 0,
            // A value stack holds far fewer than 2^32 values: each frame
            // adds at most 65 535 locals and a bounded operand depth.
            base: base as u32,
            nlocals: nargs as u32,
            well_formed: false,
            kind: FrameKind::Normal,
            rpc_info: None,
        }
    }

    /// The code address this frame is executing.
    pub fn addr(&self) -> CodeAddr {
        CodeAddr {
            proc: self.proc,
            pc: self.pc,
        }
    }

    /// One past the frame's last local: its operand stack (the running
    /// frame's) or its callee's arguments start here.
    fn floor(&self) -> usize {
        self.base as usize + self.nlocals as usize
    }
}

/// A request handed to the runtime when the program executes a remote call.
#[derive(Debug)]
pub struct RpcRequest {
    /// Remote procedure name.
    pub proc_name: Arc<str>,
    /// Argument values (live in the calling node's heap).
    pub args: Vec<Value>,
    /// Destination node id.
    pub node: i64,
    /// Protocol to use.
    pub protocol: RpcProtocol,
    /// Number of declared results.
    pub nrets: u8,
}

/// Reply from a system call: either immediate values to push, or an
/// instruction to block the process (the supervisor resumes it later
/// through [`VmProcess::resume`]).
#[derive(Debug)]
pub enum SysReply {
    /// Continue immediately with these values pushed.
    Val(Vec<Value>),
    /// Block the process; the runtime resumes it later.
    Block,
}

/// The supervisor interface the VM calls for everything that involves
/// scheduling, time, the network, or other processes.
pub trait Syscalls {
    /// The node's *logical* time in milliseconds (§5.2: the delta has
    /// already been subtracted).
    fn now_ms(&mut self) -> i64;
    /// The same clock in microseconds, for native processes that stamp
    /// what they record; programs see only [`now_ms`](Syscalls::now_ms).
    fn now_us(&mut self) -> i64 {
        self.now_ms() * 1_000
    }
    /// The running process's identifier.
    fn pid(&mut self) -> i64;
    /// This node's identifier.
    fn node_id(&mut self) -> i64;
    /// Deterministic pseudo-random integer in `[0, bound)`.
    fn random(&mut self, bound: i64) -> i64;
    /// Console output (redirected to the debugger during agent-initiated
    /// invocations).
    fn print(&mut self, text: &str);
    /// Creates a semaphore with an initial count.
    fn sem_create(&mut self, count: i64) -> u32;
    /// P operation with a timeout in ms (negative = wait forever).
    fn sem_wait(&mut self, sem: u32, timeout_ms: i64) -> SysReply;
    /// V operation.
    fn sem_signal(&mut self, sem: u32);
    /// Creates a monitor lock.
    fn mutex_create(&mut self) -> u32;
    /// Acquires a monitor lock (may block).
    fn mutex_lock(&mut self, m: u32) -> SysReply;
    /// Releases a monitor lock.
    fn mutex_unlock(&mut self, m: u32);
    /// Spawns a new process; returns its pid.
    fn fork(&mut self, proc: ProcId, args: Vec<Value>) -> i64;
    /// Sleeps for `ms` milliseconds.
    fn sleep(&mut self, ms: i64) -> SysReply;
    /// Issues a remote procedure call.
    fn rpc(&mut self, req: RpcRequest) -> SysReply;
}

/// Result of executing one instruction.
#[derive(Debug)]
pub enum StepOutcome {
    /// Executed normally.
    Ran {
        /// Simulated cost in microseconds.
        cost: u64,
    },
    /// The instruction blocked the process (pc already advanced).
    Blocked {
        /// Simulated cost in microseconds.
        cost: u64,
    },
    /// A planted breakpoint was hit; the pc was *not* advanced.
    Trapped {
        /// The agent's breakpoint slot.
        bp: u16,
    },
    /// The root procedure returned; see [`VmProcess::exit_values`].
    Exited {
        /// Simulated cost in microseconds.
        cost: u64,
    },
    /// The process faulted.
    Faulted {
        /// The failure. Boxed to keep the (hot) non-fault outcomes small
        /// enough to return in registers.
        fault: Box<Fault>,
        /// Simulated cost in microseconds.
        cost: u64,
    },
}

/// What one [`run`] burst did.
#[derive(Debug)]
pub struct Burst {
    /// Instructions executed to a plain `Ran`.
    pub ran: u64,
    /// Their summed simulated cost in microseconds, always below the budget.
    pub spent: u64,
    /// The trap, root return or fault that ended the burst, its cost not
    /// in `spent`; `None` when the burst stopped *before* an instruction it
    /// may not run, which the caller then [`step`]s.
    pub end: Option<StepOutcome>,
}

/// Everything a step needs besides the process itself: the node's shared
/// heap, code, globals, and supervisor services.
pub struct ExecEnv<'a> {
    /// Node heap (shared by all processes on the node).
    pub heap: &'a mut Heap,
    /// Node program (shared code; traps are planted here).
    pub program: &'a Program,
    /// Node-global (`own`) variable storage.
    pub globals: &'a mut [Value],
    /// Supervisor services.
    pub sys: &'a mut dyn Syscalls,
}

/// A light-weight process: the VM state only. Scheduling state lives in the
/// supervisor.
#[derive(Debug, Default)]
pub struct VmProcess {
    /// Call stack; last element is the running frame. Popping a frame
    /// keeps the capacity, so calls and returns do not allocate.
    pub frames: Vec<Frame>,
    /// The value stack, one per process: each frame's locals at
    /// `base .. base + nlocals`, and above the running frame's locals its
    /// operand stack. A call leaves its arguments in place as the callee's
    /// first locals; a return moves the results down to the callee's base.
    /// Once the root frame returns, it holds the process's results and
    /// nothing else, which is the only time a reader outside the VM looks
    /// at it directly — hence the name. Read a frame's locals through
    /// [`locals`](VmProcess::locals).
    ///
    /// Sized by need: [`Op::Enter`] reserves the frame's locals plus its
    /// procedure's [`peak_operands`](crate::ProcCode::peak_operands),
    /// exactly for the root frame (a parked process holds no slack) and by
    /// doubling for a nested one (deep recursion copies linearly).
    pub exit_values: Vec<Value>,
    /// True while the process is inside the heap-allocator critical region
    /// (§5.5); the supervisor must let it exit before halting it.
    pub in_allocator: bool,
    /// Set by the agent to execute exactly one instruction in "trace mode"
    /// when stepping a process over a breakpoint (§5.5).
    pub trace_once: bool,
}

impl VmProcess {
    /// Creates a process that will run `proc` with `args`.
    pub fn spawn(proc: ProcId, args: Vec<Value>) -> VmProcess {
        VmProcess {
            frames: vec![Frame::activation(proc, 0, args.len())],
            exit_values: args,
            ..Default::default()
        }
    }

    /// Hands a blocked process the results of the call it blocked in: they
    /// go onto the running frame's operand stack, where the instruction
    /// would have pushed them had it not blocked.
    pub fn resume(&mut self, values: Vec<Value>) {
        self.exit_values.extend(values);
    }

    /// The locals of frame `frame` (0 = the root): its arguments alone
    /// until it has run [`Op::Enter`].
    pub fn locals(&self, frame: usize) -> Option<&[Value]> {
        let f = self.frames.get(frame)?;
        self.exit_values.get(f.base as usize..f.floor())
    }

    /// [`locals`](VmProcess::locals), for writing.
    pub fn locals_mut(&mut self, frame: usize) -> Option<&mut [Value]> {
        let f = self.frames.get(frame)?;
        self.exit_values.get_mut(f.base as usize..f.floor())
    }

    /// Pushes the client-side RPC stub frame (Figure 1, left) over the
    /// running frame, with the information block in its known position.
    /// It has no locals and runs nothing; the runtime pops it with
    /// [`pop_stub`](VmProcess::pop_stub) before resuming the caller.
    pub fn push_stub(&mut self, info: Arc<RpcInfoBlock>) {
        let proc = self.top().map_or(ProcId(0), |f| f.proc);
        let mut stub = Frame::activation(proc, self.exit_values.len(), 0);
        stub.kind = FrameKind::RpcStub;
        stub.well_formed = true;
        stub.rpc_info = Some(info);
        self.frames.push(stub);
    }

    /// Pops the top frame if it is an RPC stub.
    pub fn pop_stub(&mut self) {
        if self.top().is_some_and(|f| f.kind == FrameKind::RpcStub) {
            self.frames.pop();
        }
    }

    /// The currently executing frame.
    pub fn top(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// The current code address, if the process has a running frame.
    pub fn addr(&self) -> Option<CodeAddr> {
        self.top().map(|f| f.addr())
    }

    /// The highest *well-formed* frame index, per §5.5: debuggers examining
    /// a stack at an arbitrary moment must skip partially constructed
    /// frames at the top.
    pub fn highest_well_formed(&self) -> Option<usize> {
        self.frames.iter().rposition(|f| f.well_formed)
    }
}

/// Cost of the second (commit) phase of an allocating instruction.
const ALLOC_COMMIT_COST: u64 = 10;

#[cold]
#[inline(never)]
fn fault(kind: FaultKind, message: impl Into<String>, cost: u64) -> StepOutcome {
    StepOutcome::Faulted {
        fault: Box::new(Fault {
            kind,
            message: message.into(),
        }),
        cost,
    }
}

/// Out-of-line constructor for operand-type faults so the `format!`
/// machinery is not expanded at every `pop_int!`/`pop_bool!` site in the
/// hot dispatch loop.
#[cold]
#[inline(never)]
fn type_fault(expected: &str, found: &Value, cost: u64) -> StepOutcome {
    fault(
        FaultKind::Internal,
        format!("expected {expected} on stack, found {found}"),
        cost,
    )
}

/// The fault for an instruction that wants more operands than the running
/// frame's operand stack holds.
fn underflow(cost: u64) -> StepOutcome {
    fault(FaultKind::Internal, "operand stack underflow", cost)
}

/// Pops the running frame's top operand; `None` when its operand stack —
/// everything above `floor` — is empty, so a pop never takes a local.
#[inline(always)]
fn pop_operand(values: &mut Vec<Value>, floor: usize) -> Option<Value> {
    if values.len() > floor {
        values.pop()
    } else {
        None
    }
}

/// Where the running frame's top `n` operands start; `None` when its
/// operand stack holds fewer.
#[inline(always)]
fn operands_at(values: &[Value], floor: usize, n: usize) -> Option<usize> {
    values.len().checked_sub(n).filter(|&at| at >= floor)
}

/// The running frame's procedure, the instruction at its pc and its
/// cost-table entry; `None` when `p` has no frame or its pc is out of
/// range.
#[inline(always)]
fn fetch<'a>(p: &VmProcess, program: &'a Program) -> Option<(&'a ProcCode, &'a Op, OpCost)> {
    let frame = p.frames.last()?;
    let code = program.procs.get(frame.proc.0 as usize)?;
    let pc = frame.pc as usize;
    Some((code, code.code.get(pc)?, *code.costs.get(pc)?))
}

/// Makes room for `need` values on a value stack: exactly that for a root
/// frame, by doubling for a nested one. Out of line: a call finds its
/// room already there but for the first time it reaches a depth.
#[cold]
#[inline(never)]
fn grow_stack(values: &mut Vec<Value>, need: usize, root: bool) {
    let more = need - values.len();
    if root {
        values.reserve_exact(more);
    } else {
        values.reserve(more);
    }
}

/// The fault for a [`fetch`] that found nothing.
#[cold]
#[inline(never)]
fn fetch_fault(p: &VmProcess) -> StepOutcome {
    match p.addr() {
        Some(addr) => fault(FaultKind::Internal, format!("pc out of range at {addr}"), 0),
        None => fault(FaultKind::Internal, "process has no frames", 0),
    }
}

/// Executes one instruction of `p`.
///
/// The caller (the supervisor) is responsible for only stepping processes
/// it considers runnable, for applying the returned cost to the node clock,
/// and for honouring trap/fault outcomes.
///
/// The dispatch is zero-clone: the instruction executes as a borrowed
/// [`&Op`](Op) out of the program (copying `env.program`, a shared
/// reference, keeps the op borrow independent of `env`'s mutable fields),
/// and cost/allocation metadata comes from the
/// [`ProcCode::costs`](crate::ProcCode) side table instead of matching on
/// the op. The hot instructions execute in the dispatch body [`run`]
/// shares, so no instruction's semantics exist twice.
pub fn step(p: &mut VmProcess, env: &mut ExecEnv<'_>) -> StepOutcome {
    let program = env.program;
    let Some((code, op, meta)) = fetch(p, program) else {
        return fetch_fault(p);
    };

    // Two-phase allocation: the first visit marks the process inside the
    // allocator critical region and does not advance the pc; the second
    // visit commits the allocation.
    if meta.allocates && !p.in_allocator {
        p.in_allocator = true;
        return StepOutcome::Ran {
            cost: u64::from(meta.cost),
        };
    }
    let cost = if meta.allocates {
        p.in_allocator = false;
        ALLOC_COMMIT_COST
    } else {
        u64::from(meta.cost)
    };
    match dispatch_hot(op, cost, p, code, env.globals) {
        Hot::Ran => StepOutcome::Ran { cost },
        Hot::End(end) => end,
        Hot::Cold => step_cold(op, p, env, cost),
    }
}

/// Executes `p`'s instructions back to back while each is hot and ends
/// strictly inside `budget_us` simulated microseconds: `spent + cost <
/// budget_us`, the cost read from the cost table before dispatch.
///
/// The burst stops *before* the first instruction that breaks that rule —
/// a system call or other cold instruction, an allocating one (every one
/// is cold, so a burst never enters the allocator critical region), or
/// one that would reach the budget — with its pc and value stack
/// untouched, so the caller can [`step`] it with the clock advanced by
/// `spent`. A trap, a root return or a fault that a hot instruction
/// produces ends the burst as [`Burst::end`]. A budget of 0, or one no
/// larger than the first instruction's cost, executes nothing.
///
/// `#[inline]` lets the supervisor's burst loop absorb the call: a burst
/// of a few instructions (an RPC stub's, a sleeper's) pays the call and
/// the returned `Burst` once per burst.
#[inline]
pub fn run(p: &mut VmProcess, env: &mut ExecEnv<'_>, budget_us: u64) -> Burst {
    let program = env.program;
    let mut burst = Burst {
        ran: 0,
        spent: 0,
        end: None,
    };
    while let Some((code, op, meta)) = fetch(p, program) {
        let cost = u64::from(meta.cost);
        // `spent < budget_us` holds throughout, so the difference is exact.
        if cost >= budget_us - burst.spent {
            break;
        }
        match dispatch_hot(op, cost, p, code, env.globals) {
            Hot::Ran => {
                burst.ran += 1;
                burst.spent += cost;
            }
            Hot::End(end) => {
                burst.end = Some(end);
                break;
            }
            Hot::Cold => break,
        }
    }
    burst
}

/// What the hot half of the dispatch made of one instruction.
enum Hot {
    /// Executed to a plain `Ran`; the pc has moved on.
    Ran,
    /// Ended the process's run: a trap (pc unadvanced), a root return or a
    /// fault.
    End(StepOutcome),
    /// Not a hot instruction; nothing was touched.
    Cold,
}

/// The dispatch body [`step`] and [`run`] share: executes `op`, priced at
/// `cost`, when it is one of the statically hot instructions, and leaves
/// everything else to [`step_cold`]. `code` is the running frame's
/// procedure, which [`fetch`] read `op` from.
#[inline(always)]
fn dispatch_hot(
    op: &Op,
    cost: u64,
    p: &mut VmProcess,
    code: &ProcCode,
    globals: &mut [Value],
) -> Hot {
    let depth = p.frames.len();
    let Some(frame) = p.frames.last_mut() else {
        return Hot::Cold;
    };
    let values = &mut p.exit_values;
    let floor = frame.floor();

    macro_rules! pop {
        () => {
            match pop_operand(values, floor) {
                Some(v) => v,
                None => return Hot::End(underflow(cost)),
            }
        };
    }
    macro_rules! pop_int {
        () => {
            match pop!() {
                Value::Int(v) => v,
                other => return Hot::End(type_fault("int", &other, cost)),
            }
        };
    }
    macro_rules! pop_bool {
        () => {
            match pop!() {
                Value::Bool(v) => v,
                other => return Hot::End(type_fault("bool", &other, cost)),
            }
        };
    }
    macro_rules! push {
        ($v:expr) => {
            values.push($v)
        };
    }
    macro_rules! advance {
        () => {
            frame.pc += 1
        };
    }
    match op {
        Op::Trap(bp) => return Hot::End(StepOutcome::Trapped { bp: *bp }),
        Op::Nop => {
            advance!();
        }
        Op::PushInt(v) => {
            push!(Value::Int(*v));
            advance!();
        }
        Op::PushBool(v) => {
            push!(Value::Bool(*v));
            advance!();
        }
        Op::PushNull => {
            push!(Value::Null);
            advance!();
        }
        Op::Pop(n) => {
            for _ in 0..*n {
                let _ = pop!();
            }
            advance!();
        }
        // The verifier keeps every slot below the procedure's `nlocals`.
        Op::LoadLocal(slot) => {
            let v = values[frame.base as usize + usize::from(*slot)].clone();
            push!(v);
            advance!();
        }
        Op::StoreLocal(slot) => {
            let v = pop!();
            values[frame.base as usize + usize::from(*slot)] = v;
            advance!();
        }
        Op::LoadGlobal(slot) => {
            let v = globals[*slot as usize].clone();
            push!(v);
            advance!();
        }
        Op::StoreGlobal(slot) => {
            let v = pop!();
            globals[*slot as usize] = v;
            advance!();
        }
        Op::Add => {
            let b = pop_int!();
            let a = pop_int!();
            push!(Value::Int(a.wrapping_add(b)));
            advance!();
        }
        Op::Sub => {
            let b = pop_int!();
            let a = pop_int!();
            push!(Value::Int(a.wrapping_sub(b)));
            advance!();
        }
        Op::Mul => {
            let b = pop_int!();
            let a = pop_int!();
            push!(Value::Int(a.wrapping_mul(b)));
            advance!();
        }
        Op::Neg => {
            let a = pop_int!();
            push!(Value::Int(a.wrapping_neg()));
            advance!();
        }
        Op::Lt | Op::Le | Op::Gt | Op::Ge => {
            let b = pop_int!();
            let a = pop_int!();
            let r = match op {
                Op::Lt => a < b,
                Op::Le => a <= b,
                Op::Gt => a > b,
                _ => a >= b,
            };
            push!(Value::Bool(r));
            advance!();
        }
        Op::CmpEq | Op::CmpNe => {
            let b = pop!();
            let a = pop!();
            let eq = match (&a, &b) {
                (Value::Int(x), Value::Int(y)) => x == y,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Str(x), Value::Str(y)) => x == y,
                _ => {
                    let why = format!("compare of {a} and {b}");
                    return Hot::End(fault(FaultKind::Internal, why, cost));
                }
            };
            push!(Value::Bool(if matches!(op, Op::CmpEq) { eq } else { !eq }));
            advance!();
        }
        Op::Not => {
            let a = pop_bool!();
            push!(Value::Bool(!a));
            advance!();
        }
        Op::Jump(t) => {
            frame.pc = *t;
        }
        Op::JumpIfFalse(t) => {
            let c = pop_bool!();
            if c {
                advance!();
            } else {
                frame.pc = *t;
            }
        }
        Op::JumpIfTrue(t) => {
            let c = pop_bool!();
            if c {
                frame.pc = *t;
            } else {
                advance!();
            }
        }
        Op::Call { proc, nargs } => {
            if depth >= MAX_FRAMES {
                return Hot::End(fault(
                    FaultKind::StackOverflow,
                    "call stack exhausted",
                    cost,
                ));
            }
            let Some(at) = operands_at(values, floor, usize::from(*nargs)) else {
                return Hot::End(underflow(cost));
            };
            frame.pc += 1; // return continues after the call
            let callee = Frame::activation(*proc, at, usize::from(*nargs));
            // The arguments stay where they are, as the callee's first locals.
            p.frames.push(callee);
        }
        Op::Enter { nlocals } => {
            // Runs first in a fresh frame, whose operand stack is empty.
            // Room for the locals and the procedure's peak operand depth
            // (see `VmProcess::exit_values`); the peak is a hint, and a
            // push past it grows the stack as any push does.
            let top = frame.base as usize + usize::from(*nlocals);
            let need = top + code.peak_operands as usize;
            if need > values.capacity() {
                grow_stack(values, need, depth == 1);
            }
            values.resize(top, Value::Null);
            frame.nlocals = u32::from(*nlocals);
            frame.well_formed = true;
            frame.pc += 1;
        }
        Op::Ret { nvals } => {
            let Some(at) = operands_at(values, floor, usize::from(*nvals)) else {
                return Hot::End(underflow(cost));
            };
            // The results move down over the frame's locals and leftovers.
            values.drain(frame.base as usize..at);
            p.frames.pop();
            if p.frames.is_empty() {
                // The process is done: it keeps its results and nothing else.
                values.shrink_to_fit();
                p.frames = Vec::new();
                return Hot::End(StepOutcome::Exited { cost });
            }
        }
        // Everything else is comparatively rare (heap traffic, strings,
        // syscalls): it lives in a separate non-inlined handler so the hot
        // dispatch loop above stays small enough to be cache-resident.
        _ => return Hot::Cold,
    }
    Hot::Ran
}

/// The cold half of [`step`]: heap-touching, string-building, and
/// syscall-issuing instructions. `#[inline(never)]` keeps their (large)
/// bodies — fault `format!`s, marshalling, `dyn Syscalls` plumbing — out
/// of the hot dispatch loop's instruction footprint.
#[inline(never)]
fn step_cold(op: &Op, p: &mut VmProcess, env: &mut ExecEnv<'_>, cost: u64) -> StepOutcome {
    let program = env.program;
    let frame = p.frames.last_mut().expect("step checked the frame");
    let values = &mut p.exit_values;
    let floor = frame.floor();

    macro_rules! pop {
        () => {
            match pop_operand(values, floor) {
                Some(v) => v,
                None => return underflow(cost),
            }
        };
    }
    macro_rules! pop_int {
        () => {
            match pop!() {
                Value::Int(v) => v,
                other => return type_fault("int", &other, cost),
            }
        };
    }
    macro_rules! push {
        ($v:expr) => {
            values.push($v)
        };
    }
    macro_rules! take {
        ($n:expr) => {
            match operands_at(values, floor, $n) {
                Some(at) => values.drain(at..).collect::<Vec<_>>(),
                None => return underflow(cost),
            }
        };
    }
    macro_rules! advance {
        () => {
            frame.pc += 1
        };
    }
    macro_rules! sysreply {
        ($r:expr) => {
            match $r {
                SysReply::Val(vals) => {
                    values.extend(vals);
                    advance!();
                    StepOutcome::Ran { cost }
                }
                SysReply::Block => {
                    advance!();
                    StepOutcome::Blocked { cost }
                }
            }
        };
    }

    match op {
        Op::PushStr(s) => {
            push!(Value::Str(s.clone()));
            advance!();
        }
        Op::LoadField(idx) => {
            let r = match pop!() {
                Value::Ref(r) => r,
                other => {
                    return fault(
                        FaultKind::Internal,
                        format!("field access on {other}"),
                        cost,
                    )
                }
            };
            let v = match env.heap.get(r) {
                HeapObject::Record { fields, .. } => fields[*idx as usize].clone(),
                HeapObject::Array(_) => {
                    return fault(FaultKind::Internal, "field access on array", cost)
                }
            };
            push!(v);
            advance!();
        }
        Op::StoreField(idx) => {
            let v = pop!();
            let r = match pop!() {
                Value::Ref(r) => r,
                other => {
                    return fault(FaultKind::Internal, format!("field store on {other}"), cost)
                }
            };
            match env.heap.get_mut(r) {
                HeapObject::Record { fields, .. } => fields[*idx as usize] = v,
                HeapObject::Array(_) => {
                    return fault(FaultKind::Internal, "field store on array", cost)
                }
            }
            advance!();
        }
        Op::LoadIndex => {
            let i = pop_int!();
            let r = match pop!() {
                Value::Ref(r) => r,
                other => return fault(FaultKind::Internal, format!("index on {other}"), cost),
            };
            let v = match env.heap.get(r) {
                HeapObject::Array(items) => {
                    if i < 0 || i as usize >= items.len() {
                        return fault(
                            FaultKind::IndexOutOfRange,
                            format!("index {i} out of range (length {})", items.len()),
                            cost,
                        );
                    }
                    items[i as usize].clone()
                }
                HeapObject::Record { .. } => {
                    return fault(FaultKind::Internal, "index on record", cost)
                }
            };
            push!(v);
            advance!();
        }
        Op::StoreIndex => {
            let v = pop!();
            let i = pop_int!();
            let r = match pop!() {
                Value::Ref(r) => r,
                other => {
                    return fault(FaultKind::Internal, format!("index store on {other}"), cost)
                }
            };
            match env.heap.get_mut(r) {
                HeapObject::Array(items) => {
                    if i < 0 || i as usize >= items.len() {
                        return fault(
                            FaultKind::IndexOutOfRange,
                            format!("index {i} out of range (length {})", items.len()),
                            cost,
                        );
                    }
                    items[i as usize] = v;
                }
                HeapObject::Record { .. } => {
                    return fault(FaultKind::Internal, "index store on record", cost)
                }
            }
            advance!();
        }
        Op::NewRecord { type_id, nfields } => {
            let fields = take!(usize::from(*nfields));
            let type_name = program.records[*type_id as usize].name.clone();
            let r = env.heap.alloc(HeapObject::Record { type_name, fields });
            push!(Value::Ref(r));
            advance!();
        }
        Op::NewArray => {
            let r = env.heap.alloc(HeapObject::Array(Vec::new()));
            push!(Value::Ref(r));
            advance!();
        }
        Op::Append => {
            let v = pop!();
            let r = match pop!() {
                Value::Ref(r) => r,
                other => return fault(FaultKind::Internal, format!("append on {other}"), cost),
            };
            match env.heap.get_mut(r) {
                HeapObject::Array(items) => items.push(v),
                HeapObject::Record { .. } => {
                    return fault(FaultKind::Internal, "append on record", cost)
                }
            }
            advance!();
        }
        Op::Len => {
            let r = match pop!() {
                Value::Ref(r) => r,
                other => return fault(FaultKind::Internal, format!("len on {other}"), cost),
            };
            let n = match env.heap.get(r) {
                HeapObject::Array(items) => items.len() as i64,
                HeapObject::Record { .. } => {
                    return fault(FaultKind::Internal, "len on record", cost)
                }
            };
            push!(Value::Int(n));
            advance!();
        }
        Op::Div => {
            let b = pop_int!();
            let a = pop_int!();
            if b == 0 {
                return fault(FaultKind::DivideByZero, format!("{a} / 0"), cost);
            }
            push!(Value::Int(a.wrapping_div(b)));
            advance!();
        }
        Op::Mod => {
            let b = pop_int!();
            let a = pop_int!();
            if b == 0 {
                return fault(FaultKind::DivideByZero, format!("{a} // 0"), cost);
            }
            push!(Value::Int(a.wrapping_rem(b)));
            advance!();
        }
        Op::Concat => {
            let b = pop!();
            let a = pop!();
            match (a, b) {
                (Value::Str(a), Value::Str(b)) => {
                    push!(Value::Str(format!("{a}{b}").into()));
                }
                (a, b) => {
                    return fault(FaultKind::Internal, format!("concat of {a} and {b}"), cost)
                }
            }
            advance!();
        }
        Op::Fork { proc, nargs } => {
            let args = take!(usize::from(*nargs));
            let pid = env.sys.fork(*proc, args);
            push!(Value::Int(pid));
            advance!();
        }
        Op::Rpc {
            name_idx,
            nargs,
            nrets,
            protocol,
        } => {
            let node = match pop_operand(values, floor) {
                Some(Value::Int(n)) => n,
                other => {
                    return fault(FaultKind::Internal, format!("bad rpc node {other:?}"), cost)
                }
            };
            let args = take!(usize::from(*nargs));
            let proc_name = program.rpc_names[*name_idx as usize].clone();
            advance!();
            let reply = env.sys.rpc(RpcRequest {
                proc_name,
                args,
                node,
                protocol: *protocol,
                nrets: *nrets,
            });
            return match reply {
                SysReply::Val(vals) => {
                    values.extend(vals);
                    StepOutcome::Ran { cost }
                }
                SysReply::Block => StepOutcome::Blocked { cost },
            };
        }
        Op::SemCreate => {
            let n = pop_int!();
            let id = env.sys.sem_create(n);
            push!(Value::Sem(id));
            advance!();
        }
        Op::SemWait => {
            let timeout = pop_int!();
            let sem = match pop!() {
                Value::Sem(id) => id,
                other => return fault(FaultKind::Internal, format!("sem$wait on {other}"), cost),
            };
            let r = env.sys.sem_wait(sem, timeout);
            return sysreply!(r);
        }
        Op::SemSignal => {
            let sem = match pop!() {
                Value::Sem(id) => id,
                other => return fault(FaultKind::Internal, format!("sem$signal on {other}"), cost),
            };
            env.sys.sem_signal(sem);
            advance!();
        }
        Op::MutexCreate => {
            let id = env.sys.mutex_create();
            push!(Value::Mutex(id));
            advance!();
        }
        Op::MutexLock => {
            let m = match pop!() {
                Value::Mutex(id) => id,
                other => return fault(FaultKind::Internal, format!("mutex$lock on {other}"), cost),
            };
            let r = env.sys.mutex_lock(m);
            return sysreply!(r);
        }
        Op::MutexUnlock => {
            let m = match pop!() {
                Value::Mutex(id) => id,
                other => {
                    return fault(
                        FaultKind::Internal,
                        format!("mutex$unlock on {other}"),
                        cost,
                    )
                }
            };
            env.sys.mutex_unlock(m);
            advance!();
        }
        Op::Sleep => {
            let ms = pop_int!();
            if ms <= 0 {
                advance!();
            } else {
                let r = env.sys.sleep(ms);
                return sysreply!(r);
            }
        }
        Op::Now => {
            let t = env.sys.now_ms();
            push!(Value::Int(t));
            advance!();
        }
        Op::Pid => {
            let v = env.sys.pid();
            push!(Value::Int(v));
            advance!();
        }
        Op::MyNode => {
            let v = env.sys.node_id();
            push!(Value::Int(v));
            advance!();
        }
        Op::Random => {
            let bound = pop_int!();
            if bound <= 0 {
                return fault(FaultKind::Internal, "random bound must be positive", cost);
            }
            let v = env.sys.random(bound);
            push!(Value::Int(v));
            advance!();
        }
        Op::Print => {
            let v = pop!();
            let text = match &v {
                Value::Str(s) => s.to_string(),
                other => format_value(env.heap, other),
            };
            env.sys.print(&text);
            advance!();
        }
        Op::Unparse => {
            let v = pop_int!();
            push!(Value::Str(v.to_string().into()));
            advance!();
        }
        Op::Fail => {
            let msg = match pop!() {
                Value::Str(s) => s.to_string(),
                other => format!("{other}"),
            };
            return fault(FaultKind::Explicit, msg, cost);
        }
        Op::Signal(idx) => {
            return raise_signal(p, env, *idx, cost);
        }
        _ => unreachable!("hot instruction routed to step_cold"),
    }
    StepOutcome::Ran { cost }
}

/// Raises a CLU signal: unwind frames until a handler region covering the
/// active pc names the signal, or fault the process when none does.
fn raise_signal(p: &mut VmProcess, env: &ExecEnv<'_>, idx: u16, cost: u64) -> StepOutcome {
    let name = env
        .program
        .signal_names
        .get(idx as usize)
        .cloned()
        .unwrap_or_else(|| "?".into());
    let mut top = true;
    while let Some(frame) = p.frames.last_mut() {
        // Runtime-synthesized frames (RPC stubs) never hold user handlers.
        let is_user_frame = matches!(frame.kind, FrameKind::Normal | FrameKind::ServerRoot)
            || frame.kind == FrameKind::AgentInvoke;
        if is_user_frame {
            // In the raising frame the pc is *at* the Signal instruction;
            // in every caller frame the pc has already advanced past the
            // protected call, so the active instruction is pc − 1.
            let check_pc = if top {
                frame.pc
            } else {
                frame.pc.saturating_sub(1)
            };
            let handler = env
                .program
                .procs
                .get(frame.proc.0 as usize)
                .and_then(|code| {
                    code.handlers
                        .iter()
                        .filter(|h| {
                            h.from_pc <= check_pc && check_pc < h.to_pc && h.signals.contains(&idx)
                        })
                        .max_by_key(|h| h.from_pc)
                });
            if let Some(h) = handler {
                // The handler keeps its frame's locals and starts on an
                // empty operand stack; every frame above it is gone.
                p.exit_values.truncate(frame.floor());
                frame.pc = h.handler_pc;
                return StepOutcome::Ran { cost };
            }
        }
        p.frames.pop();
        top = false;
    }
    p.exit_values.clear();
    fault(
        FaultKind::UncaughtSignal,
        format!("uncaught signal `{name}`"),
        cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;

    /// A minimal single-process harness: semaphores are plain counters,
    /// blocking never happens (timeouts "expire" immediately when the count
    /// is zero), and RPC is unsupported. Good enough to test sequential
    /// language semantics; concurrency semantics are tested in the
    /// supervisor crate.
    #[derive(Default)]
    struct TestSys {
        prints: Vec<String>,
        sems: Vec<i64>,
        time_ms: i64,
        forks: Vec<(ProcId, Vec<Value>)>,
    }

    impl Syscalls for TestSys {
        fn now_ms(&mut self) -> i64 {
            self.time_ms
        }
        fn pid(&mut self) -> i64 {
            7
        }
        fn node_id(&mut self) -> i64 {
            3
        }
        fn random(&mut self, bound: i64) -> i64 {
            bound - 1
        }
        fn print(&mut self, text: &str) {
            self.prints.push(text.to_string());
        }
        fn sem_create(&mut self, count: i64) -> u32 {
            self.sems.push(count);
            (self.sems.len() - 1) as u32
        }
        fn sem_wait(&mut self, sem: u32, _timeout_ms: i64) -> SysReply {
            let c = &mut self.sems[sem as usize];
            if *c > 0 {
                *c -= 1;
                SysReply::Val(vec![Value::Bool(true)])
            } else {
                SysReply::Val(vec![Value::Bool(false)])
            }
        }
        fn sem_signal(&mut self, sem: u32) {
            self.sems[sem as usize] += 1;
        }
        fn mutex_create(&mut self) -> u32 {
            0
        }
        fn mutex_lock(&mut self, _m: u32) -> SysReply {
            SysReply::Val(vec![])
        }
        fn mutex_unlock(&mut self, _m: u32) {}
        fn fork(&mut self, proc: ProcId, args: Vec<Value>) -> i64 {
            self.forks.push((proc, args));
            100 + self.forks.len() as i64
        }
        fn sleep(&mut self, ms: i64) -> SysReply {
            self.time_ms += ms;
            SysReply::Val(vec![])
        }
        fn rpc(&mut self, _req: RpcRequest) -> SysReply {
            panic!("rpc not supported in TestSys");
        }
    }

    struct Finished {
        prints: Vec<String>,
        exit_values: Vec<Value>,
        fault: Option<Fault>,
        steps: u64,
        cost: u64,
    }

    fn run(source: &str, entry: &str, args: Vec<Value>) -> Finished {
        let program = compile(source).expect("compile");
        let mut heap = Heap::new();
        let mut sys = TestSys::default();
        let mut globals: Vec<Value> = program
            .globals
            .iter()
            .map(|g| match &g.init {
                crate::bytecode::GlobalInit::Literal(v) => v.clone(),
                crate::bytecode::GlobalInit::EmptyArray => {
                    Value::Ref(heap.alloc(HeapObject::Array(Vec::new())))
                }
                crate::bytecode::GlobalInit::Semaphore(n) => {
                    sys.sems.push(*n);
                    Value::Sem((sys.sems.len() - 1) as u32)
                }
            })
            .collect();
        let id = program.proc_by_name(entry).expect("entry proc");
        let mut p = VmProcess::spawn(id, args);
        let mut steps = 0u64;
        let mut total = 0u64;
        loop {
            let mut env = ExecEnv {
                heap: &mut heap,
                program: &program,
                globals: &mut globals,
                sys: &mut sys,
            };
            steps += 1;
            assert!(steps < 2_000_000, "runaway program");
            match step(&mut p, &mut env) {
                StepOutcome::Ran { cost } | StepOutcome::Blocked { cost } => total += cost,
                StepOutcome::Exited { cost } => {
                    total += cost;
                    return Finished {
                        prints: sys.prints,
                        exit_values: p.exit_values,
                        fault: None,
                        steps,
                        cost: total,
                    };
                }
                StepOutcome::Faulted { fault, cost } => {
                    total += cost;
                    return Finished {
                        prints: sys.prints,
                        exit_values: vec![],
                        fault: Some(*fault),
                        steps,
                        cost: total,
                    };
                }
                StepOutcome::Trapped { .. } => panic!("unexpected trap"),
            }
        }
    }

    /// A parked process keeps its frames, so a frame is priced: `proc`
    /// (2), `pc`, `base` and `nlocals` (4 each), `well_formed` and `kind`
    /// (1 each) and `rpc_info` (8, through `Arc`'s null niche). It owns no
    /// heap memory.
    #[test]
    fn a_frame_fits_in_24_bytes() {
        assert!(std::mem::size_of::<Frame>() <= 24);
    }

    /// Every call state, the retry count's extremes included, comes back
    /// out of its word and out of a cell unchanged.
    #[test]
    fn a_call_state_round_trips_through_its_word() {
        let states = [
            RpcCallState::Marshalling,
            RpcCallState::CallSent,
            RpcCallState::Retransmitting(0),
            RpcCallState::Retransmitting(1),
            RpcCallState::Retransmitting(u32::MAX),
            RpcCallState::ServerExecuting,
            RpcCallState::ReplyReceived,
            RpcCallState::Succeeded,
            RpcCallState::Failed,
        ];
        let cell = SyncCell::new(RpcCallState::Marshalling);
        for (i, &s) in states.iter().enumerate() {
            assert_eq!(RpcCallState::from_word(s.to_word()), s);
            let earlier = &states[..i];
            assert!(earlier.iter().all(|o| o.to_word() != s.to_word()), "{s:?}");
            cell.set(s);
            assert_eq!(cell.get(), s);
        }
        let retries = SyncCell::new(u32::MAX);
        assert_eq!(retries.get(), u32::MAX);
        retries.set(0);
        assert_eq!(retries.get(), 0);
    }

    #[test]
    fn arithmetic_and_printing() {
        let f = run(
            "main = proc ()\n x: int := 6 * 7\n print(x)\n print(\"done\")\nend",
            "main",
            vec![],
        );
        assert_eq!(f.prints, vec!["42", "done"]);
        assert!(f.fault.is_none());
        assert!(f.cost > 0);
    }

    #[test]
    fn control_flow_loops() {
        let f = run(
            "main = proc ()\n t: int := 0\n for i: int := 1 to 10 do\n t := t + i\n end\n\
             while t > 50 do\n t := t - 3\n end\n print(t)\nend",
            "main",
            vec![],
        );
        assert_eq!(f.prints, vec!["49"]);
    }

    #[test]
    fn procedures_and_recursion() {
        let f = run(
            "fib = proc (n: int) returns (int)\n if n < 2 then\n return (n)\n end\n\
             return (fib(n - 1) + fib(n - 2))\nend\n\
             main = proc () returns (int)\n return (fib(10))\nend",
            "main",
            vec![],
        );
        assert_eq!(f.exit_values, vec![Value::Int(55)]);
    }

    #[test]
    fn records_arrays_and_strings() {
        let f = run(
            "point = record[x: int, y: int]\n\
             main = proc ()\n\
             p: point := point${x: 3, y: 4}\n\
             p.x := p.x + 1\n\
             xs: array[int] := array$new()\n\
             append(xs, p.x)\n append(xs, p.y)\n\
             xs[0] := xs[0] * 10\n\
             print(xs)\n\
             print(\"len=\" || int$unparse(len(xs)))\n\
             print(p)\n\
             end",
            "main",
            vec![],
        );
        assert_eq!(f.prints, vec!["[40, 4]", "len=2", "point${4, 4}"]);
    }

    #[test]
    fn user_print_op_is_used() {
        let f = run(
            "point = record[x: int, y: int]\n\
             print_point = proc (p: point) returns (string)\n\
               return (\"(\" || int$unparse(p.x) || \", \" || int$unparse(p.y) || \")\")\n\
             end\n\
             main = proc ()\n p: point := point${x: 1, y: 2}\n print(p)\nend",
            "main",
            vec![],
        );
        assert_eq!(f.prints, vec!["(1, 2)"]);
    }

    #[test]
    fn divide_by_zero_faults() {
        let f = run("main = proc ()\n x: int := 1 / 0\nend", "main", vec![]);
        let fault = f.fault.unwrap();
        assert_eq!(fault.kind, FaultKind::DivideByZero);
    }

    #[test]
    fn index_out_of_range_faults() {
        let f = run(
            "main = proc ()\n xs: array[int] := array$new()\n print(xs[3])\nend",
            "main",
            vec![],
        );
        assert_eq!(f.fault.unwrap().kind, FaultKind::IndexOutOfRange);
    }

    #[test]
    fn explicit_fail_faults() {
        let f = run("main = proc ()\n fail(\"kaboom\")\nend", "main", vec![]);
        let fault = f.fault.unwrap();
        assert_eq!(fault.kind, FaultKind::Explicit);
        assert_eq!(fault.message, "kaboom");
    }

    #[test]
    fn stack_overflow_faults() {
        let f = run(
            "r = proc (n: int) returns (int)\n return (r(n + 1))\nend\n\
             main = proc ()\n x: int := r(0)\nend",
            "main",
            vec![],
        );
        assert_eq!(f.fault.unwrap().kind, FaultKind::StackOverflow);
        // The call that would make frame 513 faults: main's three
        // instructions, five per `r` frame, and the faulting call, as
        // when every frame owned its own locals and operand stack.
        assert_eq!((f.steps, f.cost), (2_558, 12_284));
    }

    /// Steps `p` until the top frame is about to run `op`; returns how many
    /// instructions that took and what they cost.
    fn step_to(p: &mut VmProcess, env: &mut ExecEnv<'_>, op: fn(&Op) -> bool) -> (u64, u64) {
        let (mut ran, mut spent) = (0, 0);
        for _ in 0..1_000 {
            let at = p.addr().expect("a running frame");
            if op(&env.program.proc(at.proc).code[at.pc as usize]) {
                return (ran, spent);
            }
            match step(p, env) {
                StepOutcome::Ran { cost } => {
                    ran += 1;
                    spent += cost;
                }
                other => panic!("{other:?} before the op"),
            }
        }
        panic!("the op never came up");
    }

    /// An operand pop on an empty operand stack faults, as it did when
    /// each frame had its own: it never takes the local just below.
    #[test]
    fn operand_underflow_faults_without_reading_a_local() {
        let mut program = compile("main = proc (a: int, b: int)\n x: int := a + b\nend").unwrap();
        let main = program.proc_by_name("main").unwrap();
        // Drop both operand pushes: `Add` finds `a` and `b` only as locals.
        for pc in 0..program.proc(main).code.len() as u32 {
            let addr = CodeAddr { proc: main, pc };
            if matches!(program.proc(main).code[pc as usize], Op::LoadLocal(_)) {
                program.replace_op(addr, Op::Nop);
            }
        }
        let mut heap = Heap::new();
        let mut sys = TestSys::default();
        let mut env = ExecEnv {
            heap: &mut heap,
            program: &program,
            globals: &mut [],
            sys: &mut sys,
        };
        let mut p = VmProcess::spawn(main, vec![Value::Int(3), Value::Int(4)]);
        step_to(&mut p, &mut env, |op| matches!(op, Op::Add));
        let StepOutcome::Faulted { fault, cost } = step(&mut p, &mut env) else {
            panic!("underflow must fault");
        };
        assert_eq!(
            (fault.kind, fault.message.as_str(), cost),
            (FaultKind::Internal, "operand stack underflow", 2)
        );
        assert_eq!(
            p.locals(0).unwrap(),
            [Value::Int(3), Value::Int(4), Value::Null]
        );
    }

    /// A signal caught two frames up unwinds both frames above the
    /// handler's: the handler frame keeps its locals and starts on an
    /// empty operand stack (`b` was on it, waiting for `middle`'s result).
    #[test]
    fn a_caught_signal_keeps_the_handler_frames_locals() {
        let program = compile(
            "deep = proc (z: int) returns (int) signals (boom)\n signal boom\nend\n\
             middle = proc (y: int) returns (int)\n return (deep(y))\nend\n\
             main = proc (a: int)\n b: int := a * 2\n c: int := b + middle(a)\n\
             except when boom:\n print(b)\n end\nend",
        )
        .unwrap();
        let mut heap = Heap::new();
        let mut sys = TestSys::default();
        let mut env = ExecEnv {
            heap: &mut heap,
            program: &program,
            globals: &mut [],
            sys: &mut sys,
        };
        let main = program.proc_by_name("main").unwrap();
        let mut p = VmProcess::spawn(main, vec![Value::Int(5)]);
        step_to(&mut p, &mut env, |op| matches!(op, Op::Signal(_)));
        assert_eq!(p.frames.len(), 3);
        assert!(matches!(step(&mut p, &mut env), StepOutcome::Ran { .. }));
        assert_eq!(p.frames.len(), 1);
        let locals = [Value::Int(5), Value::Int(10), Value::Null];
        assert_eq!(p.locals(0).unwrap(), locals);
        assert_eq!(p.exit_values, locals, "no operand is left above them");
        loop {
            match step(&mut p, &mut env) {
                StepOutcome::Exited { .. } => break,
                StepOutcome::Ran { .. } => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(sys.prints, vec!["10"]);
    }

    #[test]
    fn fall_off_end_of_value_proc_faults() {
        let f = run(
            "f = proc () returns (int)\n if false then\n return (1)\n end\nend\n\
             main = proc ()\n x: int := f()\nend",
            "main",
            vec![],
        );
        assert_eq!(f.fault.unwrap().kind, FaultKind::Explicit);
    }

    #[test]
    fn semaphores_via_syscalls() {
        let f = run(
            "main = proc ()\n s: sem := sem$create(1)\n\
             ok: bool := sem$wait(s, 0)\n print(ok)\n\
             ok2: bool := sem$wait(s, 0)\n print(ok2)\n\
             sem$signal(s)\n ok3: bool := sem$wait(s, 0)\n print(ok3)\nend",
            "main",
            vec![],
        );
        assert_eq!(f.prints, vec!["true", "false", "true"]);
    }

    #[test]
    fn fork_reaches_supervisor() {
        let f = run(
            "w = proc (n: int)\n print(n)\nend\n\
             main = proc ()\n fork w(9)\nend",
            "main",
            vec![],
        );
        // TestSys records the fork without running it.
        assert!(f.prints.is_empty());
        assert!(f.fault.is_none());
    }

    #[test]
    fn builtins_now_pid_node_random_sleep() {
        let f = run(
            "main = proc ()\n sleep(250)\n print(now())\n print(pid())\n print(my_node())\n print(random(5))\nend",
            "main",
            vec![],
        );
        assert_eq!(f.prints, vec!["250", "7", "3", "4"]);
    }

    #[test]
    fn globals_shared_by_calls() {
        let f = run(
            "own counter: int := 10\n\
             bump = proc ()\n counter := counter + 1\nend\n\
             main = proc ()\n bump()\n bump()\n print(counter)\nend",
            "main",
            vec![],
        );
        assert_eq!(f.prints, vec!["12"]);
    }

    #[test]
    fn allocator_critical_region_is_two_phase() {
        let program = compile("main = proc ()\n xs: array[int] := array$new()\nend").unwrap();
        let mut heap = Heap::new();
        let mut globals = vec![];
        let mut sys = TestSys::default();
        let id = program.proc_by_name("main").unwrap();
        let mut p = VmProcess::spawn(id, vec![]);
        let mut saw_in_allocator = false;
        for _ in 0..100 {
            let mut env = ExecEnv {
                heap: &mut heap,
                program: &program,
                globals: &mut globals,
                sys: &mut sys,
            };
            match step(&mut p, &mut env) {
                StepOutcome::Exited { .. } => break,
                StepOutcome::Faulted { fault, .. } => panic!("{fault}"),
                _ => {}
            }
            if p.in_allocator {
                saw_in_allocator = true;
            }
        }
        assert!(
            saw_in_allocator,
            "allocation must pass through the critical region"
        );
        assert!(!p.in_allocator, "region must be exited afterwards");
    }

    #[test]
    fn trap_opcode_suspends_without_advancing() {
        let mut program = compile("main = proc ()\n x: int := 1\n x := 2\n print(x)\nend").unwrap();
        let addr = program.addr_for_line(3).unwrap();
        let orig = program.replace_op(addr, Op::Trap(5));
        let mut heap = Heap::new();
        let mut globals = vec![];
        let mut sys = TestSys::default();
        let id = program.proc_by_name("main").unwrap();
        let mut p = VmProcess::spawn(id, vec![]);
        let mut trapped = None;
        for _ in 0..100 {
            let mut env = ExecEnv {
                heap: &mut heap,
                program: &program,
                globals: &mut globals,
                sys: &mut sys,
            };
            match step(&mut p, &mut env) {
                StepOutcome::Trapped { bp } => {
                    trapped = Some(bp);
                    break;
                }
                StepOutcome::Exited { .. } => panic!("should have trapped"),
                StepOutcome::Faulted { fault, .. } => panic!("{fault}"),
                _ => {}
            }
        }
        assert_eq!(trapped, Some(5));
        assert_eq!(p.addr().unwrap(), addr, "pc must not advance past a trap");
        // Step-over: restore the instruction and continue.
        program.replace_op(addr, orig);
        loop {
            let mut env = ExecEnv {
                heap: &mut heap,
                program: &program,
                globals: &mut globals,
                sys: &mut sys,
            };
            match step(&mut p, &mut env) {
                StepOutcome::Exited { .. } => break,
                StepOutcome::Faulted { fault, .. } => panic!("{fault}"),
                _ => {}
            }
        }
        assert_eq!(sys.prints, vec!["2"]);
    }

    #[test]
    fn well_formed_frame_tracking() {
        let program = compile(
            "f = proc (n: int) returns (int)\n return (n)\nend\n\
             main = proc ()\n x: int := f(1)\nend",
        )
        .unwrap();
        let mut heap = Heap::new();
        let mut globals = vec![];
        let mut sys = TestSys::default();
        let id = program.proc_by_name("main").unwrap();
        let mut p = VmProcess::spawn(id, vec![]);
        let mut saw_partial = false;
        for _ in 0..200 {
            // Immediately after a Call, the callee frame exists but has not
            // executed Enter: it must not be counted well-formed.
            if p.frames.len() == 2 && !p.frames[1].well_formed {
                saw_partial = true;
                assert_eq!(p.highest_well_formed(), Some(0));
            }
            let mut env = ExecEnv {
                heap: &mut heap,
                program: &program,
                globals: &mut globals,
                sys: &mut sys,
            };
            match step(&mut p, &mut env) {
                StepOutcome::Exited { .. } => break,
                StepOutcome::Faulted { fault, .. } => panic!("{fault}"),
                _ => {}
            }
        }
        assert!(saw_partial, "entry sequence window must be observable");
    }

    #[test]
    fn short_circuit_evaluation_runs_correctly() {
        let f = run(
            "boom = proc () returns (bool)\n fail(\"should not run\")\nend\n\
             main = proc ()\n ok: bool := false & boom()\n print(ok)\n\
             ok2: bool := true | boom()\n print(ok2)\nend",
            "main",
            vec![],
        );
        assert!(f.fault.is_none());
        assert_eq!(f.prints, vec!["false", "true"]);
    }

    #[test]
    fn args_are_passed_to_entry() {
        let f = run(
            "main = proc (a: int, b: string)\n print(b)\n print(a * 2)\nend",
            "main",
            vec![Value::Int(21), Value::Str("go".into())],
        );
        assert_eq!(f.prints, vec!["go", "42"]);
    }

    // ------------------------------------------------------------------
    // `run`: a burst under a budget, with `step` as its oracle.
    // ------------------------------------------------------------------

    /// What a burst may move: each frame's address, the value stack and
    /// the allocator flag.
    fn vm_state(p: &VmProcess) -> (Vec<CodeAddr>, Vec<Value>, bool) {
        let addrs = p.frames.iter().map(Frame::addr).collect();
        (addrs, p.exit_values.clone(), p.in_allocator)
    }

    /// Steps `p` until an instruction does not return a plain `Ran`: how
    /// many did, their summed cost, and the one that did not.
    fn step_out(p: &mut VmProcess, env: &mut ExecEnv<'_>) -> (u64, u64, StepOutcome) {
        let (mut ran, mut spent) = (0, 0);
        loop {
            match step(p, env) {
                StepOutcome::Ran { cost } => {
                    ran += 1;
                    spent += cost;
                }
                end => return (ran, spent, end),
            }
        }
    }

    /// A run that ended before anything it may not run: `(ran, spent)`.
    fn stopped(b: Burst) -> (u64, u64) {
        assert!(b.end.is_none(), "{:?}", b.end);
        (b.ran, b.spent)
    }

    /// The `compute` workload's worker: 21 703 instructions, all hot.
    const FIB_WORKER: &str = "\
fib = proc (n: int) returns (int)
 if n < 2 then
  return (n)
 end
 return (fib(n - 1) + fib(n - 2))
end
worker = proc (n: int) returns (int)
 return (fib(n))
end";

    #[test]
    fn a_run_whose_budget_the_first_instruction_reaches_executes_nothing() {
        let program = compile(FIB_WORKER).unwrap();
        let worker = program.proc_by_name("worker").unwrap();
        let first = u64::from(program.proc(worker).costs[0].cost);
        let mut heap = Heap::new();
        let mut sys = TestSys::default();
        let mut env = ExecEnv {
            heap: &mut heap,
            program: &program,
            globals: &mut [],
            sys: &mut sys,
        };
        let mut p = VmProcess::spawn(worker, vec![Value::Int(15)]);
        let spawned = vm_state(&p);
        for budget in [0, 1, first - 1, first] {
            assert_eq!(
                stopped(super::run(&mut p, &mut env, budget)),
                (0, 0),
                "{budget}"
            );
            assert_eq!(vm_state(&p), spawned, "budget {budget}");
        }
        // One microsecond more runs the first instruction, not the second.
        assert_eq!(stopped(super::run(&mut p, &mut env, first + 1)), (1, first));
    }

    /// The benchmark's `cclu.vm.instr` is 21 703 for `worker(15)`: one
    /// unbounded run executes all but the root return, which ends it.
    #[test]
    fn an_unbounded_run_of_fib_15_matches_a_step_loop() {
        let program = compile(FIB_WORKER).unwrap();
        let worker = program.proc_by_name("worker").unwrap();
        let mut heap = Heap::new();
        let mut sys = TestSys::default();
        let mut env = ExecEnv {
            heap: &mut heap,
            program: &program,
            globals: &mut [],
            sys: &mut sys,
        };
        let mut stepped = VmProcess::spawn(worker, vec![Value::Int(15)]);
        let (steps, step_cost, step_end) = step_out(&mut stepped, &mut env);
        let StepOutcome::Exited { cost: exit_cost } = step_end else {
            panic!("{step_end:?}");
        };
        let mut p = VmProcess::spawn(worker, vec![Value::Int(15)]);
        let b = super::run(&mut p, &mut env, u64::MAX);
        let Some(StepOutcome::Exited { cost }) = b.end else {
            panic!("{:?}", b.end);
        };
        assert_eq!(b.ran + 1, 21_703);
        assert_eq!((b.ran, b.spent, cost), (steps, step_cost, exit_cost));
        assert_eq!(p.exit_values, [Value::Int(610)]);
        assert_eq!(stepped.exit_values, p.exit_values);
        assert!(p.frames.is_empty());
    }

    /// A root return is run when it ends strictly inside the budget, and
    /// left for `step` when it would reach it.
    #[test]
    fn a_root_return_ends_a_run_as_exited() {
        let program = compile("main = proc (a: int) returns (int)\n return (a * 3)\nend").unwrap();
        let main = program.proc_by_name("main").unwrap();
        let mut heap = Heap::new();
        let mut sys = TestSys::default();
        let mut env = ExecEnv {
            heap: &mut heap,
            program: &program,
            globals: &mut [],
            sys: &mut sys,
        };
        let mut twin = VmProcess::spawn(main, vec![Value::Int(7)]);
        let (steps, before_ret) = step_to(&mut twin, &mut env, |op| matches!(op, Op::Ret { .. }));
        let ret_cost = u64::from(crate::bytecode::op_cost(&Op::Ret { nvals: 1 }).cost);

        let mut p = VmProcess::spawn(main, vec![Value::Int(7)]);
        let b = super::run(&mut p, &mut env, before_ret + ret_cost);
        assert_eq!(stopped(b), (steps, before_ret), "the return would reach it");
        assert_eq!(vm_state(&p), vm_state(&twin));

        let mut p = VmProcess::spawn(main, vec![Value::Int(7)]);
        let b = super::run(&mut p, &mut env, before_ret + ret_cost + 1);
        assert!(matches!(b.end, Some(StepOutcome::Exited { cost }) if cost == ret_cost));
        assert_eq!(
            (b.ran, b.spent),
            (steps, before_ret),
            "its cost is not in `spent`"
        );
        assert_eq!(p.exit_values, [Value::Int(21)]);
    }

    /// `run` stays out of the allocator critical region because the hot
    /// dispatch leaves every allocating instruction to `step_cold`.
    #[test]
    fn every_allocating_instruction_is_cold() {
        let empty = compile("main = proc ()\nend").unwrap();
        let new_record = Op::NewRecord {
            type_id: 0,
            nfields: 0,
        };
        for op in [
            new_record,
            Op::NewArray,
            Op::Append,
            Op::Concat,
            Op::Unparse,
        ] {
            assert!(crate::bytecode::op_cost(&op).allocates, "{op:?}");
            let mut p = VmProcess::spawn(ProcId(0), vec![]);
            let hot = dispatch_hot(&op, 10, &mut p, &empty.procs[0], &mut []);
            assert!(matches!(hot, Hot::Cold), "{op:?}");
        }
    }

    #[test]
    fn a_run_stops_before_a_cold_and_before_an_allocating_instruction() {
        let program = compile(
            "main = proc ()\n t: int := 0\n while t < 30 do\n t := t + 1\n end\n\
             x: int := now()\n xs: array[int] := array$new()\n print(x)\nend",
        )
        .unwrap();
        let main = program.proc_by_name("main").unwrap();
        let mut heap = Heap::new();
        let mut sys = TestSys::default();
        let mut env = ExecEnv {
            heap: &mut heap,
            program: &program,
            globals: &mut [],
            sys: &mut sys,
        };
        let mut p = VmProcess::spawn(main, vec![]);
        let mut twin = VmProcess::spawn(main, vec![]);

        // Up to the system call, which is cold.
        let to_now = step_to(&mut twin, &mut env, |op| matches!(op, Op::Now));
        assert_eq!(stopped(super::run(&mut p, &mut env, u64::MAX)), to_now);
        assert_eq!(vm_state(&p), vm_state(&twin));
        assert_eq!(stopped(super::run(&mut p, &mut env, u64::MAX)), (0, 0));
        assert_eq!(vm_state(&p), vm_state(&twin), "pc and stack untouched");
        assert!(matches!(step(&mut p, &mut env), StepOutcome::Ran { .. }));
        assert!(matches!(step(&mut twin, &mut env), StepOutcome::Ran { .. }));

        // Up to the allocation, which the run does not enter.
        let to_new = step_to(&mut twin, &mut env, |op| matches!(op, Op::NewArray));
        assert_eq!(stopped(super::run(&mut p, &mut env, u64::MAX)), to_new);
        assert_eq!(vm_state(&p), vm_state(&twin));
        assert!(!p.in_allocator);
        // Inside the allocator critical region, too, it runs nothing.
        assert!(matches!(step(&mut p, &mut env), StepOutcome::Ran { .. }));
        assert!(p.in_allocator);
        let inside = vm_state(&p);
        assert_eq!(stopped(super::run(&mut p, &mut env, u64::MAX)), (0, 0));
        assert_eq!(vm_state(&p), inside);
    }

    #[test]
    fn a_trap_ends_a_run_with_the_pc_unadvanced_and_its_cost_outside() {
        let mut program = compile(
            "main = proc () returns (int)\n t: int := 0\n while t < 50 do\n t := t + 1\n\
             if t = 40 then\n t := t + 100\n end\n end\n return (t)\nend",
        )
        .unwrap();
        let addr = program.addr_for_line(6).unwrap();
        program.replace_op(addr, Op::Trap(4));
        let main = program.proc_by_name("main").unwrap();
        let mut heap = Heap::new();
        let mut sys = TestSys::default();
        let mut env = ExecEnv {
            heap: &mut heap,
            program: &program,
            globals: &mut [],
            sys: &mut sys,
        };
        let mut twin = VmProcess::spawn(main, vec![]);
        let to_trap = step_to(&mut twin, &mut env, |op| matches!(op, Op::Trap(_)));
        assert!(
            to_trap.0 > 300,
            "the trap follows a hot prefix: {to_trap:?}"
        );

        let mut p = VmProcess::spawn(main, vec![]);
        // The second run traps again at once, for nothing: nothing moved.
        for expected in [to_trap, (0, 0)] {
            let b = super::run(&mut p, &mut env, u64::MAX);
            assert!(
                matches!(b.end, Some(StepOutcome::Trapped { bp: 4 })),
                "{b:?}"
            );
            assert_eq!((b.ran, b.spent), expected);
            assert_eq!(p.addr(), Some(addr));
            assert_eq!(vm_state(&p), vm_state(&twin));
        }
    }

    /// A fault a hot instruction raises ends the run, at the instruction
    /// and cost single stepping faults at.
    #[test]
    fn a_stack_overflow_ends_a_run_as_faulted() {
        let program = compile(
            "r = proc (n: int) returns (int)\n return (r(n + 1))\nend\n\
             main = proc ()\n x: int := r(0)\nend",
        )
        .unwrap();
        let main = program.proc_by_name("main").unwrap();
        let mut heap = Heap::new();
        let mut sys = TestSys::default();
        let mut env = ExecEnv {
            heap: &mut heap,
            program: &program,
            globals: &mut [],
            sys: &mut sys,
        };
        let b = super::run(&mut VmProcess::spawn(main, vec![]), &mut env, u64::MAX);
        let Some(StepOutcome::Faulted { fault, cost }) = b.end else {
            panic!("{:?}", b.end);
        };
        assert_eq!(fault.kind, FaultKind::StackOverflow);
        // `stack_overflow_faults`: 2 558 steps costing 12 284 µs in all.
        assert_eq!((b.ran + 1, b.spent + cost), (2_558, 12_284));
    }

    // ------------------------------------------------------------------
    // `Enter`: a value stack sized by its procedure's need.
    // ------------------------------------------------------------------

    /// The value stack's allocation: where it lives and how many values fit.
    fn stack_block(p: &VmProcess) -> (*const Value, usize) {
        (p.exit_values.as_ptr(), p.exit_values.capacity())
    }

    /// `sparse-250k`'s worker needs its one local and one operand: `Enter`
    /// allocates exactly two values, and nothing reallocates them before
    /// the root `Ret` keeps the result alone.
    #[test]
    fn a_root_frame_is_allocated_at_its_need_once() {
        let program =
            compile("worker = proc (k: int) returns (int)\n sleep(k)\n return (k)\nend").unwrap();
        let worker = program.proc_by_name("worker").unwrap();
        assert_eq!(program.proc(worker).peak_operands, 1);
        let mut heap = Heap::new();
        let mut sys = TestSys::default();
        let mut env = ExecEnv {
            heap: &mut heap,
            program: &program,
            globals: &mut [],
            sys: &mut sys,
        };
        let mut p = VmProcess::spawn(worker, vec![Value::Int(60)]);
        assert!(matches!(step(&mut p, &mut env), StepOutcome::Ran { .. }));
        let block = stack_block(&p);
        assert_eq!(block.1, 2, "one local and one operand");
        step_to(&mut p, &mut env, |op| matches!(op, Op::Ret { .. }));
        assert_eq!(stack_block(&p), block, "reallocated before the return");
        assert!(matches!(step(&mut p, &mut env), StepOutcome::Exited { .. }));
        assert_eq!(p.exit_values, [Value::Int(60)]);
    }

    /// A nested frame's stack grows by doubling, so a recursion 500 frames
    /// deep, whose stack reaches more than 2 000 values, reallocates a
    /// logarithmic number of times: reserving each frame's exact need would
    /// reallocate once per frame, quadratic in the copying.
    #[test]
    fn a_deep_recursion_reallocates_logarithmically() {
        let program = compile(
            "down = proc (n: int) returns (int)\n a: int := n\n b: int := n\n c: int := n\n\
             if n < 1 then\n return (0)\n end\n return (down(n - 1) + a + b + c)\nend",
        )
        .unwrap();
        let down = program.proc_by_name("down").unwrap();
        let mut heap = Heap::new();
        let mut sys = TestSys::default();
        let mut env = ExecEnv {
            heap: &mut heap,
            program: &program,
            globals: &mut [],
            sys: &mut sys,
        };
        let mut p = VmProcess::spawn(down, vec![Value::Int(500)]);
        let (mut reallocs, mut deepest) = (0u32, 0usize);
        let mut block = stack_block(&p);
        loop {
            match step(&mut p, &mut env) {
                StepOutcome::Ran { .. } => {}
                StepOutcome::Exited { .. } => break,
                other => panic!("{other:?}"),
            }
            deepest = deepest.max(p.exit_values.len());
            if p.frames.len() > 1 && stack_block(&p) != block {
                reallocs += 1;
            }
            block = stack_block(&p);
        }
        assert_eq!(p.exit_values, [Value::Int(3 * 500 * 501 / 2)]);
        assert!(deepest > 2_000, "{deepest} values");
        let log2 = usize::BITS - deepest.leading_zeros();
        assert!(
            reallocs <= log2,
            "{reallocs} reallocations for {deepest} values"
        );
    }

    /// A procedure built by hand has a hint of 0: its stack grows on demand
    /// and it runs to the same result as the compiled one.
    #[test]
    fn a_hand_built_procedure_with_no_hint_runs() {
        let compiled =
            compile("f = proc (x: int) returns (int)\n return (x * 2 + 1)\nend").unwrap();
        let f = &compiled.procs[0];
        assert_eq!(f.peak_operands, 2);
        let mut program = compiled.clone();
        program.procs[0] = ProcCode::new(f.code.clone(), f.handlers.clone(), f.debug.clone());
        assert_eq!(program.procs[0].peak_operands, 0);
        for program in [&compiled, &program] {
            let mut heap = Heap::new();
            let mut sys = TestSys::default();
            let mut env = ExecEnv {
                heap: &mut heap,
                program,
                globals: &mut [],
                sys: &mut sys,
            };
            let mut p = VmProcess::spawn(ProcId(0), vec![Value::Int(20)]);
            let (ran, _, end) = step_out(&mut p, &mut env);
            assert!(matches!(end, StepOutcome::Exited { .. }), "{end:?}");
            assert_eq!((ran, p.exit_values.as_slice()), (6, &[Value::Int(41)][..]));
        }
    }
}
