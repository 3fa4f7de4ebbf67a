//! Processes as the Mayflower supervisor sees them.
//!
//! A process is either a Concurrent CLU VM process or a *native* process (a
//! Rust state machine driven through the same scheduler — used for server
//! infrastructure). The supervisor adds the paper's per-process machinery:
//! run states, the debug-halt overlay with frozen timeouts (§5.2), the
//! "must not be halted" bit (§5.2), and the process-state query primitive
//! (§5.4).

use std::fmt;
use std::num::NonZeroU32;
use std::sync::Arc;

use pilgrim_cclu::{CodeAddr, ExecEnv, Fault, ProcId, StepOutcome, VmProcess};
use pilgrim_sim::{SimDuration, SimTime, SpanId};

/// A process identifier, unique per node for the lifetime of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// What a process is called, in four bytes: a procedure of its node's
/// program, whose name is that procedure's debug name, or a slot of the
/// node's table of override names ([`Node::intern_name`]). Every process
/// spawned from one procedure, or under one override, carries the same
/// id, so a name is stored once per node however many processes bear it.
/// An id means something only on the node that minted it; read it with
/// [`Node::name`].
///
/// The encoding is offset by one, so zero is never an id and
/// `Option<NameId>` is four bytes too.
///
/// [`Node::intern_name`]: crate::Node::intern_name
/// [`Node::name`]: crate::Node::name
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(NonZeroU32);

/// The two arms a [`NameId`] encodes.
pub(crate) enum NameArm {
    /// Procedure `id`'s own name, read through the node's current program.
    Proc(ProcId),
    /// A slot of the node's override table.
    Slot(usize),
}

impl NameId {
    /// Set on an override slot, clear on a procedure.
    const SLOT: u32 = 1 << 31;

    /// Procedure `id`'s own name.
    pub(crate) fn of_proc(id: ProcId) -> NameId {
        NameId::encode(u32::from(id.0))
    }

    /// Slot `slot` of the node's override table; `slot` is below 2³¹,
    /// which a table of 16-byte handles cannot reach.
    pub(crate) fn of_slot(slot: u32) -> NameId {
        NameId::encode(Self::SLOT | slot)
    }

    fn encode(v: u32) -> NameId {
        NameId(NonZeroU32::MIN.saturating_add(v))
    }

    /// Which arm this id is, decoded.
    pub(crate) fn arm(self) -> NameArm {
        let v = self.0.get() - 1;
        if v & Self::SLOT == 0 {
            NameArm::Proc(ProcId(v as u16))
        } else {
            NameArm::Slot((v & !Self::SLOT) as usize)
        }
    }
}

/// A semaphore handle, local to one node.
pub type SemId = u32;
/// A monitor-lock handle, local to one node.
pub type MutexId = u32;

/// The supervisor-level execution state of a process — exactly the
/// information the paper's new supervisor primitive exposes to the
/// debugger: "whether the process is runnable or waiting; if runnable, the
/// register set; if waiting, the semaphore or monitor queue it is waiting
/// on; and the process priority" (§5.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunState {
    /// Eligible to be scheduled.
    Runnable,
    /// Sleeping until a deadline.
    Sleeping {
        /// Wake-up time (real time).
        until: SimTime,
    },
    /// Blocked on a semaphore, waiting forever.
    SemWait {
        /// Which semaphore.
        sem: SemId,
    },
    /// Blocked on a semaphore until a timeout. A variant of its own, so
    /// that an untimed wait pays no deadline and the state stays 16 bytes.
    SemWaitTimed {
        /// Which semaphore.
        sem: SemId,
        /// Timeout deadline in real time.
        deadline: SimTime,
    },
    /// Blocked acquiring a monitor lock.
    MutexWait {
        /// Which lock.
        mutex: MutexId,
    },
    /// Blocked in the RPC runtime waiting for a remote reply.
    RpcWait {
        /// Runtime token identifying the outstanding call.
        token: u64,
    },
    /// Stopped at a planted breakpoint (the trap has been hit but the
    /// debugger has not yet resumed or stepped the process).
    Trapped {
        /// The agent breakpoint slot that fired.
        bp: u16,
    },
    /// Stopped after a trace-mode single step (§5.5).
    TraceStopped,
    /// Terminated by a run-time failure; retained for post-mortem
    /// examination by the debugger. Boxed: faults are rare, so the common
    /// states should not pay the fault payload's size.
    Faulted(Box<Fault>),
    /// Ran to completion.
    Exited,
}

impl RunState {
    /// True when the scheduler may pick this process (ignoring the debug
    /// halt overlay).
    pub fn is_runnable(&self) -> bool {
        matches!(self, RunState::Runnable)
    }

    /// True for states a debugger resume can sensibly leave.
    pub fn is_stopped_by_debugger(&self) -> bool {
        matches!(self, RunState::Trapped { .. } | RunState::TraceStopped)
    }

    /// True when the process will never run again.
    pub fn is_dead(&self) -> bool {
        matches!(self, RunState::Faulted(_) | RunState::Exited)
    }

    /// The timeout this state waits out, if any: a sleep's wake-up time or
    /// a timed semaphore wait's deadline. The timer heap, the halt freeze
    /// and the resume re-arm all read the deadline here and nowhere else.
    pub(crate) fn deadline(&self) -> Option<SimTime> {
        match self {
            RunState::Sleeping { until } => Some(*until),
            RunState::SemWaitTimed { deadline, .. } => Some(*deadline),
            _ => None,
        }
    }

    /// [`deadline`](RunState::deadline), for rewriting it.
    pub(crate) fn deadline_mut(&mut self) -> Option<&mut SimTime> {
        match self {
            RunState::Sleeping { until } => Some(until),
            RunState::SemWaitTimed { deadline, .. } => Some(deadline),
            _ => None,
        }
    }
}

/// The debug-halt overlay (§5.2): a halted process that was waiting with a
/// timeout remembers how much of it remained — the supervisor "freezes"
/// timeouts of halted processes. Kept in the node's table of halted
/// processes, not in the record: a process is halted for a moment of its
/// life, and the record is kept for all of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaltInfo {
    /// Remaining timeout at the moment of halting, for `SemWait`/`Sleeping`
    /// states; re-applied relative to the resume time.
    pub frozen_remaining: Option<SimDuration>,
}

/// A native (Rust) process body: a state machine resumed by the scheduler.
///
/// Native processes exist so that infrastructure — shared servers, RPC
/// worker pools — can be written in Rust while being scheduled, blocked,
/// halted and debugged through exactly the same supervisor paths as user
/// code. Implementations receive the values produced by their last blocking
/// system call in `resume` (e.g. the `bool` from a semaphore wait).
///
/// `Send` is required because nodes (and therefore the process bodies they
/// own) migrate to worker threads under parallel stepping.
pub trait NativeProcess: Send {
    /// Runs one slice of the process. Use the [`ExecEnv::sys`] interface
    /// for anything blocking and return the corresponding outcome.
    fn step(&mut self, resume: Vec<pilgrim_cclu::Value>, env: &mut ExecEnv<'_>) -> StepOutcome;

    /// Diagnostic name shown by the debugger.
    fn name(&self) -> &str {
        "native"
    }
}

/// One bit of a process record's [`Flags`].
#[derive(Debug, Clone, Copy)]
#[repr(u8)]
pub(crate) enum Flag {
    /// Halted by the debugger. Its frozen timeout, a [`HaltInfo`], is in
    /// the node's table of halted processes.
    Halted = 1,
    /// A halt was requested while the process was inside the
    /// heap-allocator critical region; it is applied as soon as the
    /// process leaves the allocator (§5.5).
    HaltPending = 2,
    /// The paper's supervisor bit: "specifying whether or not the process
    /// it describes should be halted" upon debugging (§5.2). Agent and
    /// runtime-support processes set this.
    NoHalt = 4,
    /// Console output goes to a per-process buffer (agent-invoked print
    /// operations, §3).
    PrintRedirect = 8,
    /// The pid sits in the node's run queue. The scheduler keeps this in
    /// sync so re-queueing a woken process is O(1) instead of a linear
    /// membership scan of the queue.
    Queued = 16,
}

/// A process record's one-bit states, packed into one byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Flags(u8);

impl Flags {
    pub(crate) fn has(self, flag: Flag) -> bool {
        self.0 & flag as u8 != 0
    }

    pub(crate) fn set(&mut self, flag: Flag, on: bool) {
        if on {
            self.0 |= flag as u8;
        } else {
            self.0 &= !(flag as u8);
        }
    }
}

/// The body of a process.
pub enum ProcBody {
    /// A Concurrent CLU VM process.
    Vm(VmProcess),
    /// A native state machine, plus the values to hand it when it next
    /// runs (results of the blocking operation that woke it). A VM process
    /// takes its resume values straight onto its value stack, so the
    /// buffer lives only on the variant that needs it.
    Native {
        /// The state machine.
        body: Box<dyn NativeProcess>,
        /// Wake-up values for the next `step` call.
        resume: Vec<pilgrim_cclu::Value>,
    },
}

impl fmt::Debug for ProcBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcBody::Vm(vm) => write!(f, "Vm({} frames)", vm.frames.len()),
            ProcBody::Native { body, .. } => write!(f, "Native({})", body.name()),
        }
    }
}

/// A supervisor process record. It does not hold its pid: the record in
/// slot `i` of its node's process table is pid `i + 1`, so whoever reads a
/// record by pid, or walks the table, has the pid beside it.
#[derive(Debug)]
pub struct Process {
    /// Human-readable name (entry procedure, override or native name), as
    /// an index the node resolves ([`Node::name`](crate::Node::name)).
    pub name: NameId,
    /// The executable body.
    pub body: ProcBody,
    /// Scheduler state.
    pub state: RunState,
    /// Scheduling priority (informational; exposed via the §5.4 primitive).
    pub priority: u8,
    /// The halt overlay, the no-halt bit, output redirection and run-queue
    /// membership, one bit each; read through the accessors below.
    pub(crate) flags: Flags,
    /// Causal span this process executes under: set on server processes
    /// spawned to run an RPC call, so nested calls they issue link back
    /// to the originating call's span.
    pub span: Option<SpanId>,
}

impl Process {
    /// True when the scheduler may run this process right now.
    pub fn schedulable(&self) -> bool {
        self.state.is_runnable() && !self.halted()
    }

    /// True while the debugger holds the process: halted, or with a halt
    /// pending on its way out of the allocator (§5.5).
    pub fn is_halted(&self) -> bool {
        self.halted() || self.halt_pending()
    }

    /// True while halted by the debugger. Its frozen timeout, a
    /// [`HaltInfo`], is in the node's table of halted processes.
    pub fn halted(&self) -> bool {
        self.flags.has(Flag::Halted)
    }

    /// True while a halt waits for the process to leave the allocator
    /// (§5.5).
    pub fn halt_pending(&self) -> bool {
        self.flags.has(Flag::HaltPending)
    }

    /// The paper's "must not be halted" supervisor bit (§5.2).
    pub fn no_halt(&self) -> bool {
        self.flags.has(Flag::NoHalt)
    }

    /// True when the process's console output goes to its own buffer
    /// (§3).
    pub fn print_redirect(&self) -> bool {
        self.flags.has(Flag::PrintRedirect)
    }

    /// True while the pid sits in the node's run queue.
    pub fn queued(&self) -> bool {
        self.flags.has(Flag::Queued)
    }

    /// The VM body, if this is a VM process.
    pub fn vm(&self) -> Option<&VmProcess> {
        match &self.body {
            ProcBody::Vm(vm) => Some(vm),
            ProcBody::Native { .. } => None,
        }
    }

    /// Mutable VM body, if this is a VM process.
    pub fn vm_mut(&mut self) -> Option<&mut VmProcess> {
        match &mut self.body {
            ProcBody::Vm(vm) => Some(vm),
            ProcBody::Native { .. } => None,
        }
    }

    /// The code address the process is executing, for VM processes.
    pub fn addr(&self) -> Option<CodeAddr> {
        self.vm().and_then(|vm| vm.addr())
    }

    /// True while the process is inside the allocator critical region.
    pub fn in_allocator(&self) -> bool {
        self.vm().map(|vm| vm.in_allocator).unwrap_or(false)
    }
}

/// A snapshot of the supervisor's view of one process, as returned by the
/// §5.4 query primitive.
#[derive(Debug, Clone)]
pub struct ProcessInfo {
    /// Identifier.
    pub pid: Pid,
    /// Name, sharing the process table's interned allocation.
    pub name: Arc<str>,
    /// Supervisor state.
    pub state: RunState,
    /// Whether the debugger has halted it.
    pub halted: bool,
    /// The no-halt bit.
    pub no_halt: bool,
    /// Priority.
    pub priority: u8,
    /// Current code address (VM processes only) — the "register set".
    pub addr: Option<CodeAddr>,
    /// Call-stack depth (VM processes only).
    pub frames: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_state_predicates() {
        assert!(RunState::Runnable.is_runnable());
        assert!(!RunState::Exited.is_runnable());
        assert!(RunState::Trapped { bp: 0 }.is_stopped_by_debugger());
        assert!(RunState::TraceStopped.is_stopped_by_debugger());
        assert!(RunState::Exited.is_dead());
        assert!(RunState::Faulted(Box::new(Fault {
            kind: pilgrim_cclu::FaultKind::Explicit,
            message: "x".into()
        }))
        .is_dead());
        assert!(!RunState::Sleeping {
            until: SimTime::ZERO
        }
        .is_dead());
    }

    /// Every process a node ever made keeps its record, and `sparse-250k`
    /// parks a quarter of a million at once, so the record is priced
    /// field by field: body (56) + state (16) + span (8) + name (4) +
    /// priority (1) + five flags in one byte = 86, padded to 88 bytes. No
    /// pid: the record's slot is its pid. No frozen timeout: the node's
    /// halt table keeps it. No name string: the node resolves the id.
    #[test]
    fn a_process_record_fits_in_88_bytes() {
        use std::mem::size_of;
        // Two `Vec` headers and two flags, or a boxed native body and its
        // resume buffer.
        assert!(size_of::<ProcBody>() <= 56, "body");
        // A tag, a semaphore and a deadline: a timed semaphore wait is a
        // variant of its own, so no state carries an `Option<SimTime>`.
        assert!(size_of::<RunState>() <= 16, "state");
        // `SpanId`'s zero niche: no tag word.
        assert_eq!(size_of::<Option<SpanId>>(), 8, "span");
        assert_eq!(size_of::<Process>(), 88, "record");
    }

    /// A name is four bytes, and its offset encoding leaves zero free, so
    /// `SpawnOpts::name` pays no tag word for being optional.
    #[test]
    fn a_name_id_is_four_bytes_optional_or_not() {
        use std::mem::size_of;
        assert_eq!(size_of::<NameId>(), 4);
        assert_eq!(size_of::<Option<NameId>>(), 4);
        assert_eq!(size_of::<Flags>(), 1);
    }

    /// The two arms round-trip at their ends, and never collide.
    #[test]
    fn a_name_id_round_trips_both_arms() {
        for id in [0, 1, u16::MAX] {
            match NameId::of_proc(ProcId(id)).arm() {
                NameArm::Proc(p) => assert_eq!(p, ProcId(id)),
                NameArm::Slot(_) => panic!("procedure {id} read as a slot"),
            }
        }
        for slot in [0, 1, 65_536, (1 << 31) - 2] {
            match NameId::of_slot(slot).arm() {
                NameArm::Slot(s) => assert_eq!(s, slot as usize),
                NameArm::Proc(_) => panic!("slot {slot} read as a procedure"),
            }
        }
        assert_ne!(NameId::of_proc(ProcId(0)), NameId::of_slot(0));
    }

    #[test]
    fn flags_set_and_clear_one_bit_each() {
        let mut f = Flags::default();
        f.set(Flag::Halted, true);
        f.set(Flag::Queued, true);
        assert!(f.has(Flag::Halted) && f.has(Flag::Queued));
        assert!(!f.has(Flag::NoHalt) && !f.has(Flag::HaltPending));
        f.set(Flag::Halted, false);
        assert!(!f.has(Flag::Halted) && f.has(Flag::Queued));
        f.set(Flag::Queued, false);
        assert_eq!(f, Flags::default());
    }

    #[test]
    fn schedulable_requires_runnable_and_unhalted() {
        let mut p = Process {
            name: NameId::of_proc(ProcId(0)),
            body: ProcBody::Vm(VmProcess::default()),
            state: RunState::Runnable,
            priority: 1,
            flags: Flags::default(),
            span: None,
        };
        assert!(p.schedulable());
        p.flags.set(Flag::Halted, true);
        assert!(!p.schedulable());
        p.flags.set(Flag::Halted, false);
        p.state = RunState::Sleeping {
            until: SimTime::ZERO,
        };
        assert!(!p.schedulable());
    }
}
