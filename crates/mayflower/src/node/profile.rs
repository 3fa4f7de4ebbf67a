//! The simulated-time profiler's books, kept only under
//! [`NodeConfig::profile_vm`](super::NodeConfig::profile_vm): per-process
//! time ledgers, the call tree, per-procedure counters and span-attributed
//! RPC waits.

use pilgrim_cclu::{Frame, ProcId};
use pilgrim_sim::{
    CallNodeId, CallTree, LedgerBucket, LedgerClock, SimDuration, SimTime, SpanId, TimeLedger,
};

use super::Node;
use crate::process::{Pid, Process, RunState};

/// Per-process profiling state kept beside the process arena: the time
/// ledger with its open-interval start, the cached call-tree cursor for
/// incremental stack sync, and the span of any outstanding RPC.
pub(super) struct ProcTrack {
    pub(super) ledger: TimeLedger,
    /// When the process entered its current scheduler state.
    pub(super) since: LedgerClock,
    /// Call-tree node for the stack observed at the last profiled step.
    cursor: Option<CallNodeId>,
    /// Stack depth observed at the last profiled step.
    depth: usize,
    /// Span of the RPC this process is currently blocked on, if any.
    rpc_span: Option<SpanId>,
}

impl ProcTrack {
    pub(super) fn new(now: SimTime) -> ProcTrack {
        ProcTrack {
            ledger: TimeLedger::default(),
            since: LedgerClock::new(now),
            cursor: None,
            depth: 0,
            rpc_span: None,
        }
    }
}

/// Adds `d` to `span`'s entry in `waits`, creating it when absent.
fn add_span_wait(waits: &mut Vec<(SpanId, SimDuration)>, span: SpanId, d: SimDuration) {
    match waits.iter_mut().find(|(s, _)| *s == span) {
        Some(e) => e.1 += d,
        None => waits.push((span, d)),
    }
}

impl Node {
    /// The [`TimeLedger`] bucket a process's current state accrues into;
    /// `None` for dead processes (their lifetime is over). The debug-halt
    /// overlay (and a pending halt) wins over the underlying state.
    fn bucket_of(p: &Process) -> Option<LedgerBucket> {
        if p.is_halted() {
            return (!p.state.is_dead()).then_some(LedgerBucket::Stopped);
        }
        match &p.state {
            RunState::Runnable => Some(LedgerBucket::Runnable),
            RunState::Sleeping { .. } => Some(LedgerBucket::Sleeping),
            RunState::SemWait { .. }
            | RunState::SemWaitTimed { .. }
            | RunState::MutexWait { .. } => Some(LedgerBucket::BlockedSem),
            RunState::RpcWait { .. } => Some(LedgerBucket::BlockedRpc),
            RunState::Trapped { .. } | RunState::TraceStopped => Some(LedgerBucket::Stopped),
            RunState::Faulted(_) | RunState::Exited => None,
        }
    }

    /// Closes the open ledger interval for `pid` at the node clock,
    /// attributing it to the process's *current* (pre-transition) state.
    /// Every scheduler-state transition calls this first, so the ledger
    /// buckets tile the process's lifetime. No-op when profiling is off.
    pub(super) fn settle_track(&mut self, pid: Pid) {
        let slot = Self::slot(pid);
        let (Some(p), Some(track)) = (self.procs.get(slot), self.tracks.get_mut(slot)) else {
            return;
        };
        let d = track.since.settle(self.clock);
        if d == SimDuration::ZERO {
            return;
        }
        let Some(bucket) = Self::bucket_of(p) else {
            return;
        };
        track.ledger.add(bucket, d);
        if bucket == LedgerBucket::BlockedRpc {
            if let Some(span) = track.rpc_span {
                add_span_wait(&mut self.span_rpc, span, d);
            }
        }
    }

    /// [`settle_track`](Node::settle_track) for a process leaving a wait,
    /// which also ends any RPC wait its span was charged for.
    pub(super) fn settle_wait(&mut self, pid: Pid) {
        self.settle_track(pid);
        if let Some(t) = self.tracks.get_mut(Self::slot(pid)) {
            t.rpc_span = None;
        }
    }

    /// Synchronises a process's cached call-tree cursor with its current
    /// VM stack. Consecutive profiled steps see stack deltas of at most
    /// one push or `k` pops (one instruction), so the common cases are a
    /// cache hit, one `child` hop, or a short parent walk; anything else
    /// falls back to interning the whole stack.
    pub(super) fn sync_cursor(
        tree: &mut CallTree,
        track: &mut ProcTrack,
        frames: &[Frame],
    ) -> CallNodeId {
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

    /// The per-procedure profile accumulated while
    /// [`NodeConfig::profile_vm`](super::NodeConfig::profile_vm) was set:
    /// `(procedure name, instructions, simulated cost µs)`, hottest first.
    /// A fold of the call tree by frame: every profiled instruction is
    /// charged to exactly one stack, whose top frame is the procedure it
    /// ran in. Empty when profiling is off.
    pub fn vm_profile(&self) -> Vec<(String, u64, u64)> {
        let mut by_proc: Vec<(u64, u64)> = Vec::new();
        for e in self.call_tree.edges() {
            let slot = e.callee as usize;
            if by_proc.len() <= slot {
                by_proc.resize(slot + 1, (0, 0));
            }
            by_proc[slot].0 += e.instr;
            by_proc[slot].1 += e.cost;
        }
        let mut out: Vec<(String, u64, u64)> = by_proc
            .into_iter()
            .enumerate()
            .filter(|(_, (instr, _))| *instr > 0)
            .map(|(i, (instr, cost))| {
                let name = &self.program.proc(ProcId(i as u16)).debug.name;
                (name.to_string(), instr, cost)
            })
            .collect();
        out.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        out
    }

    /// Folded call stacks accumulated while
    /// [`NodeConfig::profile_vm`](super::NodeConfig::profile_vm) was set:
    /// `(stack, cost_us)` with procedure names joined by `;` root-first,
    /// sorted lexicographically (so identical runs render
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
            .enumerate()
            .map(|(slot, (p, t))| {
                let mut ledger = t.ledger;
                let d = t.since.open(self.clock);
                if d > SimDuration::ZERO {
                    if let Some(bucket) = Self::bucket_of(p) {
                        ledger.add(bucket, d);
                    }
                }
                let name = self.name(p.name).to_string();
                (Self::pid_at(slot), name, p.span, ledger)
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
            let d = t.since.open(self.clock);
            if d > SimDuration::ZERO {
                add_span_wait(&mut out, span, d);
            }
        }
        out.sort_by_key(|(s, _)| *s);
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
}
