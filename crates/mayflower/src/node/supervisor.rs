//! The supervisor primitives the debugger is built on: halt and resume
//! with frozen timeouts and the no-halt bit (§5.2), deferred halt in the
//! allocator (§5.5), and the process-state query and state transfer
//! (§5.4).

use std::cmp::Reverse;

use pilgrim_sim::{EventKind, SimTime, TraceCategory};

use super::Node;
use crate::process::{Flag, HaltInfo, Pid, Process, ProcessInfo, RunState, SemId};

impl Node {
    /// The paper's halt primitive: places every halt-able process on the
    /// debugger's wait queue and freezes the timeouts of waiting processes.
    /// Processes inside the heap-allocator critical region are halted as
    /// soon as they leave it (§5.5). Returns how many processes were
    /// halted (or marked halt-pending).
    pub fn halt_all(&mut self) -> usize {
        self.apply_to_all(Node::halt_one, |count| EventKind::ProcessesHalted { count })
    }

    /// Resumes every halted process, re-applying frozen timeouts relative
    /// to the current time (§5.2).
    pub fn resume_all(&mut self) -> usize {
        self.apply_to_all(Node::resume_one, |count| EventKind::ProcessesResumed {
            count,
        })
    }

    /// Applies `f` to every process in pid order, then traces how many it
    /// acted on as `event(count)` and returns that count.
    fn apply_to_all(
        &mut self,
        f: fn(&mut Node, Pid) -> bool,
        event: fn(u64) -> EventKind,
    ) -> usize {
        let n = (0..self.procs.len())
            .filter(|&slot| f(self, Self::pid_at(slot)))
            .count();
        if self.tracer.wants(TraceCategory::Debug) {
            self.tracer.emit(
                self.clock,
                TraceCategory::Debug,
                Some(self.id),
                None,
                event(n as u64),
            );
        }
        n
    }

    /// Halts one process (debugger-directed state transfer, §5.4).
    /// Returns false when the process is exempt (no-halt bit), dead, or
    /// already halted.
    pub fn halt_one(&mut self, pid: Pid) -> bool {
        self.settle_track(pid);
        let clock = self.clock;
        let freeze = self.config.freeze_timeouts_on_halt;
        let Some(p) = self.procs.get_mut(Self::slot(pid)) else {
            return false;
        };
        if p.no_halt() || p.state.is_dead() || p.halted() {
            return false;
        }
        let info = if p.in_allocator() {
            p.flags.set(Flag::HaltPending, true);
            HaltInfo {
                frozen_remaining: None,
            }
        } else {
            Self::apply_halt(p, clock, freeze)
        };
        self.halts.insert(pid, info);
        true
    }

    /// Puts `p` under the halt overlay at `clock`, returning its halt-table
    /// entry: what is left of its timeout when `freeze_timeouts` is set
    /// (§5.2).
    pub(super) fn apply_halt(p: &mut Process, clock: SimTime, freeze_timeouts: bool) -> HaltInfo {
        let frozen_remaining = match p.state.deadline() {
            Some(d) if freeze_timeouts => Some(d.saturating_since(clock)),
            _ => None,
        };
        p.flags.set(Flag::Halted, true);
        p.flags.set(Flag::HaltPending, false);
        HaltInfo { frozen_remaining }
    }

    /// Resumes a single halted process.
    pub fn resume_one(&mut self, pid: Pid) -> bool {
        self.settle_track(pid);
        let clock = self.clock;
        let Some(p) = self.procs.get_mut(Self::slot(pid)) else {
            return false;
        };
        // A pending halt is cancelled and leaves the table too, but only
        // a halted process counts as resumed.
        p.flags.set(Flag::HaltPending, false);
        let info = self.halts.remove(&pid);
        if !p.halted() {
            return false;
        }
        p.flags.set(Flag::Halted, false);
        let info = info.expect("a halted process is in the halt table");
        if let Some(rem) = info.frozen_remaining {
            if let Some(d) = p.state.deadline_mut() {
                *d = clock + rem;
            }
            self.timers.push(Reverse((clock + rem, pid)));
        }
        if p.state.is_runnable() {
            self.ensure_queued(pid);
        }
        true
    }

    /// True when any process is currently halted (or halt-pending).
    pub fn any_halted(&self) -> bool {
        !self.halts.is_empty()
    }

    /// `(runnable, blocked, halted)` process counts right now: runnable =
    /// schedulable, halted = under a debug halt (or halt-pending), blocked
    /// = alive but waiting (sleep, semaphore, RPC, trap). Dead processes
    /// are in none of the buckets.
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let (mut runnable, mut blocked, mut halted) = (0, 0, 0);
        // Chunk by chunk: through the flattened `iter()` this scan ran a
        // third slower than over one slice.
        for chunk in self.procs.chunks() {
            for p in chunk {
                if p.state.is_dead() {
                    continue;
                }
                if p.is_halted() {
                    halted += 1;
                } else if p.schedulable() {
                    runnable += 1;
                } else {
                    blocked += 1;
                }
            }
        }
        (runnable, blocked, halted)
    }

    /// The §5.4 supervisor primitive: everything the supervisor knows about
    /// a process.
    pub fn process_info(&self, pid: Pid) -> Option<ProcessInfo> {
        self.process(pid).map(|p| ProcessInfo {
            pid,
            name: self.name(p.name).clone(),
            state: p.state.clone(),
            halted: p.halted(),
            no_halt: p.no_halt(),
            priority: p.priority,
            addr: p.addr(),
            frames: p.vm().map(|vm| vm.frames.len()).unwrap_or(0),
        })
    }

    /// Sets a process's no-halt bit (§5.2).
    pub fn set_no_halt(&mut self, pid: Pid, no_halt: bool) {
        if let Some(p) = self.process_mut(pid) {
            p.flags.set(Flag::NoHalt, no_halt);
        }
    }

    /// A semaphore's `(count, waiters)` — debugger visibility (§5.4).
    pub fn sem_state(&self, sem: SemId) -> Option<(i64, Vec<Pid>)> {
        self.sems
            .get(sem as usize)
            .map(|s| (s.count, s.waiters.iter().copied().collect()))
    }

    /// Releases a process stopped at a trap or after a trace step back to
    /// the run queue.
    pub fn release_stopped(&mut self, pid: Pid) -> bool {
        self.settle_track(pid);
        let Some(p) = self.process_mut(pid) else {
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
        let Some(p) = self.process(pid) else {
            return false;
        };
        match p.state {
            RunState::Runnable => true,
            RunState::Sleeping { .. }
            | RunState::SemWait { .. }
            | RunState::SemWaitTimed { .. } => {
                self.end_wait(pid);
                true
            }
            RunState::Trapped { .. } | RunState::TraceStopped => self.release_stopped(pid),
            _ => false,
        }
    }
}
