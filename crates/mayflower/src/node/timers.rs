//! The timer heap: every sleep and timed semaphore wait, as a lazy
//! min-heap of deadlines validated against the process table.

use std::cmp::Reverse;

use pilgrim_cclu::Value;
use pilgrim_sim::SimTime;

use super::Node;
use crate::process::{Pid, RunState};

impl Node {
    /// Is heap entry `(t, pid)` still a live deadline? This is the one
    /// timer eligibility rule: the entry must be its process's current
    /// deadline, and a halted process's entry is stale only when halts
    /// freeze timeouts (§5.2) — `resume_one` re-arms it from the frozen
    /// remainder. In the E4 ablation a halted waiter's deadline stays
    /// live, so the activity index sees it and it fires on time.
    fn timer_live(&self, t: SimTime, pid: Pid) -> bool {
        self.process(pid).is_some_and(|p| {
            p.state.deadline() == Some(t)
                && !(p.halted.is_some() && self.config.freeze_timeouts_on_halt)
        })
    }

    /// The earliest live timer deadline.
    pub(super) fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, pid))) = self.timers.peek() {
            if self.timer_live(t, pid) {
                return Some(t);
            }
            // Stale (cancelled, rewritten, or halted-with-frozen-timeout —
            // the latter re-arms through resume_one, so dropping the old
            // entry is safe).
            self.timers.pop();
        }
        None
    }

    pub(super) fn expire_timers(&mut self) {
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
            if self.timer_live(t, pid) {
                due.push(pid);
            }
        }
        // Fire in ascending-pid order — the order a process-table scan
        // would use — and at most once per process (re-blocking on an
        // identical deadline can leave duplicate live entries).
        due.sort_unstable();
        due.dedup();
        for pid in due.drain(..) {
            self.end_wait(pid);
        }
        self.due_scratch = due;
    }

    /// Ends `pid`'s sleep or semaphore wait unsatisfied: at its deadline,
    /// or when the debugger yanks it (§5.4). A semaphore waiter leaves the
    /// queue and its wait returns `false` (§6's Figure 3/4 algorithms hang
    /// off this result); a sleeper just wakes.
    pub(super) fn end_wait(&mut self, pid: Pid) {
        let values = match self.process(pid).map(|p| &p.state) {
            Some(&RunState::SemWait { sem, .. }) => {
                if let Some(s) = self.sems.get_mut(sem as usize) {
                    s.remove_waiter(pid);
                }
                vec![Value::Bool(false)]
            }
            _ => vec![],
        };
        self.wake(pid, values);
    }
}
