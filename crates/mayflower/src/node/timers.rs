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
            p.state.deadline() == Some(t) && !(p.halted() && self.config.freeze_timeouts_on_halt)
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
            Some(&(RunState::SemWait { sem } | RunState::SemWaitTimed { sem, .. })) => {
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

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::sync::Arc;

    use pilgrim_cclu::compile;
    use pilgrim_sim::{SimDuration, SimTime, Tracer};

    use crate::{Node, NodeConfig, Pid, RunState, SpawnOpts};

    /// One timed and one untimed waiter on the same semaphore.
    const WAITERS: &str = "\
timed = proc (s: sem)
 ok: bool := sem$wait(s, 200)
 print(\"timed\")
end
untimed = proc (s: sem)
 ok: bool := sem$wait(s, 0 - 1)
 print(\"untimed\")
end
main = proc ()
 s: sem := sem$create(0)
 fork timed(s)
 fork untimed(s)
end";

    /// The pids on the timer heap, stale entries included.
    fn armed(n: &Node) -> Vec<Pid> {
        n.timers.iter().map(|&Reverse((_, pid))| pid).collect()
    }

    /// Splitting the semaphore wait in two keeps every deadline rule: a
    /// halt from 50 to 550 ms freezes the timed waiter's remainder and the
    /// resume re-arms it, so it fires 500 ms late; with timeouts unfrozen
    /// (the E4 ablation) it fires at its own deadline, halted. Either way
    /// the untimed waiter never enters the timer heap. The instants it
    /// fires and prints at are the ones the single semaphore-wait state,
    /// with an `Option` deadline, produced.
    #[test]
    fn a_timed_and_an_untimed_waiter_keep_their_deadline_rules() {
        let program = Arc::new(compile(WAITERS).unwrap());
        let (halt, resume) = (SimTime::from_millis(50), SimTime::from_millis(550));
        for (freeze, fires_at_us, prints_at_us) in
            [(true, 700_166, 700_170), (false, 200_166, 550_004)]
        {
            let cfg = NodeConfig {
                freeze_timeouts_on_halt: freeze,
                ..Default::default()
            };
            let mut n = Node::new(0, program.clone(), cfg, Tracer::new());
            n.spawn("main", vec![], SpawnOpts::default()).unwrap();
            let (timed, untimed) = (Pid(2), Pid(3));
            n.advance_to(halt);
            let RunState::SemWaitTimed { deadline, .. } = n.process(timed).unwrap().state else {
                panic!("{:?}", n.process(timed).unwrap().state);
            };
            assert!(matches!(
                n.process(untimed).unwrap().state,
                RunState::SemWait { .. }
            ));
            assert_eq!(armed(&n), [timed]);

            assert_eq!(n.halt_all(), 2);
            let expect = if freeze {
                assert_eq!(n.next_activity(), None, "a frozen timeout is not due");
                n.advance_to(resume);
                n.resume_all();
                resume + (deadline - halt)
            } else {
                assert_eq!(
                    n.next_activity(),
                    Some(deadline),
                    "it burns through the halt"
                );
                deadline
            };
            assert_eq!(expect, SimTime::from_micros(fires_at_us), "freeze {freeze}");
            assert_eq!(n.next_activity(), Some(expect));
            assert!(!armed(&n).contains(&untimed));

            n.advance_to(expect);
            assert!(matches!(
                n.process(timed).unwrap().state,
                RunState::SemWaitTimed { .. }
            ));
            n.advance_to(expect + SimDuration::from_micros(1));
            assert!(!matches!(
                n.process(timed).unwrap().state,
                RunState::SemWaitTimed { .. }
            ));
            if !freeze {
                n.advance_to(resume);
                n.resume_all();
            }
            n.advance_to(resume + SimDuration::from_secs(1));
            let console: Vec<_> = n
                .console()
                .iter()
                .map(|(t, s)| (t.as_micros(), s.as_str()))
                .collect();
            assert_eq!(console, [(prints_at_us, "timed")]);
            assert!(matches!(
                n.process(untimed).unwrap().state,
                RunState::SemWait { .. }
            ));
            assert!(!armed(&n).contains(&untimed));
        }
    }
}
