//! Node-local synchronization objects: semaphores and monitor locks.
//!
//! Concurrent CLU mediates process interaction with "monitors, critical
//! regions, and semaphores" (paper §2). Semaphores carry timeouts — the
//! mechanism at the heart of the Figure 2 breakpoint race and the Figure
//! 3/4 server algorithms — and the supervisor freezes those timeouts for
//! halted processes.

use std::collections::VecDeque;

use crate::process::Pid;

/// A counting semaphore with a FIFO wait queue.
#[derive(Debug, Default, Clone)]
pub(crate) struct Semaphore {
    /// Current count.
    pub(crate) count: i64,
    /// Processes blocked in P, oldest first. (Their timeout deadlines live
    /// in the process records so the supervisor can freeze them.)
    pub(crate) waiters: VecDeque<Pid>,
}

impl Semaphore {
    /// A semaphore with an initial count.
    pub(crate) fn new(count: i64) -> Semaphore {
        Semaphore {
            count,
            waiters: VecDeque::new(),
        }
    }

    /// V: hands the signal to the oldest waiter, returned for the caller
    /// to wake, or banks it in the count when nobody waits.
    pub(crate) fn signal(&mut self) -> Option<Pid> {
        let waiter = self.waiters.pop_front();
        if waiter.is_none() {
            self.count += 1;
        }
        waiter
    }

    /// Removes `pid` from the wait queue (used when a waiter is woken by
    /// its timeout or the debugger rather than by a signal).
    pub(crate) fn remove_waiter(&mut self, pid: Pid) -> bool {
        if let Some(i) = self.waiters.iter().position(|p| *p == pid) {
            self.waiters.remove(i);
            true
        } else {
            false
        }
    }
}

/// A monitor lock (the language's `mutex` cluster, used to build monitors
/// and critical regions).
#[derive(Debug, Default, Clone)]
pub(crate) struct MonitorLock {
    /// Current owner, if held.
    pub(crate) owner: Option<Pid>,
    /// Processes blocked waiting to acquire, oldest first.
    pub(crate) waiters: VecDeque<Pid>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semaphore_waiter_removal() {
        let mut s = Semaphore::new(0);
        s.waiters.push_back(Pid(1));
        s.waiters.push_back(Pid(2));
        assert!(s.remove_waiter(Pid(1)));
        assert!(!s.remove_waiter(Pid(1)));
        assert_eq!(s.waiters.front(), Some(&Pid(2)));
    }
}
