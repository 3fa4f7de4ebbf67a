//! The system-call layer: what a stepping process sees of its node.

use pilgrim_cclu::{ProcId, RpcRequest, SysReply, Syscalls, Value};
use pilgrim_sim::{DetRng, EventKind, SimDuration, SimTime, SpanId, TraceCategory};

use super::{NodeSink, Outcall};
use crate::process::{Pid, RunState};
use crate::sync::{MonitorLock, Semaphore};

/// One step's borrow of its node: the fields a system call may touch,
/// plus what the call leaves for the scheduler to commit (a block, the
/// forks, the wake-ups).
pub(super) struct SysCtx<'a> {
    pub(super) node_id: u32,
    pub(super) pid: Pid,
    pub(super) now: SimTime,
    pub(super) logical_now: SimTime,
    pub(super) sems: &'a mut Vec<Semaphore>,
    pub(super) locks: &'a mut Vec<MonitorLock>,
    pub(super) rng: &'a mut DetRng,
    pub(super) console: &'a mut Vec<(SimTime, String)>,
    pub(super) sink: &'a mut NodeSink,
    /// The process's capture buffer when its output is redirected.
    pub(super) capture: Option<&'a mut String>,
    pub(super) span: Option<SpanId>,
    pub(super) outcalls: &'a mut Vec<Outcall>,
    pub(super) next_pid: &'a mut u64,
    pub(super) next_token: &'a mut u64,
    pub(super) spawns: Vec<(Pid, ProcId, Vec<Value>)>,
    pub(super) wakes: Vec<(Pid, Vec<Value>)>,
    pub(super) block: Option<RunState>,
}

impl Syscalls for SysCtx<'_> {
    fn now_ms(&mut self) -> i64 {
        // Logical time (§5.2): the only time user programs can observe.
        (self.logical_now.as_micros() / 1_000) as i64
    }

    fn now_us(&mut self) -> i64 {
        self.logical_now.as_micros() as i64
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
        if let Some(buf) = self.capture.as_deref_mut() {
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
        self.block = Some(if timeout_ms < 0 {
            RunState::SemWait { sem }
        } else {
            let deadline = self.now + SimDuration::from_millis(timeout_ms as u64);
            RunState::SemWaitTimed { sem, deadline }
        });
        SysReply::Block
    }

    fn sem_signal(&mut self, sem: u32) {
        if let Some(w) = self.sems.get_mut(sem as usize).and_then(Semaphore::signal) {
            self.wakes.push((w, vec![Value::Bool(true)]));
        }
    }

    fn mutex_create(&mut self) -> u32 {
        self.locks.push(MonitorLock::default());
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
