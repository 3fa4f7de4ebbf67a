//! The scheduler loop: what runs next, for how long, and the one place
//! the VM is stepped.

use std::cmp::Reverse;

use pilgrim_cclu::{CodeAddr, ExecEnv, ProcId, StepOutcome, VmProcess};
use pilgrim_sim::{EventKind, SimDuration, SimTime, TraceCategory};

use super::syscall::SysCtx;
use super::{Node, Outcall, SpawnOpts};
use crate::process::{Flag, NameId, Pid, ProcBody, RunState};

impl Node {
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
            .any(|pid| self.process(*pid).map(|p| p.schedulable()).unwrap_or(false))
        {
            return Some(self.clock);
        }
        self.next_deadline()
    }

    fn pick_next(&mut self) -> Option<Pid> {
        loop {
            let pid = *self.run_queue.front()?;
            let ok = self.process(pid).map(|p| p.schedulable()).unwrap_or(false);
            if ok {
                return Some(pid);
            }
            self.run_queue.pop_front();
            if let Some(p) = self.process_mut(pid) {
                p.flags.set(Flag::Queued, false);
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
    /// owned list: the RPC crate's drivers and tests.
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
    /// stepping path). Returns false, and runs nothing, unless the process
    /// is [`RunState::Runnable`]: one parked in a sleep, a semaphore, a
    /// lock or an RPC wait stays parked. The halt overlay is not consulted;
    /// a step-over runs with every process halted.
    pub fn step_one(&mut self, pid: Pid) -> bool {
        if !self.process(pid).is_some_and(|p| p.state.is_runnable()) {
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
    /// Each turn of the burst loop lets the VM's own dispatch loop
    /// ([`pilgrim_cclu::run`]) execute the plain instructions that end
    /// before `horizon`, commits what they cost to `clock`, `slice_used`,
    /// `steps_total` and the context's two clocks at once, and then
    /// [`step`](pilgrim_cclu::step)s the one instruction `run` stopped at
    /// (a system call, an allocation, one that would reach `horizon`).
    /// Inside a burst only those fields move, so every system call, which
    /// only `step` executes, sees the clock it would under single stepping.
    /// A burst ends with the first instruction that is not a plain `Ran`,
    /// that leaves work for the epilogue below (a block, a fork, a
    /// wake-up), or that reaches `horizon`; that instruction is committed
    /// by the epilogue like any single step. A process in trace mode or
    /// with a halt pending is stepped once, since its epilogue acts on
    /// every instruction, and so is every process under `profile_vm`,
    /// whose books are kept per instruction.
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
            tracer: &self.tracer,
            capture: proc
                .print_redirect()
                .then(|| self.buffers.entry(pid).or_default()),
            span: proc.span,
            outcalls: &mut self.outcalls,
            next_pid: &mut self.next_pid,
            next_token: &mut self.next_token,
            spawns: std::mem::take(&mut self.spawn_scratch),
            wakes: std::mem::take(&mut self.wake_scratch),
            block: None,
        };

        let burst = !was_trace && !proc.halt_pending() && !self.config.profile_vm;
        let outcome = loop {
            if let (true, ProcBody::Vm(vm)) = (burst, &mut proc.body) {
                let mut env = ExecEnv {
                    heap: &mut self.heap,
                    program: &self.program,
                    globals: &mut self.globals,
                    sys: &mut ctx,
                };
                let budget = horizon.saturating_since(self.clock).as_micros();
                let run = pilgrim_cclu::run(vm, &mut env, budget);
                if run.ran > 0 {
                    let d = SimDuration::from_micros(run.spent);
                    self.clock += d;
                    self.slice_used += d;
                    self.steps_total += run.ran;
                    ctx.now = self.clock;
                    ctx.logical_now = Self::logical_at(self.halt_marker, self.clock, self.delta);
                }
                if let Some(end) = run.end {
                    break end;
                }
            }
            let mut env = ExecEnv {
                heap: &mut self.heap,
                program: &self.program,
                globals: &mut self.globals,
                sys: &mut ctx,
            };
            let outcome = match &mut proc.body {
                // (A VM process's resume values are already on its value
                // stack, pushed at wake time.)
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

        // The committed instruction's cost, charged once before any arm
        // below emits: each emits at the clock after its instruction (a
        // trap costs nothing).
        let cost = match &outcome {
            StepOutcome::Ran { cost }
            | StepOutcome::Blocked { cost }
            | StepOutcome::Exited { cost }
            | StepOutcome::Faulted { cost, .. } => *cost,
            StepOutcome::Trapped { .. } => 0,
        };
        let d = SimDuration::from_micros(cost);
        self.clock += d;
        self.slice_used += d;

        if let Some((proc_id, cursor)) = profiled {
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
            StepOutcome::Ran { .. } => {
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
            StepOutcome::Blocked { .. } => {
                proc.state = block.unwrap_or(RunState::Runnable);
                if let Some(deadline) = proc.state.deadline() {
                    self.timers.push(Reverse((deadline, pid)));
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
            StepOutcome::Exited { .. } => {
                Self::bury(proc, None);
                if self.tracer.wants(TraceCategory::Sched) {
                    self.tracer.emit(
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
            StepOutcome::Faulted { fault, .. } => {
                if self.tracer.wants(TraceCategory::Vm) {
                    self.tracer.emit(
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
                Self::bury(proc, Some(fault.clone()));
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
                track.ledger.executing += track.since.settle(self.clock);
            }
        }

        // Deferred halt: a halt arrived while the process was inside the
        // allocator; apply it the moment the allocator is exited (§5.5).
        if proc.halt_pending() && !proc.in_allocator() {
            let freeze = self.config.freeze_timeouts_on_halt;
            let clock = self.clock;
            let info = Self::apply_halt(proc, clock, freeze);
            self.halts.insert(pid, info);
        }

        // A forked worker belongs to the same causal activity as its
        // parent (e.g. a server process forking helpers).
        let parent_span = proc.span;
        for (new_pid, proc_id, args) in spawns.drain(..) {
            let name = NameId::of_proc(proc_id);
            let body = ProcBody::Vm(VmProcess::spawn(proc_id, args));
            let opts = SpawnOpts {
                priority: 1,
                ..SpawnOpts::default()
            };
            self.add_process(new_pid, name, body, opts, parent_span);
        }
        for (wpid, values) in wakes.drain(..) {
            self.wake(wpid, values);
        }
        self.spawn_scratch = spawns;
        self.wake_scratch = wakes;
    }
}
