//! The Mayflower supervisor, simulated.
//!
//! Mayflower is "a small operating system which supports multiple
//! light-weight processes" on each node of a Concurrent CLU program (paper
//! §2). This crate reproduces the supervisor features Pilgrim depends on:
//!
//! * light-weight processes sharing a heap, time-sliced by the scheduler;
//! * semaphores **with timeouts** and monitor locks — the §5.1/Figure 2
//!   interaction fabric;
//! * the debugger **halt primitive** (§5.2): place selected processes on a
//!   special wait queue with their timeouts *frozen*, honouring each
//!   process's "must not be halted" bit and deferring the halt of any
//!   process inside the heap-allocator critical region (§5.5);
//! * the process-state **query primitive** (§5.4): runnable/waiting, which
//!   queue, priority, and the register set (code address);
//! * per-node real clock plus the **logical-clock delta** (§5.2) that is
//!   subtracted from every time value user programs read;
//! * process creation/deletion hooks surfaced as [`Outcall`]s, which is how
//!   the agent "must know of the existence of every process" (§5.4).
//!
//! Everything the node cannot resolve locally — RPC transmissions, trap
//! hits, faults — is reported as [`Outcall`]s to the layers above (the RPC
//! runtime and the Pilgrim agent live in separate crates).

#![warn(missing_docs)]

mod node;
mod process;
mod sync;

pub use node::{Node, NodeConfig, Outcall, SpawnOpts, UnknownProc};
pub use process::{
    HaltInfo, MutexId, NameId, NativeProcess, Pid, ProcBody, Process, ProcessInfo, RunState, SemId,
};

#[cfg(test)]
mod tests {
    use super::*;
    use pilgrim_cclu::{compile, Value};
    use pilgrim_sim::{EventKind, SimDuration, SimTime, SpanId, TraceCategory, Tracer};

    fn node_with(source: &str, seed: u64) -> Node {
        let program = compile(source).expect("test program compiles");
        Node::new(
            0,
            program,
            NodeConfig {
                seed,
                ..Default::default()
            },
            Tracer::new(),
        )
    }

    fn console_text(node: &Node) -> Vec<String> {
        node.console().iter().map(|(_, s)| s.clone()).collect()
    }

    fn run_until_quiet(node: &mut Node, limit: SimTime) -> Vec<Outcall> {
        let mut out = Vec::new();
        let mut t = node.clock();
        while t < limit {
            t = (t + SimDuration::from_millis(1)).min(limit);
            node.advance_into(t, &mut out);
            if node.next_activity().is_none() {
                break;
            }
        }
        out
    }

    #[test]
    fn fork_runs_child_processes() {
        let mut n = node_with(
            "worker = proc (n: int)\n print(\"child \" || int$unparse(n))\nend\n\
             main = proc ()\n fork worker(1)\n fork worker(2)\n print(\"parent\")\nend",
            1,
        );
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        run_until_quiet(&mut n, SimTime::from_secs(1));
        let out = console_text(&n);
        assert!(out.contains(&"parent".to_string()));
        assert!(out.contains(&"child 1".to_string()));
        assert!(out.contains(&"child 2".to_string()));
    }

    #[test]
    fn semaphore_signal_wakes_waiter() {
        let mut n = node_with(
            "waiter = proc (s: sem)\n ok: bool := sem$wait(s, 60000)\n\
             if ok then\n print(\"signalled\")\n else\n print(\"timeout\")\n end\nend\n\
             main = proc ()\n s: sem := sem$create(0)\n fork waiter(s)\n sleep(50)\n sem$signal(s)\nend",
            2,
        );
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        run_until_quiet(&mut n, SimTime::from_secs(2));
        assert_eq!(console_text(&n), vec!["signalled"]);
    }

    #[test]
    fn semaphore_timeout_fires_at_deadline() {
        let mut n = node_with(
            "main = proc ()\n s: sem := sem$create(0)\n\
             before: int := now()\n\
             ok: bool := sem$wait(s, 200)\n\
             after: int := now()\n\
             if ok then\n print(\"signalled\")\n else\n print(\"timeout at \" || int$unparse(after - before))\n end\nend",
            3,
        );
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        run_until_quiet(&mut n, SimTime::from_secs(2));
        let out = console_text(&n);
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("timeout at 200"), "{out:?}");
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        // Two incrementers under a lock: the final count must be exact.
        let mut n = node_with(
            "own count: int := 0\n\
             bump = proc (m: mutex, d: sem)\n\
             for i: int := 1 to 50 do\n\
               mutex$lock(m)\n\
               c: int := count\n\
               sleep(1)\n\
               count := c + 1\n\
               mutex$unlock(m)\n\
             end\n\
             sem$signal(d)\n\
             end\n\
             main = proc ()\n\
             m: mutex := mutex$create()\n\
             d: sem := sem$create(0)\n\
             fork bump(m, d)\n fork bump(m, d)\n\
             ok: bool := sem$wait(d, 0 - 1)\n\
             ok2: bool := sem$wait(d, 0 - 1)\n\
             print(count)\n\
             end",
            4,
        );
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        run_until_quiet(&mut n, SimTime::from_secs(10));
        assert_eq!(console_text(&n), vec!["100"]);
    }

    #[test]
    fn unsynchronized_increment_loses_updates() {
        // The same workload without the lock shows the unsafe shared-memory
        // interaction §5.1 insists debuggers must cope with.
        let mut n = node_with(
            "own count: int := 0\n\
             bump = proc (d: sem)\n\
             for i: int := 1 to 50 do\n\
               c: int := count\n\
               sleep(1)\n\
               count := c + 1\n\
             end\n\
             sem$signal(d)\n\
             end\n\
             main = proc ()\n\
             d: sem := sem$create(0)\n\
             fork bump(d)\n fork bump(d)\n\
             ok: bool := sem$wait(d, 0 - 1)\n\
             ok2: bool := sem$wait(d, 0 - 1)\n\
             print(count)\n\
             end",
            5,
        );
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        run_until_quiet(&mut n, SimTime::from_secs(10));
        let out = console_text(&n);
        let count: i64 = out[0].parse().unwrap();
        assert!(
            count < 100,
            "interleaved read-modify-write must lose updates, got {count}"
        );
    }

    #[test]
    fn halt_freezes_semaphore_timeouts() {
        // A process waits with a 200 ms timeout. 50 ms in, the debugger
        // halts the node for 500 ms. Without frozen timeouts the wait would
        // expire during the halt; with them, the process still has 150 ms
        // after resumption.
        let mut n = node_with(
            "main = proc ()\n s: sem := sem$create(0)\n\
             ok: bool := sem$wait(s, 200)\n\
             if ok then\n print(\"signalled\")\n else\n print(\"timeout\")\n end\nend",
            6,
        );
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(50));
        assert_eq!(n.halt_all(), 1);
        // Time passes while halted; the timer must NOT fire.
        let outcalls = n.advance_to(SimTime::from_millis(550));
        assert!(outcalls
            .iter()
            .all(|o| !matches!(o, Outcall::ProcExited { .. })));
        assert!(
            console_text(&n).is_empty(),
            "nothing may happen while halted"
        );
        n.resume_all();
        // The remaining ~150 ms of timeout now plays out.
        run_until_quiet(&mut n, SimTime::from_secs(2));
        assert_eq!(console_text(&n), vec!["timeout"]);
    }

    #[test]
    fn no_halt_bit_exempts_process() {
        let mut n = node_with(
            "spin = proc (s: sem)\n ok: bool := sem$wait(s, 0 - 1)\nend\n\
             main = proc ()\n s: sem := sem$create(0)\n fork spin(s)\n sleep(1000)\nend",
            7,
        );
        let main = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(10));
        n.set_no_halt(main, true);
        let halted = n.halt_all();
        // Only the forked child is halted; main is exempt.
        assert_eq!(halted, 1);
        assert!(!n.process(main).unwrap().halted());
    }

    #[test]
    fn halt_defers_inside_allocator() {
        let mut n = node_with(
            "main = proc ()\n\
             for i: int := 1 to 1000 do\n\
               xs: array[int] := array$new()\n\
               append(xs, i)\n\
             end\nend",
            8,
        );
        let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        // Step until the process is observed inside the allocator.
        let mut found = false;
        for _ in 0..10_000 {
            n.step_one(pid);
            if n.process(pid).unwrap().in_allocator() {
                found = true;
                break;
            }
        }
        assert!(found, "process must be observable inside the allocator");
        assert_eq!(n.halt_all(), 1);
        let p = n.process(pid).unwrap();
        assert!(p.halt_pending(), "halt must be deferred, not applied");
        assert!(!p.halted());
        // One more step exits the allocator and the halt lands.
        n.step_one(pid);
        let p = n.process(pid).unwrap();
        assert!(p.halted(), "halt applies on allocator exit");
        assert!(!p.in_allocator());
    }

    #[test]
    fn logical_clock_delta_subtracts_from_now() {
        let mut n = node_with(
            "main = proc ()\n sleep(100)\n print(now())\n sleep(100)\n print(now())\nend",
            9,
        );
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(150));
        // Simulate a 1-second halt having happened: delta grows by 1s.
        n.add_delta(SimDuration::from_secs(1));
        // Real clock jumps 1s forward (the halt), program resumes.
        run_until_quiet(&mut n, SimTime::from_secs(3));
        let out = console_text(&n);
        let t1: i64 = out[0].parse().unwrap();
        let t2: i64 = out[1].parse().unwrap();
        // t1 printed before the delta change; t2 after. The program slept
        // 100 ms twice; the logical clock must not show the extra second as
        // elapsed *program* time once the delta is accounted.
        assert!((100..120).contains(&t1), "t1={t1}");
        assert!(
            (t2 - t1) >= 100 - 1_000 && t2 - t1 < 220 - 1_000 + 1_000,
            "t2-t1={}",
            t2 - t1
        );
    }

    #[test]
    fn process_info_reports_supervisor_view() {
        let mut n = node_with(
            "waiter = proc (s: sem)\n ok: bool := sem$wait(s, 0 - 1)\nend\n\
             main = proc ()\n s: sem := sem$create(0)\n fork waiter(s)\n sleep(500)\nend",
            10,
        );
        let main = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(50));
        let info = n.process_info(main).unwrap();
        assert!(matches!(info.state, RunState::Sleeping { .. }));
        assert_eq!(&*info.name, "main");
        assert!(info.frames > 0);
        let pids = n.pids();
        assert_eq!(pids.len(), 2);
        let waiter = pids[1];
        let winfo = n.process_info(waiter).unwrap();
        match winfo.state {
            RunState::SemWait { sem } => {
                let (count, waiters) = n.sem_state(sem).unwrap();
                assert_eq!(count, 0);
                assert_eq!(waiters, vec![waiter]);
            }
            other => panic!("unexpected state {other:?}"),
        }
    }

    #[test]
    fn force_runnable_yanks_a_waiter() {
        let mut n = node_with(
            "main = proc ()\n s: sem := sem$create(0)\n\
             ok: bool := sem$wait(s, 0 - 1)\n\
             if ok then\n print(\"signalled\")\n else\n print(\"forced\")\n end\nend",
            11,
        );
        let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(10));
        assert!(matches!(
            n.process(pid).unwrap().state,
            RunState::SemWait { .. }
        ));
        assert!(n.force_runnable(pid));
        run_until_quiet(&mut n, SimTime::from_secs(1));
        assert_eq!(console_text(&n), vec!["forced"]);
    }

    #[test]
    fn redirected_output_is_captured_not_printed() {
        let mut n = node_with(
            "main = proc ()\n print(\"to buffer\")\n print(\"second\")\nend",
            12,
        );
        let pid = n
            .spawn(
                "main",
                vec![],
                SpawnOpts {
                    redirect_output: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(
            n.redirected_output(pid),
            Some(""),
            "redirected, not yet printed"
        );
        run_until_quiet(&mut n, SimTime::from_secs(1));
        assert!(console_text(&n).is_empty());
        assert_eq!(n.redirected_output(pid), Some("to buffer\nsecond"));
    }

    #[test]
    fn exit_values_are_retained() {
        let mut n = node_with(
            "main = proc (a: int) returns (int, string)\n return (a * 2, \"ok\")\nend",
            13,
        );
        let pid = n
            .spawn("main", vec![Value::Int(21)], SpawnOpts::default())
            .unwrap();
        run_until_quiet(&mut n, SimTime::from_secs(1));
        assert_eq!(
            n.exit_values(pid).unwrap(),
            &[Value::Int(42), Value::Str("ok".into())]
        );
    }

    #[test]
    fn faults_surface_as_outcalls() {
        let mut n = node_with("main = proc ()\n x: int := 1 / 0\nend", 14);
        let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        let outcalls = run_until_quiet(&mut n, SimTime::from_secs(1));
        let fault = outcalls.iter().find_map(|o| match o {
            Outcall::Fault { pid: p, fault, .. } if *p == pid => Some(fault.clone()),
            _ => None,
        });
        assert_eq!(fault.unwrap().kind, pilgrim_cclu::FaultKind::DivideByZero);
        assert!(matches!(
            n.process(pid).unwrap().state,
            RunState::Faulted(_)
        ));
    }

    /// A dead record keeps what a post-mortem reads and nothing else. Each
    /// process makes a nested call first, so its stacks have grown past
    /// one frame and past its root's locals when it dies.
    #[test]
    fn a_dead_record_keeps_what_a_post_mortem_reads() {
        let mut n = node_with(
            "inc = proc (x: int) returns (int)\n return (x + 1)\nend\n\
             sq = proc (x: int) returns (int)\n return (x * x)\nend\n\
             done = proc (a: int) returns (int)\n b: int := inc(a)\n return (b * 2)\nend\n\
             crash = proc (a: int)\n b: int := inc(a)\n c: int := b / 0\nend\n\
             remote = proc (a: int)\n b: int := inc(a)\n r: int := call sq(b) at 1\nend",
            27,
        );
        let [done, crash, remote] = ["done", "crash", "remote"].map(|entry| {
            n.spawn(entry, vec![Value::Int(20)], SpawnOpts::default())
                .unwrap()
        });
        let outcalls = n.advance_to(SimTime::from_millis(50));
        let token = outcalls
            .iter()
            .find_map(|o| match o {
                Outcall::Rpc { pid, token, .. } if *pid == remote => Some(*token),
                _ => None,
            })
            .expect("rpc outcall");
        n.fail_rpc(
            remote,
            token,
            pilgrim_cclu::Fault {
                kind: pilgrim_cclu::FaultKind::RemoteCall,
                message: "node 1 is down".into(),
            },
        );
        let vm = |pid| n.process(pid).unwrap().vm().unwrap();

        assert_eq!(n.process(done).unwrap().state, RunState::Exited);
        assert_eq!(n.exit_values(done), Some(&[Value::Int(42)][..]));
        let body = vm(done);
        assert_eq!(body.frames.capacity(), 0, "the call stack is freed");
        assert_eq!(
            body.exit_values.capacity(),
            1,
            "the value stack shrinks to the exit values"
        );

        for pid in [crash, remote] {
            let info = n.process_info(pid).unwrap();
            assert!(matches!(info.state, RunState::Faulted(_)), "{info:?}");
            assert_eq!(info.frames, 1, "{pid}: the backtrace is kept");
            assert_eq!(info.addr, n.process(pid).unwrap().addr());
            assert!(info.addr.is_some(), "{pid}");
            // `a`, `b` and the slot the fault left unassigned.
            let kept = vm(pid).locals(0).expect("the root frame's locals");
            assert_eq!(kept, [Value::Int(20), Value::Int(21), Value::Null], "{pid}");
        }
    }

    const RPC_SOURCE: &str = "sq = proc (x: int) returns (int)\n return (x * x)\nend\n\
         idle = proc ()\nend\n\
         nap = proc ()\n sleep(10000)\nend\n\
         main = proc ()\n r: int := call sq(6) at 1\n print(r)\nend";

    /// Spawns `main` and runs it into its remote call; returns the caller
    /// and the call's token.
    fn blocked_caller(n: &mut Node) -> (Pid, u64) {
        let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        let outcalls = n.advance_to(n.clock() + SimDuration::from_millis(5));
        let token = outcalls
            .iter()
            .find_map(|o| match o {
                Outcall::Rpc { pid: p, token, .. } if *p == pid => Some(*token),
                _ => None,
            })
            .expect("rpc outcall");
        assert_eq!(n.process(pid).unwrap().state, RunState::RpcWait { token });
        (pid, token)
    }

    #[test]
    fn rpc_surfaces_as_outcall_and_resumes() {
        let mut n = node_with(RPC_SOURCE, 15);
        let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        let outcalls = n.advance_to(SimTime::from_millis(5));
        let (caller, token, req) = outcalls
            .iter()
            .find_map(|o| match o {
                Outcall::Rpc {
                    pid, token, req, ..
                } => Some((*pid, *token, req)),
                _ => None,
            })
            .expect("rpc outcall");
        assert_eq!(caller, pid);
        assert_eq!(&*req.proc_name, "sq");
        assert_eq!(req.node, 1);
        assert_eq!(req.args, vec![Value::Int(6)]);
        // The world (here: the test) completes the call.
        n.resume_rpc(caller, token, vec![Value::Int(36)]);
        run_until_quiet(&mut n, SimTime::from_secs(1));
        assert_eq!(console_text(&n), vec!["36"]);
    }

    /// Completion wakes or faults exactly the process blocked on exactly
    /// that token; every other address is a no-op, for both entry points.
    #[test]
    fn misaddressed_rpc_completion_is_a_noop() {
        let fault = || pilgrim_cclu::Fault {
            kind: pilgrim_cclu::FaultKind::RemoteCall,
            message: "node 1 is down".into(),
        };
        let mut n = node_with(RPC_SOURCE, 15);
        let exited = n.spawn("idle", vec![], SpawnOpts::default()).unwrap();
        let sleeper = n.spawn("nap", vec![], SpawnOpts::default()).unwrap();
        // A first call, completed, so that its token is stale.
        let (first, stale) = blocked_caller(&mut n);
        n.resume_rpc(first, stale, vec![Value::Int(1)]);
        n.advance_to(n.clock() + SimDuration::from_millis(5));
        assert_eq!(n.process(first).unwrap().state, RunState::Exited);
        assert_eq!(n.process(exited).unwrap().state, RunState::Exited);
        let (waiter, live) = blocked_caller(&mut n);
        let (other, other_live) = blocked_caller(&mut n);
        let out_of_range = Pid(n.pids().len() as u64 + 1);
        let states = |n: &Node| -> Vec<RunState> {
            let state = |p: &Pid| n.process(*p).unwrap().state.clone();
            n.pids().iter().map(state).collect()
        };
        let before = states(&n);
        let misaddressed = [
            (waiter, stale),
            (waiter, other_live),
            (waiter, live + 1000),
            (other, live),
            (sleeper, live),
            (exited, live),
            (first, stale),
            (first, live),
            (Pid(0), live),
            (out_of_range, live),
            (Pid(u64::MAX), live),
        ];
        for (pid, token) in misaddressed {
            n.resume_rpc(pid, token, vec![Value::Int(7)]);
            n.fail_rpc(pid, token, fault());
        }
        assert_eq!(before, states(&n), "no process may change state");
        let outcalls = n.advance_to(n.clock() + SimDuration::from_millis(5));
        assert!(outcalls.is_empty(), "{outcalls:?}");
        assert_eq!(console_text(&n), vec!["1"], "nothing was resumed");

        // The right addresses still work, each for its own caller.
        n.fail_rpc(other, other_live, fault());
        assert!(matches!(
            n.process(other).unwrap().state,
            RunState::Faulted(_)
        ));
        n.resume_rpc(waiter, live, vec![Value::Int(36)]);
        let outcalls = n.advance_to(n.clock() + SimDuration::from_millis(5));
        assert!(outcalls
            .iter()
            .any(|o| matches!(o, Outcall::Fault { pid, .. } if *pid == other)));
        assert_eq!(console_text(&n), vec!["1", "36"]);
    }

    #[test]
    fn halted_rpc_waiter_is_resumed_with_its_values_and_stays_halted() {
        let mut n = node_with(RPC_SOURCE, 15);
        let (pid, token) = blocked_caller(&mut n);
        assert_eq!(n.halt_all(), 1);
        n.resume_rpc(pid, token, vec![Value::Int(36)]);
        let info = n.process_info(pid).unwrap();
        assert_eq!(info.state, RunState::Runnable);
        assert!(info.halted);
        n.advance_to(n.clock() + SimDuration::from_millis(500));
        assert!(console_text(&n).is_empty(), "halted: it must not run");
        n.resume_all();
        run_until_quiet(&mut n, SimTime::from_secs(2));
        assert_eq!(console_text(&n), vec!["36"]);
    }

    /// The arena never shrinks; completion must not care how many dead
    /// processes sit in it.
    #[test]
    fn late_waiter_resumes_on_a_node_full_of_exited_processes() {
        let mut n = node_with(RPC_SOURCE, 15);
        for _ in 0..10_000 {
            n.spawn("idle", vec![], SpawnOpts::default()).unwrap();
        }
        run_until_quiet(&mut n, SimTime::from_secs(60));
        let dead = n
            .pids()
            .iter()
            .filter(|p| n.process(**p).unwrap().state == RunState::Exited)
            .count();
        assert_eq!(dead, 10_000);
        let (pid, token) = blocked_caller(&mut n);
        assert_eq!(pid, Pid(10_001));
        n.resume_rpc(pid, token, vec![Value::Int(36)]);
        let limit = n.clock() + SimDuration::from_secs(1);
        run_until_quiet(&mut n, limit);
        assert_eq!(console_text(&n), vec!["36"]);
    }

    #[test]
    fn trap_outcall_and_step_over() {
        let mut n = node_with("main = proc ()\n x: int := 1\n x := 2\n print(x)\nend", 16);
        let addr = n.program().addr_for_line(3).unwrap();
        let orig = n.program_mut().replace_op(addr, pilgrim_cclu::Op::Trap(9));
        let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        let outcalls = n.advance_to(SimTime::from_millis(5));
        let trap = outcalls.iter().find_map(|o| match o {
            Outcall::Trap {
                pid: p, bp, addr, ..
            } => Some((*p, *bp, *addr)),
            _ => None,
        });
        assert_eq!(trap, Some((pid, 9, addr)));
        assert!(matches!(
            n.process(pid).unwrap().state,
            RunState::Trapped { bp: 9 }
        ));

        // Step-over dance (§5.5): restore, trace-step, re-plant, release.
        let trap_op = n.program_mut().replace_op(addr, orig);
        n.process_mut(pid).unwrap().vm_mut().unwrap().trace_once = true;
        n.process_mut(pid).unwrap().state = RunState::Runnable;
        n.step_one(pid);
        assert!(matches!(
            n.process(pid).unwrap().state,
            RunState::TraceStopped
        ));
        n.program_mut().replace_op(addr, trap_op);
        assert!(n.release_stopped(pid));
        run_until_quiet(&mut n, SimTime::from_secs(1));
        assert_eq!(console_text(&n), vec!["2"]);
    }

    /// `step_one` runs a runnable process only: a sleeper stepped in place
    /// would move its pc past the sleep while its timer still stood.
    #[test]
    fn step_one_leaves_a_parked_process_parked() {
        let mut n = node_with("main = proc ()\n sleep(100)\n print(\"x\")\nend", 26);
        let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(1));
        assert!(matches!(
            n.process(pid).unwrap().state,
            RunState::Sleeping { .. }
        ));
        let addr = n.process(pid).unwrap().addr();
        assert!(!n.step_one(pid));
        assert_eq!(n.process(pid).unwrap().addr(), addr, "pc unmoved");
        run_until_quiet(&mut n, SimTime::from_secs(1));
        assert_eq!(console_text(&n), vec!["x"]);
    }

    /// Both callers of the one process constructor on a node the debugger
    /// has halted: a spawn is halted at birth unless it has the no-halt
    /// bit, and a fork by a running no-halt process is halted at birth and
    /// joins its parent's span, in the record and in `ProcessSpawned`.
    #[test]
    fn processes_born_on_a_halted_node_are_halted_at_birth() {
        let program = compile(
            "worker = proc ()\n sleep(10)\nend\n\
             main = proc ()\n fork worker()\n sleep(10)\nend",
        )
        .unwrap();
        let tracer = Tracer::new();
        let mut n = Node::new(0, program, NodeConfig::default(), tracer.clone());
        n.mark_halted(SimTime::ZERO);
        let plain = n.spawn("worker", vec![], SpawnOpts::default()).unwrap();
        let no_halt = SpawnOpts {
            no_halt: true,
            ..Default::default()
        };
        let parent = n.spawn("main", vec![], no_halt).unwrap();
        assert!(n.process(plain).unwrap().halted());
        assert!(!n.process(parent).unwrap().halted());
        let span = SpanId::from_wire(77).expect("nonzero");
        n.process_mut(parent).unwrap().span = Some(span);
        n.advance_to(SimTime::from_millis(1));

        let child = Pid(3);
        let rec = n.process(child).expect("main forked");
        assert_eq!(&**n.name(rec.name), "worker");
        assert!(rec.halted(), "halted at birth");
        assert!(!rec.no_halt());
        assert_eq!((rec.priority, rec.span), (1, Some(span)));
        let spawned: Vec<_> = tracer
            .events_in(TraceCategory::Sched)
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::ProcessSpawned { pid, .. } => Some((pid, e.span)),
                _ => None,
            })
            .collect();
        assert_eq!(
            spawned,
            vec![(plain.0, None), (parent.0, None), (child.0, Some(span))]
        );
    }

    #[test]
    fn time_slicing_interleaves_processes() {
        let mut n = node_with(
            "spin = proc (tag: string, d: sem)\n\
             for i: int := 1 to 3 do\n\
               t: int := 0\n\
               while t < 3000 do\n t := t + 1\n end\n\
               print(tag)\n\
             end\n\
             sem$signal(d)\n\
             end\n\
             main = proc ()\n d: sem := sem$create(0)\n\
             fork spin(\"a\", d)\n fork spin(\"b\", d)\n\
             ok: bool := sem$wait(d, 0 - 1)\n ok2: bool := sem$wait(d, 0 - 1)\nend",
            17,
        );
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        run_until_quiet(&mut n, SimTime::from_secs(30));
        let out = console_text(&n);
        assert_eq!(out.len(), 6);
        // With 10 ms slices and ~tens-of-ms loop bodies, output interleaves
        // rather than running one process to completion first.
        let first_b = out.iter().position(|s| s == "b").unwrap();
        let last_a = out.iter().rposition(|s| s == "a").unwrap();
        assert!(first_b < last_a, "expected interleaving, got {out:?}");
    }

    #[test]
    fn idle_node_reports_no_activity() {
        let mut n = node_with("main = proc ()\n print(\"hi\")\nend", 18);
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        assert!(n.next_activity().is_some());
        run_until_quiet(&mut n, SimTime::from_secs(1));
        assert!(n.next_activity().is_none(), "all processes exited");
    }

    #[test]
    fn halted_runnable_process_resumes_scheduling() {
        let mut n = node_with(
            "main = proc ()\n t: int := 0\n while t < 100000 do\n t := t + 1\n end\n print(\"done\")\nend",
            19,
        );
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(5));
        n.halt_all();
        n.advance_to(SimTime::from_millis(500));
        assert!(console_text(&n).is_empty());
        n.resume_all();
        run_until_quiet(&mut n, SimTime::from_secs(60));
        assert_eq!(console_text(&n), vec!["done"]);
    }

    /// `next_activity` must be *exact*, never a conservative lower bound:
    /// the world's activity index caches it, and a stale-early answer
    /// would inject a spurious sync point. Halting freezes a sleeper —
    /// its timer-heap entry goes stale and must be invisible — and
    /// resuming re-arms the rewritten deadline.
    #[test]
    fn next_activity_exact_across_halt_resume() {
        let mut n = node_with("main = proc ()\n sleep(100)\n print(\"woke\")\nend", 20);
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(10));
        let deadline = n.next_activity().expect("sleeper arms a deadline");
        n.halt_all();
        assert_eq!(n.next_activity(), None, "frozen sleeper must not surface");
        n.advance_to(SimTime::from_millis(40));
        n.resume_all();
        // The deadline shifts by exactly the 30 ms halt duration.
        assert_eq!(
            n.next_activity(),
            Some(deadline + SimDuration::from_millis(30))
        );
        run_until_quiet(&mut n, SimTime::from_secs(1));
        assert_eq!(console_text(&n), vec!["woke"]);
    }

    /// The E4 ablation's side of the same rule: when halts do not freeze
    /// timeouts, a halted sleeper's deadline stays visible to the activity
    /// index and fires at exactly that time — not at whatever later
    /// instant the node next happens to be stepped.
    #[test]
    fn unfrozen_halted_sleeper_surfaces_and_fires_on_time() {
        let program = compile("main = proc ()\n sleep(100)\n print(\"woke\")\nend").unwrap();
        let cfg = NodeConfig {
            freeze_timeouts_on_halt: false,
            seed: 23,
            ..Default::default()
        };
        let mut n = Node::new(0, program, cfg, Tracer::new());
        let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(10));
        let deadline = n.next_activity().expect("sleeper arms a deadline");
        n.halt_all();
        assert_eq!(
            n.next_activity(),
            Some(deadline),
            "an unfrozen timeout keeps burning through the halt"
        );
        let tick = SimDuration::from_micros(1);
        n.advance_to(deadline - tick);
        assert!(matches!(
            n.process(pid).unwrap().state,
            RunState::Sleeping { .. }
        ));
        n.advance_to(deadline + tick);
        assert!(n.process(pid).unwrap().state.is_runnable());
        assert_eq!(n.next_activity(), None, "woken but still halted");
        assert!(console_text(&n).is_empty());
        n.resume_all();
        run_until_quiet(&mut n, SimTime::from_secs(1));
        assert_eq!(console_text(&n), vec!["woke"]);
    }

    /// A halt/resume at one instant re-pushes an identical deadline onto
    /// the lazy timer heap (a duplicate live entry). Expiry must
    /// deduplicate: the sleeper wakes exactly once.
    #[test]
    fn duplicate_timer_entries_wake_once() {
        let mut n = node_with(
            "main = proc ()\n s: sem := sem$create(0)\n ok: bool := sem$wait(s, 100)\n\
             if ok then\n print(\"signalled\")\n else\n print(\"timeout\")\n end\nend",
            21,
        );
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(10));
        let deadline = n.next_activity().expect("waiter arms a deadline");
        n.halt_all();
        n.resume_all(); // zero-length halt: deadline re-armed unchanged
        assert_eq!(n.next_activity(), Some(deadline));
        run_until_quiet(&mut n, SimTime::from_secs(1));
        assert_eq!(console_text(&n), vec!["timeout"]);
    }

    /// `catch_up_clock` is how the world advances a skipped-quiescent
    /// node: it must jump the clock without scheduling anything, and a
    /// later deadline must fire at its proper (undisturbed) time.
    #[test]
    fn catch_up_clock_preserves_pending_deadline() {
        let mut n = node_with(
            "main = proc ()\n s: sem := sem$create(0)\n ok: bool := sem$wait(s, 500)\n\
             print(\"late \" || int$unparse(now()))\nend",
            22,
        );
        n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(5));
        assert_eq!(n.clock(), SimTime::from_millis(5));
        let deadline = n.next_activity().expect("waiter arms a deadline");
        n.catch_up_clock(SimTime::from_millis(300));
        assert_eq!(n.clock(), SimTime::from_millis(300));
        assert_eq!(
            n.next_activity(),
            Some(deadline),
            "catching up must not disturb the armed timeout"
        );
        run_until_quiet(&mut n, SimTime::from_secs(1));
        let out = console_text(&n);
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("late 500"), "{out:?}");
    }

    // ------------------------------------------------------------------
    // Burst stepping: the scheduler events a burst must not run past.
    // `profile_vm` keeps the scheduler in the loop on every instruction,
    // so a profiled twin given the same calls is the single-step oracle.
    // ------------------------------------------------------------------

    fn burst_and_oracle(source: &str) -> [Node; 2] {
        [false, true].map(|profile_vm| {
            let cfg = NodeConfig {
                profile_vm,
                ..Default::default()
            };
            Node::new(0, compile(source).unwrap(), cfg, Tracer::new())
        })
    }

    const SPIN: &str = "main = proc ()\n t: int := 0\n while t < 100000 do\n t := t + 1\n end\n\
                        print(t)\nend";

    #[test]
    fn sleeper_due_mid_slice_wakes_at_its_deadline_and_queue_position() {
        // The sleeper's 3 ms deadline falls inside b's first 10 ms slice.
        // Woken there, it queues behind c ([b, c, sleeper]) and prints when
        // c's slice ends; woken only when b's burst is over, after the
        // rotation, it would queue behind b too and print a slice later.
        let nodes = burst_and_oracle(
            "sleeper = proc ()\n sleep(3)\n print(\"woke\")\nend\n\
             spin = proc (tag: string)\n t: int := 0\n while t < 6000 do\n t := t + 1\n end\n\
             print(tag)\nend\n\
             main = proc ()\n fork sleeper()\n fork spin(\"b\")\n fork spin(\"c\")\nend",
        );
        let consoles = nodes.map(|mut n| {
            n.spawn("main", vec![], SpawnOpts::default()).unwrap();
            n.advance_to(SimTime::from_secs(1));
            n.console().to_vec()
        });
        let [burst, oracle] = &consoles;
        assert_eq!(burst, oracle, "timestamps included");
        let (woke_at, first) = &burst[0];
        assert_eq!(first, "woke", "{burst:?}");
        let slice = NodeConfig::default().time_slice;
        let two_slices = SimTime::ZERO + slice * 2;
        assert!(
            (two_slices..two_slices + SimDuration::from_millis(1)).contains(woke_at),
            "the sleeper ran after b's and c's first slices, at {woke_at}"
        );
    }

    #[test]
    fn trap_inside_a_burst_stops_with_the_pc_unadvanced() {
        let traps = burst_and_oracle(SPIN).map(|mut n| {
            let addr = n.program().addr_for_line(6).unwrap();
            n.program_mut().replace_op(addr, pilgrim_cclu::Op::Trap(3));
            let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
            // One window: the hot loop runs as 10 ms bursts up to the trap.
            let outcalls = n.advance_to(SimTime::from_secs(60));
            let traps: Vec<_> = outcalls
                .iter()
                .filter_map(|o| match o {
                    Outcall::Trap { pid, bp, addr, at } => Some((*pid, *bp, *addr, *at)),
                    _ => None,
                })
                .collect();
            let [(p, 3, a, at)] = traps[..] else {
                panic!("exactly one trap, got {outcalls:?}");
            };
            assert_eq!((p, a), (pid, addr));
            assert_eq!(n.process(pid).unwrap().addr(), Some(addr), "pc unadvanced");
            assert!(console_text(&n).is_empty(), "the trapped print did not run");
            (at, n.steps_total())
        });
        assert_eq!(
            traps[0], traps[1],
            "(trap clock, instructions) vs single-stepping"
        );
        assert!(traps[0].1 > 100_000, "the loop ran to completion first");
    }

    const ALLOC_LOOP: &str = "main = proc ()\n for i: int := 1 to 1000 do\n\
                              xs: array[int] := array$new()\n append(xs, i)\n end\nend";

    #[test]
    fn pending_halt_lands_on_the_instruction_that_leaves_the_allocator() {
        let mut n = node_with(ALLOC_LOOP, 24);
        let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        while !n.process(pid).unwrap().in_allocator() {
            assert!(n.step_one(pid));
        }
        assert!(n.halt_one(pid));
        assert!(n.process(pid).unwrap().halt_pending());
        // The scheduler's own path, with a whole slice of horizon ahead:
        // the halt (§5.5) still applies after exactly one instruction.
        let steps = n.steps_total();
        n.advance_to(n.clock() + SimDuration::from_secs(1));
        assert_eq!(n.steps_total(), steps + 1);
        let p = n.process(pid).unwrap();
        assert!(!p.in_allocator() && !p.halt_pending());
        assert!(p.halted(), "halt applied");
        // Where the halt landed, from a second node single-stepped throughout.
        let mut twin = node_with(ALLOC_LOOP, 24);
        let twin_pid = twin.spawn("main", vec![], SpawnOpts::default()).unwrap();
        for _ in 0..=steps {
            twin.step_one(twin_pid);
        }
        assert_eq!(p.addr(), twin.process(twin_pid).unwrap().addr());
    }

    #[test]
    fn trace_once_under_advance_to_executes_exactly_one_instruction() {
        let stops = burst_and_oracle(SPIN).map(|mut n| {
            let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
            n.advance_to(SimTime::from_millis(1));
            n.process_mut(pid).unwrap().vm_mut().unwrap().trace_once = true;
            let steps = n.steps_total();
            let outcalls = n.advance_to(SimTime::from_secs(1));
            assert_eq!(n.steps_total(), steps + 1);
            let [Outcall::TraceStop { pid: p, at }] = outcalls[..] else {
                panic!("exactly one TraceStop, got {outcalls:?}");
            };
            assert_eq!(p, pid);
            assert!(matches!(
                n.process(pid).unwrap().state,
                RunState::TraceStopped
            ));
            at
        });
        assert_eq!(stops[0], stops[1], "TraceStop clock vs single-stepping");
        assert!(stops[0] < SimTime::from_millis(1) + SimDuration::from_micros(100));
    }

    /// `step_one` in the middle of a hot loop, where a burst would run
    /// thousands of instructions, runs exactly one.
    #[test]
    fn step_one_in_a_hot_loop_runs_one_instruction() {
        let mut n = node_with(SPIN, 27);
        let pid = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        n.advance_to(SimTime::from_millis(1));
        let op_at = |n: &Node| {
            let addr = n.process(pid).unwrap().addr().unwrap();
            (addr, n.program().op_at(addr).unwrap().clone())
        };
        // Single-step to the loop's `t + 1`, whose successor is pc + 1.
        for _ in 0..20 {
            let (addr, op) = op_at(&n);
            let (steps, clock) = (n.steps_total(), n.clock());
            assert!(n.step_one(pid));
            assert_eq!(n.steps_total(), steps + 1, "at {addr}");
            if op == pilgrim_cclu::Op::Add {
                let (next, _) = op_at(&n);
                assert_eq!(next.pc, addr.pc + 1);
                assert_eq!(n.clock(), clock + SimDuration::from_micros(2));
                return;
            }
        }
        panic!("no `Add` in twenty instructions of the loop");
    }

    /// Windows that end at every offset of the loop's 2 µs instructions:
    /// each is overshot by less than one instruction, at the clock the
    /// single-step oracle reads.
    #[test]
    fn advance_into_overshoots_by_at_most_one_instruction() {
        let clocks = burst_and_oracle(SPIN).map(|mut n| {
            n.spawn("main", vec![], SpawnOpts::default()).unwrap();
            let mut t = SimTime::ZERO;
            let mut clocks = Vec::new();
            for k in 1..400 {
                t += SimDuration::from_micros(k % 7 + k % 3 * 1_000);
                n.advance_to(t);
                assert!(t <= n.clock() && n.clock() < t + SimDuration::from_micros(2));
                clocks.push(n.clock());
            }
            assert!(console_text(&n).is_empty(), "still in the loop");
            clocks
        });
        assert_eq!(clocks[0], clocks[1], "window clocks vs single-stepping");
    }

    /// Program-supplied timeouts near `u64::MAX` µs used to overflow the
    /// millisecond conversion: a debug build panicked, a release build
    /// wrapped to a ~1 ms sleep. They saturate to "never" instead.
    #[test]
    fn huge_program_supplied_timeouts_park_forever() {
        let mut n = node_with(
            "waiter = proc ()\n s: sem := sem$create(0)\n\
             ok: bool := sem$wait(s, 18446744073709553)\n print(\"wait over\")\nend\n\
             main = proc ()\n fork waiter()\n sleep(18446744073709553)\n print(\"woke\")\nend",
            25,
        );
        let main = n.spawn("main", vec![], SpawnOpts::default()).unwrap();
        let hour = SimTime::ZERO + SimDuration::from_hours(1);
        n.advance_to(hour);
        assert_eq!(n.clock(), hour);
        assert!(console_text(&n).is_empty());
        assert!(matches!(
            n.process(main).unwrap().state,
            RunState::Sleeping { .. }
        ));
        let waiter = n.pids()[1];
        assert!(matches!(
            n.process(waiter).unwrap().state,
            RunState::SemWaitTimed { .. }
        ));
        assert!(
            n.next_activity().is_none_or(|t| t > hour),
            "a parked sleeper is not due: {:?}",
            n.next_activity()
        );
    }
}
