//! Coverage of the agent's low-level request surface — the §3 primitives
//! the higher-level debugger operations are built from.

use pilgrim::{
    AgentReply, AgentRequest, DebugEvent, SimDuration, SimTime, StateView, WireValue, World,
};

const PROGRAM: &str = "\
own tally: int := 7
own label: string := \"boot\"

spin = proc (rounds: int)
 acc: int := 0
 for i: int := 1 to rounds do
  acc := acc + i
  sleep(10)
 end
 print(\"acc \" || int$unparse(acc))
end

blocker = proc ()
 s: sem := sem$create(0)
 ok: bool := sem$wait(s, 0 - 1)
 if ok then
  print(\"woken\")
 else
  print(\"released\")
 end
end";

fn world() -> World {
    let mut w = World::builder().nodes(1).program(PROGRAM).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w
}

#[test]
fn raw_variable_and_global_access() {
    let mut w = world();
    let pid = w.spawn(0, "spin", vec![pilgrim::Value::Int(1000)]).0;
    w.run_for(SimDuration::from_millis(100));

    // Raw slot-level reads, as the agent's memory-access primitive works.
    // Slot 1 is `acc` (slot 0 = the parameter).
    let reply = w
        .debug_request(
            0,
            AgentRequest::ReadVar {
                pid,
                frame: 0,
                slot: 1,
            },
        )
        .unwrap();
    let AgentReply::Value(WireValue::Int(acc)) = reply else {
        panic!("unexpected {reply:?}")
    };
    assert!(acc > 0);

    // Globals by slot.
    let reply = w
        .debug_request(0, AgentRequest::ReadGlobal { slot: 0 })
        .unwrap();
    assert!(matches!(reply, AgentReply::Value(WireValue::Int(7))));
    let reply = w
        .debug_request(0, AgentRequest::ReadGlobal { slot: 1 })
        .unwrap();
    let AgentReply::Value(WireValue::Str(s)) = reply else {
        panic!()
    };
    assert_eq!(&*s, "boot");

    // Write a global and read it back through the source-level path.
    w.debug_request(
        0,
        AgentRequest::WriteGlobal {
            slot: 1,
            value: Box::new(WireValue::Str("patched".into())),
        },
    )
    .unwrap();
    assert_eq!(w.inspect(0, pid, "label").unwrap(), "patched");

    // Out-of-range accesses error rather than panic.
    assert!(w
        .debug_request(0, AgentRequest::ReadGlobal { slot: 99 })
        .is_err());
    assert!(w
        .debug_request(
            0,
            AgentRequest::ReadVar {
                pid,
                frame: 9,
                slot: 0
            }
        )
        .is_err());
    assert!(w
        .debug_request(
            0,
            AgentRequest::ReadVar {
                pid: 999,
                frame: 0,
                slot: 0
            }
        )
        .is_err());
}

/// `ReadVar` / `WriteVar` address a frame's locals by frame index and
/// slot, wherever the VM keeps them. Trapped on `leaf`'s entry
/// instruction, the stack is three deep and its top frame has not run
/// `Enter`: only its two arguments are locals yet.
#[test]
fn variables_of_every_frame_read_and_write_by_slot() {
    let src = "\
leaf = proc (x: int, y: int) returns (int)
 z: int := x + y
 return (z)
end
mid = proc (a: int) returns (int)
 m: int := a * 3
 r: int := leaf(m, a)
 return (r)
end
top = proc (n: int)
 t: int := n + 1
 v: int := mid(t)
 print(v)
end";
    let mut w = World::builder().nodes(1).program(src).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    let leaf = w.node(0).program().proc_by_name("leaf").unwrap();
    let set = AgentRequest::SetBreakpoint {
        proc_id: leaf.0,
        pc: 0,
    };
    let Ok(AgentReply::BreakpointSet { bp }) = w.debug_request(0, set) else {
        panic!("the entry trap is planted")
    };
    let pid = w.spawn(0, "top", vec![pilgrim::Value::Int(4)]).0;
    let DebugEvent::BreakpointHit { .. } = w.wait_for_stop(SimDuration::from_secs(2)).unwrap()
    else {
        panic!("expected the entry trap")
    };
    let reply = |w: &mut World, req| match w.debug_request(0, req) {
        Ok(AgentReply::Value(v)) => format!("{v:?}"),
        Ok(other) => format!("{other:?}"),
        Err(e) => format!("error: {e}"),
    };
    let read = |w: &mut World, frame, slot| reply(w, AgentRequest::ReadVar { pid, frame, slot });
    let write = |w: &mut World, frame, slot, v| {
        let value = WireValue::Int(v);
        reply(
            w,
            AgentRequest::WriteVar {
                pid,
                frame,
                slot,
                value: Box::new(value),
            },
        )
    };

    // top: n = 4, t = 5, v not assigned yet.
    let frame0: Vec<String> = (0..4).map(|slot| read(&mut w, 0, slot)).collect();
    assert_eq!(
        frame0,
        [
            "Int(4)",
            "Int(5)",
            "Null",
            "error: agent error: no local slot 3"
        ]
    );
    // mid: a = 5, m = 15, r not assigned yet.
    assert_eq!(read(&mut w, 1, 1), "Int(15)");
    assert_eq!(read(&mut w, 1, 2), "Null");
    // leaf before `Enter`: its arguments, and no slot for `z` yet.
    let frame2: Vec<String> = (0..3).map(|slot| read(&mut w, 2, slot)).collect();
    assert_eq!(
        frame2,
        ["Int(15)", "Int(5)", "error: agent error: no local slot 2"]
    );
    assert_eq!(read(&mut w, 3, 0), "error: agent error: no frame 3");

    // Writes land in the slot they name and nowhere else.
    assert_eq!(write(&mut w, 0, 1, 50), "Ok");
    assert_eq!(read(&mut w, 0, 1), "Int(50)");
    assert_eq!(read(&mut w, 0, 0), "Int(4)");
    assert_eq!(write(&mut w, 2, 0, 100), "Ok");
    assert_eq!(
        write(&mut w, 2, 2, 0),
        "error: agent error: no such frame/slot"
    );
    assert_eq!(
        write(&mut w, 3, 0, 0),
        "error: agent error: no such frame/slot"
    );
    assert_eq!(read(&mut w, 1, 1), "Int(15)", "mid's `m` is not leaf's `x`");

    // `Enter` keeps the written argument and makes room for `z`, which
    // `leaf` then computes from it: 100 + 5.
    w.step_over(0, pid).unwrap();
    assert_eq!(read(&mut w, 2, 0), "Int(100)");
    assert_eq!(read(&mut w, 2, 2), "Null");
    w.clear_breakpoint(0, bp).unwrap();
    w.continue_process(0, pid).unwrap();
    w.debug_resume_all().unwrap();
    w.run_until_idle(w.now() + SimDuration::from_secs(5));
    assert_eq!(w.console(0), vec!["105"]);
}

#[test]
fn halt_and_resume_a_single_process() {
    let mut w = world();
    let a = w.spawn(0, "spin", vec![pilgrim::Value::Int(20)]).0;
    let b = w.spawn(0, "spin", vec![pilgrim::Value::Int(20)]).0;
    w.run_for(SimDuration::from_millis(30));

    // Halt only process a (§5.4 state transfer).
    w.debug_request(0, AgentRequest::HaltProcess { pid: a })
        .unwrap();
    w.run_until_idle(w.now() + SimDuration::from_secs(5));
    // b finished; a is still frozen mid-loop.
    assert_eq!(w.console(0), vec!["acc 210"]);
    let procs = w.debug_processes(0).unwrap();
    assert!(procs.iter().find(|p| p.pid == a).unwrap().halted);

    w.debug_request(0, AgentRequest::ResumeProcess { pid: a })
        .unwrap();
    w.run_until_idle(w.now() + SimDuration::from_secs(5));
    assert_eq!(w.console(0), vec!["acc 210", "acc 210"]);
    // Resuming a process that is not halted reports an error.
    assert!(w
        .debug_request(0, AgentRequest::ResumeProcess { pid: b })
        .is_err());
}

#[test]
fn force_runnable_releases_a_forever_wait() {
    let mut w = world();
    let pid = w.spawn(0, "blocker", vec![]).0;
    w.run_for(SimDuration::from_millis(50));
    let procs = w.debug_processes(0).unwrap();
    assert!(matches!(
        procs.iter().find(|p| p.pid == pid).unwrap().state,
        StateView::SemWait {
            remaining_ms: None,
            ..
        }
    ));
    w.debug_request(0, AgentRequest::ForceRunnable { pid })
        .unwrap();
    w.run_until_idle(w.now() + SimDuration::from_secs(5));
    assert_eq!(
        w.console(0),
        vec!["released"],
        "forced wake reads as timeout"
    );
}

/// A timed semaphore wait reports what is left of its timeout and an
/// untimed one reports none, before, during and after a halt, with the
/// same figures as when both were one state with an optional deadline.
/// Halting freezes the remainder but does not rewrite the deadline until
/// the resume, so the listing counts it down through the halt.
#[test]
fn a_semaphore_waits_remaining_time_is_listed_timed_or_not() {
    let mut w = World::builder()
        .nodes(1)
        .program(
            "timed = proc ()\n s: sem := sem$create(0)\n ok: bool := sem$wait(s, 200)\nend\n\
             untimed = proc ()\n s: sem := sem$create(0)\n ok: bool := sem$wait(s, 0 - 1)\nend",
        )
        .build()
        .unwrap();
    w.debug_connect(&[0], false).unwrap();
    let timed = w.spawn(0, "timed", vec![]).0;
    let untimed = w.spawn(0, "untimed", vec![]).0;
    let listed = |w: &mut World| {
        let procs = w.debug_processes(0).unwrap();
        let remaining = |pid| match procs.iter().find(|p| p.pid == pid).unwrap().state {
            StateView::SemWait { remaining_ms, .. } => remaining_ms,
            ref other => panic!("{other:?}"),
        };
        (remaining(timed), remaining(untimed))
    };
    w.run_for(SimDuration::from_millis(50));
    let before = listed(&mut w);
    w.debug_request(0, AgentRequest::HaltAll).unwrap();
    w.run_for(SimDuration::from_millis(100));
    let halted = listed(&mut w);
    w.debug_request(0, AgentRequest::ResumeAll).unwrap();
    let resumed = listed(&mut w);
    assert_eq!(
        [before, halted, resumed],
        [(Some(146), None), (Some(31), None), (Some(131), None)]
    );
}

#[test]
fn console_reads_with_offsets() {
    let mut w = world();
    w.spawn(0, "spin", vec![pilgrim::Value::Int(3)]);
    w.run_until_idle(SimTime::from_secs(5));
    let AgentReply::Console(all) = w
        .debug_request(0, AgentRequest::ReadConsole { from: 0 })
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(all, vec!["acc 6"]);
    let AgentReply::Console(rest) = w
        .debug_request(0, AgentRequest::ReadConsole { from: 1 })
        .unwrap()
    else {
        panic!()
    };
    assert!(rest.is_empty());
}

#[test]
fn breakpoint_listing_tracks_set_and_clear() {
    let mut w = world();
    let b1 = w.break_at_proc(0, "spin").unwrap();
    let b2 = w.break_at_proc(0, "blocker").unwrap();
    let AgentReply::Breakpoints(bps) = w.debug_request(0, AgentRequest::ListBreakpoints).unwrap()
    else {
        panic!()
    };
    assert_eq!(bps.len(), 2);
    w.clear_breakpoint(0, b1).unwrap();
    let AgentReply::Breakpoints(bps) = w.debug_request(0, AgentRequest::ListBreakpoints).unwrap()
    else {
        panic!()
    };
    assert_eq!(bps.len(), 1);
    assert_eq!(bps[0].0, b2);
    // Clearing twice errors; setting on an already-trapped address errors.
    assert!(w
        .debug_request(0, AgentRequest::ClearBreakpoint { bp: b1 })
        .is_err());
    let addr = w.debugger().unwrap().breakpoints()[0].addr;
    assert!(w
        .debug_request(
            0,
            AgentRequest::SetBreakpoint {
                proc_id: addr.proc.0,
                pc: addr.pc
            }
        )
        .is_err());
}

#[test]
fn stacks_are_examinable_while_running() {
    // §5.5: "Pilgrim allows procedure call stacks to be examined at any
    // time, not just when the process that owns the stack has hit a
    // breakpoint."
    let mut w = world();
    let pid = w.spawn(0, "spin", vec![pilgrim::Value::Int(500)]).0;
    for _ in 0..10 {
        w.run_for(SimDuration::from_millis(37));
        let bt = w.backtrace(0, pid).unwrap();
        assert!(!bt.is_empty());
        assert_eq!(bt[0].proc_name, "spin");
        // Every reported frame is flagged for §5.5 interpretation.
        for f in &bt {
            assert!(f.well_formed || f.index + 1 == bt.len() as u32);
        }
    }
}

#[test]
fn step_over_advances_exactly_one_line_at_a_time() {
    let src = "\
main = proc ()
 a: int := 1
 b: int := 2
 c: int := a + b
 print(c)
end";
    let mut w = World::builder().nodes(1).program(src).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.break_at_line(0, 3).unwrap();
    let pid = w.spawn(0, "main", vec![]).0;
    let DebugEvent::BreakpointHit { .. } = w.wait_for_stop(SimDuration::from_secs(2)).unwrap()
    else {
        panic!()
    };
    // `b` not yet assigned at the stop (trap is before the store)...
    // step over the trapped instruction a few times and watch the pc move.
    let before = w.backtrace(0, pid).unwrap()[0].line;
    w.step_over(0, pid).unwrap();
    let after = w.backtrace(0, pid).unwrap()[0].line;
    assert!(after >= before, "pc moves forward: {before:?} -> {after:?}");
    // The process is stopped after the trace step (§5.5 trace mode).
    let procs = w.debug_processes(0).unwrap();
    assert!(matches!(
        procs.iter().find(|p| p.pid == pid).unwrap().state,
        StateView::TraceStopped | StateView::Trapped { .. }
    ));
    w.continue_process(0, pid).unwrap();
    w.debug_resume_all().unwrap();
    w.run_until_idle(w.now() + SimDuration::from_secs(5));
    assert_eq!(w.console(0), vec!["3"]);
}

#[test]
fn recent_served_calls_visible_on_the_server() {
    let src = "\
ping = proc (n: int) returns (int)
 return (n)
end
main = proc ()
 for i: int := 1 to 3 do
  r: int := call ping(i) at 1
 end
 print(\"done\")
end";
    let mut w = World::builder().nodes(2).program(src).build().unwrap();
    w.debug_connect(&[0, 1], false).unwrap();
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(5));
    let AgentReply::Recent(served) = w.debug_request(1, AgentRequest::RecentServed).unwrap() else {
        panic!()
    };
    assert_eq!(served.len(), 3);
    assert!(served.iter().all(|(_, ok)| *ok));
}
