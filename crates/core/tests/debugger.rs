//! End-to-end tests of the Pilgrim debugger against simulated distributed
//! Concurrent CLU programs. Each test exercises a mechanism the paper
//! describes, cited by section.

use pilgrim::{
    AgentReply, AgentRequest, DebugError, DebugEvent, DebugMsg, MaybeDiagnosis, RunState,
    SessionId, SimDuration, StateView, Value, WireValue, World,
};

fn run_quiet(world: &mut World, secs: u64) {
    let t = world.now() + SimDuration::from_secs(secs);
    world.run_until_idle(t);
}

// ---------------------------------------------------------------------
// §3: sessions
// ---------------------------------------------------------------------

const LOOPER: &str = "\
main = proc ()
 i: int := 0
 while i < 1000000 do
  i := i + 1
  sleep(10)
 end
end";

#[test]
fn connect_and_disconnect() {
    let mut w = World::builder().nodes(2).program(LOOPER).build().unwrap();
    let s = w.debug_connect(&[0, 1], false).unwrap();
    assert!(w.agent(0).unwrap().connected());
    assert_eq!(w.agent(1).unwrap().session(), Some(s));
    w.debug_disconnect().unwrap();
    assert!(!w.agent(0).unwrap().connected());
    assert!(!w.agent(1).unwrap().connected());
}

#[test]
fn second_debugger_needs_forcible_connect() {
    let mut w = World::builder().nodes(1).program(LOOPER).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    // Simulate a crashed debugger: the agent still holds the old session.
    w.debug_abandon();
    match w.debug_connect(&[0], false) {
        Err(DebugError::Refused) => {}
        other => panic!("expected refusal, got {other:?}"),
    }
    // Forcible connection reclaims the agent (§3).
    let s2 = w.debug_connect(&[0], true).unwrap();
    assert_eq!(w.agent(0).unwrap().session(), Some(s2));
}

#[test]
fn forcible_connect_clears_breakpoints() {
    let src = "\
main = proc ()
 x: int := 1
 x := 2
 print(x)
end";
    let mut w = World::builder().nodes(1).program(src).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.break_at_line(0, 3).unwrap();
    w.debug_abandon();
    w.debug_connect(&[0], true).unwrap();
    // The old trap is gone: the program runs to completion unimpeded.
    w.spawn(0, "main", vec![]);
    run_quiet(&mut w, 2);
    assert_eq!(w.console(0), vec!["2"]);
    assert!(w.debug_events().is_empty(), "no stale trap fired");
}

#[test]
fn requests_with_stale_session_are_rejected() {
    let mut w = World::builder().nodes(1).program(LOOPER).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.debug_abandon();
    w.debug_connect(&[0], true).unwrap();
    // New session works.
    let reply = w.debug_request(0, AgentRequest::Ping).unwrap();
    assert!(matches!(reply, pilgrim::AgentReply::Ok));
}

// ---------------------------------------------------------------------
// §5.5: breakpoints, stepping, stack interpretation
// ---------------------------------------------------------------------

const COUNTER: &str = "\
bump = proc (a: int, b: int) returns (int)
 c: int := a + b
 return (c)
end
main = proc ()
 total: int := 0
 for i: int := 1 to 5 do
  total := bump(total, i)
 end
 print(total)
end";

#[test]
fn breakpoint_fires_and_reports_source_position() {
    let mut w = World::builder().nodes(1).program(COUNTER).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.break_at_line(0, 2).unwrap();
    let pid = w.spawn(0, "main", vec![]).0;
    let ev = w.wait_for_stop(SimDuration::from_secs(2)).unwrap();
    match ev {
        DebugEvent::BreakpointHit {
            node, line, proc, ..
        } => {
            assert_eq!(node.0, 0);
            assert_eq!(line, Some(2));
            assert_eq!(proc, "bump");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The whole node halted (§5.2).
    let procs = w.debug_processes(0).unwrap();
    let main = procs.iter().find(|p| &*p.name == "main").unwrap();
    assert!(main.halted, "other processes are halted while stopped");
    let _ = pid;
}

/// §5: a distributed breakpoint. Both nodes trap inside one 3.5 ms
/// window, so both hits reach the debugger before the first wait returns;
/// the second wait must still find the second hit.
#[test]
fn two_nodes_trapping_in_one_window_are_two_stops() {
    let src = "f = proc ()\n x: int := 1\n print(x)\nend";
    let mut w = World::builder().nodes(2).program(src).build().unwrap();
    w.debug_connect(&[0, 1], false).unwrap();
    w.break_at_proc(0, "f").unwrap();
    w.break_at_proc(1, "f").unwrap();
    w.spawn(0, "f", vec![]);
    w.spawn(1, "f", vec![]);
    let mut nodes = Vec::new();
    for _ in 0..2 {
        match w.wait_for_stop(SimDuration::from_secs(1)) {
            Ok(DebugEvent::BreakpointHit { node, .. }) => nodes.push(node.0),
            other => panic!("expected a breakpoint hit, got {other:?}"),
        }
    }
    nodes.sort_unstable();
    assert_eq!(nodes, [0, 1], "one stop per trapping node");
    assert!(w.debug_events().is_empty(), "and nothing left over");
}

#[test]
fn step_over_executes_one_instruction_and_retains_breakpoint() {
    let mut w = World::builder().nodes(1).program(COUNTER).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.break_at_line(0, 2).unwrap();
    w.spawn(0, "main", vec![]);
    // Hit 1: in the first call to bump.
    let DebugEvent::BreakpointHit { pid, .. } = w.wait_for_stop(SimDuration::from_secs(2)).unwrap()
    else {
        panic!("expected breakpoint")
    };
    // Inspect arguments at the stop.
    assert_eq!(w.inspect(0, pid, "a").unwrap(), "0");
    assert_eq!(w.inspect(0, pid, "b").unwrap(), "1");
    // Step over, continue, resume: the loop calls bump again and the
    // breakpoint must still be planted.
    w.continue_process(0, pid).unwrap();
    w.debug_resume_all().unwrap();
    let DebugEvent::BreakpointHit { pid: pid2, .. } =
        w.wait_for_stop(SimDuration::from_secs(2)).unwrap()
    else {
        panic!("expected second hit")
    };
    assert_eq!(w.inspect(0, pid2, "b").unwrap(), "2", "second iteration");
    // Clean up and let it finish.
    w.continue_process(0, pid2).unwrap();
    let bp = w.debugger().unwrap().breakpoints()[0].bp;
    w.clear_breakpoint(0, bp).unwrap();
    w.debug_resume_all().unwrap();
    run_quiet(&mut w, 5);
    assert_eq!(w.console(0), vec!["15"]);
}

#[test]
fn modifying_a_variable_changes_the_computation() {
    let mut w = World::builder().nodes(1).program(COUNTER).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.break_at_line(0, 3).unwrap(); // at `return (c)`
    w.spawn(0, "main", vec![]);
    let DebugEvent::BreakpointHit { pid, .. } = w.wait_for_stop(SimDuration::from_secs(2)).unwrap()
    else {
        panic!("expected breakpoint")
    };
    // c = 0 + 1 on the first iteration; overwrite it (§5.4: "their
    // variables ... modifiable").
    assert_eq!(w.inspect(0, pid, "c").unwrap(), "1");
    w.set_variable(0, pid, "c", WireValue::Int(100)).unwrap();
    let bp = w.debugger().unwrap().breakpoints()[0].bp;
    w.continue_process(0, pid).unwrap();
    w.clear_breakpoint(0, bp).unwrap();
    w.debug_resume_all().unwrap();
    run_quiet(&mut w, 5);
    // 100 + 2 + 3 + 4 + 5 = 114
    assert_eq!(w.console(0), vec!["114"]);
}

#[test]
fn set_variable_is_type_checked_in_the_debugger() {
    let mut w = World::builder().nodes(1).program(COUNTER).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.break_at_line(0, 2).unwrap();
    w.spawn(0, "main", vec![]);
    let DebugEvent::BreakpointHit { pid, .. } = w.wait_for_stop(SimDuration::from_secs(2)).unwrap()
    else {
        panic!("expected breakpoint")
    };
    match w.set_variable(0, pid, "a", WireValue::Str("nope".into())) {
        Err(DebugError::Source(msg)) => assert!(msg.contains("int"), "{msg}"),
        other => panic!("expected type error, got {other:?}"),
    }
}

#[test]
fn unknown_line_and_variable_errors() {
    let mut w = World::builder().nodes(1).program(COUNTER).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    assert!(matches!(
        w.break_at_line(0, 999),
        Err(DebugError::Source(_))
    ));
    w.break_at_line(0, 2).unwrap();
    w.spawn(0, "main", vec![]);
    let DebugEvent::BreakpointHit { pid, .. } = w.wait_for_stop(SimDuration::from_secs(2)).unwrap()
    else {
        panic!("expected breakpoint")
    };
    assert!(matches!(
        w.inspect(0, pid, "nonexistent"),
        Err(DebugError::Source(_))
    ));
}

// ---------------------------------------------------------------------
// §3: print operations and procedure invocation
// ---------------------------------------------------------------------

const PRINTER: &str = "\
point = record[x: int, y: int]
print_point = proc (p: point) returns (string)
 return (\"(\" || int$unparse(p.x) || \", \" || int$unparse(p.y) || \")\")
end
describe = proc (n: int) returns (string)
 print(\"describing\")
 return (\"value is \" || int$unparse(n))
end
main = proc ()
 p: point := point${x: 3, y: 4}
 q: int := 0
 while q < 1000000 do
  q := q + 1
  sleep(10)
 end
 print(p)
end";

#[test]
fn inspect_uses_user_print_operation() {
    let mut w = World::builder().nodes(1).program(PRINTER).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    let pid = w.spawn(0, "main", vec![]).0;
    w.run_for(SimDuration::from_millis(100));
    // The record is rendered by print_point, invoked *in the user program*
    // by the agent (§3).
    assert_eq!(w.inspect(0, pid, "p").unwrap(), "(3, 4)");
    // Plain ints render directly.
    let q = w.inspect(0, pid, "q").unwrap();
    let _: i64 = q.parse().expect("q renders as an integer");
}

#[test]
fn invoke_returns_results_and_redirected_output() {
    let mut w = World::builder().nodes(1).program(PRINTER).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.spawn(0, "main", vec![]);
    w.run_for(SimDuration::from_millis(50));
    let reply = w
        .debug_request(
            0,
            AgentRequest::Invoke(Box::new(pilgrim::Invocation {
                proc: "describe".into(),
                args: vec![WireValue::Int(9)],
            })),
        )
        .unwrap();
    match reply {
        pilgrim::AgentReply::Invoked { results, output } => {
            assert_eq!(results, vec![WireValue::Str("value is 9".into())]);
            assert_eq!(
                output, "describing",
                "print output was redirected to the debugger"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    // The invocation must not leak into the program's console.
    assert!(!w.console(0).contains(&"describing".to_string()));
}

// ---------------------------------------------------------------------
// §4: RPC debugging and Figure 1 cross-node backtraces
// ---------------------------------------------------------------------

const THREE_TIER: &str = "\
storage = proc (k: int) returns (int)
 sleep(80)
 return (k * 10)
end
middle = proc (k: int) returns (int)
 v: int := call storage(k) at 2
 return (v + 1)
end
main = proc ()
 r: int := call middle(4) at 1
 print(r)
end";

#[test]
fn cross_node_backtrace_walks_the_call_chain() {
    let mut w = World::builder()
        .nodes(3)
        .program(THREE_TIER)
        .build()
        .unwrap();
    w.debug_connect(&[0, 1, 2], false).unwrap();
    let client = w.spawn(0, "main", vec![]).0;
    // Let the chain build: main -> middle(node1) -> storage(node2).
    w.run_for(SimDuration::from_millis(45));

    let bt = w.distributed_backtrace(0, client).unwrap();
    let rendered: Vec<String> = bt.iter().map(|f| f.to_string()).collect();
    // The chain spans three nodes, outermost first.
    let nodes: Vec<u32> = bt.iter().map(|f| f.node).collect();
    assert!(nodes.starts_with(&[0]), "{rendered:?}");
    assert!(nodes.contains(&1) && nodes.contains(&2), "{rendered:?}");
    // Client stub frames carry the information block (Figure 1).
    let stub = bt
        .iter()
        .find(|f| f.kind == "rpc-stub" && f.node == 0)
        .expect("stub frame");
    let rpc = stub.rpc.as_ref().unwrap();
    assert_eq!(&*rpc.remote_proc, "middle");
    assert_eq!(rpc.protocol, "exactly-once");
    // Server-root frames mark the remote ends.
    assert!(bt.iter().any(|f| f.kind == "server-root" && f.node == 1));
    assert!(bt.iter().any(|f| f.kind == "server-root" && f.node == 2));
    // The deepest frames are storage's, on node 2.
    assert_eq!(bt.last().unwrap().node, 2);
    assert_eq!(bt.last().unwrap().proc_name, "storage");

    run_quiet(&mut w, 3);
    assert_eq!(w.console(0), vec!["41"]);
}

#[test]
fn rpc_status_shows_in_progress_call_state() {
    let mut w = World::builder()
        .nodes(3)
        .program(THREE_TIER)
        .build()
        .unwrap();
    w.debug_connect(&[0, 1, 2], false).unwrap();
    let client = w.spawn(0, "main", vec![]).0;
    w.run_for(SimDuration::from_millis(45));
    let call = w.rpc_status(0, client).unwrap().expect("call in progress");
    assert_eq!(&*call.proc, "middle");
    assert_eq!(call.dst.0, 1);
    assert_eq!(call.retries, 0);
    run_quiet(&mut w, 3);
    let done = w.rpc_status(0, client).unwrap();
    assert!(done.is_none(), "table entry removed after completion");
}

#[test]
fn maybe_failure_diagnosis_through_the_debugger() {
    let src = "\
ping = proc (n: int) returns (int)
 return (n + 1)
end
main = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall ping(1) at 1
 if ok then
  print(\"ok\")
 else
  print(\"failed\")
 end
 sleep(600000)
end";
    // Case 1: lost call.
    let mut w = World::builder().nodes(2).program(src).build().unwrap();
    w.debug_connect(&[0, 1], false).unwrap();
    w.inject_drop(0, 1, 1);
    w.spawn(0, "main", vec![]);
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(w.console(0), vec!["failed"]);
    let recent = w.recent_calls(0).unwrap();
    let (call_id, ok) = *recent.last().unwrap();
    assert!(!ok);
    assert_eq!(
        w.diagnose_maybe_failure(1, call_id).unwrap(),
        MaybeDiagnosis::LostCall
    );

    // Case 2: lost reply.
    let mut w = World::builder().nodes(2).program(src).build().unwrap();
    w.debug_connect(&[0, 1], false).unwrap();
    w.inject_drop(1, 0, 1);
    w.spawn(0, "main", vec![]);
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(w.console(0), vec!["failed"]);
    let recent = w.recent_calls(0).unwrap();
    let (call_id, _) = *recent.last().unwrap();
    assert_eq!(
        w.diagnose_maybe_failure(1, call_id).unwrap(),
        MaybeDiagnosis::LostReply
    );
}

// ---------------------------------------------------------------------
// §5.1–5.2: distributed halting and time consistency (Figure 2)
// ---------------------------------------------------------------------

/// The Figure 2 scenario (§5.1): process Q on node B waits on a semaphore
/// with a long timeout; a signaller (standing in for P's remote call
/// arriving) signals it well before the deadline — unless a debugger halt
/// distorts time.
const FIGURE2B: &str = "\
own counter: int := 0
waiter = proc (s: sem, grace: int)
 ok: bool := sem$wait(s, grace)
 if ok then
  print(\"Q signalled\")
 else
  print(\"Q timed out\")
 end
end
setup = proc (grace: int) returns (bool)
 s: sem := sem$create(0)
 fork waiter(s, grace)
 fork signaller(s)
 return (true)
end
signaller = proc (s: sem)
 sleep(2000)
 sem$signal(s)
end
p_side = proc ()
 ok: bool := call setup(10000) at 1
 print(\"armed\")
end";

#[test]
fn halt_freezes_remote_timeouts_across_breakpoint() {
    // Node 0 = P's node (A), node 1 = Q's node (B). Q waits 10 s and will
    // be signalled after 2 s of program time. A breakpoint interrupts the
    // world for longer than the whole timeout; with Pilgrim's frozen
    // timeouts Q must still be signalled, not time out.
    let mut w = World::builder().nodes(2).program(FIGURE2B).build().unwrap();
    w.debug_connect(&[0, 1], false).unwrap();
    w.spawn(0, "p_side", vec![]);
    w.run_for(SimDuration::from_millis(300));
    assert_eq!(w.console(0), vec!["armed"]);

    // Halt everything for 15 simulated seconds (> the 10 s timeout).
    w.debug_halt_all(0).unwrap();
    w.run_for(SimDuration::from_secs(15));
    assert!(w.console(1).is_empty(), "nothing may happen while halted");
    w.debug_resume_all().unwrap();
    run_quiet(&mut w, 20);
    assert_eq!(
        w.console(1),
        vec!["Q signalled"],
        "typical computation preserved"
    );
}

#[test]
fn logical_clocks_agree_across_nodes_after_halt() {
    let mut w = World::builder().nodes(3).program(FIGURE2B).build().unwrap();
    w.debug_connect(&[0, 1, 2], false).unwrap();
    w.spawn(0, "p_side", vec![]);
    w.run_for(SimDuration::from_millis(300));
    w.debug_halt_all(0).unwrap();
    w.run_for(SimDuration::from_secs(5));
    w.debug_resume_all().unwrap();
    w.run_for(SimDuration::from_millis(100));
    // §6.1: "the logical times at each node of a program being debugged
    // should be almost the same" — within the halt-broadcast spread.
    let deltas: Vec<u64> = (0..3).map(|i| w.node(i).delta().as_micros()).collect();
    let spread = deltas.iter().max().unwrap() - deltas.iter().min().unwrap();
    assert!(deltas.iter().all(|d| *d > 4_000_000), "{deltas:?}");
    assert!(
        spread < 50_000,
        "deltas within 50 ms of each other: {deltas:?}"
    );
    // And the breakpoint log total matches the deltas (§6.1).
    let log_total = w
        .debugger()
        .unwrap()
        .log()
        .borrow()
        .total_halted(w.now())
        .as_micros();
    let max_delta = *deltas.iter().max().unwrap();
    assert!(
        log_total.abs_diff(max_delta) < 100_000,
        "log {log_total} vs delta {max_delta}"
    );
}

#[test]
fn faults_halt_the_cohort_like_breakpoints() {
    let src = "\
main = proc ()
 sleep(50)
 x: int := 1 / 0
end
bystander = proc ()
 i: int := 0
 while i < 1000000 do
  i := i + 1
  sleep(5)
 end
end";
    let mut w = World::builder().nodes(2).program(src).build().unwrap();
    w.debug_connect(&[0, 1], false).unwrap();
    w.spawn(0, "main", vec![]);
    w.spawn(1, "bystander", vec![]);
    let ev = w.wait_for_stop(SimDuration::from_secs(2)).unwrap();
    match ev {
        DebugEvent::ProcessFaulted { node, message, .. } => {
            assert_eq!(node.0, 0);
            assert!(message.contains("DivideByZero"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    w.run_for(SimDuration::from_millis(50));
    // The bystander on the *other* node was halted too (§5.2).
    let procs = w.debug_processes(1).unwrap();
    let by = procs.iter().find(|p| &*p.name == "bystander").unwrap();
    assert!(by.halted);
    // Post-mortem examination of the faulted process (§5.4).
    let procs0 = w.debug_processes(0).unwrap();
    let dead = procs0.iter().find(|p| &*p.name == "main").unwrap();
    assert!(matches!(dead.state, StateView::Faulted { .. }));
}

/// §5.4: a process listing is the supervisor's table, row for row. The
/// oracle is `Node::process_info`, the paper's query primitive, read
/// straight off the node while it is still halted.
#[test]
fn process_listing_matches_the_supervisor_primitive_row_for_row() {
    let src = "\
point = record[x: int, y: int]
print_point = proc (p: point) returns (string)
 return (int$unparse(p.x))
end
quick = proc ()
end
napper = proc ()
 sleep(60000)
end
spinner = proc ()
 i: int := 0
 while i >= 0 do
  i := i + 1
 end
end
trapme = proc ()
 p: point := point${x: 3, y: 4}
 print(p)
end";
    let mut w = World::builder().nodes(1).program(src).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    for name in ["quick", "napper", "spinner"] {
        w.spawn(0, name, vec![]);
    }
    w.run_for(SimDuration::from_millis(20));
    w.break_at_line(0, 18).unwrap();
    w.spawn(0, "trapme", vec![]);
    let DebugEvent::BreakpointHit { pid, .. } = w.wait_for_stop(SimDuration::from_secs(2)).unwrap()
    else {
        panic!("expected breakpoint")
    };
    // The print operation runs as a no-halt agent process and then dies,
    // leaving a dead no-halt record in the table.
    assert_eq!(w.inspect(0, pid, "p").unwrap(), "3");

    let before = w.node(0).clock();
    let rows = w.debug_processes(0).unwrap();
    let after = w.node(0).clock();
    let node = w.node(0);
    let pids = node.pids();
    assert_eq!(rows.len(), pids.len(), "dead records are listed too");
    let (mut dead, mut trapped, mut sleeping, mut halted, mut no_halt) = (0, 0, 0, 0, 0);
    for (row, pid) in rows.iter().zip(pids) {
        let info = node.process_info(pid).unwrap();
        assert_eq!(row.pid, info.pid.0);
        assert_eq!(row.name, info.name);
        assert_eq!(row.halted, info.halted, "{row:?}");
        assert_eq!(row.no_halt, info.no_halt, "{row:?}");
        assert_eq!(row.priority, info.priority);
        assert_eq!(row.frames as usize, info.frames);
        assert_eq!(row.addr, info.addr.map(|a| (a.proc.0, a.pc)));
        match (&row.state, &info.state) {
            (StateView::Runnable, RunState::Runnable) => {}
            (StateView::Exited, RunState::Exited) => dead += 1,
            (StateView::Trapped { bp }, RunState::Trapped { bp: b }) => {
                assert_eq!(bp, b);
                trapped += 1;
            }
            (StateView::Sleeping { remaining_ms }, RunState::Sleeping { until }) => {
                // Measured on the node's clock when the agent answered,
                // which lies between sending and receiving.
                let lo = until.saturating_since(after).as_millis() as i64;
                let hi = until.saturating_since(before).as_millis() as i64;
                assert!((lo..=hi).contains(remaining_ms), "{remaining_ms}");
                sleeping += 1;
            }
            other => panic!("row and record disagree: {other:?}"),
        }
        halted += usize::from(row.halted);
        no_halt += usize::from(row.no_halt);
    }
    assert!(
        dead >= 2 && trapped == 1 && sleeping == 1 && halted >= 2 && no_halt >= 1,
        "the table holds every kind of record: {rows:?}"
    );

    // The simulated size is per record, so every delivery time is too.
    let records = rows.len();
    let reply = DebugMsg::Reply {
        session: SessionId(1),
        seq: 1,
        reply: AgentReply::Processes(rows),
    };
    assert_eq!(reply.wire_bytes(), 24 + 8 + 32 * records);
}

// ---------------------------------------------------------------------
// §6.1: support procedures for shared servers
// ---------------------------------------------------------------------

#[test]
fn get_debuggee_status_reports_connection_and_logical_time() {
    let src = "\
extern get_debuggee_status = proc () returns (int, int)
probe = proc (target: int)
 dbg: int := 0
 t: int := 0
 dbg, t := call get_debuggee_status() at target
 print(\"dbg=\" || int$unparse(dbg))
 print(\"t=\" || int$unparse(t))
end";
    let mut w = World::builder().nodes(2).program(src).build().unwrap();
    // Before any debugger connects: the special "not debugged" value.
    w.spawn(1, "probe", vec![Value::Int(0)]);
    run_quiet(&mut w, 2);
    assert_eq!(w.console(1)[0], "dbg=-1");

    // Connect the debugger to node 0 only; probe again from node 1.
    w.debug_connect(&[0], false).unwrap();
    let station = w.debugger_station().unwrap().0;
    w.spawn(1, "probe", vec![Value::Int(0)]);
    run_quiet(&mut w, 2);
    assert_eq!(w.console(1)[2], format!("dbg={station}"));
    // Logical time is real time while nothing has been halted.
    let t: i64 = w.console(1)[3].trim_start_matches("t=").parse().unwrap();
    assert!(t > 0);
}

#[test]
fn convert_debuggee_time_subtracts_halts() {
    let src = "\
extern convert_debuggee_time = proc (d: int) returns (int)
probe = proc (dbg_node: int, instant: int)
 conv: int := call convert_debuggee_time(instant) at dbg_node
 print(int$unparse(conv))
end
idle = proc ()
 i: int := 0
 while i < 1000000 do
  i := i + 1
  sleep(10)
 end
end";
    let mut w = World::builder().nodes(2).program(src).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.spawn(0, "idle", vec![]);
    w.run_for(SimDuration::from_millis(500));
    // Halt node 0 for ~2 s.
    w.debug_halt_all(0).unwrap();
    w.run_for(SimDuration::from_secs(2));
    w.debug_resume_all().unwrap();
    w.run_for(SimDuration::from_millis(100));
    // Node 1 (a "server") converts the current real time into the
    // client's logical time scale: about 2 s less.
    let now_ms = w.now().as_millis() as i64;
    let station = w.debugger_station().unwrap().0;
    w.spawn(
        1,
        "probe",
        vec![Value::Int(i64::from(station)), Value::Int(now_ms)],
    );
    run_quiet(&mut w, 2);
    let conv: i64 = w.console(1)[0].parse().unwrap();
    let subtracted = now_ms - conv;
    assert!(
        (1_900..2_300).contains(&subtracted),
        "converted time should lose ~2000 ms, lost {subtracted}"
    );
}

// ---------------------------------------------------------------------
// §1/§3: the dormant agent costs (almost) nothing
// ---------------------------------------------------------------------

#[test]
fn dormant_agent_does_not_perturb_execution() {
    let src = "\
main = proc ()
 t: int := 0
 for i: int := 1 to 200 do
  t := t + i * i
 end
 print(t)
 print(now())
end";
    let run = |agents: bool| {
        let mut w = World::builder()
            .nodes(1)
            .program(src)
            .agents(agents)
            .debugger(false)
            .build()
            .unwrap();
        w.spawn(0, "main", vec![]);
        run_quiet(&mut w, 5);
        w.console(0)
    };
    let with_agent = run(true);
    let without_agent = run(false);
    // Identical output *and* identical timing: the dormant agent imposes
    // no overhead on the program (§1, §3).
    assert_eq!(with_agent, without_agent);
}

#[test]
fn connected_but_idle_debugger_does_not_perturb_execution() {
    // (No `now()` here: connecting the debugger takes a few simulated
    // milliseconds before the program starts, which shifts absolute times
    // without perturbing the computation.)
    let src = "\
main = proc ()
 t: int := 0
 for i: int := 1 to 200 do
  t := t + i * i
 end
 print(t)
end";
    let mut w1 = World::builder().nodes(1).program(src).build().unwrap();
    w1.debug_connect(&[0], false).unwrap();
    w1.spawn(0, "main", vec![]);
    let t1 = w1.now() + SimDuration::from_secs(5);
    w1.run_until_idle(t1);

    let mut w2 = World::builder()
        .nodes(1)
        .program(src)
        .debugger(false)
        .build()
        .unwrap();
    w2.spawn(0, "main", vec![]);
    let t2 = w2.now() + SimDuration::from_secs(5);
    w2.run_until_idle(t2);

    assert_eq!(w1.console(0), w2.console(0));
}
