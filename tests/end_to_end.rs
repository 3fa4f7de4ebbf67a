//! Whole-system integration: a realistic distributed application (client
//! nodes + shared services) debugged end-to-end, exercising every layer —
//! language, supervisor, ring, RPC, agent, debugger proper, services —
//! in one scenario per test.

use pilgrim::{
    DebugEvent, MaybeDiagnosis, SimDuration, SimTime, StateView, Value, WireValue, World,
};
use pilgrim_services::{AotConfig, AotMan, CLIENT_EXTERNS, FILE_SERVER_SOURCE};

mod common;
use common::{build_app, FRONT_END, PRICING};

#[test]
fn the_application_works_without_a_debugger() {
    let (mut w, aot) = build_app();
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(30));
    let out = w.console(0);
    assert_eq!(
        out,
        vec![
            "order#1 x2 = 200",
            "order#2 x4 = 400",
            "order#3 x6 = 540", // qty 6 gets the bulk price
            "grand total 1140",
        ]
    );
    assert_eq!(aot.stats().refreshes, 3);
}

#[test]
fn full_debugging_session_over_the_running_application() {
    let (mut w, aot) = build_app();
    w.debug_connect(&[0, 1, 2], false).unwrap();

    // Break inside the pricing service — on another node than the client.
    w.break_at_proc(1, "price").unwrap();
    w.spawn(0, "main", vec![]);

    // First order reaches pricing.
    let ev = w.wait_for_stop(SimDuration::from_secs(5)).unwrap();
    let DebugEvent::BreakpointHit {
        node, pid, proc, ..
    } = ev
    else {
        panic!("expected breakpoint, got {ev:?}")
    };
    assert_eq!(node.0, 1);
    assert_eq!(proc, "price");

    // The cross-node backtrace reaches back to the client's `main`.
    let chain = w.distributed_backtrace(1, pid).unwrap();
    let procs: Vec<&str> = chain.iter().map(|f| f.proc_name.as_str()).collect();
    assert!(procs.contains(&"main"), "{procs:?}");
    assert!(procs.contains(&"process_order"), "{procs:?}");
    assert_eq!(chain.last().unwrap().proc_name, "price");

    // Inspect and *change* the quantity the server was called with: the
    // first order (qty 2) gets priced as a bulk order.
    assert_eq!(w.inspect(1, pid, "qty").unwrap(), "2");
    w.set_variable(1, pid, "qty", WireValue::Int(5)).unwrap();

    // Sit at the breakpoint long past the TUID lifetime: the Figure 4
    // server must keep the client's TUID alive.
    w.run_for(SimDuration::from_secs(8));
    let bp = w.debugger().unwrap().breakpoints()[0].bp;
    w.clear_breakpoint(1, bp).unwrap();
    w.continue_process(1, pid).unwrap();
    w.debug_resume_all().unwrap();

    w.run_until_idle(w.now() + SimDuration::from_secs(60));
    let out = w.console(0);
    // First order got the tampered bulk price (90 × 2), later orders
    // normal; and no refresh was rejected.
    assert_eq!(
        out,
        vec![
            "order#1 x2 = 180",
            "order#2 x4 = 400",
            "order#3 x6 = 540",
            "grand total 1120",
        ],
        "aot stats: {:?}",
        aot.stats()
    );
    assert_eq!(aot.stats().refreshes, 3, "no refresh lost to the halt");
    assert!(aot.stats().extensions >= 1, "the halt forced an extension");
}

#[test]
fn print_operations_render_records_during_the_stop() {
    let (mut w, _aot) = build_app();
    w.debug_connect(&[0, 1, 2], false).unwrap();
    // Stop in the client right after the order record is built (the
    // `print(o)` line).
    w.break_at_line(0, 20).unwrap();
    w.spawn(0, "main", vec![]);
    let DebugEvent::BreakpointHit { pid, node, .. } =
        w.wait_for_stop(SimDuration::from_secs(5)).unwrap()
    else {
        panic!("expected breakpoint")
    };
    assert_eq!(node.0, 0);
    // Rendered via the user's print_order procedure, run in the user
    // program by the agent.
    assert_eq!(w.inspect(0, pid, "o").unwrap(), "order#1 x2 = 200");
    w.continue_process(0, pid).unwrap();
    let bp = w.debugger().unwrap().breakpoints()[0].bp;
    w.clear_breakpoint(0, bp).unwrap();
    w.debug_resume_all().unwrap();
    w.run_until_idle(w.now() + SimDuration::from_secs(60));
    assert_eq!(w.console(0).last().unwrap(), "grand total 1140");
}

#[test]
fn post_mortem_after_a_remote_fault() {
    // Make the pricing node divide by zero for one order.
    let bad_pricing = "\
price = proc (qty: int) returns (int)
 x: int := 100 / (qty - 4)
 return (x + 100)
end";
    let mut w = World::builder()
        .nodes(2)
        .program(FRONT_END_SIMPLE)
        .program_for(1, bad_pricing)
        .build()
        .unwrap();
    w.debug_connect(&[0, 1], false).unwrap();
    w.spawn(0, "simple", vec![Value::Int(4)]); // qty - 4 == 0 → fault
                                               // The server-side fault is consumed by the RPC runtime and propagated
                                               // to the exactly-once caller, whose agent reports it (§2: reliable in
                                               // the absence of node failures — a faulting callee is surfaced, not
                                               // masked).
    let ev = w.wait_for_stop(SimDuration::from_secs(5)).unwrap();
    let DebugEvent::ProcessFaulted {
        node,
        pid: client_pid,
        message,
        ..
    } = ev
    else {
        panic!("expected fault, got {ev:?}")
    };
    assert_eq!(node.0, 0, "the caller faults with the remote failure");
    assert!(message.contains("remote fault"), "{message}");
    assert!(message.contains("DivideByZero"), "{message}");
    // The dead *server* process is retained on node 1 for post-mortem
    // examination (§5.4) — find it and read its argument.
    let procs = w.debug_processes(1).unwrap();
    let dead = procs
        .iter()
        .find(|p| matches!(p.state, StateView::Faulted { .. }))
        .expect("faulted server process retained");
    assert_eq!(w.inspect(1, dead.pid, "qty").unwrap(), "4");
    // The client process is dead too.
    let cprocs = w.debug_processes(0).unwrap();
    let cdead = cprocs.iter().find(|p| p.pid == client_pid).unwrap();
    assert!(matches!(cdead.state, StateView::Faulted { .. }));
}

const FRONT_END_SIMPLE: &str = "\
price = proc (qty: int) returns (int)
 return (qty)
end
simple = proc (qty: int)
 p: int := call price(qty) at 1
 print(p)
end";

#[test]
fn maybe_diagnosis_inside_the_application() {
    let src = "\
audit = proc (n: int) returns (int)
 return (n)
end
simple = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall audit(7) at 1
 if ~ok then
  print(\"audit lost\")
 end
 sleep(600000)
end";
    let mut w = World::builder().nodes(2).program(src).build().unwrap();
    w.debug_connect(&[0, 1], false).unwrap();
    w.inject_drop(1, 0, 1);
    w.spawn(0, "simple", vec![]);
    w.run_for(SimDuration::from_millis(300));
    assert_eq!(w.console(0), vec!["audit lost"]);
    let (call_id, _) = *w.recent_calls(0).unwrap().last().unwrap();
    assert_eq!(
        w.diagnose_maybe_failure(1, call_id).unwrap(),
        MaybeDiagnosis::LostReply
    );
}

#[test]
fn deterministic_replay_same_seed_same_world() {
    let run = |seed: u64| {
        let (mut w, _) = {
            let mut w = World::builder()
                .nodes(4)
                .program(FRONT_END)
                .program_for(1, PRICING)
                .program_for(2, FILE_SERVER_SOURCE)
                .seed(seed)
                .build()
                .unwrap();
            let aot = AotMan::install(&mut w, 3, AotConfig::default());
            (w, aot)
        };
        w.spawn(0, "main", vec![]);
        w.run_until_idle(SimTime::from_secs(30));
        (w.console(0), w.now())
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "identical seeds give identical histories");
}

#[test]
fn externs_shared_by_client_and_services_typecheck() {
    // CLIENT_EXTERNS must stay in sync with the file server's procedures.
    let merged = format!("{CLIENT_EXTERNS}\nmain = proc ()\n print(\"ok\")\nend");
    let mut w = World::builder()
        .nodes(2)
        .program(&merged)
        .program_for(1, FILE_SERVER_SOURCE)
        .build()
        .unwrap();
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(2));
    assert_eq!(w.console(0), vec!["ok"]);
}
