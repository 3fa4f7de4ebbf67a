//! Failure injection across the stack: packet loss, node crashes, and
//! debugger crashes, with the behaviour the paper requires from each
//! layer.

use pilgrim::{
    AgentRequest, DebugError, DebugEvent, EventKind, MaybeDiagnosis, NetworkConfig, RpcConfig,
    RunState, SimDuration, SimTime, Value, World,
};

const PINGER: &str = "\
pong = proc (n: int) returns (int)
 return (n)
end
main = proc (count: int)
 good: int := 0
 bad: int := 0
 for i: int := 1 to count do
  ok: bool := true
  r: int := 0
  ok, r := maybecall pong(i) at 1
  if ok then
   good := good + 1
  else
   bad := bad + 1
  end
 end
 print(\"good \" || int$unparse(good))
 print(\"bad \" || int$unparse(bad))
end";

#[test]
fn maybe_protocol_degrades_gracefully_under_random_loss() {
    let mut w = World::builder()
        .nodes(2)
        .program(PINGER)
        .network(NetworkConfig {
            p_silent_loss: 0.25,
            seed: 7,
            ..Default::default()
        })
        .debugger(false)
        .build()
        .unwrap();
    w.spawn(0, "main", vec![Value::Int(40)]);
    w.run_until_idle(SimTime::from_secs(120));
    let out = w.console(0);
    let good: i64 = out[0].trim_start_matches("good ").parse().unwrap();
    let bad: i64 = out[1].trim_start_matches("bad ").parse().unwrap();
    assert_eq!(good + bad, 40, "every call completes one way or the other");
    assert!(bad > 0, "25% loss must show up");
    assert!(
        good > 10,
        "most calls still succeed (loss must hit both packets)"
    );
}

#[test]
fn exactly_once_rides_through_the_same_loss() {
    let src = "\
pong = proc (n: int) returns (int)
 return (n)
end
main = proc (count: int)
 t: int := 0
 for i: int := 1 to count do
  t := t + call pong(i) at 1
 end
 print(int$unparse(t))
end";
    // 25% loss hits call and reply independently, so a single attempt
    // fails ~44% of the time; give the protocol enough attempts that all
    // 40 calls get through.
    let mut w = World::builder()
        .nodes(2)
        .program(src)
        .network(NetworkConfig {
            p_silent_loss: 0.25,
            seed: 7,
            ..Default::default()
        })
        .rpc(RpcConfig {
            max_attempts: 12,
            ..Default::default()
        })
        .debugger(false)
        .build()
        .unwrap();
    w.spawn(0, "main", vec![Value::Int(40)]);
    w.run_until_idle(SimTime::from_secs(600));
    assert_eq!(w.console(0), vec![(1..=40).sum::<i64>().to_string()]);
    assert!(
        w.endpoint(0).stats().retransmits > 0,
        "reliability must have been earned by retransmission"
    );
}

#[test]
fn crashed_node_faults_exactly_once_callers() {
    let src = "\
pong = proc (n: int) returns (int)
 return (n)
end
main = proc ()
 r: int := call pong(1) at 1
 print(r)
end";
    let mut w = World::builder().nodes(2).program(src).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.set_node_up(1, false); // node 1 has crashed
    w.spawn(0, "main", vec![]);
    // The agent reports the resulting fault like any execution error.
    let ev = w.wait_for_stop(SimDuration::from_secs(10)).unwrap();
    let DebugEvent::ProcessFaulted { message, node, .. } = ev else {
        panic!("expected fault, got {ev:?}")
    };
    assert_eq!(node.0, 0);
    assert!(message.contains("no response"), "{message}");
}

#[test]
fn halt_broadcast_survives_interface_loss() {
    // 30% interface-level loss: the ring NACKs and the agent retransmits
    // (§5.2's negative-acknowledgement scheme), so every node still halts.
    let src = "\
spin = proc ()
 i: int := 0
 while i < 1000000 do
  i := i + 1
  sleep(5)
 end
end
trigger = proc ()
 sleep(20)
 marker()
end
marker = proc ()
 x: int := 1
end";
    let mut w = World::builder()
        .nodes(4)
        .program(src)
        .network(NetworkConfig {
            p_interface_loss: 0.3,
            seed: 11,
            ..Default::default()
        })
        .build()
        .unwrap();
    w.debug_connect(&[0, 1, 2, 3], false).unwrap();
    w.break_at_line(0, 10).unwrap();
    for n in 1..4 {
        w.spawn(n, "spin", vec![]);
    }
    w.spawn(0, "trigger", vec![]);
    w.wait_for_stop(SimDuration::from_secs(5)).unwrap();
    w.run_for(SimDuration::from_millis(100));
    for n in 1..4 {
        let procs = w.debug_processes(n).unwrap();
        assert!(
            procs.iter().all(|p| p.halted || p.no_halt),
            "node {n} must be halted despite the lossy ring"
        );
    }
    // The agent had to retransmit at least once with 30% loss and 3 dests
    // (probabilistically certain with this seed).
    let stats = w.agent(0).unwrap().stats();
    assert!(stats.halt_messages >= 3, "{stats:?}");
    w.debug_resume_all().unwrap();
}

#[test]
fn debugger_crash_then_forcible_reconnect_recovers_the_program() {
    let src = "\
main = proc ()
 t: int := 0
 while t < 500 do
  t := t + 1
  sleep(10)
 end
 print(\"finished\")
end";
    let mut w = World::builder().nodes(1).program(src).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.break_at_line(0, 5).unwrap(); // inside the loop
    let pid = w.spawn(0, "main", vec![]).0;
    w.wait_for_stop(SimDuration::from_secs(2)).unwrap();

    // The debugger "crashes" while the program sits halted at a trap.
    w.debug_abandon();

    // A plain reconnect is refused — the agent still owns the session and
    // uses no timeouts of its own (§3).
    assert!(matches!(
        w.debug_connect(&[0], false),
        Err(DebugError::Refused)
    ));

    // Forcible connection clears the breakpoints, releases the stopped
    // process and resumes the halted node (§3).
    w.debug_connect(&[0], true).unwrap();
    assert!(matches!(
        w.node(0).process(pilgrim::Pid(pid)).unwrap().state,
        RunState::Runnable | RunState::Sleeping { .. }
    ));
    w.run_until_idle(w.now() + SimDuration::from_secs(60));
    assert_eq!(
        w.console(0),
        vec!["finished"],
        "the program completes untouched"
    );
}

#[test]
fn disconnect_resets_the_logical_clock() {
    let src = "\
main = proc ()
 i: int := 0
 while i < 100000 do
  i := i + 1
  sleep(100)
 end
end";
    let mut w = World::builder().nodes(1).program(src).build().unwrap();
    w.debug_connect(&[0], false).unwrap();
    w.spawn(0, "main", vec![]);
    w.run_for(SimDuration::from_millis(200));
    w.debug_halt_all(0).unwrap();
    w.run_for(SimDuration::from_secs(2));
    w.debug_resume_all().unwrap();
    assert!(w.node(0).delta() > SimDuration::from_secs(1));
    // §5.2: "At the end of a debugging session the logical clock is reset
    // to real time."
    w.debug_disconnect().unwrap();
    assert_eq!(w.node(0).delta(), SimDuration::ZERO);
}

#[test]
fn requests_to_a_crashed_node_time_out_at_the_debugger() {
    let mut w = World::builder().nodes(2).program(PINGER).build().unwrap();
    w.debug_connect(&[0, 1], false).unwrap();
    w.set_node_up(1, false);
    let before = w.now();
    match w.debug_request(1, AgentRequest::Ping) {
        Err(DebugError::Timeout) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    assert!(w.now().saturating_since(before) >= SimDuration::from_secs(29));
}

#[test]
fn retransmission_keeps_the_root_span() {
    let src = "\
pong = proc (n: int) returns (int)
 return (n)
end
main = proc ()
 r: int := call pong(7) at 1
 print(r)
end";
    let mut w = World::builder()
        .nodes(2)
        .program(src)
        .debugger(false)
        .build()
        .unwrap();
    // Lose the first call packet: the exactly-once protocol retransmits,
    // and the retransmission must carry the original span — one causal
    // activity, not a new one.
    w.inject_drop(0, 1, 1);
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(30));
    assert_eq!(w.console(0), vec!["7"]);

    let start = w
        .tracer()
        .events()
        .into_iter()
        .find(|e| matches!(e.kind, EventKind::CallStarted { .. }))
        .expect("the call start was traced");
    let span = start.span.expect("a span is allocated at call origination");
    let timeline = w.tracer().events_for_span(span);
    let names: Vec<&str> = timeline.iter().map(|e| e.kind.name()).collect();
    assert_eq!(
        names.iter().filter(|n| **n == "CallStarted").count(),
        1,
        "a retransmission is not a new call: {names:?}"
    );
    assert!(names.contains(&"PacketLost"), "{names:?}");
    assert!(names.contains(&"CallRetransmitted"), "{names:?}");
    assert!(
        names.iter().filter(|n| **n == "PacketSent").count() >= 3,
        "lost call, retransmission, and reply all share the root span: {names:?}"
    );
    assert_eq!(names.last(), Some(&"CallCompleted"), "{names:?}");
    assert!(
        timeline.iter().any(|e| e.node == Some(1)),
        "the span crosses onto the server node: {names:?}"
    );
}

#[test]
fn maybe_loss_diagnoses_emit_distinct_event_kinds() {
    let src = "\
pong = proc (n: int) returns (int)
 return (n)
end
main = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall pong(5) at 1
 sleep(600000)
end";
    for drop_call in [true, false] {
        let mut w = World::builder().nodes(2).program(src).build().unwrap();
        w.debug_connect(&[0, 1], false).unwrap();
        if drop_call {
            w.inject_drop(0, 1, 1);
        } else {
            w.inject_drop(1, 0, 1);
        }
        w.spawn(0, "main", vec![]);
        w.run_for(SimDuration::from_millis(300));
        let (call_id, ok) = *w.recent_calls(0).unwrap().last().expect("one call");
        assert!(!ok);
        let diagnosis = w.diagnose_maybe_failure(1, call_id).unwrap();
        let span = w
            .span_of_call(call_id)
            .expect("the call's span is in the trace");
        let timeline = w.tracer().events_for_span(span);
        let last = timeline
            .last()
            .expect("diagnosis event recorded")
            .kind
            .clone();
        // §4.1: the two verdicts are different facts with different
        // recovery actions, so they get distinct event kinds.
        if drop_call {
            assert_eq!(diagnosis, MaybeDiagnosis::LostCall);
            assert!(
                matches!(last, EventKind::MaybeLostCall { call_id: c } if c == call_id),
                "{last:?}"
            );
        } else {
            assert_eq!(diagnosis, MaybeDiagnosis::LostReply);
            assert!(
                matches!(last, EventKind::MaybeLostReply { call_id: c } if c == call_id),
                "{last:?}"
            );
        }
    }
}
