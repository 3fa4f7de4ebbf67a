//! Post-mortem diagnosis of a failed `maybe` RPC (§4.1).
//!
//! "The failure of a call performed with the *maybe* RPC protocol could be
//! due to either the call or reply packet being lost. The debugger ought
//! to allow the programmer to find out which is the case."
//!
//! This example injects both kinds of loss and shows the debugger telling
//! them apart by combining the client's ten-slot cyclic buffer of recent
//! call outcomes with the server's knowledge of the call identifier.
//!
//! Run with: `cargo run --example rpc_postmortem`

use pilgrim::{
    DebugCli, EventKind, MaybeDiagnosis, NetworkConfig, SimDuration, SimTime, Value, World,
};

const PROGRAM: &str = "\
account_update = proc (amount: int) returns (int)
 return (amount + 1)                 % pretend this has side effects!
end

main = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall account_update(100) at 1
 if ok then
  print(\"update applied: \" || int$unparse(r))
 else
  print(\"update FAILED — but did the server run it?\")
 end
 sleep(600000)                        % stay alive for the post-mortem
end";

fn scenario(drop_call: bool) -> Result<(), Box<dyn std::error::Error>> {
    let mut world = World::builder().nodes(2).program(PROGRAM).build()?;
    world.debug_connect(&[0, 1], false)?;

    if drop_call {
        println!("-- injecting: the CALL packet will be lost --");
        world.inject_drop(0, 1, 1);
    } else {
        println!("-- injecting: the REPLY packet will be lost --");
        world.inject_drop(1, 0, 1);
    }

    world.spawn(0, "main", vec![]);
    world.run_for(SimDuration::from_millis(300));
    println!("client says: {:?}", world.console(0));

    // The programmer pulls up the client's recent-RPC cyclic buffer...
    let recent = world.recent_calls(0)?;
    let (call_id, ok) = *recent.last().expect("one call recorded");
    println!("recent calls buffer: call#{call_id} ok={ok}");
    assert!(!ok);

    // ...and asks the server's agent what it knows about that call id.
    let diagnosis = world.diagnose_maybe_failure(1, call_id)?;
    match diagnosis {
        MaybeDiagnosis::LostCall => {
            println!("diagnosis: LOST CALL — the server never saw call#{call_id};");
            println!("           the update did NOT happen. Safe to retry.\n");
        }
        MaybeDiagnosis::LostReply => {
            println!("diagnosis: LOST REPLY — the server executed call#{call_id}");
            println!("           and replied; the update DID happen. Retrying");
            println!("           would apply it twice!\n");
        }
        other => println!("diagnosis: {other:?}\n"),
    }
    if drop_call {
        assert_eq!(diagnosis, MaybeDiagnosis::LostCall);
    } else {
        assert_eq!(diagnosis, MaybeDiagnosis::LostReply);
    }
    Ok(())
}

/// A healthy run of the same call, with its cross-node causal timeline
/// reconstructed **from the trace alone**: the call's span is stamped on
/// every packet, dispatch, and completion event it causes, on both nodes.
fn span_timeline() -> Result<(), Box<dyn std::error::Error>> {
    println!("-- no loss: reconstructing the call's causal timeline --");
    let mut world = World::builder()
        .nodes(2)
        .program(PROGRAM)
        .debugger(false)
        .build()?;
    world.spawn(0, "main", vec![]);
    world.run_for(SimDuration::from_millis(300));

    // Nothing below consults the endpoints or nodes: only trace events.
    let start = world
        .tracer()
        .events()
        .into_iter()
        .find(|e| matches!(e.kind, EventKind::CallStarted { .. }))
        .expect("the call start was traced");
    let span = start.span.expect("calls are born with a span");
    let timeline = world.tracer().events_for_span(span);
    println!("timeline of span {span}:");
    for ev in &timeline {
        println!("  {ev}");
    }
    let pos = |name: &str, node: u32| {
        timeline
            .iter()
            .position(|e| e.kind.name() == name && e.node == Some(node))
            .unwrap_or_else(|| panic!("missing {name} on node{node}"))
    };
    let client_send = pos("PacketSent", 0);
    let server_exec = pos("ServerDispatched", 1);
    let reply_deliver = pos("PacketDelivered", 0);
    let completed = pos("CallCompleted", 0);
    assert!(
        client_send < server_exec && server_exec < reply_deliver && reply_deliver < completed,
        "client send -> server execute -> reply deliver -> completion"
    );
    println!("client send -> server execute -> reply deliver -> completion: causally ordered\n");
    Ok(())
}

/// Causal critical-path analytics on a *lossy* run: a fan-out of calls
/// to three servers over a network that silently drops packets, then
/// the REPL's `slow` and `path` commands showing which calls paid for
/// the losses — queue vs network vs server time, retransmits counted.
fn critical_path_on_a_lossy_run() -> Result<(), Box<dyn std::error::Error>> {
    const MAIN: &str = "\
ping = proc (x: int) returns (int)
 fail(\"servers implement ping\")
end

main = proc (rounds: int)
 total: int := 0
 for i: int := 1 to rounds do
  total := total + call ping(i) at 1
  total := total + call ping(i * 10) at 2
  total := total + call ping(i * 100) at 3
 end
 print(\"total \" || int$unparse(total))
end";
    const SERVER: &str = "\
ping = proc (x: int) returns (int)
 return (x * 2)
end";
    println!("-- lossy fan-out: where did the time go? --");
    let mut world = World::builder()
        .nodes(4)
        .program(MAIN)
        .program_for(1, SERVER)
        .program_for(2, SERVER)
        .program_for(3, SERVER)
        .network(NetworkConfig {
            p_silent_loss: 0.08,
            ..NetworkConfig::default()
        })
        .seed(0x1055)
        .debugger(false)
        .build()?;
    world.spawn(0, "main", vec![Value::Int(4)]);
    world.run_until_idle(SimTime::from_secs(60));

    let mut cli = DebugCli::new();
    let slow = cli.exec(&mut world, "slow 3");
    println!("pilgrim> slow 3\n{slow}");
    // The slowest span is the natural post-mortem target: its causal
    // path attributes every simulated microsecond it spent.
    let slowest_span = slow
        .lines()
        .nth(1)
        .and_then(|l| l.split_whitespace().nth(1))
        .expect("slow reports at least one span");
    let path = cli.exec(&mut world, &format!("path {slowest_span}"));
    println!("pilgrim> path {slowest_span}\n{path}");
    assert!(
        path.contains("retransmits") && path.contains("net"),
        "per-segment attribution missing:\n{path}"
    );
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    scenario(true)?;
    scenario(false)?;
    span_timeline()?;
    critical_path_on_a_lossy_run()?;
    println!("Same client-side symptom, opposite recovery actions — which is");
    println!("exactly why the paper wants the debugger to distinguish them.");
    Ok(())
}
