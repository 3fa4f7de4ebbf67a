//! E8 — cross-node backtraces (Figure 1) and maybe-failure diagnosis (§4.1).
//!
//! Two artifacts from §4 that have no single number but define the
//! debugger's RPC feature set:
//!
//! * a stack backtrace that crosses node boundaries via the information
//!   blocks and call tables, over a three-tier in-progress call chain;
//! * classification of a failed `maybe` call as *lost call* vs *lost
//!   reply* by interrogating the server.

use pilgrim::{MaybeDiagnosis, SimDuration, SimTime, World};
use pilgrim_bench::{verdict, Table};

const THREE_TIER: &str = "\
storage = proc (key: int) returns (int)
 sleep(120)
 return (key * 10)
end
middle = proc (key: int) returns (int)
 v: int := call storage(key) at 2
 return (v + 1)
end
main = proc ()
 r: int := call middle(4) at 1
 print(int$unparse(r))
end";

const MAYBE: &str = "\
update = proc (n: int) returns (int)
 return (n + 1)
end
main = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall update(1) at 1
 if ok then
  print(\"ok\")
 else
  print(\"failed\")
 end
 sleep(600000)
end";

fn main() {
    // Part 1: the Figure 1 backtrace.
    let mut w = World::builder()
        .nodes(3)
        .program(THREE_TIER)
        .build()
        .expect("world");
    w.debug_connect(&[0, 1, 2], false).expect("connect");
    let client = w.spawn(0, "main", vec![]).0;
    w.run_for(SimDuration::from_millis(50));
    let chain = w.distributed_backtrace(0, client).expect("backtrace");

    let mut t = Table::new(
        "E8a: distributed backtrace across an in-progress 3-tier call (Figure 1)",
        "client stub frames and server tables link the whole chain",
    )
    .headers(["frame", "node", "procedure:line", "kind", "rpc info"]);
    for (i, f) in chain.iter().enumerate() {
        t.row([
            format!("#{i}"),
            format!("node{}", f.node),
            format!(
                "{}:{}",
                f.proc_name,
                f.line.map(|l| l.to_string()).unwrap_or_else(|| "?".into())
            ),
            f.kind.to_string(),
            f.rpc
                .as_ref()
                .map(|r| {
                    format!(
                        "call#{} {} [{}] {}",
                        r.call_id, r.remote_proc, r.protocol, r.state
                    )
                })
                .unwrap_or_default(),
        ]);
    }
    t.print();
    let nodes: Vec<u32> = chain.iter().map(|f| f.node).collect();
    assert!(nodes.contains(&0) && nodes.contains(&1) && nodes.contains(&2));
    assert_eq!(chain.last().unwrap().proc_name, "storage");
    w.run_until_idle(SimTime::from_secs(10));
    assert_eq!(w.console(0), vec!["41"]);

    // Part 2: lost call vs lost reply.
    let mut t = Table::new(
        "E8b: diagnosing a failed maybe call (§4.1)",
        "'the debugger ought to allow the programmer to find out which is the case'",
    )
    .headers([
        "injected fault",
        "client saw",
        "server knowledge",
        "diagnosis",
        "verdict",
    ]);
    for drop_call in [true, false] {
        let mut w = World::builder()
            .nodes(2)
            .program(MAYBE)
            .build()
            .expect("world");
        w.debug_connect(&[0, 1], false).expect("connect");
        if drop_call {
            w.inject_drop(0, 1, 1);
        } else {
            w.inject_drop(1, 0, 1);
        }
        w.spawn(0, "main", vec![]);
        w.run_for(SimDuration::from_millis(300));
        let (call_id, ok) = *w.recent_calls(0).expect("recent").last().expect("one call");
        let diagnosis = w.diagnose_maybe_failure(1, call_id).expect("diagnosis");
        let expected = if drop_call {
            MaybeDiagnosis::LostCall
        } else {
            MaybeDiagnosis::LostReply
        };
        t.row([
            if drop_call {
                "call packet dropped"
            } else {
                "reply packet dropped"
            }
            .to_string(),
            format!("call#{call_id} ok={ok}"),
            format!("{diagnosis:?}"),
            if diagnosis == MaybeDiagnosis::LostCall {
                "safe to retry".to_string()
            } else {
                "side effects happened!".to_string()
            },
            verdict(diagnosis == expected).to_string(),
        ]);
        assert_eq!(diagnosis, expected);
    }
    t.print();
    println!("\nE8 complete.");
}
