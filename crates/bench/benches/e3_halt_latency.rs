//! E3 — distributed halt latency (§5.2).
//!
//! Paper: halt messages go out serially as ~3.5 ms basic blocks on the
//! Cambridge Ring, while the fastest inter-node influence is an ~8 ms RPC.
//! "Thus we could be confident of contacting only two nodes in the time
//! available for halting remote processes." An Ethernet-style data-link
//! broadcast would reach every node at once.
//!
//! The harness plants a real breakpoint on node 0 of an N-node program,
//! lets it fire, and reads each node's halt instant from the trace. The
//! series is printed for the ring (serial) and Ethernet (broadcast) media.

use pilgrim::{AgentConfig, Medium, NetworkConfig, SimDuration, SimTime, World};
use pilgrim_bench::{fmt_us, Table};

/// The fastest way one node can observe another (minimum RPC latency,
/// §5.2 — ~8 ms one way in Mayflower).
const RPC_LATENCY_US: u64 = 8_000;

const PROGRAM: &str = "\
spin = proc ()
 i: int := 0
 while i < 100000000 do
  i := i + 1
  sleep(5)
 end
end
trigger = proc ()
 sleep(50)
 marker()
 sleep(600000)
end
marker = proc ()
 x: int := 1
end";

/// Returns per-node halt latency (µs) relative to the breakpoint instant.
fn run(nodes: u32, medium: Medium, broadcast_halt: bool) -> Vec<(u32, u64)> {
    let mut w = World::builder()
        .nodes(nodes)
        .program(PROGRAM)
        .network(NetworkConfig {
            medium,
            ..Default::default()
        })
        .agent(AgentConfig { broadcast_halt })
        .build()
        .expect("world builds");
    w.debug_connect(&(0..nodes).collect::<Vec<_>>(), false)
        .expect("connect");
    // Line 10 is `marker()` inside trigger; the trap fires ~50 ms in.
    w.break_at_line(0, 10).expect("breakpoint");
    for n in 1..nodes {
        w.spawn(n, "spin", vec![]);
    }
    w.spawn(0, "trigger", vec![]);
    let ev = w
        .wait_for_stop(SimDuration::from_secs(5))
        .expect("breakpoint hit");
    let origin_at = match ev {
        pilgrim::DebugEvent::BreakpointHit { at, .. } => at,
        other => panic!("unexpected {other:?}"),
    };
    w.run_for(SimDuration::from_millis(nodes as u64 * 10 + 50));

    // Halt instants from the structured trace.
    let mut out = Vec::new();
    for ev in w.tracer().events_in(pilgrim::TraceCategory::Debug) {
        if ev.message().contains("local processes halted") {
            out.push((ev.node.unwrap(), 0u64));
        } else if ev.message().contains("halted by broadcast") {
            out.push((
                ev.node.unwrap(),
                ev.time.saturating_since(origin_at).as_micros(),
            ));
        }
    }
    out.sort_by_key(|(_, t)| *t);
    w.debug_resume_all().ok();
    out
}

fn main() {
    let nodes = 6;
    let ring = run(nodes, Medium::CambridgeRing, false);
    let ether = run(nodes, Medium::Ethernet, true);

    let mut table = Table::new(
        "E3: time to halt each node after a breakpoint (§5.2)",
        "serial 3.5ms basic blocks vs ~8ms fastest RPC => only ~2 remote nodes \
         halt 'transparently'; Ethernet broadcast reaches all at once",
    )
    .headers([
        "halt order",
        "ring (serial)",
        "within 8ms RPC window?",
        "ethernet (broadcast)",
        "within window?",
    ]);

    let mut ring_within = 0;
    for i in 0..nodes as usize {
        let (rn, rt) = ring.get(i).copied().unwrap_or((999, 0));
        let (en, et) = ether.get(i).copied().unwrap_or((999, 0));
        let r_ok = rt <= RPC_LATENCY_US;
        if r_ok && rt > 0 {
            ring_within += 1;
        }
        table.row([
            format!("#{i}"),
            format!("node{rn} at +{}", fmt_us(rt)),
            if rt == 0 {
                "origin".into()
            } else {
                (if r_ok { "yes" } else { "NO" }).to_string()
            },
            format!("node{en} at +{}", fmt_us(et)),
            if et == 0 {
                "origin".into()
            } else {
                (if et <= RPC_LATENCY_US { "yes" } else { "NO" }).to_string()
            },
        ]);
    }
    table.print();

    println!(
        "\nremote nodes halted within the 8ms window on the ring: {ring_within} \
         (paper: 'confident of contacting only two nodes')"
    );
    assert_eq!(ring_within, 2, "the paper's two-node bound must reproduce");
    assert!(
        ether.iter().skip(1).all(|(_, t)| *t <= RPC_LATENCY_US),
        "Ethernet broadcast halts everyone at once"
    );

    // Scaling series: last-node halt latency vs cohort size.
    let mut scaling = Table::new(
        "E3b: time until the whole cohort is halted, vs cohort size",
        "serial transmission scales linearly on the ring; broadcast is flat",
    )
    .headers([
        "nodes",
        "ring: last node halted",
        "ethernet: last node halted",
    ]);
    for n in [2u32, 3, 4, 6, 8] {
        let r = run(n, Medium::CambridgeRing, false);
        let e = run(n, Medium::Ethernet, true);
        scaling.row([
            n.to_string(),
            fmt_us(r.iter().map(|(_, t)| *t).max().unwrap_or(0)),
            fmt_us(e.iter().map(|(_, t)| *t).max().unwrap_or(0)),
        ]);
    }
    scaling.print();
    let _ = SimTime::ZERO;
    println!("\nE3 complete.");
}
