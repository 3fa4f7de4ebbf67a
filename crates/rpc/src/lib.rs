//! The Mayflower RPC system with Pilgrim's debugging instrumentation.
//!
//! Reproduces §2 and §4 of the paper:
//!
//! * **Two protocols** (§2): *exactly-once* — reliable in the absence of
//!   node failures, via retransmission, duplicate suppression and a reply
//!   cache — and *maybe* — one transmission, a reply deadline, and failure
//!   surfaced to the program so it can apply its own retry strategy.
//! * **Fully type-checked transmission** of arbitrarily complex values
//!   (§2): compile-time checking on the sending side plus run-time
//!   signature checking in the receiving dispatcher (the [`marshal`](mod@crate::marshal) module).
//! * **The final debugging design** (§4.3): call-identifier tables on both
//!   sides, information blocks in known stack positions (Figure 1), and a
//!   ten-slot cyclic buffer of recent outcomes. The instrumentation costs
//!   the paper's 400 µs per call and can be disabled to measure the
//!   difference (experiment E1).
//! * **The rejected packet-monitor design** (§4.2) as a switchable
//!   ablation that roughly doubles RPC latency (experiment E2).
//! * **Maybe-failure diagnosis** (§4.1): a failed maybe call can be
//!   classified as *lost call* vs *lost reply* by asking the server what
//!   it knows ([`ServerKnowledge`]).

#![warn(missing_docs)]

mod endpoint;
pub mod marshal;
mod monitor;
mod packet;
mod seen;

pub use endpoint::{
    CallDebug, HandlerCtx, NativeBody, RpcEndpoint, RpcNet, RpcStats, ServerKnowledge,
};
pub use marshal::{default_for, marshal, unmarshal, wire_matches_type, MarshalError, WireValue};
pub use monitor::{MonitorState, PacketMonitor};
pub use packet::{
    call_id_counter, call_id_node, make_call_id, CallId, RpcConfig, RpcPacket, RECENT_SLOTS,
};

use pilgrim_ring::{Network, NodeId};
use pilgrim_sim::SimTime;

impl RpcNet for Network<RpcPacket> {
    fn send_rpc(&mut self, at: SimTime, src: NodeId, dst: NodeId, pkt: RpcPacket, bytes: usize) {
        // Interface-level NACKs are not retried by the RPC layer itself:
        // exactly-once recovers through its retransmission timer, and a
        // maybe call simply fails — both exactly the paper's semantics.
        let _ = self.send(at, src, dst, pkt, bytes);
    }

    fn node_count(&self) -> u32 {
        self.nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilgrim_cclu::{compile, RpcCallState, RpcProtocol};
    use pilgrim_mayflower::{Node, NodeConfig, Outcall, RunState, SpawnOpts};
    use pilgrim_ring::NetworkConfig;
    use pilgrim_sim::{SimDuration, Tracer};

    /// A minimal multi-node pump: nodes + network + endpoints, advanced in
    /// exact-event steps. (The full world, with the debugger wired in,
    /// lives in the `pilgrim` crate; this harness tests the RPC layer in
    /// isolation.)
    struct Cluster {
        nodes: Vec<Node>,
        endpoints: Vec<RpcEndpoint>,
        net: Network<RpcPacket>,
        now: SimTime,
    }

    impl Cluster {
        fn new(source: &str, count: u32) -> Cluster {
            Cluster::with_configs(
                source,
                count,
                RpcConfig::default(),
                NetworkConfig::default(),
            )
        }

        fn with_configs(
            source: &str,
            count: u32,
            rpc: RpcConfig,
            netcfg: NetworkConfig,
        ) -> Cluster {
            let tracer = Tracer::new();
            let program = compile(source).expect("program compiles");
            let nodes = (0..count)
                .map(|i| {
                    Node::new(
                        i,
                        program.clone(),
                        NodeConfig {
                            seed: u64::from(i) + 1,
                            ..Default::default()
                        },
                        tracer.clone(),
                    )
                })
                .collect();
            let endpoints = (0..count)
                .map(|i| RpcEndpoint::new(NodeId(i), rpc.clone(), tracer.clone()))
                .collect();
            Cluster {
                nodes,
                endpoints,
                net: Network::new(netcfg, count),
                now: SimTime::ZERO,
            }
        }

        fn run_until(&mut self, limit: SimTime) {
            let window = SimDuration::from_millis(1);
            while self.now < limit {
                // Next interesting instant.
                let mut next = self.now + window;
                for n in &mut self.nodes {
                    if let Some(t) = n.next_activity() {
                        next = next.min(t.max(self.now));
                    }
                }
                if let Some(t) = self.net.next_delivery_at() {
                    next = next.min(t);
                }
                for e in &mut self.endpoints {
                    if let Some(t) = e.next_timer() {
                        next = next.min(t);
                    }
                }
                let next = next.min(limit).max(self.now);

                // Advance every node to `next`, routing outcalls.
                for i in 0..self.nodes.len() {
                    let outcalls = self.nodes[i].advance_to(next);
                    for oc in outcalls {
                        match oc {
                            Outcall::Rpc {
                                pid,
                                token,
                                req,
                                at,
                            } => {
                                self.endpoints[i].start_call(
                                    at,
                                    &mut self.nodes[i],
                                    pid,
                                    token,
                                    &req,
                                    &mut self.net,
                                );
                            }
                            Outcall::ProcExited { pid, at } => {
                                self.endpoints[i].on_proc_exited(
                                    at,
                                    &mut self.nodes[i],
                                    pid,
                                    &mut self.net,
                                );
                            }
                            Outcall::Fault { pid, ref fault, at } => {
                                self.endpoints[i].on_proc_faulted(
                                    at,
                                    &mut self.nodes[i],
                                    pid,
                                    fault,
                                    &mut self.net,
                                );
                            }
                            _ => {}
                        }
                    }
                }

                // Deliver packets due by `next`.
                let (deliveries, _) = self.net.poll(next);
                for d in deliveries {
                    let i = d.dst.0 as usize;
                    self.endpoints[i].on_packet(
                        d.at,
                        &mut self.nodes[i],
                        d.src,
                        d.payload,
                        &mut self.net,
                    );
                }

                // Fire protocol timers due by `next`.
                for i in 0..self.endpoints.len() {
                    self.endpoints[i].on_timers(next, &mut self.nodes[i], &mut self.net);
                }

                if self.now == next {
                    self.now = next + SimDuration::from_micros(1);
                } else {
                    self.now = next;
                }
            }
        }

        fn console(&self, node: usize) -> Vec<String> {
            self.nodes[node]
                .console()
                .iter()
                .map(|(_, s)| s.clone())
                .collect()
        }
    }

    const SQUARE: &str = "\
sq = proc (n: int) returns (int)
 return (n * n)
end
main = proc ()
 r: int := call sq(7) at 1
 print(r)
end";

    #[test]
    fn exactly_once_round_trip() {
        let mut c = Cluster::new(SQUARE, 2);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(100));
        assert_eq!(c.console(0), vec!["49"]);
        let stats = c.endpoints[0].stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        // Null-ish RPC latency: ~16 ms + callee execution.
        let lat = stats.mean_latency();
        assert!(
            (15_500..18_500).contains(&lat.as_micros()),
            "latency {lat} out of the calibrated range"
        );
    }

    #[test]
    fn complex_values_cross_nodes() {
        let src = "\
point = record[x: int, y: int]
flip = proc (p: point, tags: array[string]) returns (point, int)
 return (point${x: p.y, y: p.x}, len(tags))
end
main = proc ()
 p: point := point${x: 1, y: 2}
 ts: array[string] := array$new()
 append(ts, \"a\")
 append(ts, \"b\")
 q: point := p
 n: int := 0
 q, n := call flip(p, ts) at 1
 print(q)
 print(n)
end";
        let mut c = Cluster::new(src, 2);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(200));
        assert_eq!(c.console(0), vec!["point${2, 1}", "2"]);
    }

    #[test]
    fn exactly_once_retransmits_through_silent_loss() {
        let mut c =
            Cluster::with_configs(SQUARE, 2, RpcConfig::default(), NetworkConfig::default());
        // Lose the first call packet silently; the retry must recover.
        c.net.drop_next(NodeId(0), NodeId(1), 1);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(300));
        assert_eq!(c.console(0), vec!["49"]);
        let stats = c.endpoints[0].stats();
        assert_eq!(stats.completed, 1);
        assert!(stats.retransmits >= 1);
    }

    #[test]
    fn exactly_once_deduplicates_on_lost_reply() {
        let src = "\
own hits: int := 0
bump = proc () returns (int)
 hits := hits + 1
 return (hits)
end
main = proc ()
 r: int := call bump() at 1
 print(r)
end";
        let mut c = Cluster::new(src, 2);
        // Lose the first reply: client retransmits, server must reuse the
        // cached reply rather than execute twice.
        c.net.drop_next(NodeId(1), NodeId(0), 1);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(400));
        assert_eq!(c.console(0), vec!["1"], "duplicate execution detected");
        // Server global `hits` incremented exactly once.
        assert_eq!(c.nodes[1].globals()[0], pilgrim_cclu::Value::Int(1));
    }

    #[test]
    fn exactly_once_fails_on_crashed_node() {
        let mut c = Cluster::new(SQUARE, 2);
        c.net.set_up(NodeId(1), false);
        let pid = c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_secs(2));
        assert!(c.console(0).is_empty());
        match &c.nodes[0].process(pid).unwrap().state {
            RunState::Faulted(f) => {
                assert_eq!(f.kind, pilgrim_cclu::FaultKind::RemoteCall);
                assert!(f.message.contains("no response"), "{}", f.message);
            }
            other => panic!("expected fault, got {other:?}"),
        }
        assert_eq!(c.endpoints[0].stats().failed, 1);
    }

    const MAYBE_PING: &str = "\
ping = proc (n: int) returns (int)
 return (n + 1)
end
main = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall ping(41) at 1
 if ok then
  print(\"ok \" || int$unparse(r))
 else
  print(\"failed\")
 end
end";

    #[test]
    fn maybe_succeeds_without_loss() {
        let mut c = Cluster::new(MAYBE_PING, 2);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(200));
        assert_eq!(c.console(0), vec!["ok 42"]);
    }

    #[test]
    fn maybe_lost_call_vs_lost_reply_diagnosis() {
        // Lost call: the server never saw it.
        let mut c = Cluster::new(MAYBE_PING, 2);
        c.net.drop_next(NodeId(0), NodeId(1), 1);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(300));
        assert_eq!(c.console(0), vec!["failed"]);
        let (failed_id, ok) = c.endpoints[0].recent_client_calls()[0];
        assert!(!ok);
        assert_eq!(
            c.endpoints[1].server_knowledge(failed_id),
            ServerKnowledge::NeverSeen,
            "a lost call leaves no trace at the server"
        );

        // Lost reply: the server executed and replied.
        let mut c = Cluster::new(MAYBE_PING, 2);
        c.net.drop_next(NodeId(1), NodeId(0), 1);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(300));
        assert_eq!(c.console(0), vec!["failed"]);
        let (failed_id, ok) = c.endpoints[0].recent_client_calls()[0];
        assert!(!ok);
        assert_eq!(
            c.endpoints[1].server_knowledge(failed_id),
            ServerKnowledge::Replied(true),
            "a lost reply is distinguishable at the server"
        );
    }

    #[test]
    fn server_remembers_a_failure_after_ten_later_calls() {
        let src = "\
extern nothere = proc () returns (int)
ping = proc (n: int) returns (int)
 return (n)
end
main = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall nothere() at 1
 for i: int := 1 to 11 do
  r := call ping(i) at 1
 end
 print(\"done\")
end";
        let mut c = Cluster::new(src, 2);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_secs(2));
        assert_eq!(c.console(0), vec!["done"]);
        let failed_id = make_call_id(NodeId(0), 1);
        let served = c.endpoints[1].recent_served_calls();
        assert_eq!(served.len(), RECENT_SLOTS);
        assert!(
            served.iter().all(|(id, ok)| *id != failed_id && *ok),
            "the ten-slot buffer has forgotten the failed call: {served:?}"
        );
        // The reply cache has not: a debugger asking after the failed
        // maybe call must hear `RemoteFailed`, not a lost reply.
        assert_eq!(
            c.endpoints[1].server_knowledge(failed_id),
            ServerKnowledge::Replied(false)
        );
        assert_eq!(
            c.endpoints[1].server_knowledge(make_call_id(NodeId(0), 2)),
            ServerKnowledge::Replied(true)
        );
    }

    #[test]
    fn debug_support_off_keeps_no_recent_buffer_on_either_side() {
        // One refused call, one served: neither may touch the §4.3 cyclic
        // buffers when the debugging support is compiled out (E1's arm).
        let src = "\
extern nothere = proc () returns (int)
ping = proc (n: int) returns (int)
 return (n)
end
main = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall nothere() at 1
 r := call ping(1) at 1
 print(\"done\")
end";
        let cfg = RpcConfig {
            debug_support: false,
            ..Default::default()
        };
        let mut c = Cluster::with_configs(src, 2, cfg, NetworkConfig::default());
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_secs(1));
        assert_eq!(c.console(0), vec!["done"]);
        assert_eq!(c.endpoints[1].stats().served, 1);
        assert!(c.endpoints[1].recent_served_calls().is_empty());
        assert!(c.endpoints[0].recent_client_calls().is_empty());
    }

    #[test]
    fn remote_fault_propagates() {
        let src = "\
boom = proc () returns (int)
 fail(\"server exploded\")
end
main = proc ()
 r: int := call boom() at 1
 print(r)
end";
        let mut c = Cluster::new(src, 2);
        let pid = c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(200));
        match &c.nodes[0].process(pid).unwrap().state {
            RunState::Faulted(f) => assert!(f.message.contains("server exploded"), "{f}"),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn unknown_procedure_rejected_by_server() {
        let src = "\
extern nothere = proc () returns (int)
main = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall nothere() at 1
 if ok then
  print(\"ok\")
 else
  print(\"rejected\")
 end
end";
        let mut c = Cluster::new(src, 2);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(200));
        assert_eq!(c.console(0), vec!["rejected"]);
    }

    #[test]
    fn info_blocks_appear_on_both_stacks() {
        let src = "\
slow = proc (n: int) returns (int)
 sleep(50)
 return (n)
end
main = proc ()
 r: int := call slow(5) at 1
 print(r)
end";
        let mut c = Cluster::new(src, 2);
        let client_pid = c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        // Run just past dispatch so the server process is mid-execution.
        c.run_until(SimTime::from_millis(20));

        // Figure 1, left: client's top frame is the RPC stub with the info
        // block; the client table maps the process to the call.
        let dbg = c.endpoints[0]
            .call_for_process(client_pid)
            .expect("client call table entry");
        assert_eq!(&*dbg.proc, "slow");
        assert_eq!(dbg.protocol, RpcProtocol::ExactlyOnce);
        let client = c.nodes[0].process(client_pid).unwrap();
        let top = client.vm().unwrap().frames.last().unwrap();
        assert_eq!(top.kind, pilgrim_cclu::FrameKind::RpcStub);
        let info = top.rpc_info.as_ref().expect("client info block");
        assert_eq!(info.call_id, dbg.call_id);
        assert_eq!(&*info.remote_proc, "slow");

        // Figure 1, right: the server table maps the call to the serving
        // process, whose bottom frame carries the info block.
        let server_pid = c.endpoints[1]
            .serving_process(dbg.call_id)
            .expect("server table entry");
        let server = c.nodes[1].process(server_pid).unwrap();
        let root = server.vm().unwrap().frames.first().unwrap();
        assert_eq!(root.kind, pilgrim_cclu::FrameKind::ServerRoot);
        let sinfo = root.rpc_info.as_ref().expect("server info block");
        assert_eq!(sinfo.call_id, dbg.call_id);
        assert_eq!(sinfo.state.get(), RpcCallState::ServerExecuting);

        // Completion clears the stub and the tables.
        c.run_until(SimTime::from_millis(200));
        assert_eq!(c.console(0), vec!["5"]);
        assert!(c.endpoints[0].call_for_process(client_pid).is_none());
        assert!(c.endpoints[1].serving_process(dbg.call_id).is_none());
    }

    #[test]
    fn debug_support_costs_about_400_micros() {
        let run = |debug_support: bool| {
            let cfg = RpcConfig {
                debug_support,
                ..Default::default()
            };
            let mut c = Cluster::with_configs(SQUARE, 2, cfg, NetworkConfig::default());
            c.nodes[0]
                .spawn("main", vec![], SpawnOpts::default())
                .unwrap();
            c.run_until(SimTime::from_millis(100));
            assert_eq!(c.console(0), vec!["49"]);
            c.endpoints[0].stats().mean_latency()
        };
        let with = run(true);
        let without = run(false);
        let overhead = with - without;
        assert_eq!(overhead.as_micros(), 400, "{with} vs {without}");
        // ~2.5 % of a null RPC (§4.3).
        let pct = overhead.as_micros() as f64 / without.as_micros() as f64 * 100.0;
        assert!((2.0..3.0).contains(&pct), "overhead {pct:.2}%");
    }

    #[test]
    fn packet_monitor_roughly_doubles_latency() {
        let run = |monitor: bool| {
            let cfg = RpcConfig {
                monitor,
                debug_support: false,
                ..Default::default()
            };
            let mut c = Cluster::with_configs(SQUARE, 2, cfg, NetworkConfig::default());
            c.nodes[0]
                .spawn("main", vec![], SpawnOpts::default())
                .unwrap();
            c.run_until(SimTime::from_millis(200));
            assert_eq!(c.console(0), vec!["49"]);
            (
                c.endpoints[0].stats().mean_latency(),
                c.endpoints[0].monitor().observations() + c.endpoints[1].monitor().observations(),
            )
        };
        let (base, obs0) = run(false);
        let (monitored, obs1) = run(true);
        assert_eq!(obs0, 0);
        assert!(
            obs1 >= 4,
            "monitor must observe call and reply on both nodes"
        );
        let ratio = monitored.as_micros() as f64 / base.as_micros() as f64;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn ten_slot_cyclic_buffer_on_client() {
        let src = "\
ping = proc (n: int) returns (int)
 return (n)
end
main = proc ()
 for i: int := 1 to 12 do
  r: int := call ping(i) at 1
 end
 print(\"done\")
end";
        let mut c = Cluster::new(src, 2);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_secs(2));
        assert_eq!(c.console(0), vec!["done"]);
        let recent = c.endpoints[0].recent_client_calls();
        assert_eq!(recent.len(), RECENT_SLOTS, "buffer holds exactly ten");
        assert!(recent.iter().all(|(_, ok)| *ok));
    }

    /// `n -> n * by` as a native procedure body.
    fn times(by: i64) -> NativeBody {
        Box::new(
            move |_: &mut HandlerCtx<'_>, args: Vec<pilgrim_cclu::Value>| {
                let n = args[0].as_int().ok_or("bad arg")?;
                Ok(vec![pilgrim_cclu::Value::Int(n * by)])
            },
        )
    }

    fn int_to_int() -> pilgrim_cclu::Signature {
        pilgrim_cclu::Signature {
            params: vec![pilgrim_cclu::Type::Int],
            returns: vec![pilgrim_cclu::Type::Int],
        }
    }

    #[test]
    fn native_handler_serves_calls() {
        let src = "\
extern double = proc (n: int) returns (int)
main = proc ()
 r: int := call double(21) at 1
 print(r)
end";
        let mut c = Cluster::new(src, 2);
        c.endpoints[1].register_handler("double", int_to_int(), times(3));
        // A second body under a taken name replaces the first.
        c.endpoints[1].register_handler("double", int_to_int(), times(2));
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(200));
        assert_eq!(c.console(0), vec!["42"]);
        assert_eq!(c.endpoints[1].stats().served, 1);
    }

    #[test]
    fn a_native_error_fails_the_call_under_both_protocols() {
        let src = "\
extern refuse = proc (n: int) returns (int)
eo = proc ()
 r: int := call refuse(1) at 1
 print(r)
end
mb = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall refuse(1) at 1
 if ok then
  print(\"ok\")
 else
  print(\"failed\")
 end
end";
        let mut c = Cluster::new(src, 2);
        c.endpoints[1].register_handler(
            "refuse",
            int_to_int(),
            Box::new(|_: &mut HandlerCtx<'_>, _| Err("refused by the service".to_string())),
        );
        let eo = c.nodes[0]
            .spawn("eo", vec![], SpawnOpts::default())
            .unwrap();
        c.nodes[0]
            .spawn("mb", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(400));
        // Maybe: the call fails, and the caller carries on.
        assert_eq!(c.console(0), vec!["failed"]);
        // Exactly-once: the caller faults with the body's reason.
        match &c.nodes[0].process(eo).unwrap().state {
            RunState::Faulted(f) => {
                assert_eq!(f.kind, pilgrim_cclu::FaultKind::RemoteCall);
                assert_eq!(f.message, "refused by the service");
            }
            other => panic!("expected fault, got {other:?}"),
        }
        assert_eq!(c.endpoints[0].stats().failed, 2);
        assert_eq!(c.endpoints[1].recent_served_calls().len(), 2);
        assert!(c.endpoints[1]
            .recent_served_calls()
            .iter()
            .all(|(_, ok)| !ok));
    }

    #[test]
    fn type_mismatch_rejected_at_server() {
        // Node 1 runs a *different* program whose `f` takes a string; node
        // 0's compile-time view says int. The server-side run-time check
        // must reject the call.
        let tracer = Tracer::new();
        let client_prog = compile(
            "f = proc (n: int) returns (int)\n return (n)\nend\n\
             main = proc ()\n ok: bool := true\n r: int := 0\n ok, r := maybecall f(1) at 1\n\
             if ok then\n print(\"accepted\")\n else\n print(\"mismatch\")\n end\nend",
        )
        .unwrap();
        let server_prog =
            compile("f = proc (s: string) returns (string)\n return (s)\nend").unwrap();
        let mut c = Cluster::new(MAYBE_PING, 2); // scaffolding; nodes replaced below
        c.nodes = vec![
            Node::new(0, client_prog, NodeConfig::default(), tracer.clone()),
            Node::new(1, server_prog, NodeConfig::default(), tracer.clone()),
        ];
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(300));
        assert_eq!(c.console(0), vec!["mismatch"]);
    }

    #[test]
    fn call_to_nonexistent_node_fails_fast() {
        let src = "\
ping = proc () returns (int)
 return (1)
end
main = proc ()
 ok: bool := true
 r: int := 0
 ok, r := maybecall ping() at 9
 if ok then
  print(\"ok\")
 else
  print(\"no such node\")
 end
end";
        let mut c = Cluster::new(src, 2);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_millis(100));
        assert_eq!(c.console(0), vec!["no such node"]);
    }

    #[test]
    fn concurrent_calls_from_many_processes() {
        let src = "\
sq = proc (n: int) returns (int)
 return (n * n)
end
worker = proc (n: int, d: sem)
 r: int := call sq(n) at 1
 print(int$unparse(n) || \"->\" || int$unparse(r))
 sem$signal(d)
end
main = proc ()
 d: sem := sem$create(0)
 for i: int := 1 to 5 do
  fork worker(i, d)
 end
 for i: int := 1 to 5 do
  ok: bool := sem$wait(d, 0 - 1)
 end
 print(\"all done\")
end";
        let mut c = Cluster::new(src, 2);
        c.nodes[0]
            .spawn("main", vec![], SpawnOpts::default())
            .unwrap();
        c.run_until(SimTime::from_secs(2));
        let out = c.console(0);
        assert_eq!(out.len(), 6);
        assert_eq!(out.last().unwrap(), "all done");
        for i in 1..=5 {
            assert!(out.contains(&format!("{i}->{}", i * i)), "{out:?}");
        }
        assert_eq!(c.endpoints[0].stats().completed, 5);
        assert_eq!(c.endpoints[1].stats().served, 5);
    }
}
