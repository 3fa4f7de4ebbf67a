//! The M1 micro-benchmark suite, as a library.
//!
//! Each benchmark measures the *harness's* wall-clock performance (how
//! fast the reproduction simulates), not any paper number. The suite is a
//! library so two binaries can share it: `benches/micro.rs` runs the full
//! sampled configuration and re-baselines `BENCH_micro.json`, while
//! `src/bin/compare.rs` runs a quick smoke configuration and diffs the
//! fresh numbers against the committed baseline.

use pilgrim::{NetworkConfig, SimTime, Topology, Value, World};
use pilgrim_cclu::{compile, ExecEnv, Heap, StepOutcome, VmProcess};
use pilgrim_mayflower::{Node, NodeConfig, RunState, SpawnOpts};
use pilgrim_rpc::{marshal, unmarshal};
use pilgrim_sim::{EventQueue, SimDuration, Tracer};

use crate::runner::{self, BenchResult, Config};

const FIB: &str = "\
fib = proc (n: int) returns (int)
 if n < 2 then
  return (n)
 end
 return (fib(n - 1) + fib(n - 2))
end
main = proc () returns (int)
 return (fib(15))
end";

/// Compiler throughput on the fib program.
pub fn compile_fib(cfg: &Config) -> BenchResult {
    runner::run_with("compiler/compile_fib", cfg, || {
        std::hint::black_box(compile(std::hint::black_box(FIB)).unwrap());
    })
}

/// A no-op syscall provider for raw VM stepping.
struct NullSys;
impl pilgrim_cclu::Syscalls for NullSys {
    fn now_ms(&mut self) -> i64 {
        0
    }
    fn pid(&mut self) -> i64 {
        1
    }
    fn node_id(&mut self) -> i64 {
        0
    }
    fn random(&mut self, bound: i64) -> i64 {
        bound - 1
    }
    fn print(&mut self, _text: &str) {}
    fn sem_create(&mut self, _count: i64) -> u32 {
        0
    }
    fn sem_wait(&mut self, _s: u32, _t: i64) -> pilgrim_cclu::SysReply {
        pilgrim_cclu::SysReply::Val(vec![Value::Bool(true)])
    }
    fn sem_signal(&mut self, _s: u32) {}
    fn mutex_create(&mut self) -> u32 {
        0
    }
    fn mutex_lock(&mut self, _m: u32) -> pilgrim_cclu::SysReply {
        pilgrim_cclu::SysReply::Val(vec![])
    }
    fn mutex_unlock(&mut self, _m: u32) {}
    fn fork(&mut self, _p: pilgrim_cclu::ProcId, _a: Vec<Value>) -> i64 {
        2
    }
    fn sleep(&mut self, _ms: i64) -> pilgrim_cclu::SysReply {
        pilgrim_cclu::SysReply::Val(vec![])
    }
    fn rpc(&mut self, _r: pilgrim_cclu::RpcRequest) -> pilgrim_cclu::SysReply {
        unreachable!("no rpc in fib")
    }
}

/// Raw VM dispatch: fib(15) to completion (≈21.7k instructions).
pub fn vm_fib15(cfg: &Config) -> BenchResult {
    let program = compile(FIB).unwrap();
    let entry = program.proc_by_name("main").unwrap();
    runner::run_with("vm/fib15_to_completion", cfg, || {
        let mut heap = Heap::new();
        let mut globals: Vec<Value> = vec![];
        let mut sys = NullSys;
        let mut p = VmProcess::spawn(entry, vec![]);
        loop {
            let mut env = ExecEnv {
                heap: &mut heap,
                program: &program,
                globals: &mut globals,
                sys: &mut sys,
            };
            match pilgrim_cclu::step(&mut p, &mut env) {
                StepOutcome::Exited { .. } => break,
                StepOutcome::Faulted { fault, .. } => panic!("{fault}"),
                _ => {}
            }
        }
        std::hint::black_box(&p.exit_values);
    })
}

/// Marshal + unmarshal of a record holding a 64-element array.
pub fn marshal_record(cfg: &Config) -> BenchResult {
    let mut heap = Heap::new();
    let arr = heap.alloc(pilgrim_cclu::HeapObject::Array(
        (0..64).map(Value::Int).collect(),
    ));
    let rec = heap.alloc(pilgrim_cclu::HeapObject::Record {
        type_name: "blob".into(),
        fields: vec![
            Value::Str("payload".into()),
            Value::Ref(arr),
            Value::Bool(true),
        ],
    });
    let v = Value::Ref(rec);
    runner::run_with("rpc/marshal_unmarshal_record", cfg, move || {
        let w = marshal(&heap, std::hint::black_box(&v)).unwrap();
        let mut dst = Heap::new();
        std::hint::black_box(unmarshal(&mut dst, &w));
    })
}

/// Event queue schedule + pop of 1k events, no cancellations.
pub fn event_queue_1k(cfg: &Config) -> BenchResult {
    runner::run_with("sim/event_queue_1k_schedule_pop", cfg, || {
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_micros((i * 7) % 997), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        std::hint::black_box(sum);
    })
}

/// Event queue under heavy cancellation: 2k events scheduled, every other
/// one cancelled before draining — exercises the lazy-skip path and the
/// id-window bookkeeping.
pub fn event_queue_cancel_heavy(cfg: &Config) -> BenchResult {
    runner::run_with("sim/event_queue_cancel_heavy", cfg, || {
        let mut q = EventQueue::new();
        let mut ids = Vec::with_capacity(2_048);
        for i in 0..2_048u64 {
            ids.push(q.schedule(SimTime::from_micros((i * 13) % 1_999), i));
        }
        for id in ids.iter().step_by(2) {
            std::hint::black_box(q.cancel(*id));
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        std::hint::black_box(sum);
    })
}

/// One process executing ~100k instructions on a bare node — the
/// scheduler's `step_process` hot path with no I/O, timers, or peers.
pub fn node_step_storm(cfg: &Config) -> BenchResult {
    const STORM: &str = "\
storm = proc (n: int) returns (int)
 acc: int := 0
 for i: int := 1 to n do
  acc := acc + i
 end
 return (acc)
end";
    let program = compile(STORM).unwrap();
    runner::run_with("node/step_storm", cfg, move || {
        let mut node = Node::new(0, program.clone(), NodeConfig::default(), Tracer::new());
        let pid = node
            .spawn("storm", vec![Value::Int(12_000)], SpawnOpts::default())
            .unwrap();
        while node.process(pid).map(|p| &p.state) != Some(&RunState::Exited) {
            let clock = node.clock();
            std::hint::black_box(node.advance_to(clock + SimDuration::from_millis(100)));
        }
        std::hint::black_box(node.exit_values(pid));
    })
}

/// A thousand processes interleaving compute and 1ms sleeps on one node —
/// spawn churn, run-queue rotation, and batched timer expiry at scale.
pub fn world_1k_processes(cfg: &Config) -> BenchResult {
    const PROGRAM: &str = "\
worker = proc (k: int) returns (int)
 t: int := 0
 for i: int := 1 to k do
  t := t + i
  sleep(1)
 end
 return (t)
end
main = proc (n: int)
 for i: int := 1 to n do
  fork worker(5)
 end
end";
    runner::run_with("world/1k_processes_round_robin", cfg, || {
        let mut w = World::builder()
            .nodes(1)
            .program(PROGRAM)
            .debugger(false)
            .build()
            .unwrap();
        w.spawn(0, "main", vec![Value::Int(1_000)]);
        w.run_until_idle(SimTime::from_secs(60));
        std::hint::black_box(w.now());
    })
}

/// A thousand processes spread over eight nodes (125 workers each), all
/// compute-bound, so every lockstep window is full of disjoint per-node
/// VM stepping for the pool to hand out. (Per-iteration sleeps would
/// stagger wakeups and shatter the run into near-empty windows where the
/// barrier dominates — that serial fragility is what the round-robin
/// variant measures.) `threads == 1` is the serial baseline of the same
/// topology; the higher counts measure real speedup, since each window's
/// ~1ms of per-node instruction budget runs inside `Node::advance_to` on
/// the worker threads, leaving only the merge at the barrier.
pub fn world_1k_processes_parallel(cfg: &Config, threads: usize) -> BenchResult {
    const PROGRAM: &str = "\
worker = proc (k: int) returns (int)
 t: int := 0
 for i: int := 1 to k do
  t := t + i
 end
 return (t)
end
main = proc (n: int)
 for i: int := 1 to n do
  fork worker(40)
 end
end";
    let name = format!("world/1k_processes_parallel{threads}");
    runner::run_with(&name, cfg, move || {
        let mut w = World::builder()
            .nodes(8)
            .program(PROGRAM)
            .debugger(false)
            .step_threads(threads)
            .build()
            .unwrap();
        for node in 0..8 {
            w.spawn(node, "main", vec![Value::Int(125)]);
        }
        w.run_until_idle(SimTime::from_secs(60));
        std::hint::black_box(w.now());
    })
}

/// A hundred thousand processes across 100 nodes, each worker sleeping a
/// node-staggered duration before exiting — at any instant almost every
/// node is quiescent, which is exactly the regime the activity-index
/// pump targets: `next` and the step set come from the index in
/// O(active), not from scanning 100 nodes per window.
pub fn world_100k_processes(cfg: &Config) -> BenchResult {
    const PROGRAM: &str = "\
worker = proc (k: int) returns (int)
 sleep(k)
 return (k)
end
main = proc (n: int)
 d: int := 5 + my_node() * 3
 for i: int := 1 to n do
  fork worker(d)
 end
end";
    runner::run_with("world/100k_processes", cfg, || {
        let mut w = World::builder()
            .nodes(100)
            .program(PROGRAM)
            .debugger(false)
            .build()
            .unwrap();
        for node in 0..100 {
            w.spawn(node, "main", vec![Value::Int(1_000)]);
        }
        w.run_until_idle(SimTime::from_secs(60));
        std::hint::black_box(w.now());
    })
}

/// One million process lifecycles: 100 nodes each forking 10k empty
/// workers. Dominated by spawn churn — process-record construction
/// (interned `Arc<str>` names, no per-process program clone), run-queue
/// rotation, and exit reaping — the footprint-sensitive path that has to
/// stay cheap for the ROADMAP's 1M-process worlds.
pub fn world_1m_processes_spawn(cfg: &Config) -> BenchResult {
    const PROGRAM: &str = "\
worker = proc ()
end
main = proc (n: int)
 for i: int := 1 to n do
  fork worker()
 end
end";
    runner::run_with("world/1m_processes_spawn", cfg, || {
        let mut w = World::builder()
            .nodes(100)
            .program(PROGRAM)
            .debugger(false)
            .build()
            .unwrap();
        for node in 0..100 {
            w.spawn(node, "main", vec![Value::Int(10_000)]);
        }
        w.run_until_idle(SimTime::from_secs(600));
        std::hint::black_box(w.now());
    })
}

/// Null-RPC workload shared by the world/ and obs/ benchmarks: `main`
/// issues `n` sequential empty calls from node 0 to node 1.
const NULL_RPC_PROGRAM: &str = "\
ping = proc ()
end
main = proc (n: int)
 for i: int := 1 to n do
  call ping() at 1
 end
end";

fn null_rpc_world() -> World {
    World::builder()
        .nodes(2)
        .program(NULL_RPC_PROGRAM)
        .debugger(false)
        .build()
        .unwrap()
}

/// A full null-RPC round trip through the whole world, 20 times.
pub fn world_20_rpcs(cfg: &Config) -> BenchResult {
    runner::run_with("world/20_null_rpcs_simulated", cfg, || {
        let mut w = null_rpc_world();
        w.spawn(0, "main", vec![Value::Int(20)]);
        w.run_until_idle(SimTime::from_secs(60));
        assert_eq!(w.endpoint(0).stats().completed, 20);
        std::hint::black_box(w.now());
    })
}

/// The 20-RPC workload with every trace category disabled — including
/// the flight recorder's, so this measures the pure switched-off path:
/// a single atomic load-and-mask per potential event. It should track
/// `world/20_null_rpcs_simulated` (which runs with tracing on) from
/// below. `obs/flight_recorder_on` measures the always-on default.
pub fn trace_off_overhead(cfg: &Config) -> BenchResult {
    runner::run_with("obs/trace_off_overhead", cfg, || {
        let mut w = null_rpc_world();
        w.tracer().set_filter(&[]);
        w.tracer().set_blackbox_filter(&[]);
        w.spawn(0, "main", vec![Value::Int(20)]);
        w.run_until_idle(SimTime::from_secs(60));
        assert_eq!(w.endpoint(0).stats().completed, 20);
        std::hint::black_box(w.now());
    })
}

/// A thousand null RPCs with the main trace off but the flight recorder
/// on its default mask: what the always-on ring costs over the pure
/// disabled path — push-time routing plus the bounded-ring eviction.
pub fn flight_recorder_on(cfg: &Config) -> BenchResult {
    runner::run_with("obs/flight_recorder_on", cfg, || {
        let mut w = null_rpc_world();
        w.tracer().set_filter(&[]);
        w.spawn(0, "main", vec![Value::Int(1_000)]);
        w.run_until_idle(SimTime::from_secs(600));
        assert_eq!(w.endpoint(0).stats().completed, 1_000);
        assert!(w.tracer().blackbox_len() > 0);
        std::hint::black_box(w.now());
    })
}

/// A thousand null RPCs with the time-series store at full resolution:
/// the per-sync-point sampling sweep over the metrics registry plus the
/// ring eviction, amortized over a real RPC workload.
pub fn tsdb_sampling_1k_rpcs(cfg: &Config) -> BenchResult {
    runner::run_with("obs/tsdb_sampling_1k_rpcs", cfg, || {
        let mut w = World::builder()
            .nodes(2)
            .program(NULL_RPC_PROGRAM)
            .debugger(false)
            .coarse_window(1, 4096)
            .build()
            .unwrap();
        w.spawn(0, "main", vec![Value::Int(1_000)]);
        w.run_until_idle(SimTime::from_secs(600));
        assert_eq!(w.endpoint(0).stats().completed, 1_000);
        std::hint::black_box(w.tsdb_summary().len());
    })
}

/// A thousand null RPCs across a bridged star's hub link. Multi-segment
/// worlds register per-link and per-segment meters, so every bridge
/// packet bumps bytes/busy/queue counters at enqueue and delivery —
/// this measures that telemetry riding a real cross-segment workload.
/// The flat `world/20_null_rpcs_simulated` path is untouched by
/// construction (flat worlds never register the meters).
pub fn link_telemetry_on(cfg: &Config) -> BenchResult {
    const PROGRAM: &str = "\
ping = proc ()
end
main = proc (n: int)
 for i: int := 1 to n do
  call ping() at 2
 end
end";
    runner::run_with("obs/link_telemetry_on", cfg, || {
        let mut w = World::builder()
            .nodes(4)
            .program(PROGRAM)
            .network(NetworkConfig {
                topology: Topology::Star { arms: 1 },
                ..Default::default()
            })
            .debugger(false)
            .build()
            .unwrap();
        w.spawn(0, "main", vec![Value::Int(1_000)]);
        w.run_until_idle(SimTime::from_secs(600));
        assert_eq!(w.endpoint(0).stats().completed, 1_000);
        assert!(w.metrics().counter_value("net.link0-1.bytes").unwrap_or(0) > 0);
        std::hint::black_box(w.now());
    })
}

/// A thousand null RPCs with every trace category enabled, finishing
/// with a JSONL export of the whole trace — the fully-instrumented
/// worst case (event construction, span bookkeeping, metrics, dump).
pub fn trace_on_1k_rpcs(cfg: &Config) -> BenchResult {
    runner::run_with("obs/trace_on_1k_rpcs", cfg, || {
        let mut w = null_rpc_world();
        w.spawn(0, "main", vec![Value::Int(1_000)]);
        w.run_until_idle(SimTime::from_secs(600));
        assert_eq!(w.endpoint(0).stats().completed, 1_000);
        std::hint::black_box(w.trace_jsonl().len());
    })
}

/// A thousand null RPCs with the VM profiler on: per-step call-stack
/// attribution, time ledgers, and the folded-stack fold at the end — the
/// profiler's fully-instrumented worst case.
pub fn profile_on_1k_rpcs(cfg: &Config) -> BenchResult {
    runner::run_with("obs/profile_on_1k_rpcs", cfg, || {
        let mut w = World::builder()
            .nodes(2)
            .program(NULL_RPC_PROGRAM)
            .node_config(pilgrim_mayflower::NodeConfig {
                profile_vm: true,
                ..Default::default()
            })
            .debugger(false)
            .build()
            .unwrap();
        w.spawn(0, "main", vec![Value::Int(1_000)]);
        w.run_until_idle(SimTime::from_secs(600));
        assert_eq!(w.endpoint(0).stats().completed, 1_000);
        std::hint::black_box(w.folded_stacks().len());
    })
}

/// The 20-RPC workload with a never-tripping metric watchpoint armed:
/// what the per-sync-point watch evaluation costs while nothing fires.
pub fn watchpoint_armed(cfg: &Config) -> BenchResult {
    runner::run_with("obs/watchpoint_armed", cfg, || {
        let mut w = null_rpc_world();
        w.arm_watch("rpc.failed > 1000000").unwrap();
        w.spawn(0, "main", vec![Value::Int(20)]);
        w.run_until_idle(SimTime::from_secs(60));
        assert_eq!(w.endpoint(0).stats().completed, 20);
        assert!(w.watch_trips().is_empty());
        std::hint::black_box(w.now());
    })
}

/// Runs every benchmark in the suite under `cfg`, in a stable order.
pub fn all(cfg: &Config) -> Vec<BenchResult> {
    vec![
        compile_fib(cfg),
        vm_fib15(cfg),
        marshal_record(cfg),
        event_queue_1k(cfg),
        event_queue_cancel_heavy(cfg),
        node_step_storm(cfg),
        world_1k_processes(cfg),
        world_1k_processes_parallel(cfg, 1),
        world_1k_processes_parallel(cfg, 2),
        world_1k_processes_parallel(cfg, 4),
        world_1k_processes_parallel(cfg, 8),
        world_100k_processes(cfg),
        world_1m_processes_spawn(cfg),
        world_20_rpcs(cfg),
        trace_off_overhead(cfg),
        flight_recorder_on(cfg),
        tsdb_sampling_1k_rpcs(cfg),
        link_telemetry_on(cfg),
        trace_on_1k_rpcs(cfg),
        profile_on_1k_rpcs(cfg),
        watchpoint_armed(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// One ultra-short pass over every benchmark proves the suite bodies
    /// are executable (the assertions inside each body do the checking).
    #[test]
    fn suite_executes_end_to_end() {
        let cfg = Config {
            samples: 1,
            warmup_samples: 0,
            target_sample: Duration::from_micros(1),
        };
        let results = all(&cfg);
        assert_eq!(results.len(), 21);
        let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"node/step_storm"));
        assert!(names.contains(&"world/1k_processes_round_robin"));
        assert!(names.contains(&"world/100k_processes"));
        assert!(names.contains(&"world/1m_processes_spawn"));
        assert!(names.contains(&"world/1k_processes_parallel1"));
        assert!(names.contains(&"world/1k_processes_parallel4"));
        assert!(names.contains(&"sim/event_queue_cancel_heavy"));
        assert!(names.contains(&"obs/trace_off_overhead"));
        assert!(names.contains(&"obs/flight_recorder_on"));
        assert!(names.contains(&"obs/tsdb_sampling_1k_rpcs"));
        assert!(names.contains(&"obs/link_telemetry_on"));
        assert!(names.contains(&"obs/trace_on_1k_rpcs"));
        assert!(names.contains(&"obs/profile_on_1k_rpcs"));
        assert!(names.contains(&"obs/watchpoint_armed"));
    }
}
