//! Layer probes: each crate's public API called directly, on the inputs
//! of the workload the probe belongs to, so a layer's cost is known on
//! its own and not only as a share of a unit.
//!
//! Host-time numbers are the lower quartile over [`REPS`] repetitions,
//! scaled to the reference host speed like every other time the benchmark
//! reports; counts are exact.

use std::hint::black_box;
use std::time::Instant;

use pilgrim::{LinkModel, NetworkConfig, NodeId, SimDuration, SimTime, Topology, Value};
use pilgrim_cclu::{compile, ExecEnv, Heap, StepOutcome, SysReply, VmProcess};
use pilgrim_mayflower::{Node, NodeConfig, SpawnOpts};
use pilgrim_ring::Network;
use pilgrim_rpc::{marshal, unmarshal};
use pilgrim_services::{build_load_world, Scenario};
use pilgrim_sim::{EventKind, EventQueue, Json, Metrics, SeriesStore, TraceCategory, Tracer};

use crate::alloc;
use crate::calib::{self, Sentinel};
use crate::span::Spans;
use crate::stats;
use crate::workloads::{self, Ctx, Workload};

pub const REPS: usize = 20;

pub type Found = Vec<(&'static str, f64)>;

/// Lower quartile over [`REPS`] repetitions of `rep`, which returns
/// `(nanoseconds, work items)`: ns per item, scaled to the reference host
/// speed by a sentinel sample on either side of the repetitions.
fn ns_per_item(sentinel: &mut Sentinel, mut rep: impl FnMut() -> (u64, u64)) -> f64 {
    let before = sentinel.sample();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, items) = rep();
            ns as f64 / items.max(1) as f64
        })
        .collect();
    stats::p25(&samples) * calib::scale(before, sentinel.sample())
}

fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

/// Runs every probe that belongs to `workload`.
pub fn run(workload: Workload, seed: u64, s: &mut Sentinel) -> Result<Found, String> {
    let mut found = vec![("cclu.compile.us", compile_us(s, workload)?)];
    match workload {
        Workload::Compute => {
            found.extend(ladder(s, seed)?);
        }
        Workload::RpcStorm => {
            found.push(("sim.event_queue.ns_per_event", event_queue(s, false)));
            found.push(("sim.tracer.ns_per_event_off", tracer(s, false)));
            found.push(("ring.flat.ns_per_packet", ring_flat(s)));
        }
        Workload::LoadSoak => {
            let sc = Scenario::parse(workloads::SOAK_SCENARIO)?;
            found.push(("sim.event_queue.cancel_ns_per_event", event_queue(s, true)));
            found.push(("sim.tsdb.ns_per_sample", tsdb(s, &sc)?));
            found.push(("ring.star.ns_per_packet", ring_star(s, &sc, seed)));
            found.push(("rpc.marshal.ns_per_call", marshal_call(s)?));
        }
        Workload::Sparse250k => {
            found.extend(spawn_and_timers(s)?);
        }
        Workload::Observe => {
            let sc = Scenario::parse(workloads::PARTITION_SCENARIO)?;
            found.push(("sim.tracer.ns_per_event_on", tracer(s, true)));
            found.push(("sim.tsdb.ns_per_sample", tsdb(s, &sc)?));
            found.push(("ring.star.ns_per_packet", ring_star(s, &sc, seed)));
            found.extend(causal_and_json(s, seed)?);
        }
        Workload::DebugSession => {}
    }
    Ok(found)
}

// ---------------------------------------------------------------------
// cclu
// ---------------------------------------------------------------------

fn compile_us(s: &mut Sentinel, workload: Workload) -> Result<f64, String> {
    let source = workloads::source(workload);
    compile(source).map_err(|e| format!("compile: {e}"))?;
    Ok(ns_per_item(s, || {
        let (ns, program) = timed(|| compile(black_box(source)));
        black_box(program.is_ok());
        (ns, 1)
    }) / 1e3)
}

/// Syscalls that do nothing, for stepping the VM with no scheduler.
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
    fn sem_wait(&mut self, _s: u32, _t: i64) -> SysReply {
        SysReply::Val(vec![Value::Bool(true)])
    }
    fn sem_signal(&mut self, _s: u32) {}
    fn mutex_create(&mut self) -> u32 {
        0
    }
    fn mutex_lock(&mut self, _m: u32) -> SysReply {
        SysReply::Val(vec![])
    }
    fn mutex_unlock(&mut self, _m: u32) {}
    fn fork(&mut self, _p: pilgrim_cclu::ProcId, _a: Vec<Value>) -> i64 {
        2
    }
    fn sleep(&mut self, _ms: i64) -> SysReply {
        SysReply::Val(vec![])
    }
    fn rpc(&mut self, _r: pilgrim_cclu::RpcRequest) -> SysReply {
        SysReply::Val(vec![])
    }
}

/// The `compute` ladder. Every repetition runs the same program four
/// ways back to back, so the rungs share whatever the host is doing and
/// can be compared: the raw VM step loop, a bare node running to
/// completion in one `advance_to` window, the whole world on one stepping
/// thread, and the whole world on two.
fn ladder(sentinel: &mut Sentinel, seed: u64) -> Result<Found, String> {
    let program = std::sync::Arc::new(
        compile(workloads::COMPUTE_SOURCE).map_err(|e| format!("compile: {e}"))?,
    );
    let worker = program.proc_by_name("worker").ok_or("no `worker`")?;
    let workers = workloads::COMPUTE_WORKERS as u64;

    let vm_rep = || {
        let (ns, steps) = timed(|| {
            let mut steps = 0u64;
            for _ in 0..workers {
                let mut heap = Heap::new();
                let mut globals: Vec<Value> = vec![];
                let mut sys = NullSys;
                let mut p = VmProcess::spawn(worker, vec![Value::Int(15)]);
                loop {
                    let mut env = ExecEnv {
                        heap: &mut heap,
                        program: &program,
                        globals: &mut globals,
                        sys: &mut sys,
                    };
                    steps += 1;
                    match pilgrim_cclu::step(&mut p, &mut env) {
                        StepOutcome::Exited { .. } | StepOutcome::Faulted { .. } => break,
                        _ => {}
                    }
                }
                black_box(&p.exit_values);
            }
            steps
        });
        (ns as f64 / steps as f64, steps / workers)
    };
    let node_rep = || {
        let tracer = Tracer::new();
        tracer.set_filter(&[]);
        let mut node = Node::new(0, program.clone(), NodeConfig::default(), tracer);
        let (ns, steps) = timed(|| {
            node.spawn(
                "main",
                vec![Value::Int(workers as i64)],
                SpawnOpts::default(),
            )
            .expect("`main` exists");
            while node.state_counts() != (0, 0, 0) {
                let until = node.clock() + SimDuration::from_secs(600);
                black_box(node.advance_to(until));
            }
            node.steps_total()
        });
        ns as f64 / steps as f64
    };
    let world_rep = |rep: usize, threads: usize| -> Result<(f64, f64), String> {
        let mut spans = Spans::new(false);
        let mut cx = Ctx {
            spans: &mut spans,
            threads,
            detail: false,
            reference: false,
        };
        let unit = workloads::run_unit(Workload::Compute, seed.wrapping_add(rep as u64), &mut cx);
        match unit.failures.first() {
            Some(why) => Err(format!("compute on {threads} thread(s): {why}")),
            None => Ok((
                unit.run_ns as f64 / 1e6,
                unit.run_ns as f64 / unit.work.instr as f64,
            )),
        }
    };

    let (mut vm, mut node, mut world, mut one_ms, mut two_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut vm_instr = 0;
    let mut before = sentinel.sample();
    for rep in 0..REPS {
        let (vm_ns, instr) = vm_rep();
        let node_ns = node_rep();
        let (one, world_ns) = world_rep(rep, 1)?;
        let (two, _) = world_rep(rep, 2)?;
        let after = sentinel.sample();
        let scale = calib::scale(before, after);
        before = after;
        vm_instr = instr;
        vm.push(vm_ns * scale);
        node.push(node_ns * scale);
        world.push(world_ns * scale);
        one_ms.push(one * scale);
        two_ms.push(two * scale);
    }
    let (vm, node, world) = (stats::p25(&vm), stats::p25(&node), stats::p25(&world));
    let two = stats::p25(&two_ms);
    Ok(vec![
        ("cclu.vm.ns_per_instr", vm),
        ("cclu.vm.instr", vm_instr as f64),
        ("mayflower.node.ns_per_instr", node),
        ("mayflower.sched.ns_per_instr", node - vm),
        ("core.world.ns_per_instr", world),
        ("core.pump.overhead_ns_per_instr", world - node),
        // Recorded, not gated: on a 2-core box the second stepping thread
        // competes with everything else the host runs.
        ("core.pool.unit_ms_2t", two),
        ("core.pool.speedup_2t", stats::p25(&one_ms) / two),
    ])
}

// ---------------------------------------------------------------------
// mayflower
// ---------------------------------------------------------------------

/// A bare node forks 10 000 sleepers, then advances through their
/// wake-ups. The node id is chosen so `sparse-250k`'s own program parks
/// every worker for a simulated minute: all of them are parked before
/// the first one wakes.
fn spawn_and_timers(sentinel: &mut Sentinel) -> Result<Found, String> {
    const SLEEPERS: u64 = 10_000;
    const NODE_ID: u32 = 20_000; // sleep(5 + 3 × 20 000) = 60.005 s
    let program = std::sync::Arc::new(
        compile(workloads::SPARSE_SOURCE).map_err(|e| format!("compile: {e}"))?,
    );
    let fresh = || {
        let tracer = Tracer::new();
        tracer.set_filter(&[]);
        let mut node = Node::new(NODE_ID, program.clone(), NodeConfig::default(), tracer);
        node.spawn(
            "main",
            vec![Value::Int(SLEEPERS as i64)],
            SpawnOpts::default(),
        )
        .expect("`main` exists");
        node
    };
    let park = |node: &mut Node| {
        // Until `main` has exited and every sleeper is blocked.
        while node.state_counts().0 > 0 {
            let until = node.clock() + SimDuration::from_millis(1);
            black_box(node.advance_to(until));
        }
    };

    let mut spawn_samples = Vec::with_capacity(REPS);
    let mut wake_samples = Vec::with_capacity(REPS);
    let before = sentinel.sample();
    for _ in 0..REPS {
        let mut node = fresh();
        let (spawn_ns, ()) = timed(|| park(&mut node));
        let (wake_ns, ()) = timed(|| {
            black_box(node.advance_to(SimTime::from_secs(120)));
        });
        if node.state_counts() != (0, 0, 0) {
            return Err("sleepers still alive after their wake-up time".into());
        }
        spawn_samples.push(spawn_ns as f64 / SLEEPERS as f64);
        wake_samples.push(wake_ns as f64 / SLEEPERS as f64);
    }
    let scale = calib::scale(before, sentinel.sample());

    // One more, counted: what a parked process keeps on the heap.
    alloc::start();
    let mut node = fresh();
    let before = alloc::live();
    park(&mut node);
    let parked = alloc::live() - before;
    drop(node);
    alloc::stop();

    Ok(vec![
        (
            "mayflower.spawn.ns_per_process",
            stats::p25(&spawn_samples) * scale,
        ),
        (
            "mayflower.timer.ns_per_wakeup",
            stats::p25(&wake_samples) * scale,
        ),
        (
            "mayflower.process.heap_bytes",
            parked as f64 / SLEEPERS as f64,
        ),
    ])
}

// ---------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------

fn event_queue(s: &mut Sentinel, cancel_half: bool) -> f64 {
    const EVENTS: u64 = 100_000;
    ns_per_item(s, || {
        let (ns, sum) = timed(|| {
            let mut q = EventQueue::new();
            let mut ids = Vec::with_capacity(if cancel_half { EVENTS as usize } else { 0 });
            for i in 0..EVENTS {
                let id = q.schedule(SimTime::from_micros((i * 7_919) % 1_000_003), i);
                if cancel_half {
                    ids.push(id);
                }
            }
            for id in ids.iter().step_by(2) {
                black_box(q.cancel(*id));
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        });
        black_box(sum);
        (ns, EVENTS)
    })
}

/// `on`: the category is recorded. Off: the main trace is masked and the
/// flight recorder is at its default, which is how every workload but
/// `observe` runs.
fn tracer(s: &mut Sentinel, on: bool) -> f64 {
    const EVENTS: u64 = 100_000;
    ns_per_item(s, || {
        let tracer = Tracer::new();
        if !on {
            tracer.set_filter(&[]);
        }
        let (ns, ()) = timed(|| {
            for i in 0..EVENTS {
                if tracer.wants(TraceCategory::Rpc) {
                    tracer.emit(
                        SimTime::from_micros(i),
                        TraceCategory::Rpc,
                        Some((i % 16) as u32),
                        None,
                        EventKind::PacketSent {
                            src: (i % 16) as u32,
                            dst: ((i + 8) % 16) as u32,
                            bytes: 32,
                        },
                    );
                }
            }
        });
        black_box(tracer.len());
        (ns, EVENTS)
    })
}

/// One `SeriesStore::on_sync` sweep over the registry of the workload's
/// own load world, with a few counters moving between samples.
fn tsdb(s: &mut Sentinel, sc: &Scenario) -> Result<f64, String> {
    const SAMPLES: u64 = 2_000;
    let world = build_load_world(sc)?;
    let metrics: &Metrics = world.metrics();
    let moving = [
        metrics.counter("rpc.started"),
        metrics.counter("rpc.completed"),
        metrics.counter("net.sent"),
        metrics.counter("net.delivered"),
    ];
    Ok(ns_per_item(s, || {
        let mut store = SeriesStore::new(1, 4096);
        let (ns, ()) = timed(|| {
            for i in 0..SAMPLES {
                for c in &moving {
                    c.inc();
                }
                store.on_sync(SimTime::from_micros(i * 1_000), metrics);
            }
        });
        black_box(store.samples());
        (ns, SAMPLES)
    }))
}

/// `CausalGraph::from_events` on the trace of one `observe` unit, and
/// `Json::parse` on its rendered artifact.
fn causal_and_json(s: &mut Sentinel, seed: u64) -> Result<Found, String> {
    let (events, artifact) = workloads::observe_trace(seed)?;
    let causal = ns_per_item(s, || {
        let (ns, graph) = timed(|| pilgrim_sim::CausalGraph::from_events(&events));
        black_box(graph.spans().len());
        (ns, 1)
    });
    let parse = ns_per_item(s, || {
        let (ns, doc) = timed(|| Json::parse(&artifact));
        black_box(doc.is_ok());
        (ns, artifact.len() as u64)
    });
    Ok(vec![
        ("sim.causal.build_ms", causal / 1e6),
        ("sim.causal.events", events.len() as f64),
        // bytes per ns × 1e9 / 2^20.
        ("sim.json.parse_mb_per_s", 1e9 / parse / (1024.0 * 1024.0)),
    ])
}

// ---------------------------------------------------------------------
// ring, rpc
// ---------------------------------------------------------------------

/// `send` from every station, then `next_delivery_at` / `poll` until the
/// network is empty: ns per packet.
fn ring_cycle(s: &mut Sentinel, config: &NetworkConfig, stations: u32, hop: u32) -> f64 {
    const ROUNDS: u64 = 2_000;
    ns_per_item(s, || {
        let mut net: Network<u64> = Network::new(config.clone(), stations);
        let mut now = SimTime::ZERO;
        let (ns, delivered) = timed(|| {
            let mut delivered = 0u64;
            for round in 0..ROUNDS {
                for src in 0..stations {
                    let dst = (src + hop) % stations;
                    black_box(net.send(now, NodeId(src), NodeId(dst), round, 32));
                }
                while let Some(at) = net.next_delivery_at() {
                    now = now.max(at);
                    delivered += net.poll(now).0.len() as u64;
                }
            }
            delivered
        });
        black_box(delivered);
        (ns, ROUNDS * stations as u64)
    })
}

fn ring_flat(s: &mut Sentinel) -> f64 {
    ring_cycle(
        s,
        &NetworkConfig::default(),
        workloads::STORM_STATIONS,
        workloads::STORM_STATIONS / 2,
    )
}

/// A 4-arm star with the scenario's link model; every packet crosses the
/// hub into another arm.
fn ring_star(s: &mut Sentinel, sc: &Scenario, seed: u64) -> f64 {
    let config = NetworkConfig {
        seed,
        topology: Topology::Star { arms: 4 },
        link: LinkModel {
            latency: sc.link_latency,
            jitter: sc.link_jitter,
            p_loss: sc.loss,
            ..Default::default()
        },
        ..Default::default()
    };
    ring_cycle(s, &config, 20, 4)
}

/// Marshal and unmarshal of one `ns_lookup` and one `fs_read`: their
/// arguments and their results.
fn marshal_call(s: &mut Sentinel) -> Result<f64, String> {
    let shapes = [
        vec![Value::Str("fileserver".into())],
        vec![Value::Bool(true), Value::Int(1)],
        vec![Value::Str("f7".into()), Value::Int(5)],
        vec![
            Value::Bool(true),
            Value::Str("payload".into()),
            Value::Int(3),
        ],
    ];
    let heap = Heap::new();
    for v in shapes.iter().flatten() {
        marshal(&heap, v).map_err(|e| format!("marshal: {e}"))?;
    }
    const CALLS: u64 = 10_000;
    Ok(ns_per_item(s, || {
        let (ns, ()) = timed(|| {
            for _ in 0..CALLS {
                for values in &shapes {
                    let mut dst = Heap::new();
                    for v in values {
                        if let Ok(wire) = marshal(&heap, black_box(v)) {
                            black_box(unmarshal(&mut dst, &wire));
                        }
                    }
                }
            }
        });
        // Two calls per round: the lookup and the read.
        (ns, CALLS * 2)
    }))
}
