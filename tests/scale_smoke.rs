//! Scale smoke tests for the quiescence-aware pump.
//!
//! The ROADMAP's north-star is two orders of magnitude past the 1k-process
//! macro-bench: these tests actually instantiate those worlds. The smoke
//! test runs the 100-node × 1k-process sparse-sleep workload (shrunk in
//! debug builds so plain `cargo test` stays quick; CI runs it again with
//! `--release` at full size), the memory test measures resident bytes per
//! live process against a hard ceiling, the scaling test holds a bridged
//! world's build-run-report cost to its size, and the two nightly tests — the
//! million-process spawn churn and the 64-node lossy ring soak run twice —
//! are `#[ignore]`d: `cargo test --release --test scale_smoke -- --ignored`.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use pilgrim::{capture, NetworkConfig, SimDuration, SimTime, Value, World};
use pilgrim_services::{render_run_report, run_scenario, Scenario};

/// Workers sleep a node-staggered duration, so at any instant almost all
/// of the 100 nodes are quiescent — the skip pump's target regime.
const SPARSE_SLEEPERS: &str = "\
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

/// Workers park on a sleep far past the measurement horizon, keeping
/// every spawned process alive (stack, frame, timer entry) while resident
/// memory is read.
const PARKED_SLEEPERS: &str = "\
worker = proc ()
 sleep(600000)
end
main = proc (n: int)
 for i: int := 1 to n do
  fork worker()
 end
end";

/// Empty workers: spawn, run one slice, exit — pure lifecycle churn.
const CHURN: &str = "\
worker = proc ()
end
main = proc (n: int)
 for i: int := 1 to n do
  fork worker()
 end
end";

/// Processes per node for the smoke and memory tests. Debug builds step
/// the VM an order of magnitude slower, so plain `cargo test` runs a
/// 10k-process world; `--release` (CI's scale-smoke step) runs the full
/// 100k.
const PER_NODE: i64 = if cfg!(debug_assertions) { 100 } else { 1_000 };

/// Resident set size of this process, in bytes, from `/proc/self/statm`.
fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("statm readable");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .expect("statm has a resident field")
        .parse()
        .expect("resident pages parse");
    pages * 4096
}

/// The 100k-process sparse-sleep world runs to completion and leaves a
/// coherent activity index.
#[test]
fn hundred_k_processes_smoke() {
    resident_bytes_per_parked_process();
    let _host = hold_host();
    let mut w = World::builder()
        .nodes(100)
        .program(SPARSE_SLEEPERS)
        .debugger(false)
        .build()
        .unwrap();
    for node in 0..100 {
        w.spawn(node, "main", vec![Value::Int(PER_NODE)]);
    }
    w.run_until_idle(SimTime::from_secs(60));
    assert!(
        w.now() < SimTime::from_secs(60),
        "sparse sleepers must drain (go idle) within simulated 60s"
    );
    assert!(w.now() > SimTime::ZERO);
    w.debug_validate_index();
}

/// Held by the tests that fill the host (a 100k-process world, the
/// ladder), so the ladder's timings never share it with another world.
static HOST: Mutex<()> = Mutex::new(());

fn hold_host() -> MutexGuard<'static, ()> {
    HOST.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resident bytes per parked process, measured once per test binary and
/// before any other world in it exists. `/proc/self/statm` is
/// process-wide and tests run on parallel threads, so a second 100k-
/// process world built during the measurement would be charged to it
/// (measured: 0.9 KiB instead of 0.55), and one built and dropped before
/// it would leave freed pages for it to reuse (0.2 KiB). Every test here
/// therefore calls this first; the first caller measures, the rest wait.
fn resident_bytes_per_parked_process() -> u64 {
    static MEASURED: OnceLock<u64> = OnceLock::new();
    *MEASURED.get_or_init(|| {
        let before = resident_bytes();
        let mut w = World::builder()
            .nodes(100)
            .program(PARKED_SLEEPERS)
            .debugger(false)
            .build()
            .unwrap();
        for node in 0..100 {
            w.spawn(node, "main", vec![Value::Int(PER_NODE)]);
        }
        // Long enough simulated time for every fork to run and park; the
        // parked timers keep the world from going idle, so it runs to the
        // limit.
        w.run_until_idle(SimTime::from_secs(1));
        assert_eq!(
            w.now(),
            SimTime::from_secs(1),
            "parked sleepers must still be pending"
        );
        let procs = 100 * PER_NODE as u64;
        let per_proc = resident_bytes().saturating_sub(before) / procs;
        println!("memory per live process: {per_proc} bytes ({procs} processes)");
        std::hint::black_box(w.now());
        per_proc
    })
}

/// Live processes must stay cheap: resident growth per parked process is
/// bounded. The measured release-build number (≈ 0.55 KiB, EXPERIMENTS.md)
/// sits under a 1 KiB ceiling, close enough to fail when a per-process
/// table comes back. A debug build measures a 10k-process world, whose
/// resident delta is mostly page noise, so its ceiling stays loose.
#[test]
fn memory_per_process_bounded() {
    let per_proc = resident_bytes_per_parked_process();
    let ceiling = if cfg!(debug_assertions) {
        8 * 1024
    } else {
        1024
    };
    assert!(
        per_proc < ceiling,
        "{per_proc} bytes per process blows the {ceiling}-byte ceiling"
    );
}

/// Segments (and client nodes) of the smaller ladder world. A debug
/// build runs a smaller ladder, as [`PER_NODE`] shrinks the smoke test.
const LADDER_SEGMENTS: u32 = if cfg!(debug_assertions) { 400 } else { 1_500 };

/// The committed soak scenario as a world of `segments` segments, as
/// many client nodes, one arrival and no partition: almost all of its
/// cost is building the world, sampling its metrics and reporting on it,
/// so that cost is what the ladder measures.
fn ladder_scenario(segments: u32) -> Scenario {
    let text: String = include_str!("../scenarios/soak_100k.toml")
        .lines()
        .filter(|line| !line.starts_with("partition"))
        .map(|line| match line.split_once(" = ") {
            Some((key @ ("segments" | "client_nodes"), _)) => format!("{key} = {segments}"),
            Some(("arrivals", _)) => "arrivals = 1".to_string(),
            _ => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    Scenario::parse(&text).expect("ladder scenario parses")
}

/// One build, run and report of a ladder world.
fn ladder_cost(sc: &Scenario) -> Duration {
    let t0 = Instant::now();
    let outcome = run_scenario(sc).expect("ladder world runs");
    std::hint::black_box(render_run_report(sc, &outcome, 5));
    t0.elapsed()
}

/// One reading of the ladder: the larger world's cost over the smaller's,
/// each the fastest of three, the sizes interleaved so a host that slows
/// down or recovers mid-reading weighs on both alike.
fn ladder_ratio(ladder: &[Scenario; 2]) -> f64 {
    let mut best = [Duration::MAX; 2];
    for _ in 0..3 {
        for (sc, best) in ladder.iter().zip(&mut best) {
            *best = (*best).min(ladder_cost(sc));
        }
    }
    best[1].as_secs_f64() / best[0].as_secs_f64()
}

/// A bridged world costs its size: four times the segments may cost at
/// most six times the host time. A ratio survives a noisy runner where an
/// absolute bound does not, but not every reading does: linear code
/// reads ×4.3–6.4 on a shared 2-core host (the larger world outgrows the
/// caches the smaller fits), so the test takes up to three readings and
/// fails when none is within the bound. A cost that grows with
/// instruments² (a time-series store that binds its series by name did)
/// reads ×20 and more on every reading.
#[test]
fn a_bridged_world_costs_its_size() {
    resident_bytes_per_parked_process();
    let _host = hold_host();
    let ladder = [LADDER_SEGMENTS, 4 * LADDER_SEGMENTS].map(ladder_scenario);
    let mut readings = Vec::new();
    while readings.len() < 3 {
        let ratio = ladder_ratio(&ladder);
        readings.push(format!("{ratio:.2}"));
        if ratio <= 6.0 {
            println!(
                "ladder {LADDER_SEGMENTS} → ×4 segments: ×{}",
                readings.join(", ×")
            );
            return;
        }
    }
    panic!(
        "4× the segments ({LADDER_SEGMENTS} → {}) cost ×{} the time on every reading; the bound is ×6",
        4 * LADDER_SEGMENTS,
        readings.join(", ×")
    );
}

/// One million process lifecycles: 100 nodes each forking 10k empty
/// workers. Nightly-only: ~2s in release, far slower in debug.
#[test]
#[ignore = "nightly scale test: cargo test --release --test scale_smoke -- --ignored"]
fn million_process_spawn() {
    resident_bytes_per_parked_process();
    let _host = hold_host();
    let mut w = World::builder()
        .nodes(100)
        .program(CHURN)
        .debugger(false)
        .build()
        .unwrap();
    for node in 0..100 {
        w.spawn(node, "main", vec![Value::Int(10_000)]);
    }
    w.run_until_idle(SimTime::from_secs(600));
    assert!(
        w.now() < SimTime::from_secs(600),
        "a million empty workers must drain (go idle) well before the limit"
    );
    w.debug_validate_index();
}

const RING_NODES: u32 = 64;

/// Every node runs the same program: `main` pings its ring successor
/// `rounds` times while serving pings from its predecessor.
const RING: &str = "\
ping = proc (x: int) returns (int)
 return (x + my_node())
end

main = proc (rounds: int)
 nxt: int := my_node() + 1
 if nxt >= 64 then
  nxt := 0
 end
 total: int := 0
 for i: int := 1 to rounds do
  total := total + call ping(i) at nxt
 end
 print(\"ring \" || int$unparse(my_node()) || \" total \" || int$unparse(total))
end";

/// Builds the 64-node ring under packet loss, arms watchpoints, spawns a
/// client on every node, and pumps exactly 200 lockstep windows
/// (continuing through any watch-trip halt), then drains to idle.
fn ring_soak(seed: u64) -> World {
    let net = NetworkConfig {
        p_silent_loss: 0.02,
        p_interface_loss: 0.01,
        ..NetworkConfig::default()
    };
    let mut w = World::builder()
        .nodes(RING_NODES)
        .program(RING)
        .network(net)
        .seed(seed)
        .build()
        .expect("ring builds");
    // One watch that trips mid-soak (lost packets force retransmissions)
    // and one that never does: trips must land on the same sync index in
    // both runs, and armed-but-silent watches must stay silent.
    w.arm_watch("rpc.retransmits > 3").unwrap();
    w.arm_watch("rpc.failed > 1000000").unwrap();
    for node in 0..RING_NODES {
        w.spawn(node, "main", vec![Value::Int(25)]);
    }
    // The builder clamps the lockstep window to the network base latency;
    // pump in exact window-sized slices so both runs see the same 200
    // sync points. `run_for` returns early at a watch trip, so each slice
    // re-issues the remainder.
    let window = SimDuration::from_micros(3_308);
    for _ in 0..200 {
        let target = w.now() + window;
        while w.now() < target {
            w.run_for(target - w.now());
        }
    }
    w.run_until_idle(SimTime::from_secs(120));
    w
}

#[test]
#[ignore = "nightly soak: cargo test --release --test scale_smoke -- --ignored"]
fn soak_ring_is_deterministic_twice() {
    resident_bytes_per_parked_process();
    let _host = hold_host();
    for seed in [1u64, 0xbeef, 0x5eed_5eed] {
        let first = capture(&ring_soak(seed));
        assert!(
            !first.watch_trips.is_empty(),
            "seed {seed:#x}: the retransmit watch must trip under loss"
        );
        let second = capture(&ring_soak(seed));
        assert!(
            first.trace == second.trace,
            "seed {seed:#x}: trace diverged"
        );
        assert!(
            first.folded_stacks == second.folded_stacks,
            "seed {seed:#x}: folded stacks diverged"
        );
        assert!(
            first.metrics == second.metrics,
            "seed {seed:#x}: metrics diverged"
        );
        assert!(
            first.artifact == second.artifact,
            "seed {seed:#x}: record artifact diverged"
        );
        assert_eq!(
            first.watch_trips, second.watch_trips,
            "seed {seed:#x}: watch trips diverged"
        );
    }
}
