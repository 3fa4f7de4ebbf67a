//! The run: a counted warm-up unit per workload, the timed pass, and when
//! tracing is asked for the traced pass and the layer probes; then every
//! metric by name.
//!
//! End-to-end metrics come only from the timed pass, which runs with the
//! span recorder off and the counting allocator's flag down. The traced
//! pass repeats the same units (same seeds) with both on; the difference
//! between the two is reported as the tracing overhead.

use std::path::PathBuf;
use std::time::Instant;

use crate::alloc;
use crate::calib::{self, Sentinel};
use crate::golden;
use crate::probes::{self, Found};
use crate::span::{self, Span, Spans};
use crate::stats;
use crate::workloads::{self, Ctx, Unit, Workload};

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub out: PathBuf,
    pub workloads: Vec<Workload>,
    /// Measure for this long (one workload) in place of the frozen unit
    /// counts.
    pub seconds: Option<f64>,
    /// Also run the traced pass and the probes.
    pub trace: bool,
    /// One unit per workload, every check, no statistics.
    pub quick: bool,
}

/// A full run splits each workload's units into this many blocks and runs
/// the blocks round-robin across workloads, so every workload samples the
/// same host phases.
const BLOCKS: usize = 4;
/// Of `--seconds`, when the traced pass has to fit in as well.
const TIMED_SHARE: f64 = 0.35;
const TRACED_SHARE: f64 = 0.25;
const FAILURES_KEPT: usize = 8;

/// The timed units of one block. `setup_s` and `wall_ms` are scaled to
/// the reference host speed by the sentinel samples around each unit;
/// `raw_wall_ms` is what the clock said.
#[derive(Debug, Default)]
pub struct Block {
    pub setup_s: Vec<f64>,
    pub wall_ms: Vec<f64>,
    pub raw_wall_ms: Vec<f64>,
}

#[derive(Debug)]
pub struct Run {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    /// Unit 0, counted: the source of every exact number.
    pub warm: Unit,
    pub blocks: Vec<Block>,
    pub traced_wall_ms: Vec<f64>,
    pub probes: Found,
}

impl Run {
    fn new(workload: Workload) -> Run {
        Run {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            warm: Unit::default(),
            blocks: Vec::new(),
            traced_wall_ms: Vec::new(),
            probes: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        if self.failures.len() < FAILURES_KEPT {
            self.failures.push(why);
        }
    }

    /// Runs unit `index` (seed `base + index`) and books its outcome.
    fn unit(&mut self, base: u64, index: u64, cx: &mut Ctx, counted: bool) -> Unit {
        let root = cx.spans.begin_unit(self.workload.name(), index as u32);
        if counted {
            alloc::start();
        }
        let unit = workloads::run_unit(self.workload, base.wrapping_add(index), cx);
        if counted {
            alloc::stop();
        }
        cx.spans.exit(root);
        self.attempted += 1;
        if !unit.failures.is_empty() {
            self.failed += 1;
            for why in &unit.failures {
                self.fail(format!("unit {index}: {why}"));
            }
        }
        unit
    }

    pub fn setup_samples(&self) -> Vec<f64> {
        self.blocks.iter().flat_map(|b| b.setup_s.clone()).collect()
    }

    pub fn wall_samples(&self) -> Vec<f64> {
        self.blocks.iter().flat_map(|b| b.wall_ms.clone()).collect()
    }

    fn raw_wall_samples(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| b.raw_wall_ms.clone())
            .collect()
    }

    fn block_size(&self) -> usize {
        self.workload.units().div_ceil(BLOCKS)
    }
}

#[derive(Debug)]
pub struct Outcome {
    pub options: Options,
    pub runs: Vec<Run>,
    pub sentinel: Sentinel,
    pub spans: Vec<Span>,
    pub nproc: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.runs.iter().all(|r| r.failed == 0)
    }
}

/// Runs units of every workload block by block, round-robin, with the
/// sentinel before and after every unit: `rounds` rounds, or with a
/// deadline as many as fit (never fewer than two units, so the digest
/// twin and a statistic exist).
fn pass(
    runs: &mut [Run],
    seed: u64,
    sentinel: &mut Sentinel,
    spans: &mut Spans,
    rounds: usize,
    seconds: Option<f64>,
) {
    let traced = spans.on();
    let started = Instant::now();
    let out_of_time =
        |done: u64| seconds.is_some_and(|s| done >= 2 && started.elapsed().as_secs_f64() >= s);
    let mut next_unit = vec![0u64; runs.len()];
    let mut round = 0;
    loop {
        for (run, next) in runs.iter_mut().zip(&mut next_unit) {
            let mut block = Block::default();
            let mut before = sentinel.sample();
            for _ in 0..run.block_size() {
                if out_of_time(*next) {
                    break;
                }
                let mut cx = Ctx {
                    spans,
                    threads: 1,
                    detail: traced,
                    reference: false,
                };
                let unit = run.unit(seed, *next, &mut cx, traced);
                let after = sentinel.sample();
                let scale = calib::scale(before, after);
                before = after;
                if *next == 0 && !traced && unit.digest != run.warm.digest {
                    run.failed += 1;
                    run.fail(format!(
                        "same-seed twin differs: `{}` then `{}`",
                        run.warm.digest, unit.digest
                    ));
                }
                *next += 1;
                if unit.failures.is_empty() {
                    let wall_ms = unit.run_ns as f64 / 1e6;
                    if traced {
                        run.traced_wall_ms.push(wall_ms * scale);
                    } else {
                        block.setup_s.push(unit.setup_ns as f64 / 1e9 * scale);
                        block.wall_ms.push(wall_ms * scale);
                        block.raw_wall_ms.push(wall_ms);
                    }
                }
            }
            if !block.wall_ms.is_empty() {
                run.blocks.push(block);
            }
        }
        round += 1;
        let done = match seconds {
            Some(_) => next_unit.iter().all(|n| out_of_time(*n)),
            None => round >= rounds,
        };
        if done {
            break;
        }
    }
}

pub fn run(options: Options) -> Outcome {
    let mut runs: Vec<Run> = options.workloads.iter().map(|w| Run::new(*w)).collect();
    let mut sentinel = Sentinel::new();
    let seed = options.seed;

    // Warm-up: unit 0 of every workload, counted, with every check. It
    // warms the host's caches, gives the exact numbers (work counts, heap
    // peak, model outputs) and is the first half of the digest twin.
    let mut off = Spans::new(false);
    for run in &mut runs {
        let mut cx = Ctx {
            spans: &mut off,
            threads: 1,
            detail: true,
            reference: true,
        };
        run.warm = run.unit(seed, 0, &mut cx, !options.quick);
    }
    let mut spans = Spans::new(true);
    if !options.quick {
        let timed = options
            .seconds
            .map(|s| if options.trace { s * TIMED_SHARE } else { s });
        pass(&mut runs, seed, &mut sentinel, &mut off, BLOCKS, timed);
        if options.trace {
            let traced = options.seconds.map(|s| s * TRACED_SHARE);
            pass(&mut runs, seed, &mut sentinel, &mut spans, 1, traced);
            for run in &mut runs {
                match probes::run(run.workload, seed, &mut sentinel) {
                    Ok(found) => run.probes = found,
                    Err(why) => {
                        run.failed += 1;
                        run.fail(format!("probe: {why}"));
                    }
                }
            }
        }
    }
    Outcome {
        options,
        runs,
        sentinel,
        spans: spans.into_spans(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

pub type Values = Vec<(&'static str, f64)>;

pub fn end_to_end(run: &Run) -> Values {
    vec![
        ("setup_s", stats::p25(&run.setup_samples())),
        ("unit_wall_ms", stats::p25(&run.wall_samples())),
        (
            "heap_peak_mb",
            run.warm.alloc.peak as f64 / (1024.0 * 1024.0),
        ),
    ]
}

/// Per traced unit of `workload`: the summed duration (ns) and call count
/// of the spans called any of `names`.
fn per_unit(spans: &[Span], workload: &str, names: &[&str]) -> Vec<(f64, f64)> {
    let mut units: Vec<(f64, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.workload == workload) {
        if s.parent.is_none() {
            units.push((0.0, 0.0));
        }
        if names.contains(&s.name) {
            if let Some(u) = units.last_mut() {
                u.0 += s.dur_ns() as f64;
                u.1 += s.calls as f64;
            }
        }
    }
    units
}

/// Lower quartile over traced units of the time in spans called `names`.
fn span_ns(spans: &[Span], workload: &str, names: &[&str]) -> f64 {
    let sums: Vec<f64> = per_unit(spans, workload, names)
        .iter()
        .map(|u| u.0)
        .collect();
    stats::p25(&sums)
}

/// Median duration (ns) of the individual spans called `name`.
fn call_p50_ns(spans: &[Span], workload: &str, name: &str) -> f64 {
    let durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.workload == workload && s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    stats::median(&durs)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process so far, MB; 0 where the kernel does
/// not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every per-layer metric this workload's run produced. Names missing
/// here read 0 in the report: the workload does not exercise them.
pub fn per_layer(outcome: &Outcome, run: &Run) -> Values {
    let spans = &outcome.spans;
    let name = run.workload.name();
    let work = &run.warm.work;
    let wall = run.wall_samples();
    let run_ns = stats::p25(&wall) * 1e6;
    let ms = |names: &[&str]| span_ns(spans, name, names) / 1e6;
    let us = |names: &[&str]| span_ns(spans, name, names) / 1e3;

    // A probe's value comes first, so it is the one reported where the
    // generic computation below gives the same name (`compute`'s ladder
    // measures `core.world.ns_per_instr` beside the other rungs).
    let mut v: Values = run.probes.clone();

    // Work denominators (exact).
    v.extend([
        ("rpc.started", work.rpc_started as f64),
        ("rpc.completed", work.rpc_completed as f64),
        ("rpc.failed", work.rpc_failed as f64),
        ("rpc.retransmits", work.rpc_retransmits as f64),
        (
            "rpc.completed_per_packet",
            ratio(work.rpc_completed as f64, work.packets as f64),
        ),
        ("core.pump.sync_points", work.sync_points as f64),
        ("core.record.artifact_bytes", work.artifact_bytes as f64),
        ("core.debug.requests", work.debug_requests as f64),
        ("core.debug.errors", work.debug_errors as f64),
        ("core.journal.stimuli", work.journal_stimuli as f64),
    ]);

    // The whole world per unit of work, from the timed pass.
    let world_ns_per_instr = ratio(run_ns, work.instr as f64);
    v.extend([
        ("core.world.ns_per_instr", world_ns_per_instr),
        (
            "core.world.us_per_rpc",
            ratio(run_ns / 1e3, work.rpc_completed as f64),
        ),
        (
            "core.pump.ns_per_sync_point",
            ratio(run_ns, work.sync_points as f64),
        ),
    ]);

    // Spans around the benchmark's own calls, from the traced pass.
    let calls: Vec<f64> = per_unit(spans, name, &["spawn"])
        .iter()
        .map(|(ns, calls)| ratio(*ns / 1e3, *calls))
        .collect();
    let replay = span_ns(spans, name, &["replay"]);
    v.extend([
        ("core.build.ms", ms(&["build", "build_load_world"])),
        ("core.spawn.us_per_call", stats::p25(&calls)),
        ("core.run_until.ms", ms(&["run_until"])),
        ("core.drain.ms", ms(&["drain"])),
        ("core.record.ms", ms(&["record"])),
        ("core.artifact.render_ms", ms(&["artifact_render"])),
        ("core.artifact.parse_ms", ms(&["artifact_parse"])),
        ("core.replay.ms", replay / 1e6),
        (
            "core.replay.ratio",
            ratio(replay, span_ns(spans, name, &["arrivals", "drain"])),
        ),
        ("core.blackbox.snapshot_us", us(&["blackbox_snapshot"])),
        ("services.scenario.parse_us", us(&["scenario_parse"])),
        ("services.build_load_world.ms", ms(&["build_load_world"])),
        ("services.finish.ms", ms(&["finish"])),
        ("services.run_report.ms", ms(&["run_report"])),
    ]);
    for (metric, call) in [
        ("core.debug.connect_us", "debug_connect"),
        ("core.debug.break_us", "break_at_proc"),
        ("core.debug.wait_stop_us", "wait_for_stop"),
        ("core.debug.backtrace_us", "distributed_backtrace"),
        ("core.debug.inspect_us", "inspect"),
        ("core.debug.halt_all_us", "debug_halt_all"),
        ("core.debug.processes_us", "debug_processes"),
        ("core.debug.step_over_us", "step_over"),
        ("core.debug.resume_all_us", "debug_resume_all"),
    ] {
        v.push((metric, call_p50_ns(spans, name, call) / 1e3));
    }

    // The counting allocator over the warm-up unit's setup and run.
    let a = &run.warm.alloc;
    v.extend([
        (
            "alloc.count_per_instr",
            ratio(a.calls as f64, work.instr as f64),
        ),
        (
            "alloc.count_per_rpc",
            ratio(a.calls as f64, work.rpc_completed as f64),
        ),
        (
            "alloc.bytes_per_process",
            ratio(a.peak as f64, work.processes as f64),
        ),
        (
            "alloc.count_per_debug_cycle",
            ratio(a.calls as f64, work.debug_cycles as f64),
        ),
    ]);

    // Model outputs, and how many differ from the committed golden file.
    let model: Vec<(&'static str, f64)> = run
        .warm
        .model
        .iter()
        .map(|(k, x)| (*k, *x as f64))
        .collect();
    let mismatches = golden::mismatches(outcome.options.seed, &run.warm.model);
    v.extend(model);
    v.push(("model.golden_mismatches", mismatches.len() as f64));

    // The benchmark accounting for itself.
    let (_, tail) = stats::tail(&wall).unwrap_or((50.0, stats::median(&wall)));
    v.extend([
        ("run.host_calib_ms", outcome.sentinel.calib_ms()),
        ("run.host_noise_ratio", outcome.sentinel.noise_ratio()),
        ("run.unit_wall_ms_p50", stats::median(&wall)),
        ("run.unit_wall_ms_tail", tail),
        ("run.unit_wall_raw_ms", stats::p25(&run.raw_wall_samples())),
        ("run.samples", wall.len() as f64),
        ("run.peak_rss_mb", peak_rss_mb()),
        (
            "run.trace_overhead_pct",
            if run.traced_wall_ms.is_empty() {
                0.0
            } else {
                100.0 * (ratio(stats::p25(&run.traced_wall_ms), stats::p25(&wall)) - 1.0)
            },
        ),
        (
            "run.span_coverage_pct",
            100.0 * span::min_unit_coverage(spans, name),
        ),
        ("run.nproc", outcome.nproc as f64),
    ]);
    v
}
