//! The names the benchmark reports under. `BENCHMARK.json` at the root of
//! the repository lists the same names (a self-test compares the two),
//! and later changes quote numbers by them.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees: measured in the timed pass only, with
/// tracing and allocation counting off (`heap_peak_mb` comes from the one
/// counted warm-up unit before it). Times are scaled to the reference host
/// speed by the noise sentinel.
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    lower("unit_wall_ms", "ms"),
    lower("heap_peak_mb", "MB"),
];

/// One layer each. A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // cclu
    lower("cclu.compile.us", "us"),
    lower("cclu.vm.ns_per_instr", "ns"),
    lower("cclu.vm.instr", "count"),
    // mayflower
    lower("mayflower.node.ns_per_instr", "ns"),
    lower("mayflower.sched.ns_per_instr", "ns"),
    lower("mayflower.spawn.ns_per_process", "ns"),
    lower("mayflower.timer.ns_per_wakeup", "ns"),
    lower("mayflower.process.heap_bytes", "B"),
    // sim
    lower("sim.event_queue.ns_per_event", "ns"),
    lower("sim.event_queue.cancel_ns_per_event", "ns"),
    lower("sim.tracer.ns_per_event_on", "ns"),
    lower("sim.tracer.ns_per_event_off", "ns"),
    lower("sim.tsdb.ns_per_sample", "ns"),
    lower("sim.causal.build_ms", "ms"),
    lower("sim.causal.events", "count"),
    higher("sim.json.parse_mb_per_s", "MB/s"),
    // ring, rpc
    lower("ring.flat.ns_per_packet", "ns"),
    lower("ring.star.ns_per_packet", "ns"),
    lower("rpc.marshal.ns_per_call", "ns"),
    higher("rpc.started", "count"),
    higher("rpc.completed", "count"),
    lower("rpc.failed", "count"),
    lower("rpc.retransmits", "count"),
    higher("rpc.completed_per_packet", "ratio"),
    // core
    lower("core.build.ms", "ms"),
    lower("core.world.ns_per_instr", "ns"),
    lower("core.pump.overhead_ns_per_instr", "ns"),
    lower("core.world.us_per_rpc", "us"),
    lower("core.pump.sync_points", "count"),
    lower("core.pump.ns_per_sync_point", "ns"),
    lower("core.spawn.us_per_call", "us"),
    lower("core.run_until.ms", "ms"),
    lower("core.drain.ms", "ms"),
    lower("core.pool.unit_ms_2t", "ms"),
    higher("core.pool.speedup_2t", "ratio"),
    lower("core.record.ms", "ms"),
    lower("core.record.artifact_bytes", "B"),
    lower("core.artifact.render_ms", "ms"),
    lower("core.artifact.parse_ms", "ms"),
    lower("core.replay.ms", "ms"),
    lower("core.replay.ratio", "ratio"),
    lower("core.blackbox.snapshot_us", "us"),
    lower("core.debug.connect_us", "us"),
    lower("core.debug.break_us", "us"),
    lower("core.debug.wait_stop_us", "us"),
    lower("core.debug.backtrace_us", "us"),
    lower("core.debug.inspect_us", "us"),
    lower("core.debug.halt_all_us", "us"),
    lower("core.debug.processes_us", "us"),
    lower("core.debug.step_over_us", "us"),
    lower("core.debug.resume_all_us", "us"),
    lower("core.debug.requests", "count"),
    lower("core.debug.errors", "count"),
    lower("core.journal.stimuli", "count"),
    // services
    lower("services.scenario.parse_us", "us"),
    lower("services.build_load_world.ms", "ms"),
    lower("services.finish.ms", "ms"),
    lower("services.run_report.ms", "ms"),
    // the counting allocator over a unit's work
    lower("alloc.count_per_instr", "ratio"),
    lower("alloc.count_per_rpc", "ratio"),
    lower("alloc.bytes_per_process", "B"),
    lower("alloc.count_per_debug_cycle", "ratio"),
    // model outputs: simulated time, exact, not performance
    lower("model.null_rpc_us", "us"),
    higher("model.soak.throughput_mrps", "mrps"),
    lower("model.soak.p99_us", "us"),
    lower("model.soak.rpc_failed", "count"),
    lower("model.soak.bridge_lost", "count"),
    lower("model.debug.halt_latency_us", "us"),
    lower("model.compute.sim_us", "us"),
    lower("model.sparse.sim_us", "us"),
    lower("model.golden_mismatches", "count"),
    // the benchmark accounting for itself
    lower("run.host_calib_ms", "ms"),
    lower("run.host_noise_ratio", "ratio"),
    lower("run.unit_wall_ms_p50", "ms"),
    lower("run.unit_wall_ms_tail", "ms"),
    lower("run.unit_wall_raw_ms", "ms"),
    higher("run.samples", "count"),
    lower("run.peak_rss_mb", "MB"),
    lower("run.trace_overhead_pct", "%"),
    higher("run.span_coverage_pct", "%"),
    higher("run.nproc", "count"),
];

/// The unit of a metric by name, in either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// Exact metrics repeat bit for bit on the same seed: counts, model
/// outputs and what the counting allocator saw. `compare` gives them no
/// statistics, only a tolerance.
pub fn is_exact(name: &str) -> bool {
    name == "heap_peak_mb"
        || name.starts_with("model.")
        || name.starts_with("alloc.")
        || !name.starts_with("run.") && matches!(unit_of(name), Some("count" | "B"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = Workload::ALL.iter().map(|w| w.name());
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(workloads)
        {
            assert!(well_formed(name), "`{name}` is not [A-Za-z0-9_.-]+");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.unit.len() <= 16, "{}", d.name);
            assert!(
                d.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{}: unit `{}`",
                d.name,
                d.unit
            );
        }
    }

    #[test]
    fn exact_metrics_are_the_counts_and_model_outputs() {
        assert!(is_exact("heap_peak_mb"));
        assert!(is_exact("rpc.completed"));
        assert!(is_exact("model.soak.p99_us"));
        assert!(is_exact("alloc.count_per_instr"));
        assert!(is_exact("core.record.artifact_bytes"));
        assert!(!is_exact("unit_wall_ms"));
        assert!(!is_exact("run.samples"));
        assert!(!is_exact("core.replay.ms"));
    }
}
