//! The `pilgrim load` harness: drives a [`Scenario`]'s open-loop
//! workload against the full services stack (nameserver + fileserver +
//! AOT manager) on a bridged multi-segment world, and reads throughput
//! and latency percentiles back out of the metrics registry.
//!
//! Everything is deterministic: the world is seeded, arrivals come from
//! [`pilgrim_sim::OpenLoop`], partitions are declarative
//! [`pilgrim::PartitionWindow`]s inside the network config (so they ride
//! the replay recipe), and every stimulus goes through the recorded
//! driver API. Running the same scenario twice produces byte-identical
//! reports, and the recorded artifact replays divergence-free through
//! [`pilgrim::replay_with`] with [`setup_installer`] re-creating
//! the native service handlers.

use pilgrim::{
    replay_with, Artifact, LinkModel, NetworkConfig, NodeId, ReplayError, SimDuration, SimTime,
    Value, World,
};
use pilgrim_sim::json::Fields;
use pilgrim_sim::{render_bucket_bound, DetRng, Json, OpenLoop};

use crate::aotman::{AotConfig, AotMan};
use crate::fileserver::{CLIENT_EXTERNS, FILE_SERVER_SOURCE};
use crate::nameserver::{NameServer, NAME_SERVER_EXTERNS};
use crate::resource::{ResourceManager, RmConfig};
use crate::scenario::{Scenario, TraceLevel};

/// Station index of the name server.
pub const NS_NODE: u32 = 0;
/// Station index of the file server.
pub const FS_NODE: u32 = 1;
/// Station index of the AOT manager.
pub const AOT_NODE: u32 = 2;
/// First client-hosting station.
pub const FIRST_CLIENT_NODE: u32 = 3;

/// The client-side program: one proc per operation in the mix. Spawned
/// per arrival on the issuing client's node.
fn client_source() -> String {
    format!(
        "{NAME_SERVER_EXTERNS}{CLIENT_EXTERNS}\
extern aot_issue = proc () returns (int, int)
extern aot_refresh = proc (t: int) returns (bool)

op_lookup = proc (ns: int)
 found: bool := false
 node: int := 0
 found, node := call ns_lookup(\"fileserver\") at ns
end

op_read = proc (ns: int, me: int, k: int)
 found: bool := false
 fsn: int := 0
 found, fsn := call ns_lookup(\"fileserver\") at ns
 if found then
  ok: bool := false
  data: string := \"\"
  mt: int := 0
  ok, data, mt := call fs_read(\"f\" || int$unparse(k), me) at fsn
 end
end

op_write = proc (ns: int, k: int)
 found: bool := false
 fsn: int := 0
 found, fsn := call ns_lookup(\"fileserver\") at ns
 if found then
  ok: bool := call fs_write(\"f\" || int$unparse(k), \"payload\") at fsn
 end
end

op_auth = proc (aot: int)
 t: int := 0
 life: int := 0
 t, life := call aot_issue() at aot
 ok: bool := call aot_refresh(t) at aot
end
"
    )
}

/// Redoes one recorded setup step against a world through the typed
/// installer that noted it: install a service, bootstrap a name
/// registration, or narrow the trace filter. Each installer notes its
/// entry again, so [`pilgrim::rerun`] can check the re-noted list against
/// the recording; `ns` carries the name server instance between entries.
fn install_one(
    world: &mut World,
    kind: &str,
    params: &Json,
    ns: &mut Option<NameServer>,
) -> Result<(), String> {
    let what = format_args!("setup `{kind}`");
    let f = Fields::new(params, &what);
    // The station a service goes on indexes the world's endpoints.
    let station = || {
        let node = f.uint("node")?;
        let stations = world.recipe().stations();
        if node < stations {
            Ok(node)
        } else {
            Err(format!("no node {node} in a world of {stations} stations"))
        }
    };
    match kind {
        "nameserver" => {
            let node = station()?;
            *ns = Some(NameServer::install(world, node));
        }
        "aotman" => {
            let node = station()?;
            AotMan::install(world, node, AotConfig::from_params(&f)?);
        }
        "resource-manager" => {
            let node = station()?;
            ResourceManager::install(world, node, RmConfig::from_params(&f)?);
        }
        "ns-register" => {
            let name = f.str("name")?;
            let target = NodeId(f.uint("node")?);
            ns.as_ref()
                .ok_or("setup `ns-register` before `nameserver`")?
                .register(world, name, target);
        }
        "trace-filter" => TraceLevel::parse(f.str("level")?)?.apply(world),
        other => return Err(format!("unknown setup kind `{other}`")),
    }
    Ok(())
}

/// The setup installer for replaying recorded load artifacts: pass it to
/// [`pilgrim::replay_with`] and it re-creates the native services
/// exactly as [`run_scenario`] originally installed them.
pub fn setup_installer() -> impl FnMut(&mut World, &str, &Json) -> Result<(), String> {
    let mut ns: Option<NameServer> = None;
    move |world, kind, params| install_one(world, kind, params, &mut ns)
}

/// Replays a recorded load artifact (convenience wrapper wiring
/// [`setup_installer`] into [`pilgrim::replay_with`]).
///
/// # Errors
///
/// Those of [`pilgrim::replay_with`].
pub fn replay_load(artifact: &Artifact) -> Result<pilgrim::ReplayReport, ReplayError> {
    replay_with(artifact, Some(&mut setup_installer()))
}

/// [`replay_load`] with an ignored second argument: nodes step on one
/// thread. Kept only because `benchmark/` still calls it; ROADMAP item 1
/// deletes it together with the `core.pool.*` probe.
///
/// # Errors
///
/// Those of [`replay_load`].
#[doc(hidden)]
pub fn replay_load_artifact(
    artifact: &Artifact,
    _threads: usize,
) -> Result<pilgrim::ReplayReport, ReplayError> {
    replay_load(artifact)
}

/// The result of one load run.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The quiesced world (record it, inspect it, diff it).
    pub world: World,
    /// Deterministic human-readable report: counters, throughput,
    /// latency percentiles, and the gate verdict.
    pub report: String,
    /// Why the gate failed; empty means PASS (or no floors declared).
    pub gate_failures: Vec<String>,
    /// Did the world drain to quiescence before the drain deadline?
    pub drained: bool,
    /// The offered window `[0, last_arrival]` in microseconds — the
    /// denominator of every throughput figure in the report.
    pub offered_window_us: u64,
}

/// Builds the load world for a scenario: 3 server stations, the client
/// stations, the scenario's topology/link/partition schedule, and the
/// services installed with recorded setup markers.
///
/// # Errors
///
/// World build failures (program compilation, empty topology).
pub fn build_load_world(sc: &Scenario) -> Result<World, String> {
    let net = NetworkConfig {
        topology: sc.topology,
        link: LinkModel {
            latency: sc.link_latency,
            jitter: sc.link_jitter,
            p_loss: sc.loss,
            ..Default::default()
        },
        partitions: sc.partitions.clone(),
        ..Default::default()
    };
    let mut builder = World::builder()
        .nodes(FIRST_CLIENT_NODE + sc.client_nodes)
        .seed(sc.seed)
        .program(&client_source())
        .program_for(FS_NODE, FILE_SERVER_SOURCE)
        .network(net)
        .trace_sample(sc.trace_sample);
    if sc.blackbox_events > 0 {
        builder = builder.blackbox_capacity(sc.blackbox_events);
    }
    if sc.coarse_interval > 0 && sc.coarse_budget > 0 {
        builder = builder.coarse_window(sc.coarse_interval, sc.coarse_budget);
    }
    let mut world = builder.build().map_err(|e| format!("load world: {e}"))?;

    // Each installer notes its own setup entry, the ones replay redoes.
    let ns = NameServer::install(&mut world, NS_NODE);
    let aot = AotConfig {
        lifetime: sc.aot_lifetime,
        ..Default::default()
    };
    AotMan::install(&mut world, AOT_NODE, aot);
    ns.register(&mut world, "fileserver", NodeId(FS_NODE));
    ns.register(&mut world, "aotman", NodeId(AOT_NODE));
    sc.trace.apply(&mut world);
    Ok(world)
}

/// Runs a scenario to completion: builds the world, streams the
/// open-loop arrivals through the recorded driver API, drains, and
/// computes the report.
///
/// # Errors
///
/// Those of [`build_load_world`].
pub fn run_scenario(sc: &Scenario) -> Result<LoadOutcome, String> {
    let mut world = build_load_world(sc)?;

    // The workload RNG is forked off the scenario seed, independent of
    // the world's internal streams.
    let mut rng = DetRng::seed(sc.seed ^ 0x6f70_656e_2d6c_6f61); // "open-loa"
    let gen = OpenLoop::new(&mut rng, sc.rate, sc.clients, sc.mix.clone());

    let mut last_at = SimTime::ZERO;
    for (k, a) in gen.take(sc.arrivals as usize).enumerate() {
        world.run_until(a.at);
        let node = FIRST_CLIENT_NODE + (a.client % sc.client_nodes as u64) as u32;
        let ns = Value::Int(NS_NODE as i64);
        let key = Value::Int((k % 16) as i64);
        let (entry, args) = match a.op.as_str() {
            "lookup" => ("op_lookup", vec![ns]),
            "read" => ("op_read", vec![ns, Value::Int(node as i64), key]),
            "write" => ("op_write", vec![ns, key]),
            "auth" => ("op_auth", vec![Value::Int(AOT_NODE as i64)]),
            other => return Err(format!("mix produced unknown op `{other}`")),
        };
        world.spawn(node, entry, args);
        last_at = a.at;
    }

    // Drain: every in-flight RPC, retry ladder, and AOT watcher must
    // settle. The deadline is generous; `drained` reports whether
    // quiescence arrived before it.
    world.run_until_idle(drain_deadline(sc, last_at));
    Ok(finish(sc, world, last_at))
}

/// When a run must reach quiescence to count as drained.
fn drain_deadline(sc: &Scenario, last_at: SimTime) -> SimTime {
    last_at + sc.aot_lifetime + SimDuration::from_secs(30)
}

/// Wraps an already-drained world into a [`LoadOutcome`]: evaluates the
/// gate and renders the report. Shared by the live path and
/// [`outcome_from_world`] so both produce byte-identical bundles.
fn finish(sc: &Scenario, world: World, last_at: SimTime) -> LoadOutcome {
    let drained = world.now() < drain_deadline(sc, last_at);
    let (report, gate_failures) = render_report(sc, &world, last_at, drained);
    LoadOutcome {
        world,
        report,
        gate_failures,
        drained,
        offered_window_us: last_at.as_micros().max(1),
    }
}

/// Rebuilds the [`LoadOutcome`] bundle around a world that already ran
/// the scenario — typically one recovered from a replayed artifact. The
/// offered window is recomputed from the scenario alone (the open-loop
/// arrival schedule is a pure function of the seed), so a replayed
/// world's report and run report come out byte-identical to the
/// original run's.
pub fn outcome_from_world(sc: &Scenario, world: World) -> LoadOutcome {
    let mut rng = DetRng::seed(sc.seed ^ 0x6f70_656e_2d6c_6f61); // "open-loa"
    let gen = OpenLoop::new(&mut rng, sc.rate, sc.clients, sc.mix.clone());
    let last_at = gen
        .take(sc.arrivals as usize)
        .map(|a| a.at)
        .last()
        .unwrap_or(SimTime::ZERO);
    finish(sc, world, last_at)
}

fn counter(world: &World, name: &str) -> u64 {
    world.metrics().counter_value(name).unwrap_or(0)
}

/// The figures both reports lead with: completed RPCs, throughput over
/// `window_us` in milli-ops/s, and the p50/p90/p99 latency buckets.
fn headline(world: &World, window_us: u64) -> (u64, u64, [u64; 3]) {
    let completed = counter(world, "rpc.completed");
    let hist = world.metrics().histogram_named("rpc.latency_us");
    let q = |p: f64| -> u64 { hist.as_ref().and_then(|h| h.quantile(p)).unwrap_or(0) };
    let throughput_mrps = completed.saturating_mul(1_000_000_000) / window_us;
    (completed, throughput_mrps, [q(0.50), q(0.90), q(0.99)])
}

/// Renders the deterministic report and evaluates the scenario's gate
/// floors. Throughput is measured over the offered window `[0,
/// last_arrival]` — the open-loop definition — in milli-ops/sec so the
/// report needs no floating point.
fn render_report(
    sc: &Scenario,
    world: &World,
    last_at: SimTime,
    drained: bool,
) -> (String, Vec<String>) {
    let failed = counter(world, "rpc.failed");
    let window_us = last_at.as_micros().max(1);
    let (completed, throughput_mrps, [p50, p90, p99]) = headline(world, window_us);

    let mut gate_failures = Vec::new();
    if let Some(floor) = sc.min_rps {
        if throughput_mrps < floor * 1000 {
            gate_failures.push(format!(
                "throughput {}.{:03} rps is below the declared floor {floor} rps",
                throughput_mrps / 1000,
                throughput_mrps % 1000
            ));
        }
    }
    if let Some(ceiling) = sc.max_p99_us {
        if p99 > ceiling {
            gate_failures.push(format!(
                "p99 latency {p99} µs exceeds the declared ceiling {ceiling} µs"
            ));
        }
        // The windowed SLO catches transient cliffs the aggregate hides:
        // a partition that blows p99 mid-run fails the gate even when
        // enough fast post-heal traffic pulls the end-of-run percentile
        // back under the ceiling.
        if sc.windowed_slo {
            for (start, end, count, wp99) in
                world.tsdb_hist_windows("rpc.latency_us", sc.report_window)
            {
                if count == 0 {
                    continue;
                }
                if wp99.is_some_and(|p| p > ceiling) {
                    gate_failures.push(format!(
                        "window [{start}..{end}us] p99 {} µs exceeds the declared ceiling \
                         {ceiling} µs",
                        render_bucket_bound(wp99)
                    ));
                }
            }
        }
    }
    if !drained {
        gate_failures.push("world did not drain to quiescence".into());
    }

    let mut out = String::new();
    let mut line = |k: &str, v: String| {
        out.push_str(&format!("{k:<22}{v}\n"));
    };
    line("scenario", sc.name.clone());
    line("seed", sc.seed.to_string());
    line("arrivals", sc.arrivals.to_string());
    line("offered.window_us", window_us.to_string());
    line("rpc.started", counter(world, "rpc.started").to_string());
    line("rpc.completed", completed.to_string());
    line("rpc.failed", failed.to_string());
    line(
        "net.bridge_lost",
        counter(world, "net.bridge_lost").to_string(),
    );
    line(
        "net.silently_lost",
        counter(world, "net.silently_lost").to_string(),
    );
    line(
        "throughput_rps",
        format!("{}.{:03}", throughput_mrps / 1000, throughput_mrps % 1000),
    );
    line("latency.p50_us", p50.to_string());
    line("latency.p90_us", p90.to_string());
    line("latency.p99_us", p99.to_string());
    line("drained", drained.to_string());
    if gate_failures.is_empty() {
        line("gate", "PASS".into());
    } else {
        line("gate", format!("FAIL ({})", gate_failures.join("; ")));
    }
    (out, gate_failures)
}

/// One `| window | <what> | util% |` table over a busy-time counter's
/// retained windows; `sharers` is how many transmitters the busy time is
/// spread over (the stations of a segment, 1 for a bridge link).
fn push_busy_table(md: &mut String, what: &str, series: Vec<(u64, u64, u64)>, sharers: u64) {
    if series.is_empty() {
        md.push_str("no windows retained\n\n");
        return;
    }
    md.push_str(&format!("| window | {what} | util% |\n|---|---:|---:|\n"));
    for (start, end, delta) in series {
        let span_us = end.saturating_sub(start).max(1);
        md.push_str(&format!(
            "| [{start}..{end}us] | {delta} | {} |\n",
            delta.saturating_mul(100) / span_us / sharers
        ));
    }
    md.push('\n');
}

/// Renders the structured run report: one self-contained markdown
/// artifact with an embedded machine-readable JSON summary, per-window
/// throughput and latency series from the time-series store, per-link
/// utilization tables from the bridge meters, and the `top_k` slowest
/// sampled spans. Every figure comes from deterministic state (counters,
/// retained tsdb windows, the trace), so two runs of the same scenario —
/// live or replayed — render byte-identical reports.
pub fn render_run_report(sc: &Scenario, out: &LoadOutcome, top_k: usize) -> String {
    let world = &out.world;
    let window = sc.report_window;
    let mut md = String::new();
    md.push_str(&format!("# pilgrim-load run report: {}\n\n", sc.name));

    md.push_str("## summary\n\n```\n");
    md.push_str(&out.report);
    md.push_str("```\n\n");

    // The machine summary repeats the headline figures as JSON so CI can
    // gate on them without re-parsing the flat text.
    let (completed, throughput_mrps, [p50, p90, p99]) = headline(world, out.offered_window_us);
    let run_us = world.now().as_micros().max(1);
    let links = world.bridge_links();
    let link_summaries: Vec<Json> = links
        .iter()
        .map(|&(a, b)| {
            let c = |f: &str| counter(world, &format!("net.link{a}-{b}.{f}"));
            let busy = c("busy_us");
            Json::obj(vec![
                ("link", Json::Str(format!("{a}-{b}"))),
                ("bytes", Json::Int(c("bytes") as i128)),
                ("busy_us", Json::Int(busy as i128)),
                ("queue_us", Json::Int(c("queue_us") as i128)),
                ("lost", Json::Int(c("lost") as i128)),
                (
                    "util_pct",
                    Json::Int((busy.saturating_mul(100) / run_us) as i128),
                ),
            ])
        })
        .collect();
    let machine = Json::obj(vec![
        ("scenario", Json::Str(sc.name.clone())),
        ("seed", Json::Int(sc.seed as i128)),
        ("arrivals", Json::Int(sc.arrivals as i128)),
        ("completed", Json::Int(completed as i128)),
        ("failed", Json::Int(counter(world, "rpc.failed") as i128)),
        ("throughput_mrps", Json::Int(throughput_mrps as i128)),
        ("p50_us", Json::Int(p50 as i128)),
        ("p90_us", Json::Int(p90 as i128)),
        ("p99_us", Json::Int(p99 as i128)),
        ("drained", Json::Bool(out.drained)),
        ("gate_pass", Json::Bool(out.gate_failures.is_empty())),
        (
            "gate_failures",
            Json::Array(
                out.gate_failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
        ("links", Json::Array(link_summaries)),
    ]);
    let mut machine_text = String::new();
    machine.write(&mut machine_text);
    md.push_str("## machine summary\n\n```json\n");
    md.push_str(&machine_text);
    md.push_str("\n```\n\n");

    md.push_str("## throughput (rpc.completed per window)\n\n");
    let tp = world.tsdb_counter_windows("rpc.completed", window);
    if tp.is_empty() {
        md.push_str("no windows retained\n\n");
    } else {
        md.push_str("| window | completed | rate/s |\n|---|---:|---:|\n");
        for (start, end, delta) in tp {
            let span_us = end.saturating_sub(start).max(1);
            let rate = delta.saturating_mul(1_000_000) / span_us;
            md.push_str(&format!("| [{start}..{end}us] | {delta} | {rate} |\n"));
        }
        md.push('\n');
    }

    md.push_str("## latency (rpc.latency_us per window)\n\n");
    let lat = world.tsdb_hist_windows("rpc.latency_us", window);
    if lat.is_empty() {
        md.push_str("no windows retained\n\n");
    } else {
        md.push_str("| window | count | p99 |\n|---|---:|---:|\n");
        for (start, end, count, p99) in lat {
            md.push_str(&format!(
                "| [{start}..{end}us] | {count} | {} |\n",
                render_bucket_bound(p99)
            ));
        }
        md.push('\n');
    }

    md.push_str("## link utilization\n\n");
    if links.is_empty() {
        md.push_str("flat topology: no bridge links\n\n");
    } else {
        for &(a, b) in &links {
            let c = |f: &str| counter(world, &format!("net.link{a}-{b}.{f}"));
            let busy = c("busy_us");
            md.push_str(&format!(
                "### link {a}-{b}\n\ntotals: bytes {} busy_us {busy} queue_us {} lost {} \
                 util {}%\n\n",
                c("bytes"),
                c("queue_us"),
                c("lost"),
                busy.saturating_mul(100) / run_us,
            ));
            let series = world.tsdb_counter_windows(&format!("net.link{a}-{b}.busy_us"), window);
            push_busy_table(&mut md, "busy_us", series, 1);
        }
    }

    // Station utilization: each segment's transmitter occupancy over
    // (window × stations). The ring serializes ~one small packet per
    // 3.5 ms per station, so a segment pinned near 100% here is at the
    // ~285 pkts/s capacity cliff — readable straight off the report
    // instead of hand-run sweeps.
    md.push_str("## station utilization (net.seg tx_busy_us per window)\n\n");
    let segments = world.net_segments();
    if segments <= 1 {
        md.push_str("flat topology: no per-segment meters\n\n");
    } else {
        for seg in 0..segments {
            let stations = u64::from(world.segment_stations(seg)).max(1);
            let busy = counter(world, &format!("net.seg{seg}.tx_busy_us"));
            if busy == 0 {
                continue;
            }
            md.push_str(&format!(
                "### segment {seg} ({stations} stations)\n\ntotals: tx_busy_us {busy} \
                 util {}%\n\n",
                busy.saturating_mul(100) / run_us / stations,
            ));
            let series = world.tsdb_counter_windows(&format!("net.seg{seg}.tx_busy_us"), window);
            push_busy_table(&mut md, "tx_busy_us", series, stations);
        }
    }

    let graph = world.causal_graph();
    md.push_str(&format!("## slowest spans (top {top_k})\n\n```\n"));
    md.push_str(&graph.render_slowest(top_k));
    md.push_str("```\n\n## critical path\n\n```\n");
    md.push_str(&graph.render_critical());
    md.push_str("```\n");
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario::parse(
            r#"
name = "tiny"
seed = 7
topology = "ring-of-rings"
segments = 2
client_nodes = 4
clients = 16
arrivals = 40
rate = 200
trace = "rpc"
"#,
        )
        .expect("parses")
    }

    /// Every kind `install_one` decodes is re-noted as the same entry,
    /// for defaulted and for non-default settings: an encoder and its
    /// decoder that disagree would make a faithful replay look drifted.
    #[test]
    fn every_setup_entry_is_renoted_as_recorded() {
        use crate::strategy::TimeoutStrategy::*;
        let world = || World::builder().nodes(3).build().expect("builds");
        let mut live = world();
        let ns = NameServer::install(&mut live, 0);
        ns.register(&mut live, "fs", NodeId(1));
        for strategy in [Naive, IgnoreWhileDebugged, StatusOnly, StatusAndConvert] {
            let aot = AotConfig {
                clock_tolerance: SimDuration::from_millis(7),
                strategy,
                ..Default::default()
            };
            AotMan::install(&mut live, 1, aot);
            let rm = RmConfig {
                resources: 3,
                lease: SimDuration::from_secs(5),
                clock_tolerance: SimDuration::from_millis(9),
                strategy,
                reclaim_on_contention: false,
            };
            ResourceManager::install(&mut live, 2, rm);
        }
        AotMan::install(&mut live, 1, AotConfig::default());
        ResourceManager::install(&mut live, 2, RmConfig::default());
        TraceLevel::Off.apply(&mut live);
        let recorded = &live.recipe().setup;
        assert_eq!(recorded.len(), 13);

        let mut replayed = world();
        let mut install = setup_installer();
        for (kind, params) in recorded {
            install(&mut replayed, kind, params).expect("installs");
        }
        assert_eq!(&replayed.recipe().setup, recorded);

        // A station read from a recording is checked before it indexes.
        let far = Json::obj(vec![("node", Json::Int(4)), ("lifetime_us", Json::Int(1))]);
        let err = install(&mut replayed, "aotman", &far).expect_err("node 4 of 4 stations");
        assert_eq!(err, "no node 4 in a world of 4 stations");
        // A pool size read from a recording allocates nothing up front.
        let pool = Json::obj(vec![
            ("node", Json::Int(2)),
            ("resources", Json::Int(4_000_000_000)),
        ]);
        install(&mut replayed, "resource-manager", &pool).expect("installs");
        let params = |i: usize| recorded[i].1.to_string();
        assert_eq!(params(10), r#"{"node": 1, "lifetime_us": 120000000}"#);
        assert_eq!(params(11), r#"{"node": 2}"#);
    }

    #[test]
    fn tiny_scenario_completes_and_reports() {
        let out = run_scenario(&tiny()).expect("runs");
        assert!(out.drained, "tiny load must drain");
        assert!(out.gate_failures.is_empty());
        assert!(out.report.contains("scenario              tiny"));
        let completed: u64 = out
            .report
            .lines()
            .find(|l| l.starts_with("rpc.completed"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .expect("report carries rpc.completed");
        assert!(completed > 0, "operations must complete:\n{}", out.report);
    }

    #[test]
    fn twice_run_reports_are_byte_identical() {
        let a = run_scenario(&tiny()).expect("runs");
        let b = run_scenario(&tiny()).expect("runs");
        assert_eq!(a.report, b.report);
        assert_eq!(a.world.trace_jsonl(), b.world.trace_jsonl());
    }

    /// The tiny scenario with telemetry knobs on: span sampling, a
    /// dense coarse store, windowed SLO machinery exercised end to end.
    fn tiny_observed() -> Scenario {
        Scenario::parse(
            r#"
name = "tiny-observed"
seed = 7
topology = "ring-of-rings"
segments = 2
client_nodes = 4
clients = 16
arrivals = 40
rate = 200
trace = "rpc"
trace_sample = 2
coarse_interval = 8
coarse_budget = 512
report_window = 2
"#,
        )
        .expect("parses")
    }

    #[test]
    fn run_report_is_byte_identical_twice_and_in_replay() {
        let sc = tiny_observed();
        let first = run_scenario(&sc).expect("runs");
        let report = render_run_report(&sc, &first, 5);
        assert!(report.contains("## summary"));
        assert!(report.contains("## machine summary"));
        assert!(report.contains("### link 0-1"), "{report}");
        assert!(report.contains("## station utilization"), "{report}");
        assert!(report.contains("### segment 0"), "{report}");
        assert!(report.contains("## slowest spans"));

        let second = run_scenario(&sc).expect("runs");
        assert_eq!(report, render_run_report(&sc, &second, 5));

        let artifact = first.world.record();
        let replayed = replay_load(&artifact).expect("replays");
        assert!(replayed.divergence.is_none());
        let re_outcome = outcome_from_world(&sc, replayed.world);
        assert_eq!(re_outcome.report, first.report);
        assert_eq!(report, render_run_report(&sc, &re_outcome, 5));
    }

    #[test]
    fn flat_run_report_has_no_link_tables() {
        let sc = Scenario::parse("name = \"flat\"\nseed = 3\narrivals = 10").expect("parses");
        let out = run_scenario(&sc).expect("runs");
        let report = render_run_report(&sc, &out, 3);
        assert!(
            report.contains("flat topology: no bridge links"),
            "{report}"
        );
        assert!(
            report.contains("flat topology: no per-segment meters"),
            "{report}"
        );
    }

    #[test]
    fn windowed_slo_fails_the_gate_on_a_window_breach() {
        let mut sc = tiny_observed();
        sc.windowed_slo = true;
        sc.max_p99_us = Some(1); // every non-empty window breaches
        let out = run_scenario(&sc).expect("runs");
        assert!(
            out.gate_failures
                .iter()
                .any(|f| f.starts_with("window [") && f.contains("exceeds the declared ceiling")),
            "windowed SLO must add window-scoped failures: {:?}",
            out.gate_failures
        );
    }

    #[test]
    fn recorded_artifact_replays_through_installer() {
        let out = run_scenario(&tiny()).expect("runs");
        let artifact = out.world.record();
        let report = replay_load(&artifact).expect("replays");
        assert!(report.divergence.is_none(), "{:?}", report.divergence);
        assert!(report.byte_identical);
        // Plain replay must refuse, pointing at the setup entries.
        let err = pilgrim::replay::replay(&artifact).expect_err("plain replay refuses");
        assert!(err.to_string().contains("`replay_with`"), "{err}");
    }
}
