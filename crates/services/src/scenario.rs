//! Hand-rolled parser for `pilgrim load` scenario files.
//!
//! Scenarios are a flat, TOML-ish `key = value` format — hand-rolled so
//! the workspace stays dependency-free. Example:
//!
//! ```toml
//! name = "partition-1k"
//! seed = 42
//! topology = "star"            # flat | ring-of-rings | star
//! segments = 4                 # arms (star) or rings (ring-of-rings)
//! client_nodes = 8
//! clients = 1000
//! arrivals = 1000
//! rate = 100                   # aggregate ops/sec
//! mix = "lookup:4,read:3,write:2,auth:1"
//! loss = "1%"                  # per-bridge-hop loss
//! link_latency = "500us"
//! link_jitter = "0us"
//! aot_lifetime = "2s"
//! partition = "at=4s heal=6s link=0:1"   # repeatable
//! trace = "rpc"                # full | rpc | off
//! trace_sample = 16            # keep 1-in-N root spans (0 = keep all)
//! min_rps = 50                 # gate floor (optional)
//! max_p99_us = 2000000         # gate ceiling (optional)
//! windowed_slo = true          # apply max_p99_us per tsdb window too
//! report_window = 4            # coarse samples per run-report row
//! coarse_interval = 64         # sync points per coarse sample
//! coarse_budget = 256          # coarse samples retained per series
//! blackbox_events = 1024       # flight-recorder ring budget
//! ```
//!
//! Unknown keys, duplicate keys (except `partition`), and out-of-range
//! values are hard errors: a scenario that gates CI must not silently
//! drift when a key is misspelled.

use pilgrim::{PartitionWindow, SimDuration, SimTime, Topology, TraceCategory, World};
use pilgrim_sim::{Json, OpMix};

use crate::load::FIRST_CLIENT_NODE;

/// How much tracing a load run records. Full traces of 100k-op runs are
/// large; the RPC-only and off levels keep soak artifacts manageable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Every category (the default for small scenarios).
    #[default]
    Full,
    /// RPC protocol events only.
    Rpc,
    /// No trace events at all.
    Off,
}

impl TraceLevel {
    /// Stable wire name (recorded as a recipe setup entry).
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Full => "full",
            TraceLevel::Rpc => "rpc",
            TraceLevel::Off => "off",
        }
    }

    /// The inverse of [`name`](TraceLevel::name).
    ///
    /// # Errors
    ///
    /// Unknown names.
    pub fn parse(s: &str) -> Result<TraceLevel, String> {
        match s {
            "full" => Ok(TraceLevel::Full),
            "rpc" => Ok(TraceLevel::Rpc),
            "off" => Ok(TraceLevel::Off),
            other => Err(format!("trace: unknown level `{other}` (full|rpc|off)")),
        }
    }

    /// Narrows `world`'s tracer to this level, noting a `trace-filter`
    /// setup entry so a replay narrows its tracer the same way.
    pub fn apply(self, world: &mut World) {
        let params = Json::obj(vec![("level", Json::Str(self.name().into()))]);
        world.install("trace-filter", params, |setup| match self {
            TraceLevel::Full => {}
            TraceLevel::Rpc => setup.tracer().set_filter(&[TraceCategory::Rpc]),
            TraceLevel::Off => setup.tracer().set_filter(&[]),
        });
    }
}

/// A parsed load scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (reported, not interpreted).
    pub name: String,
    /// Master seed for the world and the workload generator.
    pub seed: u64,
    /// Network shape.
    pub topology: Topology,
    /// Nodes that host client processes (servers ride on 3 extra nodes).
    pub client_nodes: u32,
    /// Logical client population (arrivals are spread over these).
    pub clients: u64,
    /// Total operations to issue.
    pub arrivals: u64,
    /// Aggregate arrival rate, operations per second.
    pub rate: u64,
    /// Weighted operation mix.
    pub mix: OpMix,
    /// Per-bridge-hop loss probability, `0.0..=1.0`.
    pub loss: f64,
    /// Bridge forwarding latency.
    pub link_latency: SimDuration,
    /// Bridge jitter bound.
    pub link_jitter: SimDuration,
    /// TUID lifetime for the AOT manager (short keeps drain quick).
    pub aot_lifetime: SimDuration,
    /// Scheduled partition/heal windows over bridge links.
    pub partitions: Vec<PartitionWindow>,
    /// Trace verbosity.
    pub trace: TraceLevel,
    /// Head-based span sampling: keep 1-in-N root spans (0 or 1 = keep
    /// everything). Recipe-carried, so replays sample identically.
    pub trace_sample: u32,
    /// Gate: completed-RPC throughput floor, ops/sec.
    pub min_rps: Option<u64>,
    /// Gate: p99 latency ceiling, microseconds.
    pub max_p99_us: Option<u64>,
    /// Apply `max_p99_us` to every retained tsdb window as well as the
    /// aggregate — a mid-run latency spike fails the gate even when the
    /// run recovers before the end.
    pub windowed_slo: bool,
    /// How many coarse tsdb samples each run-report row aggregates.
    pub report_window: usize,
    /// Coarse-store shape override: sync points per sample (0 = world
    /// default). Must be set together with `coarse_budget`.
    pub coarse_interval: u64,
    /// Coarse-store shape override: samples retained per series (0 =
    /// world default).
    pub coarse_budget: usize,
    /// Flight-recorder ring budget override in events (0 = world
    /// default).
    pub blackbox_events: usize,
}

impl Default for Scenario {
    fn default() -> Self {
        let mut mix = OpMix::new();
        mix.push("lookup", 4);
        mix.push("read", 3);
        mix.push("write", 2);
        mix.push("auth", 1);
        Scenario {
            name: "unnamed".into(),
            seed: 1,
            topology: Topology::Flat,
            client_nodes: 4,
            clients: 100,
            arrivals: 100,
            rate: 100,
            mix,
            loss: 0.0,
            link_latency: SimDuration::from_micros(500),
            link_jitter: SimDuration::ZERO,
            aot_lifetime: SimDuration::from_secs(2),
            partitions: Vec::new(),
            trace: TraceLevel::Full,
            trace_sample: 0,
            min_rps: None,
            max_p99_us: None,
            windowed_slo: false,
            report_window: 1,
            coarse_interval: 0,
            coarse_budget: 0,
            blackbox_events: 0,
        }
    }
}

impl Scenario {
    /// Parses a scenario file.
    ///
    /// # Errors
    ///
    /// Syntax errors, unknown or duplicate keys, and out-of-range values
    /// — all with the offending line number. A check that spans keys names
    /// the line of the key it found wanting.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut sc = Scenario::default();
        let mut segments: Option<u32> = None;
        let mut topology_kind: Option<String> = None;
        // Every key but `partition`, with the line that set it.
        let mut seen: Vec<(String, usize)> = Vec::new();
        let mut partition_lines: Vec<usize> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let key = key.trim();
            let value = value.trim();
            if key.is_empty() {
                return Err(format!("line {lineno}: empty key"));
            }
            if key == "partition" {
                partition_lines.push(lineno);
            } else {
                if seen.iter().any(|(k, _)| k == key) {
                    return Err(format!("line {lineno}: duplicate key `{key}`"));
                }
                seen.push((key.to_string(), lineno));
            }
            match key {
                "name" => sc.name = unquote(value, lineno)?,
                "seed" => sc.seed = int(value, lineno)?,
                "topology" => topology_kind = Some(unquote(value, lineno)?),
                "segments" => {
                    segments = Some(
                        int(value, lineno)?
                            .try_into()
                            .map_err(|_| format!("line {lineno}: `segments` out of range"))?,
                    )
                }
                "client_nodes" => {
                    let n: u32 = int(value, lineno)?
                        .try_into()
                        .map_err(|_| format!("line {lineno}: `client_nodes` out of range"))?;
                    if n == 0 || n > 100_000 {
                        return Err(format!(
                            "line {lineno}: `client_nodes` must be in 1..=100000"
                        ));
                    }
                    sc.client_nodes = n;
                }
                "clients" => {
                    sc.clients = int(value, lineno)?;
                    if sc.clients == 0 {
                        return Err(format!("line {lineno}: `clients` must be positive"));
                    }
                }
                "arrivals" => {
                    sc.arrivals = int(value, lineno)?;
                    if sc.arrivals == 0 {
                        return Err(format!("line {lineno}: `arrivals` must be positive"));
                    }
                }
                "rate" => {
                    sc.rate = int(value, lineno)?;
                    if sc.rate == 0 || sc.rate > 1_000_000 {
                        return Err(format!(
                            "line {lineno}: `rate` must be in 1..=1000000 ops/sec"
                        ));
                    }
                }
                "mix" => {
                    sc.mix = parse_mix(&unquote(value, lineno)?, lineno)?;
                    if sc.mix.is_empty() {
                        return Err(format!(
                            "line {lineno}: mix: at least one operation needs a positive weight"
                        ));
                    }
                    for (op, _) in sc.mix.entries() {
                        if !matches!(op.as_str(), "lookup" | "read" | "write" | "auth") {
                            return Err(format!(
                                "line {lineno}: mix: unknown operation `{op}` (lookup|read|write|auth)"
                            ));
                        }
                    }
                }
                "loss" => {
                    sc.loss = percent(&unquote(value, lineno)?, lineno)?;
                    if !(0.0..=1.0).contains(&sc.loss) {
                        return Err(format!("line {lineno}: `loss` must be within 0%..100%"));
                    }
                }
                "link_latency" => sc.link_latency = duration(value, lineno)?,
                "link_jitter" => sc.link_jitter = duration(value, lineno)?,
                "aot_lifetime" => sc.aot_lifetime = duration(value, lineno)?,
                "partition" => sc
                    .partitions
                    .push(parse_partition(&unquote(value, lineno)?, lineno)?),
                "trace" => {
                    sc.trace = TraceLevel::parse(&unquote(value, lineno)?)
                        .map_err(|e| format!("line {lineno}: {e}"))?
                }
                "trace_sample" => {
                    sc.trace_sample = int(value, lineno)?
                        .try_into()
                        .map_err(|_| format!("line {lineno}: `trace_sample` out of range"))?
                }
                "min_rps" => sc.min_rps = Some(int(value, lineno)?),
                "max_p99_us" => sc.max_p99_us = Some(int(value, lineno)?),
                "windowed_slo" => sc.windowed_slo = boolean(value, lineno)?,
                "report_window" => {
                    let w: usize = int(value, lineno)?
                        .try_into()
                        .map_err(|_| format!("line {lineno}: `report_window` out of range"))?;
                    if w == 0 {
                        return Err(format!("line {lineno}: `report_window` must be positive"));
                    }
                    sc.report_window = w;
                }
                "coarse_interval" => {
                    sc.coarse_interval = int(value, lineno)?;
                    if sc.coarse_interval == 0 {
                        return Err(format!("line {lineno}: `coarse_interval` must be positive"));
                    }
                }
                "coarse_budget" => {
                    let b: usize = int(value, lineno)?
                        .try_into()
                        .map_err(|_| format!("line {lineno}: `coarse_budget` out of range"))?;
                    if b == 0 {
                        return Err(format!("line {lineno}: `coarse_budget` must be positive"));
                    }
                    sc.coarse_budget = b;
                }
                "blackbox_events" => {
                    let n: usize = int(value, lineno)?
                        .try_into()
                        .map_err(|_| format!("line {lineno}: `blackbox_events` out of range"))?;
                    if n == 0 {
                        return Err(format!("line {lineno}: `blackbox_events` must be positive"));
                    }
                    sc.blackbox_events = n;
                }
                other => return Err(format!("line {lineno}: unknown key `{other}`")),
            }
        }

        let line_of = |key: &str| seen.iter().find(|(k, _)| k == key).map_or(0, |&(_, l)| l);
        let needs_segments = |kind: &str| {
            let line = line_of("topology");
            segments.ok_or_else(|| format!("line {line}: topology `{kind}` needs `segments`"))
        };
        sc.topology = match topology_kind.as_deref() {
            None | Some("flat") => Topology::Flat,
            Some("ring-of-rings") => Topology::RingOfRings {
                segments: needs_segments("ring-of-rings")?,
            },
            Some("star") => Topology::Star {
                arms: needs_segments("star")?,
            },
            Some(other) => {
                return Err(format!(
                    "line {}: unknown topology `{other}` (flat|ring-of-rings|star)",
                    line_of("topology")
                ))
            }
        };
        let segs = sc.topology.segments();
        // The load world's stations: the servers, the clients and the
        // debugger's own. The network keeps an entry per segment and per
        // bridge, so more segments than stations is refused here, before
        // anything is built for them.
        let stations = FIRST_CLIENT_NODE + sc.client_nodes + 1;
        if segs > stations {
            return Err(format!(
                "line {}: `segments` makes {segs} segments, more than the world's {stations} stations",
                line_of("segments")
            ));
        }
        for (w, line) in sc.partitions.iter().zip(partition_lines) {
            if w.a >= segs || w.b >= segs {
                return Err(format!(
                    "line {line}: partition link {}:{} names a segment outside 0..{segs}",
                    w.a, w.b
                ));
            }
        }
        if (sc.coarse_interval == 0) != (sc.coarse_budget == 0) {
            let set = ["coarse_interval", "coarse_budget"].map(line_of);
            return Err(format!(
                "line {}: `coarse_interval` and `coarse_budget` must be set together (or neither)",
                set[0].max(set[1])
            ));
        }
        Ok(sc)
    }
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Accepts `"quoted"` or a bare word (no spaces).
fn unquote(v: &str, lineno: usize) -> Result<String, String> {
    if let Some(stripped) = v.strip_prefix('"') {
        return stripped
            .strip_suffix('"')
            .map(str::to_string)
            .ok_or_else(|| format!("line {lineno}: unterminated string"));
    }
    if v.contains(' ') || v.contains('"') {
        return Err(format!("line {lineno}: expected a quoted string"));
    }
    Ok(v.to_string())
}

/// Bare `true` / `false` only — no `yes`, `1`, or case variants, so a
/// gating scenario cannot be ambiguous about what it asked for.
fn boolean(v: &str, lineno: usize) -> Result<bool, String> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("line {lineno}: `{other}` is not `true` or `false`")),
    }
}

fn int(v: &str, lineno: usize) -> Result<u64, String> {
    // Allow 1_000_000-style separators.
    let cleaned: String = v.chars().filter(|c| *c != '_').collect();
    cleaned
        .parse::<u64>()
        .map_err(|_| format!("line {lineno}: `{v}` is not a non-negative integer"))
}

/// `30s`, `500ms`, `250us` — integers with a unit suffix.
fn duration(v: &str, lineno: usize) -> Result<SimDuration, String> {
    let (num, mult) = if let Some(n) = v.strip_suffix("us") {
        (n, 1u64)
    } else if let Some(n) = v.strip_suffix("ms") {
        (n, 1_000)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1_000_000)
    } else {
        return Err(format!(
            "line {lineno}: `{v}` needs a duration unit (us|ms|s)"
        ));
    };
    let n = int(num, lineno)?;
    n.checked_mul(mult)
        .map(SimDuration::from_micros)
        .ok_or_else(|| format!("line {lineno}: duration `{v}` overflows"))
}

/// `1%`, `0.5%`, or a bare probability like `0.01`.
fn percent(v: &str, lineno: usize) -> Result<f64, String> {
    let (num, scale) = match v.strip_suffix('%') {
        Some(n) => (n.trim(), 100.0),
        None => (v, 1.0),
    };
    let parsed = num
        .parse::<f64>()
        .map_err(|_| format!("line {lineno}: `{v}` is not a number"))?;
    if !parsed.is_finite() {
        return Err(format!("line {lineno}: `{v}` is not finite"));
    }
    Ok(parsed / scale)
}

/// `lookup:4,read:3,write:2,auth:1`.
fn parse_mix(v: &str, lineno: usize) -> Result<OpMix, String> {
    let mut mix = OpMix::new();
    for part in v.split(',') {
        let (op, w) = part
            .trim()
            .split_once(':')
            .ok_or_else(|| format!("line {lineno}: mix entry `{part}` is not `op:weight`"))?;
        mix.push(op.trim(), int(w.trim(), lineno)?);
    }
    Ok(mix)
}

/// `at=30s heal=45s link=0:1`.
fn parse_partition(v: &str, lineno: usize) -> Result<PartitionWindow, String> {
    let mut at = None;
    let mut heal = None;
    let mut link = None;
    for part in v.split_whitespace() {
        let (k, val) = part
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: partition field `{part}` is not `k=v`"))?;
        match k {
            "at" => at = Some(duration(val, lineno)?),
            "heal" => heal = Some(duration(val, lineno)?),
            "link" => {
                let (a, b) = val
                    .split_once(':')
                    .ok_or_else(|| format!("line {lineno}: link `{val}` is not `a:b`"))?;
                link = Some((
                    int(a, lineno)?
                        .try_into()
                        .map_err(|_| format!("line {lineno}: link end out of range"))?,
                    int(b, lineno)?
                        .try_into()
                        .map_err(|_| format!("line {lineno}: link end out of range"))?,
                ));
            }
            other => return Err(format!("line {lineno}: unknown partition field `{other}`")),
        }
    }
    let at = at.ok_or_else(|| format!("line {lineno}: partition needs `at=`"))?;
    let heal = heal.ok_or_else(|| format!("line {lineno}: partition needs `heal=`"))?;
    let (a, b) = link.ok_or_else(|| format!("line {lineno}: partition needs `link=a:b`"))?;
    if heal.as_micros() <= at.as_micros() {
        return Err(format!("line {lineno}: partition heals before it starts"));
    }
    if a == b {
        return Err(format!(
            "line {lineno}: partition link must join two segments"
        ));
    }
    Ok(PartitionWindow {
        from: SimTime::ZERO + at,
        to: SimTime::ZERO + heal,
        a,
        b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scenario_parses() {
        let sc = Scenario::parse(
            r#"
# smoke scenario
name = "partition-1k"
seed = 42
topology = "star"
segments = 4
client_nodes = 8
clients = 1_000
arrivals = 1000
rate = 100
mix = "lookup:4,read:3,write:2,auth:1"
loss = "1%"       # bridge loss
link_latency = 500us
link_jitter = 0us
aot_lifetime = 2s
partition = "at=4s heal=6s link=0:1"
trace = "rpc"
trace_sample = 16
min_rps = 50
max_p99_us = 2000000
windowed_slo = true
report_window = 4
coarse_interval = 32
coarse_budget = 128
blackbox_events = 1024
"#,
        )
        .expect("parses");
        assert_eq!(sc.name, "partition-1k");
        assert_eq!(sc.topology, Topology::Star { arms: 4 });
        assert_eq!(sc.clients, 1000);
        assert!((sc.loss - 0.01).abs() < 1e-12);
        assert_eq!(sc.partitions.len(), 1);
        assert_eq!(sc.partitions[0].from, SimTime::from_secs(4));
        assert_eq!(sc.partitions[0].to, SimTime::from_secs(6));
        assert_eq!(sc.trace, TraceLevel::Rpc);
        assert_eq!(sc.trace_sample, 16);
        assert_eq!(sc.min_rps, Some(50));
        assert!(sc.windowed_slo);
        assert_eq!(sc.report_window, 4);
        assert_eq!(sc.coarse_interval, 32);
        assert_eq!(sc.coarse_budget, 128);
        assert_eq!(sc.blackbox_events, 1024);
    }

    #[test]
    fn hostile_inputs_error_with_line_numbers() {
        for (text, needle) in [
            ("rate", "expected `key = value`"),
            ("bogus_key = 1", "unknown key `bogus_key`"),
            ("seed = 1\nseed = 2", "duplicate key `seed`"),
            ("rate = 0", "`rate` must be in"),
            ("rate = 2000001", "`rate` must be in"),
            ("clients = 0", "`clients` must be positive"),
            ("loss = \"150%\"", "`loss` must be within"),
            ("loss = \"nan%\"", "not finite"),
            ("seed = -3", "not a non-negative integer"),
            ("link_latency = 5", "needs a duration unit"),
            ("name = \"unterminated", "unterminated string"),
            ("trace = \"loud\"", "unknown level"),
            ("mix = \"lookup\"", "not `op:weight`"),
            ("mix = \"teleport:1\"", "unknown operation `teleport`"),
            ("mix = \"lookup:0\"", "positive weight"),
            ("partition = \"at=4s link=0:1\"", "needs `heal=`"),
            ("partition = \"at=6s heal=4s link=0:1\"", "heals before"),
            (
                "partition = \"at=4s heal=6s link=1:1\"",
                "join two segments",
            ),
            (
                "topology = \"star\"\nsegments = 2\npartition = \"at=1s heal=2s link=0:9\"",
                "outside 0..3",
            ),
            ("topology = \"mesh\"", "unknown topology"),
            ("topology = \"star\"", "needs `segments`"),
            (
                "topology = \"star\"\nsegments = 4000000000",
                "line 2: `segments` makes 4000000001 segments, more than the world's 8 stations",
            ),
            ("windowed_slo = yes", "not `true` or `false`"),
            ("windowed_slo = True", "not `true` or `false`"),
            ("report_window = 0", "`report_window` must be positive"),
            ("coarse_interval = 0", "`coarse_interval` must be positive"),
            ("coarse_budget = 0", "`coarse_budget` must be positive"),
            ("blackbox_events = 0", "`blackbox_events` must be positive"),
            ("coarse_interval = 64", "must be set together"),
            ("coarse_budget = 64", "must be set together"),
        ] {
            let err = Scenario::parse(text).expect_err(text);
            assert!(
                err.contains(needle),
                "for {text:?}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn defaults_fill_unset_keys() {
        let sc = Scenario::parse("seed = 9").expect("parses");
        assert_eq!(sc.topology, Topology::Flat);
        assert_eq!(sc.rate, 100);
        assert_eq!(sc.mix.len(), 4);
        assert!(sc.partitions.is_empty());
        assert_eq!(sc.min_rps, None);
        assert_eq!(sc.trace_sample, 0);
        assert!(!sc.windowed_slo);
        assert_eq!(sc.report_window, 1);
        assert_eq!(sc.coarse_interval, 0);
        assert_eq!(sc.blackbox_events, 0);
    }

    /// `Ok`, or an error that names a line of `text`.
    fn ok_or_line_numbered(text: &str, what: &str) {
        let Err(e) = Scenario::parse(text) else {
            return;
        };
        let line = e
            .strip_prefix("line ")
            .and_then(|rest| rest.split_once(':'))
            .and_then(|(n, _)| n.parse::<usize>().ok());
        assert!(
            line.is_some_and(|n| (1..=text.lines().count()).contains(&n)),
            "{what}: error {e:?} names no line of the input"
        );
    }

    /// Every committed scenario, cut short at every byte and with each of
    /// its lines deleted in turn, parses or fails on a named line — and
    /// never panics.
    #[test]
    fn truncated_and_gapped_scenarios_fail_on_a_line() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut files = 0;
        for entry in std::fs::read_dir(dir).expect("scenarios/ is readable") {
            let path = entry.expect("a directory entry").path();
            if path.extension().is_none_or(|e| e != "toml") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("a committed scenario");
            Scenario::parse(&text).expect("a committed scenario parses");
            files += 1;
            for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
                ok_or_line_numbered(&text[..cut], &format!("{path:?} cut at byte {cut}"));
            }
            let lines: Vec<&str> = text.lines().collect();
            for gone in 0..lines.len() {
                let kept: Vec<&str> = (0..lines.len())
                    .filter(|&i| i != gone)
                    .map(|i| lines[i])
                    .collect();
                ok_or_line_numbered(&kept.join("\n"), &format!("{path:?} without line {gone}"));
            }
        }
        assert!(files >= 3, "found {files} scenarios");
    }

    #[test]
    fn comments_inside_strings_survive() {
        let sc = Scenario::parse("name = \"a#b\"").expect("parses");
        assert_eq!(sc.name, "a#b");
    }
}
