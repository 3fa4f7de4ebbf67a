//! What a run leaves behind: the table on standard output, `results.json`
//! and `trace.jsonl` in the output directory, and the one-line result the
//! driver reads. Every JSON document goes through `pilgrim_sim::json`.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use pilgrim_sim::Json;

use crate::bench::{self, Block, Outcome, Run, Values};
use crate::golden;
use crate::metrics::{self, Def};
use crate::span::{self, Span};
use crate::stats;

pub const SCHEMA: &str = "pilgrim-benchmark/1";

fn lookup(values: &Values, name: &str) -> f64 {
    values
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0.0, |(_, v)| *v)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Float(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// `{name: {"value": v, "unit": u}}` for every definition, 0 where the
/// run has no value.
fn metrics_object(defs: &[Def], values: &Values) -> Json {
    Json::Object(
        defs.iter()
            .map(|d| (d.name.to_string(), metric(lookup(values, d.name), d.unit)))
            .collect(),
    )
}

fn floats(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|v| Json::Float(*v)).collect())
}

fn mode(outcome: &Outcome) -> &'static str {
    if outcome.options.quick {
        "quick"
    } else if outcome.options.seconds.is_some() {
        "seconds"
    } else {
        "full"
    }
}

/// `results.json`: what `compare` reads.
pub fn results_json(outcome: &Outcome) -> Json {
    let workloads = outcome
        .runs
        .iter()
        .map(|run| {
            // A timing carries its per-block lower quartiles: what
            // `compare` takes the spread from.
            let blocks = |name: &str| -> Option<Vec<f64>> {
                let of = |pick: fn(&Block) -> &Vec<f64>| {
                    run.blocks.iter().map(|b| stats::p25(pick(b))).collect()
                };
                match name {
                    "setup_s" => Some(of(|b| &b.setup_s)),
                    "unit_wall_ms" => Some(of(|b| &b.wall_ms)),
                    _ => None,
                }
            };
            let e2e = bench::end_to_end(run);
            let end_to_end = Json::Object(
                metrics::END_TO_END
                    .iter()
                    .map(|d| {
                        let mut fields = vec![
                            ("value", Json::Float(lookup(&e2e, d.name))),
                            ("unit", Json::Str(d.unit.to_string())),
                        ];
                        if let Some(blocks) = blocks(d.name) {
                            fields.push(("blocks", floats(&blocks)));
                        }
                        (d.name.to_string(), Json::obj(fields))
                    })
                    .collect(),
            );
            Json::obj(vec![
                ("name", Json::Str(run.workload.name().to_string())),
                ("why", Json::Str(run.workload.why().to_string())),
                ("attempted", Json::Int(run.attempted as i128)),
                ("failed", Json::Int(run.failed as i128)),
                (
                    "fail_share",
                    Json::Float(run.failed as f64 / run.attempted.max(1) as f64),
                ),
                (
                    "failures",
                    Json::Array(run.failures.iter().cloned().map(Json::Str).collect()),
                ),
                ("digest", Json::Str(run.warm.digest.clone())),
                ("end_to_end", end_to_end),
                (
                    "per_layer",
                    metrics_object(metrics::PER_LAYER, &bench::per_layer(outcome, run)),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str(SCHEMA.to_string())),
        ("mode", Json::Str(mode(outcome).to_string())),
        ("seed", Json::Int(outcome.options.seed as i128)),
        ("nproc", Json::Int(outcome.nproc as i128)),
        ("traced", Json::Bool(outcome.options.trace)),
        ("noisy", Json::Bool(outcome.sentinel.noisy())),
        ("host_calib_ms", Json::Float(outcome.sentinel.calib_ms())),
        (
            "host_noise_ratio",
            Json::Float(outcome.sentinel.noise_ratio()),
        ),
        ("workloads", Json::Array(workloads)),
    ])
}

/// One span as a `trace.jsonl` line. `id` is the line's own index and
/// `parent` the index of the enclosing span's line.
pub fn span_json(id: usize, s: &Span) -> Json {
    Json::obj(vec![
        ("id", Json::Int(id as i128)),
        (
            "parent",
            s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
        ),
        ("workload", Json::Str(s.workload.to_string())),
        ("unit", Json::Int(s.unit as i128)),
        ("name", Json::Str(s.name.to_string())),
        ("start_ns", Json::Int(s.start_ns as i128)),
        ("end_ns", Json::Int(s.end_ns as i128)),
        ("calls", Json::Int(s.calls as i128)),
    ])
}

pub fn trace_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        span_json(id, s).write(&mut out);
        out.push('\n');
    }
    out
}

/// The line the driver reads: the end-to-end metrics of an untraced run,
/// the per-layer metrics of a traced one.
pub fn driver_line(outcome: &Outcome) -> String {
    let attempted: u64 = outcome.runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = outcome.runs.iter().map(|r| r.failed).sum();
    // One workload per driver run; with several, the first one's metrics.
    let metrics = outcome
        .runs
        .first()
        .map_or(Json::Object(Vec::new()), |run| {
            if outcome.options.trace {
                metrics_object(metrics::PER_LAYER, &bench::per_layer(outcome, run))
            } else {
                metrics_object(metrics::END_TO_END, &bench::end_to_end(run))
            }
        });
    let mut line = String::new();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(attempted.max(1) as i128)),
        ("failed", Json::Int(failed as i128)),
        ("metrics", metrics),
    ])
    .write(&mut line);
    line
}

pub fn write_files(outcome: &Outcome, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut results = String::new();
    results_json(outcome).write(&mut results);
    results.push('\n');
    fs::write(dir.join("results.json"), results)?;
    fs::write(dir.join("trace.jsonl"), trace_jsonl(&outcome.spans))
}

/// Share of the traced units' time each span name kept for itself, most
/// first: where a workload's host time goes.
pub fn self_time_shares(spans: &[Span], workload: &str) -> Vec<(&'static str, f64)> {
    let selfs = span::self_times(spans);
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = 0u64;
    for (s, own) in spans.iter().zip(&selfs) {
        if s.workload == workload {
            *by_name.entry(s.name).or_default() += own;
            if s.parent.is_none() {
                total += s.dur_ns();
            }
        }
    }
    let mut shares: Vec<(&'static str, f64)> = by_name
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / total.max(1) as f64))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

fn print_run(outcome: &Outcome, run: &Run) {
    println!(
        "\n## {}  ({} attempted, {} failed)",
        run.workload.name(),
        run.attempted,
        run.failed
    );
    for why in &run.failures {
        println!("  FAILED  {why}");
    }
    for why in golden::mismatches(outcome.options.seed, &run.warm.model) {
        println!("  GOLDEN  {why}");
    }
    if outcome.options.quick {
        println!("  digest  {}", run.warm.digest);
        return;
    }
    let show = |defs: &[Def], values: &Values| {
        for d in defs {
            let v = lookup(values, d.name);
            if v != 0.0 {
                println!("  {:<38} {:>16.4} {}", d.name, v, d.unit);
            }
        }
    };
    show(metrics::END_TO_END, &bench::end_to_end(run));
    let wall = run.wall_samples();
    println!(
        "  {:<38} {:>16} (p25 of {} units; p50 {:.3} ms{})",
        "",
        "",
        wall.len(),
        stats::median(&wall),
        stats::tail(&wall).map_or(String::new(), |(pct, v)| format!("; p{pct:.0} {v:.3} ms")),
    );
    if outcome.options.trace {
        show(metrics::PER_LAYER, &bench::per_layer(outcome, run));
        let shares: Vec<String> = self_time_shares(&outcome.spans, run.workload.name())
            .iter()
            .filter(|(_, share)| *share >= 0.001)
            .map(|(name, share)| format!("{name} {:.1}%", share * 100.0))
            .collect();
        println!("  self time: {}", shares.join(", "));
    }
}

pub fn print(outcome: &Outcome) {
    println!(
        "# pilgrim-benchmark: mode {}, seed {}, nproc {}",
        mode(outcome),
        outcome.options.seed,
        outcome.nproc
    );
    for run in &outcome.runs {
        print_run(outcome, run);
    }
    if outcome.sentinel.samples() > 1 {
        println!(
            "\nhost: calibration kernel {:.3} ms, p75/p25 {:.3} over {} samples{}",
            outcome.sentinel.calib_ms(),
            outcome.sentinel.noise_ratio(),
            outcome.sentinel.samples(),
            if outcome.sentinel.noisy() {
                "  ** NOISY: a slow reading may be the host, not the commit **"
            } else {
                ""
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Options;
    use crate::calib::Sentinel;
    use crate::workloads::{Unit, Workload};

    fn outcome() -> Outcome {
        let run = Run {
            workload: Workload::Compute,
            attempted: 9,
            failed: 0,
            failures: vec!["a \"quoted\"\nfailure".into()],
            warm: Unit::default(),
            blocks: vec![
                Block {
                    setup_s: vec![0.001, 0.002],
                    wall_ms: vec![100.0, 110.0],
                    raw_wall_ms: vec![120.0, 121.0],
                },
                Block {
                    setup_s: vec![0.003],
                    wall_ms: vec![90.0],
                    raw_wall_ms: vec![99.0],
                },
            ],
            traced_wall_ms: vec![120.0],
            probes: vec![("cclu.vm.ns_per_instr", 12.5)],
        };
        let spans = vec![
            Span {
                workload: "compute",
                unit: 0,
                name: "unit",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                calls: 1,
            },
            Span {
                workload: "compute",
                unit: 0,
                name: "run",
                start_ns: 10,
                end_ns: 100,
                parent: Some(0),
                calls: 3,
            },
        ];
        Outcome {
            options: Options {
                seed: 7,
                out: "out".into(),
                workloads: vec![Workload::Compute],
                seconds: None,
                trace: true,
                quick: false,
            },
            runs: vec![run],
            sentinel: Sentinel::new(),
            spans,
            nproc: 2,
        }
    }

    #[test]
    fn results_json_round_trips_through_the_repository_parser() {
        let outcome = outcome();
        let mut text = String::new();
        results_json(&outcome).write(&mut text);
        let doc = Json::parse(&text).expect("results.json parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let w = &doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("array")[0];
        assert_eq!(w.get("name").and_then(Json::as_str), Some("compute"));
        assert_eq!(
            w.get("failures").and_then(Json::as_array).expect("array")[0].as_str(),
            Some("a \"quoted\"\nfailure")
        );
        let wall = w
            .get("end_to_end")
            .and_then(|e| e.get("unit_wall_ms"))
            .expect("unit_wall_ms");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(95.0));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("ms"));
        let blocks = wall.get("blocks").and_then(Json::as_array).expect("blocks");
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[1].as_f64(), Some(90.0));
        // Every defined per-layer metric is present; unexercised ones read 0.
        let layers = w
            .get("per_layer")
            .and_then(Json::as_object)
            .expect("object");
        assert_eq!(layers.len(), metrics::PER_LAYER.len());
        let get = |name: &str| {
            layers
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(get("cclu.vm.ns_per_instr"), Some(12.5));
        assert_eq!(get("core.debug.break_us"), Some(0.0));
        assert_eq!(get("run.span_coverage_pct"), Some(90.0));
    }

    #[test]
    fn trace_jsonl_lines_round_trip() {
        let outcome = outcome();
        let text = trace_jsonl(&outcome.spans);
        let lines: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("line parses"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(lines[1].get("name").and_then(Json::as_str), Some("run"));
        assert_eq!(lines[1].get("calls").and_then(Json::as_u64), Some(3));
        assert_eq!(lines[1].get("end_ns").and_then(Json::as_u64), Some(100));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut outcome = outcome();
        for (trace, defs) in [(true, metrics::PER_LAYER), (false, metrics::END_TO_END)] {
            outcome.options.trace = trace;
            let doc = Json::parse(&driver_line(&outcome)).expect("parses");
            let keys: Vec<&str> = doc
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(9));
            let names: Vec<&str> = doc
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let defined: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, defined);
        }
    }

    #[test]
    fn self_time_shares_sum_to_the_units() {
        let shares = self_time_shares(&outcome().spans, "compute");
        assert_eq!(shares, vec![("run", 0.9), ("unit", 0.1)]);
        assert!(self_time_shares(&outcome().spans, "observe").is_empty());
    }
}
