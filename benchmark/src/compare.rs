//! `compare`: two sides, each one or more `results.json`, judged per
//! (metric × workload) by the benchmark's own bounds.
//!
//! A timing is *regressed* when the change's median is worse than the
//! base's by more than the bound, *improved* when it is better by more
//! than the bound and the two quartile ranges do not touch, and
//! *unresolved* when the ranges overlap by more than the bound: a spread wider than the bound cannot
//! tell "unchanged" from "regressed". Runs stamped noisy are left out of
//! every timing, and a side with no calm run resolves nothing. Exact
//! metrics (heap peak, counts, model outputs) get a tolerance and no
//! statistics.

use std::fmt;

use pilgrim_sim::Json;

use crate::metrics::{self, Def};
use crate::report::SCHEMA;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "UNRESOLVED",
        })
    }
}

/// How far an end-to-end metric may worsen between runs of one seed: a
/// share of the base's median, and for `setup_s` also an absolute floor,
/// because a 15 % move of a 100 µs set-up is below what the host's clock
/// and caches repeat. (`BENCHMARK.json` carries wider bounds for the
/// driver, which compares single runs at different seeds and has no
/// "unresolved" to fall back on.)
pub struct Bound {
    pub name: &'static str,
    pub share: f64,
    pub floor: f64,
}

pub const BOUNDS: &[Bound] = &[
    Bound {
        name: "setup_s",
        share: 0.15,
        floor: 0.002,
    },
    Bound {
        name: "unit_wall_ms",
        share: 0.10,
        floor: 0.0,
    },
    Bound {
        name: "heap_peak_mb",
        share: HEAP_TOLERANCE,
        floor: 0.0,
    },
];

const HEAP_TOLERANCE: f64 = 0.01;

/// One side of a timing comparison: the gated statistic of each run, and
/// the per-block statistics of all its runs pooled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timing {
    pub values: Vec<f64>,
    pub blocks: Vec<f64>,
}

impl Timing {
    fn range(&self) -> (f64, f64) {
        let pool = if self.blocks.len() >= 2 {
            &self.blocks
        } else {
            &self.values
        };
        stats::quartiles_exclusive(pool).unwrap_or_else(|| {
            let v = pool.first().copied().unwrap_or(0.0);
            (v, v)
        })
    }
}

/// The verdict for a lower-is-better timing. A move counts only when it
/// exceeds the bound (and the floor) in either direction: a smaller gain
/// is for the paired-run rule of the metrics guide to claim, not for two
/// piles of runs.
pub fn timing_verdict(base: &Timing, change: &Timing, bound: &Bound, noisy: bool) -> Verdict {
    let a = stats::median(&base.values);
    let b = stats::median(&change.values);
    if noisy || a <= 0.0 {
        return Verdict::Unresolved;
    }
    let matters = |delta: f64| delta > bound.share * a && delta > bound.floor;
    let (a_lo, a_hi) = base.range();
    let (b_lo, b_hi) = change.range();
    if matters(a_hi.min(b_hi) - a_lo.max(b_lo)) {
        Verdict::Unresolved
    } else if matters(b - a) {
        Verdict::Regressed
    } else if matters(a - b) && b_hi < a_lo {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The verdict for an exact metric: no statistics, a tolerance (0 for
/// counts), and the direction that counts as better.
pub fn exact_verdict(base: f64, change: f64, tolerance: f64, higher_is_better: bool) -> Verdict {
    let slack = base.abs() * tolerance;
    let (worse, better) = if higher_is_better {
        (change < base - slack, change > base + slack)
    } else {
        (change > base + slack, change < base - slack)
    };
    match (worse, better) {
        (true, _) => Verdict::Regressed,
        (_, true) => Verdict::Improved,
        _ => Verdict::Unchanged,
    }
}

/// A model output must not move at all under a performance-only change.
pub fn model_verdict(base: f64, change: f64) -> Verdict {
    if base == change {
        Verdict::Unchanged
    } else {
        Verdict::Regressed
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub change: f64,
    pub verdict: Verdict,
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").and_then(Json::as_array).unwrap_or(&[])
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    workloads(doc)
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn value(w: &Json, section: &str, name: &str) -> Option<f64> {
    w.get(section)?.get(name)?.get("value")?.as_f64()
}

fn timing(side: &[&Json], wname: &str, name: &str) -> Timing {
    let mut t = Timing::default();
    for w in side.iter().filter_map(|doc| workload(doc, wname)) {
        t.values.extend(value(w, "end_to_end", name));
        let blocks = w
            .get("end_to_end")
            .and_then(|e| e.get(name))
            .and_then(|m| m.get("blocks"))
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        t.blocks.extend(blocks.iter().filter_map(Json::as_f64));
    }
    t
}

fn flag(doc: &Json, key: &str) -> bool {
    doc.get(key).and_then(Json::as_bool) == Some(true)
}

/// The runs of a side whose host was calm.
fn calm(side: &[Json]) -> Vec<&Json> {
    side.iter().filter(|doc| !flag(doc, "noisy")).collect()
}

/// Checks that the documents are this benchmark's, of one mode and seed.
fn same_experiment(base: &[Json], change: &[Json]) -> Result<(), String> {
    let first = base.first().ok_or("no base results")?;
    if change.is_empty() {
        return Err("no results to compare against".into());
    }
    for doc in base.iter().chain(change) {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a `{SCHEMA}` results file"));
        }
        for key in ["seed", "mode"] {
            if doc.get(key) != first.get(key) {
                return Err(format!(
                    "the runs differ in `{key}`: {:?} and {:?}",
                    first.get(key),
                    doc.get(key)
                ));
            }
        }
    }
    Ok(())
}

/// Judges every (metric × workload) pairing present on both sides.
pub fn compare(base: &[Json], change: &[Json]) -> Result<Vec<Row>, String> {
    same_experiment(base, change)?;
    let (calm_base, calm_change) = (calm(base), calm(change));
    let noisy = calm_base.is_empty() || calm_change.is_empty();
    let (all_base, all_change): (Vec<&Json>, Vec<&Json>) =
        (base.iter().collect(), change.iter().collect());
    let both_traced = base.iter().chain(change).all(|doc| flag(doc, "traced"));
    let mut rows = Vec::new();
    for w in workloads(&base[0]) {
        let Some(wname) = w.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(other) = workload(&change[0], wname) else {
            continue;
        };
        let mut push = |metric: &str, base: f64, change: f64, verdict| {
            rows.push(Row {
                workload: wname.to_string(),
                metric: metric.to_string(),
                base,
                change,
                verdict,
            });
        };
        for bound in BOUNDS {
            let exact = metrics::is_exact(bound.name);
            let (a, b) = if exact || noisy {
                (&all_base, &all_change)
            } else {
                (&calm_base, &calm_change)
            };
            let a = timing(a, wname, bound.name);
            let b = timing(b, wname, bound.name);
            let (am, bm) = (stats::median(&a.values), stats::median(&b.values));
            let verdict = if exact {
                exact_verdict(am, bm, bound.share, false)
            } else {
                timing_verdict(&a, &b, bound, noisy)
            };
            push(bound.name, am, bm, verdict);
        }
        let share = |w: &Json| w.get("fail_share").and_then(Json::as_f64).unwrap_or(0.0);
        push(
            "fail_share",
            share(w),
            share(other),
            exact_verdict(share(w), share(other), 0.0, false),
        );
        if both_traced {
            for Def { name, better, .. } in metrics::PER_LAYER {
                if !metrics::is_exact(name) {
                    continue;
                }
                let (Some(a), Some(b)) =
                    (value(w, "per_layer", name), value(other, "per_layer", name))
                else {
                    continue;
                };
                // What the allocator saw repeats to a few calls in a
                // million (hash-map iteration order), not to the bit.
                let tolerance = if name.starts_with("alloc.") {
                    HEAP_TOLERANCE
                } else {
                    0.0
                };
                let verdict = if name.starts_with("model.") {
                    model_verdict(a, b)
                } else {
                    exact_verdict(a, b, tolerance, *better == "higher")
                };
                if verdict != Verdict::Unchanged {
                    push(name, a, b, verdict);
                }
            }
        }
    }
    Ok(rows)
}

/// Prints the rows and a tally; true when nothing regressed.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "change", "delta"
    );
    for r in rows {
        let delta = if r.base != 0.0 {
            format!("{:+.1}%", 100.0 * (r.change - r.base) / r.base)
        } else {
            "-".into()
        };
        println!(
            "{:<14} {:<34} {:>14.4} {:>14.4} {:>8}  {}",
            r.workload, r.metric, r.base, r.change, delta, r.verdict
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "\n{} improved, {} unchanged, {} regressed, {} unresolved \
         (exact per-layer metrics are listed only when they moved)",
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
    );
    count(Verdict::Regressed) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: &Bound = &BOUNDS[1];
    const SETUP: &Bound = &BOUNDS[0];

    fn t(values: &[f64], blocks: &[f64]) -> Timing {
        Timing {
            values: values.to_vec(),
            blocks: blocks.to_vec(),
        }
    }

    #[test]
    fn timing_verdicts_fire_on_synthetic_inputs() {
        let base = t(&[100.0], &[99.0, 100.0, 100.0, 101.0]);
        // Within the bound, ranges tight: unchanged.
        let same = t(&[103.0], &[102.0, 103.0, 103.0, 104.0]);
        assert_eq!(
            timing_verdict(&base, &same, WALL, false),
            Verdict::Unchanged
        );
        // 20 % slower, ranges apart: regressed.
        let slow = t(&[120.0], &[119.0, 120.0, 120.0, 121.0]);
        assert_eq!(
            timing_verdict(&base, &slow, WALL, false),
            Verdict::Regressed
        );
        // 20 % faster, ranges apart: improved.
        let fast = t(&[80.0], &[79.0, 80.0, 80.0, 81.0]);
        assert_eq!(timing_verdict(&base, &fast, WALL, false), Verdict::Improved);
        // 5 % faster with the ranges apart is still under the bound: the
        // host drifts that far between two piles of runs of one commit.
        let bit = t(&[95.0], &[94.5, 95.0, 95.0, 95.5]);
        assert_eq!(timing_verdict(&base, &bit, WALL, false), Verdict::Unchanged);
        // Both sides spread over 40 % and overlapping: cannot tell.
        let wide_a = t(&[100.0], &[80.0, 95.0, 105.0, 120.0]);
        let wide_b = t(&[104.0], &[84.0, 99.0, 109.0, 124.0]);
        assert_eq!(
            timing_verdict(&wide_a, &wide_b, WALL, false),
            Verdict::Unresolved
        );
        // A noisy host resolves nothing, however clear the numbers look.
        assert_eq!(
            timing_verdict(&base, &slow, WALL, true),
            Verdict::Unresolved
        );
    }

    #[test]
    fn setup_needs_both_the_share_and_the_floor() {
        // +50 % of 200 µs is 100 µs: under the 2 ms floor.
        let base = t(&[0.000_200], &[0.000_199, 0.000_200, 0.000_201]);
        let slow = t(&[0.000_300], &[0.000_299, 0.000_300, 0.000_301]);
        assert_eq!(
            timing_verdict(&base, &slow, SETUP, false),
            Verdict::Unchanged
        );
        // +50 % of 10 ms is 5 ms: over both.
        let base = t(&[0.010], &[0.0099, 0.010, 0.0101]);
        let slow = t(&[0.015], &[0.0149, 0.015, 0.0151]);
        assert_eq!(
            timing_verdict(&base, &slow, SETUP, false),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_verdicts_use_tolerance_and_direction() {
        assert_eq!(exact_verdict(100.0, 100.9, 0.01, false), Verdict::Unchanged);
        assert_eq!(exact_verdict(100.0, 101.1, 0.01, false), Verdict::Regressed);
        assert_eq!(exact_verdict(100.0, 98.0, 0.01, false), Verdict::Improved);
        assert_eq!(
            exact_verdict(32_000.0, 31_999.0, 0.0, true),
            Verdict::Regressed
        );
        assert_eq!(exact_verdict(0.0, 0.0, 0.0, false), Verdict::Unchanged);
        assert_eq!(exact_verdict(0.0, 0.1, 0.0, false), Verdict::Regressed);
        assert_eq!(model_verdict(16_440.0, 16_440.0), Verdict::Unchanged);
        assert_eq!(model_verdict(16_440.0, 16_439.0), Verdict::Regressed);
    }

    /// A one-workload results document with the given wall-time blocks.
    fn doc(wall_blocks: &[f64], heap: f64, completed: f64, noisy: bool) -> Json {
        let m = |v: f64, unit: &str| {
            Json::obj(vec![
                ("value", Json::Float(v)),
                ("unit", Json::Str(unit.into())),
            ])
        };
        let mut wall = m(stats::median(wall_blocks), "ms");
        if let Json::Object(fields) = &mut wall {
            fields.push((
                "blocks".into(),
                Json::Array(wall_blocks.iter().map(|v| Json::Float(*v)).collect()),
            ));
        }
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.into())),
            ("mode", Json::Str("full".into())),
            ("seed", Json::Int(1987)),
            ("traced", Json::Bool(true)),
            ("noisy", Json::Bool(noisy)),
            (
                "workloads",
                Json::Array(vec![Json::obj(vec![
                    ("name", Json::Str("rpc-storm".into())),
                    ("fail_share", Json::Float(0.0)),
                    (
                        "end_to_end",
                        Json::obj(vec![
                            ("setup_s", m(0.0001, "s")),
                            ("unit_wall_ms", wall),
                            ("heap_peak_mb", m(heap, "MB")),
                        ]),
                    ),
                    (
                        "per_layer",
                        Json::obj(vec![
                            ("rpc.completed", m(completed, "count")),
                            ("model.null_rpc_us", m(16_440.0, "us")),
                            ("core.world.us_per_rpc", m(3.6, "us")),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    fn verdict(rows: &[Row], metric: &str) -> Option<Verdict> {
        rows.iter().find(|r| r.metric == metric).map(|r| r.verdict)
    }

    #[test]
    fn documents_compare_per_metric_and_workload() {
        let base = [
            doc(&[99.0, 100.0, 100.0, 101.0], 15.0, 32_000.0, false),
            doc(&[99.5, 100.0, 100.5, 101.0], 15.0, 32_000.0, false),
        ];
        let rows = compare(&base, &base).expect("compares");
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Unchanged),
            "{rows:?}"
        );
        assert_eq!(rows.len(), 4, "three end-to-end metrics and fail_share");

        let change = [doc(&[119.0, 120.0, 120.0, 121.0], 15.5, 31_990.0, false)];
        let rows = compare(&base, &change).expect("compares");
        assert_eq!(verdict(&rows, "unit_wall_ms"), Some(Verdict::Regressed));
        assert_eq!(verdict(&rows, "heap_peak_mb"), Some(Verdict::Regressed));
        assert_eq!(verdict(&rows, "setup_s"), Some(Verdict::Unchanged));
        assert_eq!(verdict(&rows, "rpc.completed"), Some(Verdict::Regressed));
        assert_eq!(verdict(&rows, "model.null_rpc_us"), None, "did not move");
        assert_eq!(verdict(&rows, "core.world.us_per_rpc"), None, "not exact");

        // A side with no calm run resolves no timing; exact metrics do not
        // care what the host was doing.
        let noisy = doc(&[119.0, 120.0, 120.0, 121.0], 15.0, 32_000.0, true);
        let rows = compare(&base, std::slice::from_ref(&noisy)).expect("compares");
        assert_eq!(verdict(&rows, "unit_wall_ms"), Some(Verdict::Unresolved));
        assert_eq!(verdict(&rows, "heap_peak_mb"), Some(Verdict::Unchanged));
        // Beside a calm run, the noisy one is left out.
        let mixed = [noisy, base[0].clone()];
        let rows = compare(&base, &mixed).expect("compares");
        assert_eq!(verdict(&rows, "unit_wall_ms"), Some(Verdict::Unchanged));
    }

    #[test]
    fn runs_of_different_seeds_do_not_compare() {
        let a = doc(&[1.0, 1.0], 1.0, 1.0, false);
        let mut b = a.clone();
        if let Json::Object(fields) = &mut b {
            fields[2].1 = Json::Int(7);
        }
        let err = compare(std::slice::from_ref(&a), &[b]).expect_err("seeds differ");
        assert!(err.contains("`seed`"), "{err}");
        assert!(compare(&[a], &[]).is_err());
    }
}
