//! Windowed time-series over the metrics registry.
//!
//! A [`SeriesStore`] is sampled at lockstep sync points (the world calls
//! [`SeriesStore::on_sync`] from the pump tail, the one place serial and
//! parallel runs agree on by construction). Every `interval` sync points
//! it snapshots each registered instrument into a bounded ring:
//! counters as deltas against the previous sample, gauges as values,
//! histograms as per-window `(count, sum, bucket)` deltas. All math is
//! integer-only and the rings hold only what was sampled, so rendering a
//! query is byte-identical across serial runs, parallel runs, and
//! replays — the determinism gate in `tests/tsdb_gate.rs` holds the
//! store to that.
//!
//! # Examples
//!
//! ```
//! use pilgrim_sim::{Metrics, SeriesStore, SimTime};
//! let m = Metrics::new();
//! let c = m.counter("net.sent");
//! let mut store = SeriesStore::new(1, 16);
//! c.add(3);
//! store.on_sync(SimTime::from_micros(100), &m);
//! c.add(5);
//! store.on_sync(SimTime::from_micros(200), &m);
//! let out = store.render("net.sent", 1);
//! assert!(out.contains("delta 5"));
//! ```

use std::collections::VecDeque;

use crate::metrics::{bucket_quantile, render_bucket_bound, Metrics};
use crate::time::SimTime;

/// One counter's ring of per-sample deltas.
#[derive(Debug)]
struct CounterSeries {
    name: String,
    /// Cumulative value at the previous sample (delta base).
    last: u64,
    deltas: VecDeque<u64>,
}

/// One gauge's ring of sampled values.
#[derive(Debug)]
struct GaugeSeries {
    name: String,
    values: VecDeque<i64>,
}

/// A histogram's activity between two consecutive samples.
#[derive(Debug, Clone)]
struct HistWindow {
    count: u64,
    sum: u64,
    /// Per-bucket observation deltas, finite buckets then overflow.
    buckets: Vec<u64>,
}

/// One histogram's ring of per-sample windows.
#[derive(Debug)]
struct HistSeries {
    name: String,
    /// Inclusive upper bounds of the finite buckets (fixed for life).
    bounds: Vec<u64>,
    last_counts: Vec<u64>,
    last_count: u64,
    last_sum: u64,
    windows: VecDeque<HistWindow>,
}

/// A bounded, delta-encoded store of metric samples over simulated time.
///
/// Series are discovered from the registry at each sample and identified
/// by name. They are *addressed* by registration index — the registry is
/// append-only, so the instrument at position `k` owns the series at
/// position `k` — and a single name compare verifies the position before
/// it is trusted (a mismatch falls back to a search by name). A series
/// registered after sampling began simply has a shorter ring; rings are
/// tail-aligned to the shared sample-time ring.
#[derive(Debug)]
pub struct SeriesStore {
    /// Sync points per sample; 1 = sample every sync point.
    interval: u64,
    /// Samples retained per series.
    budget: usize,
    /// Sync points observed so far.
    ticks: u64,
    /// Total samples taken (retained or evicted).
    taken: u64,
    /// Sample times (µs), oldest first.
    times: VecDeque<u64>,
    /// Time (µs) of the most recently evicted sample — the left edge of
    /// the oldest retained window.
    evicted_before: u64,
    counters: Vec<CounterSeries>,
    gauges: Vec<GaugeSeries>,
    hists: Vec<HistSeries>,
}

impl SeriesStore {
    /// A store sampling every `interval` sync points, retaining `budget`
    /// samples per series. `interval` is clamped to at least 1.
    pub fn new(interval: u64, budget: usize) -> SeriesStore {
        SeriesStore {
            interval: interval.max(1),
            budget: budget.max(1),
            ticks: 0,
            taken: 0,
            times: VecDeque::new(),
            evicted_before: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Sync points per sample.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Samples retained per series.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of currently retained samples.
    pub fn samples(&self) -> usize {
        self.times.len()
    }

    /// Total samples ever taken, including evicted ones.
    pub fn samples_taken(&self) -> u64 {
        self.taken
    }

    /// Called once per lockstep sync point; takes a sample every
    /// `interval` calls.
    pub fn on_sync(&mut self, now: SimTime, metrics: &Metrics) {
        self.ticks += 1;
        if !self.ticks.is_multiple_of(self.interval) {
            return;
        }
        self.sample(now, metrics);
    }

    /// Takes a sample unconditionally.
    pub fn sample(&mut self, now: SimTime, metrics: &Metrics) {
        self.taken += 1;
        if self.times.len() == self.budget {
            if let Some(t) = self.times.pop_front() {
                self.evicted_before = t;
            }
        }
        self.times.push_back(now.as_micros());
        let retained = self.times.len();

        let mut k = 0;
        metrics.for_each_counter(|name, c| {
            let i = locate(&self.counters, k, name, |s| &s.name).unwrap_or_else(|| {
                self.counters.push(CounterSeries {
                    name: name.to_string(),
                    last: 0,
                    deltas: VecDeque::new(),
                });
                self.counters.len() - 1
            });
            k += 1;
            let s = &mut self.counters[i];
            let cur = c.get();
            s.deltas.push_back(cur.wrapping_sub(s.last));
            s.last = cur;
            while s.deltas.len() > retained {
                s.deltas.pop_front();
            }
        });
        let mut k = 0;
        metrics.for_each_gauge(|name, g| {
            let i = locate(&self.gauges, k, name, |s| &s.name).unwrap_or_else(|| {
                self.gauges.push(GaugeSeries {
                    name: name.to_string(),
                    values: VecDeque::new(),
                });
                self.gauges.len() - 1
            });
            k += 1;
            let s = &mut self.gauges[i];
            s.values.push_back(g.get());
            while s.values.len() > retained {
                s.values.pop_front();
            }
        });
        let mut k = 0;
        metrics.for_each_histogram(|name, h| {
            let i = locate(&self.hists, k, name, |s| &s.name).unwrap_or_else(|| {
                let bounds: Vec<u64> = h.bounds().iter().copied().chain([u64::MAX]).collect();
                self.hists.push(HistSeries {
                    name: name.to_string(),
                    last_counts: vec![0; bounds.len()],
                    bounds,
                    last_count: 0,
                    last_sum: 0,
                    windows: VecDeque::new(),
                });
                self.hists.len() - 1
            });
            k += 1;
            let s = &mut self.hists[i];
            // Deltas come straight from the live counts; the window's own
            // bucket vector is the only allocation.
            let buckets = h.with_counts(|counts| {
                let deltas = counts
                    .iter()
                    .zip(s.last_counts.iter())
                    .map(|(&n, &prev)| n.wrapping_sub(prev))
                    .collect();
                s.last_counts.clear();
                s.last_counts.extend_from_slice(counts);
                deltas
            });
            let count = h.count();
            let sum = h.sum();
            s.windows.push_back(HistWindow {
                count: count.wrapping_sub(s.last_count),
                sum: sum.wrapping_sub(s.last_sum),
                buckets,
            });
            s.last_count = count;
            s.last_sum = sum;
            while s.windows.len() > retained {
                s.windows.pop_front();
            }
        });
    }

    /// The left time edge (µs) of the sample at retained index `idx` for
    /// a series whose ring holds `len` samples.
    fn window_start(&self, len: usize, idx: usize) -> u64 {
        // The series' samples are the last `len` entries of `times`.
        let offset = self.times.len() - len;
        if offset + idx == 0 {
            self.evicted_before
        } else {
            self.times[offset + idx - 1]
        }
    }

    fn window_end(&self, len: usize, idx: usize) -> u64 {
        self.times[self.times.len() - len + idx]
    }

    /// Renders the series named `metric`, aggregating `window` samples
    /// per row (oldest first). Unknown metrics render a one-line notice
    /// rather than erroring, so REPL typos stay cheap.
    pub fn render(&self, metric: &str, window: usize) -> String {
        let window = window.max(1);
        if let Some(s) = self.counters.iter().find(|s| s.name == metric) {
            return self.render_counter(s, window);
        }
        if let Some(s) = self.gauges.iter().find(|s| s.name == metric) {
            return self.render_gauge(s, window);
        }
        if let Some(s) = self.hists.iter().find(|s| s.name == metric) {
            return self.render_hist(s, window);
        }
        format!("tsdb: no series named {metric}\n")
    }

    fn render_counter(&self, s: &CounterSeries, window: usize) -> String {
        let len = s.deltas.len();
        let mut out = format!(
            "tsdb counter {}: {} samples (interval {} sync points)\n",
            s.name, len, self.interval
        );
        let mut idx = 0;
        while idx < len {
            let hi = (idx + window).min(len);
            let delta: u64 = s.deltas.range(idx..hi).sum();
            let start = self.window_start(len, idx);
            let end = self.window_end(len, hi - 1);
            let dur = end.saturating_sub(start);
            let rate = delta
                .saturating_mul(1_000_000)
                .checked_div(dur)
                .unwrap_or(0);
            out.push_str(&format!("[{start}..{end}us] delta {delta} rate {rate}/s\n"));
            idx = hi;
        }
        out
    }

    fn render_gauge(&self, s: &GaugeSeries, window: usize) -> String {
        let len = s.values.len();
        let mut out = format!(
            "tsdb gauge {}: {} samples (interval {} sync points)\n",
            s.name, len, self.interval
        );
        let mut idx = 0;
        while idx < len {
            let hi = (idx + window).min(len);
            let vals = s.values.range(idx..hi);
            let mut min = i64::MAX;
            let mut max = i64::MIN;
            let mut sum = 0i128;
            let mut n = 0i128;
            for &v in vals {
                min = min.min(v);
                max = max.max(v);
                sum += v as i128;
                n += 1;
            }
            let mean = (sum / n) as i64;
            let start = self.window_start(len, idx);
            let end = self.window_end(len, hi - 1);
            out.push_str(&format!(
                "[{start}..{end}us] min {min} mean {mean} max {max}\n"
            ));
            idx = hi;
        }
        out
    }

    fn render_hist(&self, s: &HistSeries, window: usize) -> String {
        let len = s.windows.len();
        let mut out = format!(
            "tsdb histogram {}: {} samples (interval {} sync points)\n",
            s.name, len, self.interval
        );
        let mut idx = 0;
        while idx < len {
            let hi = (idx + window).min(len);
            let mut count = 0u64;
            let mut sum = 0u64;
            let mut buckets: Vec<u64> = vec![0; s.bounds.len()];
            for w in s.windows.range(idx..hi) {
                count += w.count;
                sum += w.sum;
                for (acc, &d) in buckets.iter_mut().zip(w.buckets.iter()) {
                    *acc += d;
                }
            }
            let pairs: Vec<(u64, u64)> = s
                .bounds
                .iter()
                .copied()
                .zip(buckets.iter().copied())
                .collect();
            let mean = sum.checked_div(count).unwrap_or(0);
            let p50 = render_bucket_bound(bucket_quantile(&pairs, 0.5));
            let p90 = render_bucket_bound(bucket_quantile(&pairs, 0.9));
            let p99 = render_bucket_bound(bucket_quantile(&pairs, 0.99));
            let start = self.window_start(len, idx);
            let end = self.window_end(len, hi - 1);
            out.push_str(&format!(
                "[{start}..{end}us] count {count} mean {mean} p50 {p50} p90 {p90} p99 {p99}\n"
            ));
            idx = hi;
        }
        out
    }

    /// One line per series: totals over the retained window. The world's
    /// `observability_report()` embeds this.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "tsdb: {} samples retained ({} taken), interval {} sync points, budget {}\n",
            self.times.len(),
            self.taken,
            self.interval,
            self.budget
        );
        for s in &self.counters {
            let total: u64 = s.deltas.iter().sum();
            out.push_str(&format!(
                "tsdb counter {}: {} samples, windowed total {total}\n",
                s.name,
                s.deltas.len()
            ));
        }
        for s in &self.gauges {
            if let (Some(&first), Some(&last)) = (s.values.front(), s.values.back()) {
                out.push_str(&format!(
                    "tsdb gauge {}: {} samples, first {first} last {last}\n",
                    s.name,
                    s.values.len()
                ));
            }
        }
        for s in &self.hists {
            let total: u64 = s.windows.iter().map(|w| w.count).sum();
            out.push_str(&format!(
                "tsdb histogram {}: {} samples, windowed count {total}\n",
                s.name,
                s.windows.len()
            ));
        }
        out
    }

    /// Renders every tracked series in [`series_names`] order — the
    /// whole store as one string, for self-describing artifacts like
    /// the blackbox snapshot.
    ///
    /// [`series_names`]: SeriesStore::series_names
    pub fn render_all(&self, window: usize) -> String {
        let mut out = String::new();
        for name in self.series_names() {
            out.push_str(&self.render(&name, window));
        }
        out
    }

    /// The windowed rows of a counter series as data: `(start_us,
    /// end_us, delta)` per row, aggregating `window` samples per row
    /// exactly as [`render`](SeriesStore::render) does. Empty when the
    /// metric is unknown or not a counter.
    pub fn counter_windows(&self, metric: &str, window: usize) -> Vec<(u64, u64, u64)> {
        let window = window.max(1);
        let Some(s) = self.counters.iter().find(|s| s.name == metric) else {
            return Vec::new();
        };
        let len = s.deltas.len();
        let mut rows = Vec::new();
        let mut idx = 0;
        while idx < len {
            let hi = (idx + window).min(len);
            let delta: u64 = s.deltas.range(idx..hi).sum();
            rows.push((
                self.window_start(len, idx),
                self.window_end(len, hi - 1),
                delta,
            ));
            idx = hi;
        }
        rows
    }

    /// The windowed rows of a histogram series as data: `(start_us,
    /// end_us, count, p99)` per row, where `p99` is the 99th-percentile
    /// bucket bound (`Some(u64::MAX)` = overflow, `None` = no
    /// observations in the window). Empty when the metric is unknown or
    /// not a histogram.
    pub fn hist_windows(&self, metric: &str, window: usize) -> Vec<(u64, u64, u64, Option<u64>)> {
        let window = window.max(1);
        let Some(s) = self.hists.iter().find(|s| s.name == metric) else {
            return Vec::new();
        };
        let len = s.windows.len();
        let mut rows = Vec::new();
        let mut idx = 0;
        while idx < len {
            let hi = (idx + window).min(len);
            let mut count = 0u64;
            let mut buckets: Vec<u64> = vec![0; s.bounds.len()];
            for w in s.windows.range(idx..hi) {
                count += w.count;
                for (acc, &d) in buckets.iter_mut().zip(w.buckets.iter()) {
                    *acc += d;
                }
            }
            let pairs: Vec<(u64, u64)> = s
                .bounds
                .iter()
                .copied()
                .zip(buckets.iter().copied())
                .collect();
            rows.push((
                self.window_start(len, idx),
                self.window_end(len, hi - 1),
                count,
                bucket_quantile(&pairs, 0.99),
            ));
            idx = hi;
        }
        rows
    }

    /// Names of every series currently tracked, counters first, then
    /// gauges, then histograms, each group in registration order.
    pub fn series_names(&self) -> Vec<String> {
        self.counters
            .iter()
            .map(|s| s.name.clone())
            .chain(self.gauges.iter().map(|s| s.name.clone()))
            .chain(self.hists.iter().map(|s| s.name.clone()))
            .collect()
    }
}

/// Index of the series named `name` among `series`. The registry is
/// append-only and visited in registration order, so the series sits at
/// the instrument's own position `k` unless this store is being fed from
/// a registry other than the one it grew up with; one name compare tells,
/// and the by-name search is the fallback. Identity stays the name.
fn locate<S>(series: &[S], k: usize, name: &str, name_of: impl Fn(&S) -> &str) -> Option<usize> {
    match series.get(k) {
        Some(s) if name_of(s) == name => Some(k),
        _ => series.iter().position(|s| name_of(s) == name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn counter_deltas_and_rates() {
        let m = Metrics::new();
        let c = m.counter("hits");
        let mut s = SeriesStore::new(1, 8);
        c.add(10);
        s.on_sync(at(1_000), &m);
        c.add(4);
        s.on_sync(at(2_000), &m);
        s.on_sync(at(3_000), &m); // idle window
        let out = s.render("hits", 1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "tsdb counter hits: 3 samples (interval 1 sync points)"
        );
        // First window's left edge is t=0 (nothing evicted yet).
        assert_eq!(lines[1], "[0..1000us] delta 10 rate 10000/s");
        assert_eq!(lines[2], "[1000..2000us] delta 4 rate 4000/s");
        assert_eq!(lines[3], "[2000..3000us] delta 0 rate 0/s");
    }

    #[test]
    fn window_aggregation_sums_deltas() {
        let m = Metrics::new();
        let c = m.counter("hits");
        let mut s = SeriesStore::new(1, 8);
        for i in 1..=4u64 {
            c.add(i);
            s.on_sync(at(i * 100), &m);
        }
        let out = s.render("hits", 2);
        assert!(out.contains("[0..200us] delta 3 rate 15000/s"), "{out}");
        assert!(out.contains("[200..400us] delta 7 rate 35000/s"), "{out}");
        // A window wider than the ring aggregates everything.
        let whole = s.render("hits", 100);
        assert!(whole.contains("delta 10"), "{whole}");
    }

    #[test]
    fn budget_evicts_oldest_and_keeps_time_edges() {
        let m = Metrics::new();
        let c = m.counter("hits");
        let mut s = SeriesStore::new(1, 2);
        for i in 1..=3u64 {
            c.inc();
            s.on_sync(at(i * 10), &m);
        }
        assert_eq!(s.samples(), 2);
        assert_eq!(s.samples_taken(), 3);
        let out = s.render("hits", 1);
        // Oldest retained window starts at the evicted sample's time.
        assert!(out.contains("[10..20us] delta 1"), "{out}");
        assert!(out.contains("[20..30us] delta 1"), "{out}");
    }

    #[test]
    fn interval_skips_sync_points() {
        let m = Metrics::new();
        let c = m.counter("hits");
        let mut s = SeriesStore::new(4, 8);
        for i in 1..=8u64 {
            c.inc();
            s.on_sync(at(i * 100), &m);
        }
        assert_eq!(s.samples(), 2, "8 sync points / interval 4");
        let out = s.render("hits", 1);
        assert!(out.contains("delta 4"), "{out}");
    }

    #[test]
    fn gauge_min_mean_max() {
        let m = Metrics::new();
        let g = m.gauge("depth");
        let mut s = SeriesStore::new(1, 8);
        for v in [3i64, -1, 7] {
            g.set(v);
            s.on_sync(at((v.unsigned_abs() + 1) * 100), &m);
        }
        let out = s.render("depth", 3);
        assert!(out.contains("min -1 mean 3 max 7"), "{out}");
    }

    #[test]
    fn histogram_windows_quantiles() {
        let m = Metrics::new();
        let h = m.histogram("lat", &[10, 100]);
        let mut s = SeriesStore::new(1, 8);
        h.observe(5);
        h.observe(50);
        s.on_sync(at(100), &m);
        h.observe(500);
        s.on_sync(at(200), &m);
        let out = s.render("lat", 1);
        assert!(
            out.contains("[0..100us] count 2 mean 27 p50 <=10 p90 <=100 p99 <=100"),
            "{out}"
        );
        assert!(
            out.contains("[100..200us] count 1 mean 500 p50 overflow p90 overflow p99 overflow"),
            "{out}"
        );
        // The aggregated window merges bucket deltas before quantiles.
        let agg = s.render("lat", 2);
        assert!(agg.contains("count 3 mean 185 p50 <=100"), "{agg}");
    }

    #[test]
    fn unknown_metric_and_summary() {
        let m = Metrics::new();
        m.counter("a").inc();
        m.gauge("g").set(2);
        m.histogram("h", &[1]).observe(1);
        let mut s = SeriesStore::new(1, 4);
        s.on_sync(at(50), &m);
        assert_eq!(s.render("nope", 1), "tsdb: no series named nope\n");
        let sum = s.summary();
        assert!(sum
            .starts_with("tsdb: 1 samples retained (1 taken), interval 1 sync points, budget 4\n"));
        assert!(sum.contains("tsdb counter a: 1 samples, windowed total 1"));
        assert!(sum.contains("tsdb gauge g: 1 samples, first 2 last 2"));
        assert!(sum.contains("tsdb histogram h: 1 samples, windowed count 1"));
        assert_eq!(s.series_names(), vec!["a", "g", "h"]);
    }

    #[test]
    fn windows_as_data_match_the_render() {
        let m = Metrics::new();
        let c = m.counter("hits");
        let h = m.histogram("lat", &[10, 100]);
        let mut s = SeriesStore::new(1, 8);
        c.add(3);
        h.observe(5);
        s.on_sync(at(100), &m);
        c.add(7);
        h.observe(500);
        s.on_sync(at(200), &m);
        assert_eq!(
            s.counter_windows("hits", 1),
            vec![(0, 100, 3), (100, 200, 7)]
        );
        assert_eq!(s.counter_windows("hits", 2), vec![(0, 200, 10)]);
        assert_eq!(
            s.hist_windows("lat", 1),
            vec![(0, 100, 1, Some(10)), (100, 200, 1, Some(u64::MAX))]
        );
        assert!(s.counter_windows("nope", 1).is_empty());
        assert!(s.hist_windows("hits", 1).is_empty());
        // render_all covers every series once, in series_names order.
        let all = s.render_all(1);
        assert!(all.starts_with("tsdb counter hits:"), "{all}");
        assert!(all.contains("tsdb histogram lat:"), "{all}");
    }

    #[test]
    fn late_registered_series_tail_aligns() {
        let m = Metrics::new();
        m.counter("early").inc();
        let mut s = SeriesStore::new(1, 8);
        s.on_sync(at(100), &m);
        let late = m.counter("late");
        late.add(5);
        s.on_sync(at(200), &m);
        let out = s.render("late", 1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "one header + one row: {out}");
        // The late series' first window left edge is the prior sample.
        assert_eq!(lines[1], "[100..200us] delta 5 rate 50000/s");
    }

    /// `SeriesStore::on_sync` as it was before series were addressed by
    /// position: every series found by a scan of name compares, histogram
    /// deltas rebuilt from `buckets()`. Kept verbatim as the oracle.
    fn on_sync_by_name(store: &mut SeriesStore, now: SimTime, metrics: &Metrics) {
        store.ticks += 1;
        if !store.ticks.is_multiple_of(store.interval) {
            return;
        }
        store.taken += 1;
        if store.times.len() == store.budget {
            if let Some(t) = store.times.pop_front() {
                store.evicted_before = t;
            }
        }
        store.times.push_back(now.as_micros());
        let retained = store.times.len();

        metrics.for_each_counter(|name, c| {
            let i = store
                .counters
                .iter()
                .position(|s| s.name == name)
                .unwrap_or_else(|| {
                    store.counters.push(CounterSeries {
                        name: name.to_string(),
                        last: 0,
                        deltas: VecDeque::new(),
                    });
                    store.counters.len() - 1
                });
            let s = &mut store.counters[i];
            let cur = c.get();
            s.deltas.push_back(cur.wrapping_sub(s.last));
            s.last = cur;
            while s.deltas.len() > retained {
                s.deltas.pop_front();
            }
        });
        metrics.for_each_gauge(|name, g| {
            let i = store
                .gauges
                .iter()
                .position(|s| s.name == name)
                .unwrap_or_else(|| {
                    store.gauges.push(GaugeSeries {
                        name: name.to_string(),
                        values: VecDeque::new(),
                    });
                    store.gauges.len() - 1
                });
            let s = &mut store.gauges[i];
            s.values.push_back(g.get());
            while s.values.len() > retained {
                s.values.pop_front();
            }
        });
        metrics.for_each_histogram(|name, h| {
            let buckets = h.buckets();
            let i = store
                .hists
                .iter()
                .position(|s| s.name == name)
                .unwrap_or_else(|| {
                    store.hists.push(HistSeries {
                        name: name.to_string(),
                        bounds: buckets.iter().map(|&(b, _)| b).collect(),
                        last_counts: vec![0; buckets.len()],
                        last_count: 0,
                        last_sum: 0,
                        windows: VecDeque::new(),
                    });
                    store.hists.len() - 1
                });
            let s = &mut store.hists[i];
            let deltas: Vec<u64> = buckets
                .iter()
                .zip(s.last_counts.iter())
                .map(|(&(_, n), &prev)| n.wrapping_sub(prev))
                .collect();
            let count = h.count();
            let sum = h.sum();
            s.windows.push_back(HistWindow {
                count: count.wrapping_sub(s.last_count),
                sum: sum.wrapping_sub(s.last_sum),
                buckets: deltas,
            });
            s.last_counts = buckets.iter().map(|&(_, n)| n).collect();
            s.last_count = count;
            s.last_sum = sum;
            while s.windows.len() > retained {
                s.windows.pop_front();
            }
        });
    }

    /// Everything a caller can read out of a store, as one string.
    fn everything(store: &SeriesStore, names: &[String]) -> String {
        let mut out = store.summary();
        for w in 1..=3 {
            out.push_str(&store.render_all(w));
            for n in names {
                out.push_str(&format!(
                    "{n}/{w}: {:?} {:?}\n",
                    store.counter_windows(n, w),
                    store.hist_windows(n, w)
                ));
            }
        }
        out
    }

    #[test]
    fn positional_sampling_matches_the_by_name_reference() {
        use crate::check::{check, ensure_eq, int_range, vecs, zip};
        const POOL: i64 = 3;
        let names: Vec<String> = ["c", "g", "h"]
            .iter()
            .flat_map(|k| (0..POOL).map(move |i| format!("{k}{i}")))
            .collect();
        // ((interval, budget), [(kind, (instrument, value))]): kinds 0–2
        // touch a counter / gauge / histogram, registering it on first
        // touch (so series appear mid-run, in script order); 3–5 are a
        // sync point. Small budgets make the rings evict.
        let script = zip(
            zip(int_range(1, 5), int_range(1, 9)),
            vecs(
                zip(int_range(0, 6), zip(int_range(0, POOL), int_range(0, 40))),
                60,
            ),
        );
        check("positional sample == by-name sample", &script, |case| {
            let ((interval, budget), ops) = case;
            let (interval, budget) = (*interval as u64, *budget as usize);
            let live = Metrics::new();
            // A second registry holding the same names in the opposite
            // order (and histograms with fewer buckets): position `k`
            // there names a different series, so a store that moves over
            // to it must fall back to the name. Its values never trail
            // the live ones, so the deltas across the move stay positive.
            let other = Metrics::new();
            for i in (0..POOL).rev() {
                other.histogram(&format!("h{i}"), &[10]);
                other.gauge(&format!("g{i}"));
                other.counter(&format!("c{i}"));
            }
            // (store under test, oracle) pairs: two stores of different
            // shape over the live registry, one that changes registry
            // half way through.
            let pair = |i, b| (SeriesStore::new(i, b), SeriesStore::new(i, b));
            let mut first = pair(interval, budget);
            let mut second = pair(interval % 4 + 1, budget + 3);
            let mut mixed = pair(1, budget);
            let half = ops.iter().filter(|(kind, _)| *kind > 2).count() / 2;
            let mut now = 0;
            let mut syncs = 0;
            for &(kind, (i, v)) in ops {
                match kind {
                    0 => {
                        live.counter(&format!("c{i}")).add(v as u64);
                        other.counter(&format!("c{i}")).add(3 * v as u64 + 1);
                    }
                    1 => {
                        live.gauge(&format!("g{i}")).set(v - 20);
                        other.gauge(&format!("g{i}")).set(20 - v);
                    }
                    2 => {
                        live.histogram(&format!("h{i}"), &[10, 100])
                            .observe(7 * v as u64);
                        other
                            .histogram(&format!("h{i}"), &[10])
                            .observe(7 * v as u64);
                    }
                    _ => {
                        now += 100 + v as u64;
                        syncs += 1;
                        let at = SimTime::from_micros(now);
                        for (store, oracle) in [&mut first, &mut second] {
                            store.on_sync(at, &live);
                            on_sync_by_name(oracle, at, &live);
                        }
                        let fed = if syncs > half { &other } else { &live };
                        mixed.0.on_sync(at, fed);
                        on_sync_by_name(&mut mixed.1, at, fed);
                    }
                }
            }
            for (store, oracle) in [&first, &second, &mixed] {
                ensure_eq(everything(store, &names), everything(oracle, &names))?;
                ensure_eq(store.samples_taken(), oracle.samples_taken())?;
            }
            Ok(())
        });
    }
}
