//! Windowed time-series over the metrics registry.
//!
//! A [`SeriesStore`] is sampled at lockstep sync points (the world calls
//! [`SeriesStore::on_sync`] from the pump tail, the one place serial and
//! parallel runs agree on by construction). Every `interval` sync points
//! it reads each registered instrument through a handle it keeps and
//! writes one row per instrument kind into a bounded ring: counters as
//! deltas against the previous sample, gauges as values, histograms as
//! per-window `(count, sum, bucket…)` deltas. All math is integer-only
//! and the rings hold only what was sampled, so rendering a query is
//! byte-identical across serial runs, parallel runs, and replays — the
//! determinism gate in `tests/tsdb_gate.rs` holds the store to that.
//!
//! A sample costs what it stores: one load, one subtract and one store
//! per column. Once the rings are full it allocates nothing and compares
//! no names (`tests/alloc_gate.rs` pins the first, the benchmark's
//! `sim.tsdb.ns_per_sample` prices both).
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

use std::fmt::Write as _;
use std::ops::Range;

use crate::metrics::{bucket_quantile, render_bucket_bound, Counter, Gauge, Histogram, Metrics};
use crate::ring::Ring;
use crate::time::SimTime;

/// One instrument kind's samples, row-major: row `p` holds one cell per
/// column of the kind. Every grid of a store has a row per sample time in
/// `SeriesStore::times`, in that ring's physical order, so the `g`-th
/// oldest sample is row `times.slot(g)` of each.
#[derive(Debug, Default)]
struct Grid {
    /// Cells per row.
    width: usize,
    cells: Vec<u64>,
}

impl Grid {
    fn row(&self, p: usize) -> &[u64] {
        &self.cells[p * self.width..(p + 1) * self.width]
    }

    fn row_mut(&mut self, p: usize) -> &mut [u64] {
        &mut self.cells[p * self.width..(p + 1) * self.width]
    }

    /// Appends one row, as `times` grows: by use, never to the budget.
    fn push_row(&mut self) {
        self.cells.resize(self.cells.len() + self.width, 0);
    }

    /// Re-strides the `rows` rows in place to `extra` more cells each.
    /// What the new cells hold is never read: a column's reads start at
    /// the sample it was born at, and a sample writes its whole row.
    #[cold]
    fn widen(&mut self, rows: usize, extra: usize) {
        let (old, new) = (self.width, self.width + extra);
        self.cells.resize(rows * new, 0);
        for p in (0..rows).rev() {
            self.cells.copy_within(p * old..(p + 1) * old, p * new);
        }
        self.width = new;
    }
}

/// A counter column: cell = increase since the previous sample.
#[derive(Debug)]
struct CounterCol {
    name: String,
    handle: Counter,
    /// Cumulative value at the previous sample (delta base).
    last: u64,
    /// Samples the store had taken before this column's first.
    born: u64,
}

/// A gauge column: cell = the sampled value, as its bits.
#[derive(Debug)]
struct GaugeCol {
    name: String,
    handle: Gauge,
    born: u64,
}

/// A histogram's columns: `count, sum`, then one cell per bucket, all
/// increases since the previous sample.
#[derive(Debug)]
struct HistCol {
    name: String,
    handle: Histogram,
    /// Inclusive upper bounds of the buckets, the overflow bucket's
    /// `u64::MAX` last (fixed for life, also across a re-bind).
    bounds: Vec<u64>,
    /// Position of the `count` cell in a histogram row.
    at: usize,
    /// Cumulative `count, sum, buckets…` at the previous sample.
    last: Vec<u64>,
    born: u64,
}

/// Writes `cur`'s increase over `prev` and moves the base up to it.
#[inline]
fn delta(cell: &mut u64, prev: &mut u64, cur: u64) {
    *cell = cur.wrapping_sub(*prev);
    *prev = cur;
}

/// A bounded, delta-encoded store of metric samples over simulated time.
///
/// A series' identity is its metric name; its address is a handle. The
/// store keeps a clone of every instrument's handle, in the order it met
/// them, and a sample is one pass over those handles. The registry is
/// append-only, so instruments the store has not met are found by count:
/// only when [`Metrics::instrument_counts`] has moved does the store walk
/// the new tail by name. A series registered after sampling began is
/// shorter than the rest and tail-aligned to the shared sample times.
///
/// A store fed a registry other than the one its handles came from
/// re-binds every series by name to that registry's instruments (a
/// series the new registry lacks keeps its old handle; a histogram
/// re-bound to one with fewer buckets reads zero in the missing ones).
#[derive(Debug)]
pub struct SeriesStore {
    /// Sync points per sample; 1 = sample every sync point.
    interval: u64,
    /// Sync points observed so far.
    ticks: u64,
    /// Sample times (µs), one per retained row; its capacity is the
    /// budget, its slots are the grids' rows.
    times: Ring<u64>,
    /// Time (µs) of the most recently evicted sample — the left edge of
    /// the oldest retained window.
    evicted_before: u64,
    /// The registry the handles were cloned from.
    bound: Option<Metrics>,
    /// Its [`Metrics::instrument_counts`] when they were.
    seen: [usize; 3],
    counters: Vec<CounterCol>,
    counter_grid: Grid,
    gauges: Vec<GaugeCol>,
    gauge_grid: Grid,
    hists: Vec<HistCol>,
    hist_grid: Grid,
}

impl SeriesStore {
    /// A store sampling every `interval` sync points, retaining `budget`
    /// samples per series. `interval` is clamped to at least 1.
    pub fn new(interval: u64, budget: usize) -> SeriesStore {
        SeriesStore {
            interval: interval.max(1),
            ticks: 0,
            times: Ring::new(budget),
            evicted_before: 0,
            bound: None,
            seen: [0; 3],
            counters: Vec::new(),
            counter_grid: Grid::default(),
            gauges: Vec::new(),
            gauge_grid: Grid::default(),
            hists: Vec::new(),
            hist_grid: Grid::default(),
        }
    }

    /// Sync points per sample.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Samples retained per series.
    pub fn budget(&self) -> usize {
        self.times.capacity()
    }

    /// Number of currently retained samples.
    pub fn samples(&self) -> usize {
        self.times.len()
    }

    /// Total samples ever taken, including evicted ones.
    pub fn samples_taken(&self) -> u64 {
        self.times.len() as u64 + self.times.evicted()
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
    // Out of line: the pump's window tail inlines `on_sync` — a counter
    // and a modulo — and every committed scenario but the benchmark's
    // `observe` gets past that check once per 32–64 sync points, so this
    // body has no business in `end_window`. It costs `observe` one call
    // per sample. (No measured difference decides this: EXPERIMENTS.md M7
    // built it inlined, plain and out of line, and the builds differed by
    // less than one source does between two build directories.)
    #[inline(never)]
    pub fn sample(&mut self, now: SimTime, metrics: &Metrics) {
        let known = self
            .bound
            .as_ref()
            .is_some_and(|bound| bound.same_registry(metrics));
        if !known || metrics.instrument_counts() != self.seen {
            self.adopt(metrics, known);
        }

        match self.times.push(now.as_micros()) {
            Some(evicted) => self.evicted_before = evicted,
            None => {
                self.counter_grid.push_row();
                self.gauge_grid.push_row();
                self.hist_grid.push_row();
            }
        }
        let p = self.times.slot(self.times.len() - 1);

        let row = self.counter_grid.row_mut(p);
        for (cell, c) in row.iter_mut().zip(&mut self.counters) {
            delta(cell, &mut c.last, c.handle.get());
        }
        let row = self.gauge_grid.row_mut(p);
        for (cell, g) in row.iter_mut().zip(&self.gauges) {
            *cell = g.handle.get() as u64;
        }
        let row = self.hist_grid.row_mut(p);
        for h in &mut self.hists {
            let cells = &mut row[h.at..h.at + h.last.len()];
            delta(&mut cells[0], &mut h.last[0], h.handle.count());
            delta(&mut cells[1], &mut h.last[1], h.handle.sum());
            h.handle.with_counts(|counts| {
                let buckets = cells[2..].iter_mut().zip(&mut h.last[2..]);
                for (j, (cell, prev)) in buckets.enumerate() {
                    match counts.get(j) {
                        Some(&n) => delta(cell, prev, n),
                        None => *cell = 0,
                    }
                }
            });
        }
    }

    /// Binds the instruments of `metrics` this store holds no handle to:
    /// the registry's tail past `seen` when the store `known`s it, every
    /// instrument when it does not. Each is looked up by name — found, its
    /// column takes the new handle and keeps its history and delta base;
    /// not found, it becomes a new column born at the coming sample — and
    /// each grid is re-strided once for the columns it gained. A handful
    /// of calls per run, all early.
    #[cold]
    fn adopt(&mut self, metrics: &Metrics, known: bool) {
        let from = if known { self.seen } else { [0; 3] };
        let rows = self.times.len();
        let born = self.samples_taken();

        let (mut k, mut extra) = (0, 0);
        metrics.for_each_counter(|name, handle| {
            k += 1;
            if k <= from[0] {
                return;
            }
            let handle = handle.clone();
            match self.counters.iter_mut().find(|c| c.name == name) {
                Some(c) => c.handle = handle,
                None => {
                    self.counters.push(CounterCol {
                        name: name.to_string(),
                        handle,
                        last: 0,
                        born,
                    });
                    extra += 1;
                }
            }
        });
        self.counter_grid.widen(rows, extra);

        let (mut k, mut extra) = (0, 0);
        metrics.for_each_gauge(|name, handle| {
            k += 1;
            if k <= from[1] {
                return;
            }
            let handle = handle.clone();
            match self.gauges.iter_mut().find(|g| g.name == name) {
                Some(g) => g.handle = handle,
                None => {
                    self.gauges.push(GaugeCol {
                        name: name.to_string(),
                        handle,
                        born,
                    });
                    extra += 1;
                }
            }
        });
        self.gauge_grid.widen(rows, extra);

        let (mut k, mut extra) = (0, 0);
        metrics.for_each_histogram(|name, handle| {
            k += 1;
            if k <= from[2] {
                return;
            }
            let handle = handle.clone();
            match self.hists.iter_mut().find(|h| h.name == name) {
                Some(h) => h.handle = handle,
                None => {
                    let bounds: Vec<u64> =
                        handle.bounds().iter().copied().chain([u64::MAX]).collect();
                    let cells = 2 + bounds.len();
                    self.hists.push(HistCol {
                        name: name.to_string(),
                        handle,
                        bounds,
                        at: self.hist_grid.width + extra,
                        last: vec![0; cells],
                        born,
                    });
                    extra += cells;
                }
            }
        });
        self.hist_grid.widen(rows, extra);

        self.seen = metrics.instrument_counts();
        if !known {
            self.bound = Some(metrics.clone());
        }
    }

    /// Samples retained of a series born at sample `born`.
    fn len_of(&self, born: u64) -> usize {
        (self.samples_taken() - born).min(self.times.len() as u64) as usize
    }

    /// Column `col` of `grid` over the retained samples `span` (counted
    /// from the oldest), oldest first.
    fn cells<'a>(
        &'a self,
        grid: &'a Grid,
        col: usize,
        span: Range<usize>,
    ) -> impl Iterator<Item = u64> + 'a {
        span.map(move |g| grid.row(self.times.slot(g))[col])
    }

    /// The rows a series `len` samples long renders as, `window` samples
    /// per row: `(start_us, end_us, samples)`, the samples counted from
    /// the oldest retained one. The series' samples are the newest `len`;
    /// a row's left edge is the sample before its first — for the oldest
    /// retained sample, the one evicted last.
    fn windows(
        &self,
        len: usize,
        window: usize,
    ) -> impl Iterator<Item = (u64, u64, Range<usize>)> + '_ {
        let rows = self.times.len();
        let window = window.clamp(1, len.max(1));
        (rows - len..rows).step_by(window).map(move |lo| {
            let hi = (lo + window).min(rows);
            let start = match lo {
                0 => self.evicted_before,
                _ => self.times[lo - 1],
            };
            (start, self.times[hi - 1], lo..hi)
        })
    }

    /// `(start_us, end_us, delta)` per rendered row of counter `col`.
    fn counter_rows(
        &self,
        col: usize,
        window: usize,
    ) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.windows(self.len_of(self.counters[col].born), window)
            .map(move |(start, end, span)| {
                (start, end, self.cells(&self.counter_grid, col, span).sum())
            })
    }

    /// Calls `row(start_us, end_us, count, sum, buckets)` per rendered
    /// row of histogram `i`, the window's bucket deltas merged into
    /// `(upper_bound, count)` pairs.
    fn hist_rows(
        &self,
        i: usize,
        window: usize,
        mut row: impl FnMut(u64, u64, u64, u64, &[(u64, u64)]),
    ) {
        let h = &self.hists[i];
        let mut buckets: Vec<(u64, u64)> = h.bounds.iter().map(|&b| (b, 0)).collect();
        for (start, end, span) in self.windows(self.len_of(h.born), window) {
            let (mut count, mut sum) = (0u64, 0u64);
            buckets.iter_mut().for_each(|b| b.1 = 0);
            for g in span {
                let cells = &self.hist_grid.row(self.times.slot(g))[h.at..h.at + h.last.len()];
                count += cells[0];
                sum += cells[1];
                for (acc, &d) in buckets.iter_mut().zip(&cells[2..]) {
                    acc.1 += d;
                }
            }
            row(start, end, count, sum, &buckets);
        }
    }

    /// Renders the series named `metric`, aggregating `window` samples
    /// per row (oldest first). Unknown metrics render a one-line notice
    /// rather than erroring, so REPL typos stay cheap.
    pub fn render(&self, metric: &str, window: usize) -> String {
        let mut out = String::new();
        if let Some(col) = self.counters.iter().position(|s| s.name == metric) {
            self.render_counter(&mut out, col, window);
        } else if let Some(col) = self.gauges.iter().position(|s| s.name == metric) {
            self.render_gauge(&mut out, col, window);
        } else if let Some(i) = self.hists.iter().position(|s| s.name == metric) {
            self.render_hist(&mut out, i, window);
        } else {
            let _ = writeln!(out, "tsdb: no series named {metric}");
        }
        out
    }

    /// The first line of a rendered series.
    fn header(&self, out: &mut String, kind: &str, name: &str, len: usize) {
        let _ = writeln!(
            out,
            "tsdb {kind} {name}: {len} samples (interval {} sync points)",
            self.interval
        );
    }

    fn render_counter(&self, out: &mut String, col: usize, window: usize) {
        let s = &self.counters[col];
        self.header(out, "counter", &s.name, self.len_of(s.born));
        for (start, end, delta) in self.counter_rows(col, window) {
            let dur = end.saturating_sub(start);
            let rate = delta
                .saturating_mul(1_000_000)
                .checked_div(dur)
                .unwrap_or(0);
            let _ = writeln!(out, "[{start}..{end}us] delta {delta} rate {rate}/s");
        }
    }

    fn render_gauge(&self, out: &mut String, col: usize, window: usize) {
        let s = &self.gauges[col];
        let len = self.len_of(s.born);
        self.header(out, "gauge", &s.name, len);
        for (start, end, span) in self.windows(len, window) {
            let mut min = i64::MAX;
            let mut max = i64::MIN;
            let mut sum = 0i128;
            let n = span.len() as i128;
            for v in self.cells(&self.gauge_grid, col, span) {
                let v = v as i64;
                min = min.min(v);
                max = max.max(v);
                sum += v as i128;
            }
            let mean = (sum / n) as i64;
            let _ = writeln!(out, "[{start}..{end}us] min {min} mean {mean} max {max}");
        }
    }

    fn render_hist(&self, out: &mut String, i: usize, window: usize) {
        let s = &self.hists[i];
        self.header(out, "histogram", &s.name, self.len_of(s.born));
        self.hist_rows(i, window, |start, end, count, sum, buckets| {
            let mean = sum.checked_div(count).unwrap_or(0);
            let p50 = render_bucket_bound(bucket_quantile(buckets, 0.5));
            let p90 = render_bucket_bound(bucket_quantile(buckets, 0.9));
            let p99 = render_bucket_bound(bucket_quantile(buckets, 0.99));
            let _ = writeln!(
                out,
                "[{start}..{end}us] count {count} mean {mean} p50 {p50} p90 {p90} p99 {p99}"
            );
        });
    }

    /// One line per series: totals over the retained window. The world's
    /// `observability_report()` embeds this.
    pub fn summary(&self) -> String {
        let rows = self.times.len();
        let mut out = format!(
            "tsdb: {} samples retained ({} taken), interval {} sync points, budget {}\n",
            rows,
            self.samples_taken(),
            self.interval,
            self.budget()
        );
        for (col, s) in self.counters.iter().enumerate() {
            let len = self.len_of(s.born);
            let total: u64 = self.cells(&self.counter_grid, col, rows - len..rows).sum();
            let _ = writeln!(
                out,
                "tsdb counter {}: {len} samples, windowed total {total}",
                s.name
            );
        }
        for (col, s) in self.gauges.iter().enumerate() {
            let len = self.len_of(s.born);
            let first = self.gauge_grid.row(self.times.slot(rows - len))[col] as i64;
            let last = self.gauge_grid.row(self.times.slot(rows - 1))[col] as i64;
            let _ = writeln!(
                out,
                "tsdb gauge {}: {len} samples, first {first} last {last}",
                s.name
            );
        }
        for s in &self.hists {
            let len = self.len_of(s.born);
            let total: u64 = self.cells(&self.hist_grid, s.at, rows - len..rows).sum();
            let _ = writeln!(
                out,
                "tsdb histogram {}: {len} samples, windowed count {total}",
                s.name
            );
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
        for col in 0..self.counters.len() {
            self.render_counter(&mut out, col, window);
        }
        for col in 0..self.gauges.len() {
            self.render_gauge(&mut out, col, window);
        }
        for i in 0..self.hists.len() {
            self.render_hist(&mut out, i, window);
        }
        out
    }

    /// The windowed rows of a counter series as data: `(start_us,
    /// end_us, delta)` per row, aggregating `window` samples per row
    /// exactly as [`render`](SeriesStore::render) does. Empty when the
    /// metric is unknown or not a counter.
    pub fn counter_windows(&self, metric: &str, window: usize) -> Vec<(u64, u64, u64)> {
        match self.counters.iter().position(|s| s.name == metric) {
            Some(col) => self.counter_rows(col, window).collect(),
            None => Vec::new(),
        }
    }

    /// The windowed rows of a histogram series as data: `(start_us,
    /// end_us, count, p99)` per row, where `p99` is the 99th-percentile
    /// bucket bound (`Some(u64::MAX)` = overflow, `None` = no
    /// observations in the window). Empty when the metric is unknown or
    /// not a histogram.
    pub fn hist_windows(&self, metric: &str, window: usize) -> Vec<(u64, u64, u64, Option<u64>)> {
        let mut rows = Vec::new();
        if let Some(i) = self.hists.iter().position(|s| s.name == metric) {
            self.hist_rows(i, window, |start, end, count, _, buckets| {
                rows.push((start, end, count, bucket_quantile(buckets, 0.99)));
            });
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

    /// One series of the [`Model`].
    struct ModelSeries {
        name: String,
        /// Histogram bucket bounds (overflow last), fixed at first sight.
        bounds: Vec<u64>,
        /// Cumulative readings at the previous sample: `[value]` for a
        /// counter, `[count, sum, buckets…]` for a histogram.
        last: Vec<u64>,
        /// Number of the first sample this series is in.
        born: usize,
        /// Every sample since, never evicted: `[delta]`, `[value]` or
        /// `[count, sum, buckets…]`.
        samples: Vec<Vec<u64>>,
    }

    /// The oracle: what a store renders, from a representation that
    /// shares nothing with the row rings. Series are found by name at
    /// every sample (as the store did before it kept handles, histogram
    /// deltas rebuilt from `buckets()`), every sample of every series is
    /// kept forever under its sample number, and the budget is applied on
    /// read: the retained samples are the numbers `taken - budget..`.
    struct Model {
        interval: u64,
        budget: usize,
        ticks: u64,
        /// Time of every sample ever taken.
        times: Vec<u64>,
        /// Counters, gauges, histograms, each in order of first sight.
        series: [Vec<ModelSeries>; 3],
    }

    impl Model {
        fn new(interval: u64, budget: usize) -> Model {
            Model {
                interval,
                budget,
                ticks: 0,
                times: Vec::new(),
                series: [Vec::new(), Vec::new(), Vec::new()],
            }
        }

        fn series<'a>(
            all: &'a mut Vec<ModelSeries>,
            name: &str,
            born: usize,
            bounds: Vec<u64>,
        ) -> &'a mut ModelSeries {
            let i = all.iter().position(|s| s.name == name).unwrap_or_else(|| {
                all.push(ModelSeries {
                    name: name.to_string(),
                    last: vec![0; 2 + bounds.len()],
                    bounds,
                    born,
                    samples: Vec::new(),
                });
                all.len() - 1
            });
            &mut all[i]
        }

        fn on_sync(&mut self, now: SimTime, metrics: &Metrics) {
            self.ticks += 1;
            if !self.ticks.is_multiple_of(self.interval) {
                return;
            }
            let n = self.times.len();
            self.times.push(now.as_micros());
            let [counters, gauges, hists] = &mut self.series;
            metrics.for_each_counter(|name, c| {
                let s = Model::series(counters, name, n, Vec::new());
                s.samples.push(vec![c.get().wrapping_sub(s.last[0])]);
                s.last[0] = c.get();
            });
            metrics.for_each_gauge(|name, g| {
                let s = Model::series(gauges, name, n, Vec::new());
                s.samples.push(vec![g.get() as u64]);
            });
            metrics.for_each_histogram(|name, h| {
                let buckets = h.buckets();
                let bounds = buckets.iter().map(|&(b, _)| b).collect();
                let s = Model::series(hists, name, n, bounds);
                let mut sample = vec![
                    h.count().wrapping_sub(s.last[0]),
                    h.sum().wrapping_sub(s.last[1]),
                ];
                // A series that met a histogram with fewer buckets than
                // its own has no reading for the rest: no delta.
                sample.extend(
                    buckets
                        .iter()
                        .zip(&s.last[2..])
                        .map(|(&(_, n), &prev)| n.wrapping_sub(prev)),
                );
                s.last = [h.count(), h.sum()]
                    .into_iter()
                    .chain(buckets.iter().map(|&(_, n)| n))
                    .collect();
                s.samples.push(sample);
            });
        }

        /// A series' retained samples and the number of the first.
        fn retained<'a>(&self, s: &'a ModelSeries) -> (usize, &'a [Vec<u64>]) {
            let oldest = self.times.len().saturating_sub(self.budget);
            let skip = oldest.saturating_sub(s.born);
            (s.born + skip, &s.samples[skip..])
        }

        /// `(start_us, end_us, samples)` per rendered row.
        fn rows<'a>(&self, s: &'a ModelSeries, window: usize) -> Vec<(u64, u64, &'a [Vec<u64>])> {
            let (first, kept) = self.retained(s);
            kept.chunks(window)
                .enumerate()
                .map(|(i, chunk)| {
                    let k = first + i * window;
                    let start = if k == 0 { 0 } else { self.times[k - 1] };
                    (start, self.times[k + chunk.len() - 1], chunk)
                })
                .collect()
        }

        /// Column `j` of `chunk`, summed.
        fn total(chunk: &[Vec<u64>], j: usize) -> u64 {
            chunk.iter().filter_map(|sample| sample.get(j)).sum()
        }

        fn buckets(s: &ModelSeries, chunk: &[Vec<u64>]) -> Vec<(u64, u64)> {
            let merged = |j| Model::total(chunk, 2 + j);
            s.bounds
                .iter()
                .enumerate()
                .map(|(j, &b)| (b, merged(j)))
                .collect()
        }

        fn counter_windows(&self, name: &str, window: usize) -> Vec<(u64, u64, u64)> {
            let found = self.series[0].iter().find(|s| s.name == name);
            found.map_or(Vec::new(), |s| {
                self.rows(s, window)
                    .into_iter()
                    .map(|(start, end, chunk)| (start, end, Model::total(chunk, 0)))
                    .collect()
            })
        }

        fn hist_windows(&self, name: &str, window: usize) -> Vec<(u64, u64, u64, Option<u64>)> {
            let found = self.series[2].iter().find(|s| s.name == name);
            found.map_or(Vec::new(), |s| {
                self.rows(s, window)
                    .into_iter()
                    .map(|(start, end, chunk)| {
                        let p99 = bucket_quantile(&Model::buckets(s, chunk), 0.99);
                        (start, end, Model::total(chunk, 0), p99)
                    })
                    .collect()
            })
        }

        fn render_all(&self, window: usize) -> String {
            let mut out = String::new();
            let header = |kind: &str, s: &ModelSeries| {
                format!(
                    "tsdb {kind} {}: {} samples (interval {} sync points)\n",
                    s.name,
                    self.retained(s).1.len(),
                    self.interval
                )
            };
            for s in &self.series[0] {
                out += &header("counter", s);
                for (start, end, chunk) in self.rows(s, window) {
                    let delta = Model::total(chunk, 0);
                    let rate = match end - start {
                        0 => 0,
                        dur => delta * 1_000_000 / dur,
                    };
                    out += &format!("[{start}..{end}us] delta {delta} rate {rate}/s\n");
                }
            }
            for s in &self.series[1] {
                out += &header("gauge", s);
                for (start, end, chunk) in self.rows(s, window) {
                    let values = || chunk.iter().map(|sample| sample[0] as i64);
                    let (min, max) = (values().min().unwrap(), values().max().unwrap());
                    let mean = values().sum::<i64>() / chunk.len() as i64;
                    out += &format!("[{start}..{end}us] min {min} mean {mean} max {max}\n");
                }
            }
            for s in &self.series[2] {
                out += &header("histogram", s);
                for (start, end, chunk) in self.rows(s, window) {
                    let count = Model::total(chunk, 0);
                    let mean = Model::total(chunk, 1).checked_div(count).unwrap_or(0);
                    let buckets = Model::buckets(s, chunk);
                    let [p50, p90, p99] =
                        [0.5, 0.9, 0.99].map(|q| render_bucket_bound(bucket_quantile(&buckets, q)));
                    out += &format!(
                        "[{start}..{end}us] count {count} mean {mean} p50 {p50} p90 {p90} p99 {p99}\n"
                    );
                }
            }
            out
        }

        fn summary(&self) -> String {
            let taken = self.times.len();
            let mut out = format!(
                "tsdb: {} samples retained ({taken} taken), interval {} sync points, budget {}\n",
                taken.min(self.budget),
                self.interval,
                self.budget
            );
            for (k, kind) in ["counter", "gauge", "histogram"].iter().enumerate() {
                for s in &self.series[k] {
                    let kept = self.retained(s).1;
                    out += &format!("tsdb {kind} {}: {} samples, ", s.name, kept.len());
                    out += &match k {
                        0 => format!("windowed total {}\n", Model::total(kept, 0)),
                        1 => {
                            let at = |i: usize| kept[i][0] as i64;
                            format!("first {} last {}\n", at(0), at(kept.len() - 1))
                        }
                        _ => format!("windowed count {}\n", Model::total(kept, 0)),
                    };
                }
            }
            out
        }
    }

    /// Everything a caller can read out of a store (or the model of
    /// one), as one string.
    macro_rules! everything {
        ($store:expr, $names:expr) => {{
            let mut out = $store.summary();
            for w in 1..=3 {
                out.push_str(&$store.render_all(w));
                for n in $names {
                    out.push_str(&format!(
                        "{n}/{w}: {:?} {:?}\n",
                        $store.counter_windows(n, w),
                        $store.hist_windows(n, w)
                    ));
                }
            }
            out
        }};
    }

    /// A store and its model, fed the same samples.
    struct Pair(SeriesStore, Model);

    impl Pair {
        fn new(interval: u64, budget: usize) -> Pair {
            Pair(
                SeriesStore::new(interval, budget),
                Model::new(interval, budget),
            )
        }

        fn on_sync(&mut self, now: SimTime, metrics: &Metrics) {
            self.0.on_sync(now, metrics);
            self.1.on_sync(now, metrics);
        }

        fn agree(&self, names: &[String]) -> Result<(), String> {
            use crate::check::ensure_eq;
            ensure_eq(everything!(self.0, names), everything!(self.1, names))?;
            ensure_eq(self.0.samples_taken(), self.1.times.len() as u64)
        }
    }

    #[test]
    fn positional_sampling_matches_the_by_name_reference() {
        use crate::check::{check, int_range, vecs, zip};
        const POOL: i64 = 3;
        let names: Vec<String> = ["c", "g", "h"]
            .iter()
            .flat_map(|k| (0..POOL).map(move |i| format!("{k}{i}")))
            .collect();
        // ((interval, budget), [(kind, (instrument, value))]): kinds 0–2
        // touch a counter / gauge / histogram, registering it on first
        // touch (so series appear mid-run, in script order — with these
        // budgets usually into a ring that has already wrapped); 3–5 are
        // a sync point. Small budgets make the rings evict.
        let script = zip(
            zip(int_range(1, 5), int_range(1, 9)),
            vecs(
                zip(int_range(0, 6), zip(int_range(0, POOL), int_range(0, 40))),
                60,
            ),
        );
        check("handle sample == by-name model", &script, |case| {
            let ((interval, budget), ops) = case;
            let (interval, budget) = (*interval as u64, *budget as usize);
            let live = Metrics::new();
            // A second registry holding the same names in the opposite
            // order (and histograms with fewer buckets): a store that
            // moves over to it must notice and re-bind by name. Its
            // values never trail the live ones, so the deltas across the
            // move stay positive.
            let other = Metrics::new();
            for i in (0..POOL).rev() {
                other.histogram(&format!("h{i}"), &[10]);
                other.gauge(&format!("g{i}"));
                other.counter(&format!("c{i}"));
            }
            // Two stores of different shape over the live registry, one
            // that changes registry half way through.
            let mut first = Pair::new(interval, budget);
            let mut second = Pair::new(interval % 4 + 1, budget + 3);
            let mut mixed = Pair::new(1, budget);
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
                        first.on_sync(at, &live);
                        second.on_sync(at, &live);
                        mixed.on_sync(at, if syncs > half { &other } else { &live });
                    }
                }
            }
            first.agree(&names)?;
            second.agree(&names)?;
            mixed.agree(&names)
        });
    }

    /// The cases the row layout can get wrong, pinned rather than left to
    /// the generator: instruments of every kind registered while the ring
    /// is wrapped (`head != 0`) and so re-strided mid-history, a
    /// histogram born after eviction began, and a ring one row long —
    /// checked against the model after every sample.
    #[test]
    fn registrations_into_a_wrapped_ring_match_the_model() {
        let names: Vec<String> = ["c0", "c1", "g0", "h0", "h1"].map(String::from).to_vec();
        for budget in [1, 2, 3, 5] {
            let m = Metrics::new();
            let mut pair = Pair::new(1, budget);
            let c0 = m.counter("c0");
            let mut now = 0;
            let mut sync = |pair: &mut Pair, m: &Metrics| {
                now += 150;
                pair.on_sync(at(now), m);
                pair.agree(&names)
                    .unwrap_or_else(|e| panic!("budget {budget}, t={now}: {e}"));
            };
            for i in 0..budget as u64 + 2 {
                c0.add(i + 1);
                sync(&mut pair, &m);
            }
            assert_eq!(
                pair.0.times.slot(0),
                2 % budget,
                "wrapped before the registrations"
            );
            let (c1, g0) = (m.counter("c1"), m.gauge("g0"));
            let h0 = m.histogram("h0", &[10, 100]);
            for i in 0..budget as u64 + 2 {
                c0.inc();
                c1.add(3 * i);
                g0.set(4 - i as i64);
                h0.observe(9 * i);
                sync(&mut pair, &m);
                if i == 1 {
                    // A second re-stride of the histogram ring, again
                    // into a wrapped one.
                    m.histogram("h1", &[5]).observe(7);
                }
            }
            assert_eq!(pair.0.samples(), budget);
        }
    }

    /// `budget` bounds the ring; it is not its size. A store told to keep
    /// everything allocates for what it has sampled.
    #[test]
    fn an_unbounded_budget_allocates_by_use() {
        let names = vec!["c".to_string(), "h".to_string()];
        let m = Metrics::new();
        let c = m.counter("c");
        let h = m.histogram("h", &[10]);
        let mut pair = Pair::new(1, usize::MAX);
        for i in 1..=5u64 {
            c.add(i);
            h.observe(4 * i);
            pair.on_sync(at(i * 100), &m);
        }
        assert_eq!(pair.0.samples(), 5);
        assert!(pair.0.counter_grid.cells.capacity() < 64);
        assert!(pair.0.hist_grid.cells.capacity() < 64 * 4);
        pair.agree(&names).unwrap();
    }
}
