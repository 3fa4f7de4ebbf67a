//! Hermetic metrics: counters, gauges, and fixed-bucket histograms.
//!
//! A [`Metrics`] registry hands out cheap handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) that subsystems keep and bump directly — an increment is
//! one `Cell` update, no name lookup, no locking (the simulation is
//! single-threaded). The registry remembers every instrument by name so
//! the debugger's `stats` command and [`Metrics::report`] can render a
//! sorted inventory at any point. No external crates, matching the
//! workspace's zero-dependency rule.
//!
//! # Examples
//!
//! ```
//! use pilgrim_sim::Metrics;
//! let m = Metrics::new();
//! let sends = m.counter("net.sent");
//! sends.inc();
//! sends.add(2);
//! assert_eq!(m.counter_value("net.sent"), Some(3));
//! let lat = m.histogram("rpc.latency_us", &[1_000, 10_000, 100_000]);
//! lat.observe(4_200);
//! assert_eq!(lat.count(), 1);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Rc<Cell<u64>>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get().wrapping_add(n));
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.get()
    }
}

/// A value that can move in both directions (queue depths, live counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Rc<Cell<i64>>,
}

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.set(v);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.set(self.value.get().wrapping_add(n));
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.get()
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds of each finite bucket, ascending. An
    /// implicit overflow bucket catches everything above the last bound.
    bounds: Vec<u64>,
    /// One count per finite bucket, plus the trailing overflow bucket.
    counts: RefCell<Vec<u64>>,
    count: Cell<u64>,
    sum: Cell<u64>,
    /// Largest value ever observed (exact, not bucket-rounded).
    max: Cell<u64>,
}

/// Smallest bucket bound with at least `q` (0.0..=1.0) of the mass at or
/// below it, over `(upper_bound, count)` pairs whose final entry is the
/// overflow bucket at `u64::MAX`. Returns `None` when there is no mass.
/// Shared by live histograms and the time-series store's per-window
/// bucket deltas so both report identical bucket-resolution quantiles.
pub fn bucket_quantile(buckets: &[(u64, u64)], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return None;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
    let target = target.max(1);
    let mut seen = 0u64;
    for &(bound, n) in buckets {
        seen += n;
        if seen >= target {
            return Some(bound);
        }
    }
    Some(u64::MAX)
}

/// Renders a bucket-resolution quantile the way [`Metrics::report`] does:
/// `<=bound`, `overflow` for the overflow bucket, `-` for no data.
pub fn render_bucket_bound(q: Option<u64>) -> String {
    match q {
        Some(u64::MAX) => "overflow".to_string(),
        Some(b) => format!("<={b}"),
        None => "-".to_string(),
    }
}

/// A fixed-bucket histogram of `u64` observations (typically
/// microseconds). Bucket bounds are chosen at registration and never
/// change, so `observe` is a binary search plus two `Cell` bumps.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Rc<HistogramInner>,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let n = sorted.len();
        Histogram {
            inner: Rc::new(HistogramInner {
                bounds: sorted,
                counts: RefCell::new(vec![0; n + 1]),
                count: Cell::new(0),
                sum: Cell::new(0),
                max: Cell::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.inner.bounds.partition_point(|&b| b < v);
        self.inner.counts.borrow_mut()[idx] += 1;
        self.inner.count.set(self.inner.count.get() + 1);
        self.inner.sum.set(self.inner.sum.get().wrapping_add(v));
        if v > self.inner.max.get() {
            self.inner.max.set(v);
        }
    }

    /// Largest observation so far (exact), or `None` with no data.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.inner.max.get())
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.get()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.inner.sum.get()
    }

    /// Mean observation, or 0 with no data.
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Inclusive upper bounds of the finite buckets, ascending (fixed at
    /// registration; the overflow bucket has no entry).
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }

    /// Runs `f` over the live per-bucket counts — one per finite bucket,
    /// then the overflow bucket — without copying them. `f` must not
    /// observe into this histogram (the counts are borrowed).
    pub fn with_counts<R>(&self, f: impl FnOnce(&[u64]) -> R) -> R {
        f(&self.inner.counts.borrow())
    }

    /// `(upper_bound, count)` per finite bucket, then
    /// `(u64::MAX, overflow_count)`.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        let counts = self.inner.counts.borrow();
        let mut out: Vec<(u64, u64)> = self
            .inner
            .bounds
            .iter()
            .copied()
            .zip(counts.iter().copied())
            .collect();
        out.push((u64::MAX, counts[self.inner.bounds.len()]));
        out
    }

    /// Smallest bucket bound with at least `q` (0.0..=1.0) of the mass at
    /// or below it — a bucket-resolution quantile. Returns `None` with no
    /// data; the overflow bucket reports as `u64::MAX`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        bucket_quantile(&self.buckets(), q)
    }
}

/// The instruments of one kind: in registration order, with an index
/// from name to position. Each name is stored once, shared by both.
struct Family<I> {
    ordered: Vec<(Rc<str>, I)>,
    index: HashMap<Rc<str>, usize>,
}

impl<I> Default for Family<I> {
    fn default() -> Self {
        Family {
            ordered: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl<I: Clone> Family<I> {
    /// The instrument named `name`, if registered.
    fn get(&self, name: &str) -> Option<&I> {
        self.index.get(name).map(|&at| &self.ordered[at].1)
    }

    /// The instrument named `name`, registering `make()` last on first use.
    fn get_or_register(&mut self, name: &str, make: impl FnOnce() -> I) -> I {
        if let Some(instrument) = self.get(name) {
            return instrument.clone();
        }
        let name: Rc<str> = Rc::from(name);
        let instrument = make();
        self.index.insert(Rc::clone(&name), self.ordered.len());
        self.ordered.push((name, instrument.clone()));
        instrument
    }

    /// The instruments sorted by name.
    fn sorted(&self) -> Vec<&(Rc<str>, I)> {
        let mut sorted: Vec<_> = self.ordered.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        sorted
    }
}

#[derive(Default)]
struct Registry {
    counters: Family<Counter>,
    gauges: Family<Gauge>,
    histograms: Family<Histogram>,
}

/// A shared, clonable registry of named instruments.
#[derive(Clone, Default)]
pub struct Metrics {
    registry: Rc<RefCell<Registry>>,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.registry.borrow();
        f.debug_struct("Metrics")
            .field("counters", &r.counters.ordered.len())
            .field("gauges", &r.gauges.ordered.len())
            .field("histograms", &r.histograms.ordered.len())
            .finish()
    }
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The counter named `name`, registering it at zero on first use.
    /// Repeated calls (from any clone) return handles to the same value.
    pub fn counter(&self, name: &str) -> Counter {
        let mut r = self.registry.borrow_mut();
        r.counters.get_or_register(name, Counter::default)
    }

    /// The gauge named `name`, registering it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut r = self.registry.borrow_mut();
        r.gauges.get_or_register(name, Gauge::default)
    }

    /// The histogram named `name`, creating it with `bounds` on first
    /// use. Later calls return the existing histogram and ignore
    /// `bounds` (the buckets are fixed for its lifetime).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut r = self.registry.borrow_mut();
        r.histograms
            .get_or_register(name, || Histogram::new(bounds))
    }

    /// The value of a counter, or `None` if it was never registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.registry.borrow().counters.get(name).map(Counter::get)
    }

    /// The value of a gauge, or `None` if it was never registered.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.registry.borrow().gauges.get(name).map(Gauge::get)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram_named(&self, name: &str) -> Option<Histogram> {
        self.registry.borrow().histograms.get(name).cloned()
    }

    /// Every registered instrument rendered as sorted `name value` lines:
    /// counters first, then gauges, then histograms (count / mean / p50 /
    /// p90 / p95 / p99 at bucket resolution, max exact).
    pub fn report(&self) -> String {
        let r = self.registry.borrow();
        let mut out = String::new();
        for (name, c) in r.counters.sorted() {
            out.push_str(&format!("counter {name} = {}\n", c.get()));
        }
        for (name, g) in r.gauges.sorted() {
            out.push_str(&format!("gauge {name} = {}\n", g.get()));
        }
        for (name, h) in r.histograms.sorted() {
            let p50 = render_bucket_bound(h.quantile(0.5));
            let p90 = render_bucket_bound(h.quantile(0.9));
            let p95 = render_bucket_bound(h.quantile(0.95));
            let p99 = render_bucket_bound(h.quantile(0.99));
            let max = match h.max() {
                Some(v) => v.to_string(),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "histogram {name}: count {} mean {} p50 {p50} p90 {p90} p95 {p95} p99 {p99} max {max}\n",
                h.count(),
                h.mean()
            ));
        }
        out
    }

    /// How many counters, gauges and histograms are registered. The
    /// registry is append-only, so a holder of handles (the time-series
    /// store) that has a kind's first `n` instruments has exactly those at
    /// positions below `n`, and meets the rest as the tail.
    pub fn instrument_counts(&self) -> [usize; 3] {
        let r = self.registry.borrow();
        [
            r.counters.ordered.len(),
            r.gauges.ordered.len(),
            r.histograms.ordered.len(),
        ]
    }

    /// The position of the instrument named `name` among those of kind
    /// `kind` (0 counters, 1 gauges, 2 histograms, as
    /// [`instrument_counts`](Metrics::instrument_counts) counts them), if
    /// one is registered.
    pub fn position(&self, kind: usize, name: &str) -> Option<usize> {
        let r = self.registry.borrow();
        let index = [&r.counters.index, &r.gauges.index, &r.histograms.index][kind];
        index.get(name).copied()
    }

    /// Whether `other` is a clone of this registry (the same instruments,
    /// not merely the same names). The time-series store asserts with it
    /// that it is fed one registry.
    pub fn same_registry(&self, other: &Metrics) -> bool {
        Rc::ptr_eq(&self.registry, &other.registry)
    }

    /// Visits every counter in registration order (deterministic: the
    /// same build path registers instruments in the same order). `f` must
    /// not register new instruments — the registry borrow is held.
    pub fn for_each_counter(&self, mut f: impl FnMut(&str, &Counter)) {
        for (name, c) in &self.registry.borrow().counters.ordered {
            f(name, c);
        }
    }

    /// Visits every gauge in registration order. Same borrow caveat as
    /// [`for_each_counter`](Metrics::for_each_counter).
    pub fn for_each_gauge(&self, mut f: impl FnMut(&str, &Gauge)) {
        for (name, g) in &self.registry.borrow().gauges.ordered {
            f(name, g);
        }
    }

    /// Visits every histogram in registration order. Same borrow caveat
    /// as [`for_each_counter`](Metrics::for_each_counter).
    pub fn for_each_histogram(&self, mut f: impl FnMut(&str, &Histogram)) {
        for (name, h) in &self.registry.borrow().histograms.ordered {
            f(name, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_is_shared_by_name() {
        let m = Metrics::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(m.counter_value("x"), Some(5));
        assert_eq!(a.get(), 5);
        assert_eq!(m.counter_value("missing"), None);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let m = Metrics::new();
        let g = m.gauge("depth");
        g.add(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        g.set(-1);
        assert_eq!(m.gauge_value("depth"), Some(-1));
    }

    /// Thousands of names, as a bridged world of many segments registers:
    /// each lookup finds the handle its registration returned, and the
    /// registry keeps registration order, not name order.
    #[test]
    fn thousands_of_names_keep_their_handles_and_their_order() {
        let m = Metrics::new();
        let names: Vec<String> = (0..3_000)
            .rev()
            .map(|i| format!("net.seg{i}.sent"))
            .collect();
        let counters: Vec<Counter> = names.iter().map(|n| m.counter(n)).collect();
        let gauges: Vec<Gauge> = names.iter().map(|n| m.gauge(n)).collect();
        let hists: Vec<Histogram> = names.iter().map(|n| m.histogram(n, &[1])).collect();
        for (i, name) in names.iter().enumerate() {
            counters[i].add(i as u64);
            gauges[i].set(-(i as i64));
            m.histogram(name, &[]).observe(i as u64);
            assert_eq!(m.counter_value(name), Some(i as u64));
            assert_eq!(m.counter(name).get(), i as u64);
            assert_eq!(m.gauge_value(name), Some(-(i as i64)));
            let h = m.histogram_named(name).expect("registered above");
            assert!(Rc::ptr_eq(&h.inner, &hists[i].inner));
            assert_eq!((h.count(), h.bounds()), (1, &[1][..]));
        }
        assert_eq!(m.instrument_counts(), [3_000; 3]);
        let mut order = Vec::new();
        m.for_each_counter(|name, _| order.push(name.to_string()));
        assert_eq!(order, names, "registration order");
        order.clear();
        m.for_each_gauge(|name, _| order.push(name.to_string()));
        m.for_each_histogram(|name, _| order.push(name.to_string()));
        assert!(order.iter().eq(names.iter().chain(&names)));
        assert_eq!(m.counter_value("net.seg3000.sent"), None);
    }

    #[test]
    fn clones_share_the_registry() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.counter("shared").inc();
        assert_eq!(m2.counter_value("shared"), Some(1));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let m = Metrics::new();
        let h = m.histogram("lat", &[10, 100, 1_000]);
        for v in [5, 7, 50, 500, 5_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5_562);
        assert_eq!(h.mean(), 1_112);
        assert_eq!(
            h.buckets(),
            vec![(10, 2), (100, 1), (1_000, 1), (u64::MAX, 1)]
        );
        // 2/5 of mass is <=10; the median lands in the <=100 bucket.
        assert_eq!(h.quantile(0.4), Some(10));
        assert_eq!(h.quantile(0.5), Some(100));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert_eq!(h.max(), Some(5_000), "max is exact, not bucket-rounded");
        assert_eq!(
            m.histogram("lat", &[999]).count(),
            5,
            "bounds fixed at creation"
        );
    }

    #[test]
    fn quantile_rounding_at_bucket_boundaries() {
        let m = Metrics::new();
        let h = m.histogram("q", &[1, 2, 3, 4]);
        for v in [1, 2, 3, 4] {
            h.observe(v);
        }
        // ceil(q * 4) observations must sit at or below the answer:
        // q=0.25 needs 1 observation, exactly the first bucket.
        assert_eq!(h.quantile(0.25), Some(1));
        // q just past a boundary needs one more observation.
        assert_eq!(h.quantile(0.2500001), Some(2));
        assert_eq!(h.quantile(0.5), Some(2));
        assert_eq!(h.quantile(0.75), Some(3));
        assert_eq!(h.quantile(0.9), Some(4), "ceil(3.6) = 4 observations");
        assert_eq!(h.quantile(0.99), Some(4));
        // Out-of-range inputs clamp instead of panicking; q=0 still needs
        // at least one observation.
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(-1.0), Some(1));
        assert_eq!(h.quantile(2.0), Some(4));
    }

    #[test]
    fn quantile_with_empty_buckets_between_mass() {
        let m = Metrics::new();
        let h = m.histogram("sparse", &[10, 20, 30]);
        h.observe(5);
        h.observe(25); // skips the <=20 bucket entirely
        assert_eq!(h.quantile(0.5), Some(10));
        assert_eq!(
            h.quantile(0.51),
            Some(30),
            "empty bucket contributes no mass"
        );
        assert_eq!(h.max(), Some(25));
    }

    #[test]
    fn bucket_quantile_helper_matches_histogram() {
        let m = Metrics::new();
        let h = m.histogram("twin", &[10, 100]);
        for v in [1, 50, 5_000] {
            h.observe(v);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(bucket_quantile(&h.buckets(), q), h.quantile(q));
        }
        assert_eq!(bucket_quantile(&[], 0.5), None);
        assert_eq!(bucket_quantile(&[(10, 0), (u64::MAX, 0)], 0.5), None);
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let m = Metrics::new();
        let h = m.histogram("empty", &[1]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn bucket_boundary_is_inclusive() {
        let m = Metrics::new();
        let h = m.histogram("edge", &[10]);
        h.observe(10);
        h.observe(11);
        assert_eq!(h.buckets(), vec![(10, 1), (u64::MAX, 1)]);
    }

    #[test]
    fn report_lists_sorted_instruments() {
        let m = Metrics::new();
        m.counter("b.count").add(2);
        m.counter("a.count").inc();
        m.gauge("live").set(3);
        m.histogram("h", &[100]).observe(7);
        let report = m.report();
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines[0], "counter a.count = 1");
        assert_eq!(lines[1], "counter b.count = 2");
        assert_eq!(lines[2], "gauge live = 3");
        assert_eq!(
            lines[3],
            "histogram h: count 1 mean 7 p50 <=100 p90 <=100 p95 <=100 p99 <=100 max 7"
        );
    }

    #[test]
    fn for_each_visits_in_registration_order() {
        let m = Metrics::new();
        m.counter("z").inc();
        m.counter("a").add(2);
        m.gauge("g").set(-4);
        m.histogram("h", &[10]).observe(3);
        let mut names = Vec::new();
        m.for_each_counter(|n, c| names.push(format!("{n}={}", c.get())));
        assert_eq!(names, vec!["z=1", "a=2"], "registration order, not sorted");
        let mut gauges = Vec::new();
        m.for_each_gauge(|n, g| gauges.push(format!("{n}={}", g.get())));
        assert_eq!(gauges, vec!["g=-4"]);
        let mut hists = Vec::new();
        m.for_each_histogram(|n, h| hists.push(format!("{n}:{}", h.count())));
        assert_eq!(hists, vec!["h:1"]);
    }
}
