//! Deterministic open-loop workload generation.
//!
//! An *open-loop* generator decides when requests arrive from a process
//! that does not look at how the system is coping — arrivals keep coming
//! at the configured rate even when the system falls behind, which is
//! what makes open-loop load the honest way to measure latency under
//! stress (closed-loop clients self-throttle and hide queueing). Here
//! the arrival process is Poisson: inter-arrival gaps are exponentially
//! distributed around `1/rate`, sampled from a seeded [`DetRng`] so the
//! same scenario seed always produces the same arrival timeline, on any
//! platform.
//!
//! The exponential sampler is integer-only. `f64::ln` rounds differently
//! across libm implementations, which would make an arrival timeline —
//! and therefore every recorded trace built on it — platform-dependent.
//! Instead we invert the exponential CDF through a fixed-point quantile
//! table (2^16 scale, 64 entries) with linear interpolation, and use the
//! memoryless property for the tail: drawing the last table slot adds
//! `ln(64)` to the accumulated gap and resamples, so the distribution is
//! unbounded even though the table is not.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// `-ln(1 - i/64)` in 2^16 fixed point, for `i` in `0..64`.
const EXP_TABLE: [u32; 64] = [
    0, 1032, 2081, 3146, 4230, 5331, 6451, 7591, 8751, 9932, 11135, 12360, 13608, 14880, 16178,
    17502, 18854, 20233, 21643, 23083, 24556, 26063, 27605, 29184, 30802, 32461, 34164, 35911,
    37707, 39553, 41453, 43409, 45426, 47507, 49656, 51877, 54177, 56561, 59034, 61604, 64280,
    67069, 69982, 73031, 76228, 79590, 83133, 86879, 90852, 95082, 99603, 104460, 109706, 115408,
    121654, 128559, 136278, 145029, 155132, 167080, 181704, 200558, 227130, 272557,
];

/// `ln(64)` in 2^16 fixed point — the tail step.
const LN64_FP: u64 = 272_557;

/// Draws one exponential variate with the given mean, in microseconds.
fn exp_gap(rng: &mut DetRng, mean_us: u64) -> u64 {
    // Accumulated tail offsets (already scaled by the mean).
    let mut base: u64 = 0;
    loop {
        let i = rng.below(64) as usize;
        if i == 63 {
            // Memoryless tail: past the last quantile, restart the draw
            // ln(64) further out.
            base += (LN64_FP * mean_us) >> 16;
            continue;
        }
        let lo = EXP_TABLE[i] as u64;
        let hi = EXP_TABLE[i + 1] as u64;
        let f = rng.below(1024);
        let fp = lo + ((hi - lo) * f) / 1024;
        return base + ((fp * mean_us) >> 16);
    }
}

/// A weighted mix of named operations; each arrival picks one.
#[derive(Debug, Clone, Default)]
pub struct OpMix {
    ops: Vec<(String, u64)>,
    total: u64,
}

impl OpMix {
    /// An empty mix; add entries with [`OpMix::push`].
    pub fn new() -> OpMix {
        OpMix::default()
    }

    /// Adds an operation with an integer weight (zero weights are
    /// dropped — they can never be picked).
    pub fn push(&mut self, name: &str, weight: u64) {
        if weight > 0 {
            self.ops.push((name.to_string(), weight));
            self.total += weight;
        }
    }

    /// Number of operations with non-zero weight.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the mix empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations and weights, in insertion order.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.ops
    }

    /// Picks one operation, weight-proportionally, from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty.
    pub fn pick<'a>(&'a self, rng: &mut DetRng) -> &'a str {
        assert!(!self.ops.is_empty(), "picking from an empty OpMix");
        let mut roll = rng.below(self.total);
        for (name, w) in &self.ops {
            if roll < *w {
                return name;
            }
            roll -= w;
        }
        unreachable!("weights sum to total")
    }
}

/// One scheduled stimulus: at `at`, client `client` performs `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Absolute arrival time.
    pub at: SimTime,
    /// Which client issues it, in `0..clients`.
    pub client: u64,
    /// Operation name, from the mix.
    pub op: String,
}

/// Seeded open-loop arrival generator: Poisson arrivals at a fixed
/// aggregate rate, each assigned a uniformly random client and a
/// weight-proportional operation.
///
/// Iterate it for an endless timeline, or call [`OpenLoop::take_until`]
/// for a bounded batch.
#[derive(Debug)]
pub struct OpenLoop {
    rng: DetRng,
    mean_us: u64,
    clients: u64,
    mix: OpMix,
    now: SimTime,
    /// Lookahead for [`OpenLoop::take_until`]: an arrival drawn past the
    /// deadline stays buffered so a later call (or the iterator) still
    /// yields it.
    pending: Option<Arrival>,
}

impl OpenLoop {
    /// A generator producing `rate_per_sec` arrivals per second on
    /// average, spread over `clients` clients, drawing operations from
    /// `mix`. Forks its private RNG stream off `rng`, so the caller's
    /// stream is perturbed exactly once regardless of how many arrivals
    /// are drawn.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` or `clients` is zero, or the mix is
    /// empty.
    pub fn new(rng: &mut DetRng, rate_per_sec: u64, clients: u64, mix: OpMix) -> OpenLoop {
        assert!(rate_per_sec > 0, "open-loop rate must be positive");
        assert!(clients > 0, "open-loop needs at least one client");
        assert!(!mix.is_empty(), "open-loop needs a non-empty op mix");
        OpenLoop {
            rng: rng.fork("open-loop"),
            mean_us: (1_000_000 / rate_per_sec).max(1),
            clients,
            mix,
            now: SimTime::ZERO,
            pending: None,
        }
    }

    /// All arrivals strictly before `deadline` (consuming them from the
    /// timeline; the first arrival at or past the deadline is buffered
    /// for the next call).
    pub fn take_until(&mut self, deadline: SimTime) -> Vec<Arrival> {
        let mut out = Vec::new();
        loop {
            let a = self.next().expect("open-loop timeline is endless");
            if a.at >= deadline {
                self.pending = Some(a);
                break;
            }
            out.push(a);
        }
        out
    }
}

impl Iterator for OpenLoop {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if let Some(a) = self.pending.take() {
            return Some(a);
        }
        // Draw order per arrival is fixed: gap, then client, then op.
        let gap = exp_gap(&mut self.rng, self.mean_us);
        let at = self.now + SimDuration::from_micros(gap);
        self.now = at;
        let client = self.rng.below(self.clients);
        let op = self.mix.pick(&mut self.rng).to_string();
        Some(Arrival { at, client, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> OpMix {
        let mut m = OpMix::new();
        m.push("lookup", 4);
        m.push("read", 3);
        m.push("write", 2);
        m.push("auth", 1);
        m
    }

    #[test]
    fn same_seed_same_timeline() {
        let run = |seed| {
            let mut rng = DetRng::seed(seed);
            OpenLoop::new(&mut rng, 1000, 64, mix())
                .take(500)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn mean_gap_tracks_rate() {
        // 1000/s → 1 ms mean. Over 20k draws the sample mean should land
        // within a few percent (the fixed-point table is exact to ~0.5%).
        let mut rng = DetRng::seed(42);
        let gen = OpenLoop::new(&mut rng, 1000, 8, mix());
        let arrivals: Vec<Arrival> = gen.take(20_000).collect();
        let span = arrivals.last().unwrap().at.as_micros();
        let mean = span / (arrivals.len() as u64 - 1);
        assert!(
            (950..=1_050).contains(&mean),
            "sample mean {mean} µs should be ≈1000 µs"
        );
    }

    #[test]
    fn arrivals_are_monotonic_and_unbounded() {
        let mut rng = DetRng::seed(3);
        let arrivals: Vec<Arrival> = OpenLoop::new(&mut rng, 10_000, 4, mix())
            .take(50_000)
            .collect();
        for w in arrivals.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
        // The memoryless tail must occasionally exceed the table's reach
        // (table max ≈ 4.16 × mean).
        let mean = 100u64;
        let long = arrivals
            .windows(2)
            .filter(|w| w[1].at.as_micros() - w[0].at.as_micros() > 5 * mean)
            .count();
        assert!(long > 0, "tail beyond the quantile table must occur");
    }

    #[test]
    fn op_mix_respects_weights() {
        let mut rng = DetRng::seed(11);
        let m = mix();
        let mut counts = [0u32; 4];
        for _ in 0..10_000 {
            match m.pick(&mut rng) {
                "lookup" => counts[0] += 1,
                "read" => counts[1] += 1,
                "write" => counts[2] += 1,
                "auth" => counts[3] += 1,
                other => panic!("unexpected op {other}"),
            }
        }
        // 4:3:2:1 over 10k picks — generous ±25% bands.
        assert!((3_000..=5_000).contains(&counts[0]), "lookup {counts:?}");
        assert!((2_200..=3_800).contains(&counts[1]), "read {counts:?}");
        assert!((1_400..=2_600).contains(&counts[2]), "write {counts:?}");
        assert!((700..=1_300).contains(&counts[3]), "auth {counts:?}");
    }

    #[test]
    fn zero_weight_ops_never_picked() {
        let mut m = OpMix::new();
        m.push("always", 1);
        m.push("never", 0);
        assert_eq!(m.len(), 1);
        let mut rng = DetRng::seed(0);
        for _ in 0..100 {
            assert_eq!(m.pick(&mut rng), "always");
        }
    }

    #[test]
    fn take_until_is_a_prefix_of_the_iterator() {
        let deadline = SimTime::from_millis(100);
        let mut rng = DetRng::seed(5);
        let mut gen = OpenLoop::new(&mut rng, 1000, 4, mix());
        let batch = gen.take_until(deadline);
        assert!(!batch.is_empty());
        assert!(batch.iter().all(|a| a.at < deadline));

        let mut rng = DetRng::seed(5);
        let gen2 = OpenLoop::new(&mut rng, 1000, 4, mix());
        let replayed: Vec<Arrival> = gen2.take(batch.len()).collect();
        assert_eq!(batch, replayed);
    }

    #[test]
    fn clients_span_the_full_range() {
        let mut rng = DetRng::seed(1);
        let seen: std::collections::HashSet<u64> = OpenLoop::new(&mut rng, 1000, 8, mix())
            .take(1_000)
            .map(|a| a.client)
            .collect();
        assert_eq!(seen.len(), 8, "all 8 clients should appear in 1k draws");
    }
}
