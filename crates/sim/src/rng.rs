//! Deterministic random numbers for the simulation.
//!
//! Everything stochastic in the reproduction — packet loss, scheduling
//! jitter, session-identifier generation — draws from a [`DetRng`] seeded
//! from the experiment configuration, so any run can be replayed exactly.
//!
//! The generator is implemented in-repo (no external crates): a
//! xoshiro256** core whose 256-bit state is expanded from the 64-bit seed
//! with SplitMix64, the initialisation recommended by the xoshiro authors.
//! Owning the algorithm keeps the stream stable forever — a dependency
//! upgrade can never silently change what "seed 42" means, which matters
//! because recorded experiment seeds are the repo's replay format.

/// SplitMix64: expands a 64-bit seed into well-distributed state words.
///
/// Used for seeding here, and as a one-round mixer by span sampling and
/// the property harness's case seeds; it is a fine generator on its own
/// but its 64-bit state is too small for the simulation's fork-heavy usage.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, splittable random-number generator (xoshiro256**).
///
/// # Examples
///
/// ```
/// use pilgrim_sim::DetRng;
/// let mut a = DetRng::seed(7);
/// let mut b = DetRng::seed(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> DetRng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut sm);
        }
        // xoshiro256** is only degenerate in the all-zero state, which
        // SplitMix64 cannot produce from any seed; guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        DetRng { s }
    }

    /// Derives an independent stream named by `label`.
    ///
    /// Forked streams decouple unrelated consumers: drawing extra packet-loss
    /// samples does not perturb, say, session-id generation.
    pub fn fork(&mut self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        DetRng::seed(h ^ self.next_u64())
    }

    /// A uniformly random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniformly random value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift with rejection, so the distribution is
    /// exactly uniform for every bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire 2018: map x*bound >> 64, rejecting the biased low fringe.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniformly random value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// A uniformly random `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 top bits → the standard [0, 1) double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(42);
        let mut b = DetRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    /// The stream is pinned: these values are the repo's replay contract.
    /// If this test ever fails, recorded experiment seeds no longer replay
    /// the same runs — do not "fix" it by updating the constants.
    #[test]
    fn stream_is_pinned_forever() {
        let mut r = DetRng::seed(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                11_091_344_671_253_066_420,
                13_793_997_310_169_335_082,
                1_900_383_378_846_508_768,
                7_684_712_102_626_143_532,
            ]
        );
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let mut base1 = DetRng::seed(9);
        let mut base2 = DetRng::seed(9);
        let mut f1 = base1.fork("loss");
        let mut f2 = base2.fork("loss");
        assert_eq!(f1.next_u64(), f2.next_u64());

        let mut base3 = DetRng::seed(9);
        let mut g = base3.fork("sessions");
        assert_ne!(DetRng::seed(9).fork("loss").next_u64(), g.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn below_and_range_bounds() {
        let mut r = DetRng::seed(5);
        for _ in 0..1000 {
            let v = r.below(17);
            assert!(v < 17);
            let w = r.range(10, 20);
            assert!((10..20).contains(&w));
        }
    }

    #[test]
    fn below_covers_small_ranges_uniformly() {
        let mut r = DetRng::seed(8);
        let mut counts = [0u32; 5];
        for _ in 0..10_000 {
            counts[r.below(5) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!((1_800..2_200).contains(c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut r = DetRng::seed(13);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u), "u={u}");
        }
    }

    #[test]
    fn chance_probability_is_roughly_right() {
        let mut r = DetRng::seed(11);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        DetRng::seed(0).below(0);
    }
}
