//! Order statistics over timing samples.
//!
//! Units repeat the same deterministic work, so every difference between
//! two samples is host noise, and host noise only ever adds time. The
//! gated statistic is therefore the lower quartile; the median and a tail
//! percentile are reported beside it.

/// A quantile by linear interpolation between closest ranks (the
/// "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
/// Returns 0 for an empty sample so callers need no special case.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(&s, q)
}

fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    match s.len() {
        0 => 0.0,
        1 => s[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

/// The lower quartile: the statistic every host-time metric is gated on.
pub fn p25(samples: &[f64]) -> f64 {
    quantile(samples, 0.25)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(percentile in 0..100, its value)`. With fewer than eleven samples no
/// percentile qualifies and the result is `None`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut s: Vec<f64> = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let idx = n - 11;
    Some((100.0 * idx as f64 / (n - 1) as f64, s[idx]))
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so `compare` and a reader with a
/// Python prompt agree. Needs at least two values.
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut s: Vec<f64> = values.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p25_and_median_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(p25(&v), 2.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(p25(&[1.0, 2.0]), 1.25);
        assert_eq!(p25(&[7.0]), 7.0);
        assert_eq!(p25(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.0, 1.0)));
        let v: Vec<f64> = (1..=64).rev().map(f64::from).collect();
        let (pct, value) = tail(&v).expect("64 samples qualify");
        assert_eq!(value, 54.0);
        assert_eq!(v.iter().filter(|x| **x > value).count(), 10);
        assert!((pct - 100.0 * 53.0 / 63.0).abs() < 1e-9);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(
            quartiles_exclusive(&[4.0, 1.0, 3.0, 2.0]),
            Some((1.25, 3.75))
        );
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles_exclusive(&[1.0]), None);
    }
}
