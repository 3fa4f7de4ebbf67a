//! Simulated time: microsecond-resolution instants and durations.
//!
//! All timing in the reproduction is *simulated*: the paper's quantitative
//! claims (400 µs RPC overhead, 3.5 ms basic blocks, 8 ms RPC latency) are
//! statements about the target system's clock, which we model exactly. A
//! [`SimTime`] is an absolute instant measured in microseconds since the
//! simulation epoch; a [`SimDuration`] is a difference of instants.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, in microseconds since the epoch.
///
/// # Examples
///
/// ```
/// use pilgrim_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_micros(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Examples
///
/// ```
/// use pilgrim_sim::SimDuration;
/// assert_eq!(SimDuration::from_millis(3) + SimDuration::from_micros(500),
///            SimDuration::from_micros(3_500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> SimTime {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the epoch
    /// (saturating at [`SimTime::MAX`], like every constructor and
    /// operator here: callers pass program-supplied values).
    pub const fn from_millis(millis: u64) -> SimTime {
        SimTime(millis.saturating_mul(1_000))
    }

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> SimTime {
        SimTime(secs.saturating_mul(1_000_000))
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference between two instants.
    ///
    /// Returns `None` when `earlier` is after `self`.
    pub const fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        match self.0.checked_sub(earlier.0) {
            Some(d) => Some(SimDuration(d)),
            None => None,
        }
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration (used as "forever" / no timeout).
    pub const FOREVER: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> SimDuration {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds (saturating at
    /// [`SimDuration::FOREVER`], as do the coarser units below).
    pub const fn from_millis(millis: u64) -> SimDuration {
        SimDuration(millis.saturating_mul(1_000))
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> SimDuration {
        SimDuration(secs.saturating_mul(1_000_000))
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> SimDuration {
        SimDuration(mins.saturating_mul(60_000_000))
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> SimDuration {
        SimDuration(hours.saturating_mul(3_600_000_000))
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Length as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked multiplication by an integer factor.
    pub const fn checked_mul(self, factor: u64) -> Option<SimDuration> {
        match self.0.checked_mul(factor) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign<SimDuration> for SimTime {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Elapsed time between two instants (saturating at zero).
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us == u64::MAX {
            write!(f, "forever")
        } else if us >= 1_000_000 {
            write!(f, "{:.3}s", us as f64 / 1e6)
        } else if us >= 1_000 {
            write!(f, "{:.3}ms", us as f64 / 1e3)
        } else {
            write!(f, "{us}us")
        }
    }
}

impl From<SimDuration> for u64 {
    fn from(d: SimDuration) -> u64 {
        d.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1), SimTime::ZERO);
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_secs(1)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::from_secs(1).checked_since(SimTime::from_secs(2)),
            None
        );
        assert_eq!(
            SimTime::from_secs(2).checked_since(SimTime::from_secs(1)),
            Some(SimDuration::from_secs(1))
        );
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(42).to_string(), "42us");
        assert_eq!(SimDuration::from_micros(3_500).to_string(), "3.500ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::FOREVER.to_string(), "forever");
        assert_eq!(SimTime::from_millis(1).to_string(), "T+1.000ms");
    }

    #[test]
    fn forever_never_advances_time_past_max() {
        let t = SimTime::from_secs(5) + SimDuration::FOREVER;
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn unit_constructors_saturate_at_the_boundary() {
        // The last exact value, then the first that overflows u64 µs.
        let ms = u64::MAX / 1_000;
        assert_eq!(SimDuration::from_millis(ms).as_micros(), ms * 1_000);
        assert_eq!(SimDuration::from_millis(ms + 1), SimDuration::FOREVER);
        assert_eq!(SimTime::from_millis(ms).as_micros(), ms * 1_000);
        assert_eq!(SimTime::from_millis(ms + 1), SimTime::MAX);
        let s = u64::MAX / 1_000_000;
        assert_eq!(SimDuration::from_secs(s).as_micros(), s * 1_000_000);
        assert_eq!(SimDuration::from_secs(s + 1), SimDuration::FOREVER);
        assert_eq!(SimTime::from_secs(s).as_micros(), s * 1_000_000);
        assert_eq!(SimTime::from_secs(s + 1), SimTime::MAX);
        assert_eq!(SimDuration::from_mins(u64::MAX), SimDuration::FOREVER);
        assert_eq!(SimDuration::from_hours(u64::MAX), SimDuration::FOREVER);
        // The issue's reproducer: a program-supplied `sleep` argument.
        assert_eq!(
            SimTime::from_micros(394) + SimDuration::from_millis(18_446_744_073_709_553),
            SimTime::MAX
        );
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(
            SimDuration::from_millis(3) * 4,
            SimDuration::from_millis(12)
        );
        assert_eq!(SimDuration::from_micros(7).checked_mul(u64::MAX), None);
    }
}
