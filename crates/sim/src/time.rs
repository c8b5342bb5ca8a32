//! Simulated time.
//!
//! All simulation time is kept in integer **microseconds** so that event
//! ordering is exact and runs are bit-for-bit reproducible. Two newtypes are
//! provided: [`SimTime`] is a point on the simulated timeline and
//! [`Duration`] is a span between two points. They are deliberately distinct
//! types (`SimTime + SimTime` does not compile) to rule out a class of
//! unit-confusion bugs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in microseconds since the start of the run.
///
/// # Example
///
/// ```
/// use rolo_sim::{SimTime, Duration};
/// let t = SimTime::ZERO + Duration::from_secs(2);
/// assert_eq!(t.as_micros(), 2_000_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Example
///
/// ```
/// use rolo_sim::Duration;
/// let d = Duration::from_millis(3) + Duration::from_micros(500);
/// assert_eq!(d.as_micros(), 3_500);
/// assert!((d.as_secs_f64() - 0.0035).abs() < 1e-12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time point from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time point from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time point from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Returns the raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        debug_assert!(
            earlier <= self,
            "SimTime::since called with a later time: {earlier:?} > {self:?}"
        );
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating duration until `later` (zero if `later` is in the past).
    #[inline]
    pub fn until(self, later: SimTime) -> Duration {
        Duration(later.0.saturating_sub(self.0))
    }

    /// Returns the later of two time points.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two time points.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Creates a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration seconds: {s}");
        Duration((s * 1e6).round() as u64)
    }

    /// Returns the raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the span as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two spans.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(rhs.0 <= self.0, "Duration subtraction underflow");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(Duration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(Duration::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn arithmetic_basics() {
        let t = SimTime::from_secs(10);
        let d = Duration::from_secs(4);
        assert_eq!((t + d).as_micros(), 14_000_000);
        assert_eq!((t - d).as_micros(), 6_000_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(SimTime::from_secs(6)), d);
    }

    #[test]
    fn until_saturates() {
        let t = SimTime::from_secs(10);
        assert_eq!(t.until(SimTime::from_secs(4)), Duration::ZERO);
        assert_eq!(t.until(SimTime::from_secs(14)), Duration::from_secs(4));
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_millis(2);
        assert_eq!((d * 3).as_micros(), 6_000);
        assert_eq!((d / 2).as_micros(), 1_000);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_millis).sum();
        assert_eq!(total, Duration::from_millis(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Duration::from_micros(12).to_string(), "12us");
        assert_eq!(Duration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Duration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            Duration::from_secs(1).max(Duration::from_secs(2)),
            Duration::from_secs(2)
        );
    }

    #[test]
    fn saturating_behaviour_at_extremes() {
        assert_eq!(SimTime::MAX + Duration::from_secs(1), SimTime::MAX);
        assert_eq!(
            Duration::ZERO.saturating_sub(Duration::from_secs(1)),
            Duration::ZERO
        );
    }
}
