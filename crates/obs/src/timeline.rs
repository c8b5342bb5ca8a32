//! Sampled time-series for quantities like occupied logging capacity
//! (Fig. 2a plots logging capacity over time).

use rolo_sim::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// A time-series sampled at a fixed minimum interval.
///
/// Pushes falling within the same sampling interval overwrite the previous
/// value, so the series stays bounded regardless of event rate while the
/// last value in each interval (what a plotter wants) is retained.
///
/// # Example
///
/// ```
/// use rolo_obs::Timeline;
/// use rolo_sim::{Duration, SimTime};
///
/// let mut tl = Timeline::new(Duration::from_secs(60));
/// tl.push(SimTime::from_secs(0), 0.0);
/// tl.push(SimTime::from_secs(30), 5.0);   // same minute: overwrites
/// tl.push(SimTime::from_secs(90), 9.0);
/// assert_eq!(tl.samples(), &[(SimTime::from_secs(0), 5.0), (SimTime::from_secs(90), 9.0)]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timeline {
    interval: Duration,
    points: Vec<(SimTime, f64)>,
}

impl Timeline {
    /// Creates a timeline with the given minimum sample spacing.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: Duration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        Timeline {
            interval,
            points: Vec::new(),
        }
    }

    /// Records `value` at `t`. If `t` falls within `interval` of the last
    /// retained sample, the last sample's value is updated in place.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(last) = self.points.last_mut() {
            if t.since(last.0.min(t)) < self.interval && t >= last.0 {
                last.1 = value;
                return;
            }
        }
        self.points.push((t, value));
    }

    /// The retained samples, in time order.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_within_interval() {
        let mut tl = Timeline::new(Duration::from_secs(10));
        tl.push(SimTime::from_secs(0), 1.0);
        tl.push(SimTime::from_secs(3), 2.0);
        tl.push(SimTime::from_secs(9), 3.0);
        tl.push(SimTime::from_secs(10), 4.0);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.samples()[0], (SimTime::from_secs(0), 3.0));
        assert_eq!(tl.samples()[1], (SimTime::from_secs(10), 4.0));
    }

    #[test]
    #[should_panic(expected = "sampling interval must be positive")]
    fn zero_interval_rejected() {
        Timeline::new(Duration::ZERO);
    }

    #[test]
    fn bounded_under_heavy_push() {
        let mut tl = Timeline::new(Duration::from_secs(60));
        for i in 0..100_000u64 {
            tl.push(SimTime::from_millis(i * 10), i as f64);
        }
        // 1000 s of data at one sample per minute: ~17 points.
        assert!(tl.len() <= 18, "{}", tl.len());
    }
}
