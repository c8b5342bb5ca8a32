//! Stochastic event-schedule sampling.
//!
//! Helpers for pre-computing the instants at which rare events (disk
//! failures, scrub passes, …) fire during a run. Sampling the whole
//! schedule up front keeps the main event loop deterministic: the
//! schedule depends only on the seed, never on how the run interleaves.

use crate::rng::SimRng;
use crate::time::{Duration, SimTime};

/// Samples a Poisson arrival schedule with `rate_per_sec` events per
/// second over `[0, horizon)`, as successive exponential inter-arrival
/// gaps. A zero (or negative) rate yields an empty schedule.
///
/// # Example
///
/// ```
/// use rolo_sim::{schedule, Duration, SimRng};
/// let mut rng = SimRng::seed_from(7);
/// let times = schedule::exponential_arrivals(&mut rng, 0.1, Duration::from_secs(100));
/// assert!(times.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn exponential_arrivals(
    rng: &mut SimRng,
    rate_per_sec: f64,
    horizon: Duration,
) -> Vec<SimTime> {
    let mut out = Vec::new();
    if rate_per_sec <= 0.0 || !rate_per_sec.is_finite() {
        return out;
    }
    let mean = 1.0 / rate_per_sec;
    let end = SimTime::ZERO + horizon;
    let mut t = SimTime::ZERO;
    loop {
        t += Duration::from_secs_f64(rng.exp(mean));
        if t >= end {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_yields_nothing() {
        let mut rng = SimRng::seed_from(1);
        assert!(exponential_arrivals(&mut rng, 0.0, Duration::from_secs(1000)).is_empty());
    }

    #[test]
    fn arrivals_are_sorted_and_bounded() {
        let mut rng = SimRng::seed_from(2);
        let horizon = Duration::from_secs(500);
        let times = exponential_arrivals(&mut rng, 0.05, horizon);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| t < SimTime::ZERO + horizon));
    }

    #[test]
    fn count_matches_rate_roughly() {
        let mut rng = SimRng::seed_from(3);
        // λ = 0.1/s over 10 000 s → ~1000 arrivals.
        let times = exponential_arrivals(&mut rng, 0.1, Duration::from_secs(10_000));
        assert!(
            (800..1200).contains(&times.len()),
            "got {} arrivals",
            times.len()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = exponential_arrivals(&mut SimRng::seed_from(9), 0.2, Duration::from_secs(100));
        let b = exponential_arrivals(&mut SimRng::seed_from(9), 0.2, Duration::from_secs(100));
        assert_eq!(a, b);
    }
}
