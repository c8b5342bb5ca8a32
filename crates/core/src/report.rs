//! End-of-run simulation report.

use crate::faults::FaultMetrics;
use crate::intervals::PhaseSummary;
use crate::policy::PolicyStats;
use rolo_disk::DiskEnergyReport;
use rolo_obs::{QuantileSketch, RunProfile};
use rolo_sim::Duration;
use serde::{Deserialize, Map, Serialize, Value};

/// Response-time statistics: a [`Duration`]-typed view over a
/// [`QuantileSketch`] of microseconds. Percentiles are within 1 % (plus
/// the rounding to whole microseconds) of the exact sample percentiles,
/// the mean is exact (the sketch sums integer microseconds), and [`ResponseStats::merge`] adds bucket counts, so a
/// merge answers every query as one collector fed both streams would.
///
/// # Example
///
/// ```
/// use rolo_core::ResponseStats;
/// use rolo_sim::Duration;
///
/// let mut s = ResponseStats::new();
/// s.record(Duration::from_millis(2));
/// s.record(Duration::from_millis(4));
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.mean(), Duration::from_millis(3));
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct ResponseStats(QuantileSketch);

impl ResponseStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one response time.
    pub fn record(&mut self, d: Duration) {
        self.0.record(d.as_micros() as f64);
    }

    /// Number of recorded responses.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Mean response time (zero if empty).
    pub fn mean(&self) -> Duration {
        Duration::from_micros(self.0.mean().round() as u64)
    }

    /// Mean as fractional milliseconds (the unit of Fig. 12).
    pub fn mean_ms(&self) -> f64 {
        self.0.mean() / 1e3
    }

    /// Fastest recorded response, or `None` if empty.
    pub fn min(&self) -> Option<Duration> {
        (!self.0.is_empty()).then(|| Duration::from_micros(self.0.min() as u64))
    }

    /// Slowest recorded response, or `None` if empty.
    pub fn max(&self) -> Option<Duration> {
        (!self.0.is_empty()).then(|| Duration::from_micros(self.0.max() as u64))
    }

    /// The `p`-th percentile (0–100) to the microsecond, or `None` if
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        self.0
            .percentile(p)
            .map(|us| Duration::from_micros(us.round() as u64))
    }

    /// Merges another collector into this one.
    pub fn merge(&mut self, other: &ResponseStats) {
        self.0.merge(&other.0);
    }
}

/// Everything a run produces. Energy, spin counts and phase summaries are
/// snapshotted at the configured trace end (before the drain phase), so
/// runs of different schemes compare over identical wall time; response
/// statistics cover every user request of the trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Scheme name.
    pub scheme: String,
    /// Configured trace duration (energy comparison window).
    pub trace_duration: Duration,
    /// Wall time at which the run fully drained.
    pub drained_at: Duration,
    /// User requests completed.
    pub user_requests: u64,
    /// Total array energy (J) over the trace window.
    pub total_energy_j: f64,
    /// Per-disk energy/residency over the trace window.
    pub energy_by_disk: Vec<DiskEnergyReport>,
    /// Sum of the per-disk reports.
    pub aggregate_energy: DiskEnergyReport,
    /// Spin cycles (spin-ups) over the trace window, array-wide.
    pub spin_cycles: u64,
    /// Response times over all user requests: the merge of
    /// `read_responses` and `write_responses`.
    pub responses: ResponseStats,
    /// Response times over reads.
    pub read_responses: ResponseStats,
    /// Response times over writes.
    pub write_responses: ResponseStats,
    /// Completed logging-phase summary at trace end.
    pub logging_phase: PhaseSummary,
    /// Completed destaging-phase summary at trace end.
    pub destaging_phase: PhaseSummary,
    /// Destaging interval ratio (Fig. 2c definition).
    pub destaging_interval_ratio: f64,
    /// Destaging energy ratio (Fig. 2d definition).
    pub destaging_energy_ratio: f64,
    /// Occupied logging capacity over time: (seconds, bytes).
    pub log_capacity_timeline: Vec<(f64, f64)>,
    /// Sampled aggregate power draw over time: (seconds, watts).
    pub power_timeline: Vec<(f64, f64)>,
    /// Scheme-specific counters.
    pub policy: PolicyStats,
    /// Fault-injection accounting, taken at the end of the run (after
    /// the drain, so rebuilds finishing post-trace still count).
    pub faults: FaultMetrics,
    /// Response times over user requests completed while the array was
    /// degraded (empty when no fault was injected).
    pub degraded_responses: ResponseStats,
    /// `Ok` when the end-of-run consistency audit passed.
    pub consistency: Result<(), String>,
    /// Wall-clock profiling of the run. Non-deterministic: excluded
    /// from [`SimReport::deterministic_json`].
    pub profile: RunProfile,
}

impl SimReport {
    /// Mean response time in milliseconds (the paper's headline metric).
    pub fn mean_response_ms(&self) -> f64 {
        self.responses.mean_ms()
    }

    /// Energy of this run relative to `baseline` (1.0 = equal; Fig. 10a
    /// normalises to RAID10).
    pub fn energy_vs(&self, baseline: &SimReport) -> f64 {
        if baseline.total_energy_j == 0.0 {
            return f64::NAN;
        }
        self.total_energy_j / baseline.total_energy_j
    }

    /// Fractional energy saved over `baseline` (the paper's "energy saved
    /// over RAID10/GRAID").
    pub fn energy_saved_over(&self, baseline: &SimReport) -> f64 {
        1.0 - self.energy_vs(baseline)
    }

    /// Mean response time relative to `baseline` (Fig. 10b).
    pub fn response_vs(&self, baseline: &SimReport) -> f64 {
        let b = baseline.mean_response_ms();
        if b == 0.0 {
            return f64::NAN;
        }
        self.mean_response_ms() / b
    }

    /// "Performance gained over" `baseline` as the paper states it
    /// (positive = faster than baseline).
    pub fn performance_gained_over(&self, baseline: &SimReport) -> f64 {
        1.0 - self.response_vs(baseline)
    }

    /// Compact JSON of the report with the wall-clock [`RunProfile`]
    /// stripped: two runs of the same seed and config — traced or not,
    /// serial or parallel — must produce byte-identical output.
    pub fn deterministic_json(&self) -> String {
        let value = Serialize::to_value(self);
        let Value::Object(map) = value else {
            unreachable!("SimReport serializes to an object");
        };
        let mut out = Map::new();
        for (k, v) in map.iter() {
            if k != "profile" {
                out.insert(k.clone(), v.clone());
            }
        }
        Value::Object(out).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rolo_obs::sketch::exact_percentile;

    #[test]
    fn empty_stats() {
        let s = ResponseStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), Duration::ZERO);
        assert!(s.min().is_none());
        assert!(s.max().is_none());
    }

    #[test]
    fn empty_has_no_percentiles() {
        let s = ResponseStats::new();
        assert_eq!(s.count(), 0);
        for p in [0.0, 50.0, 100.0] {
            assert!(s.percentile(p).is_none(), "p{p}");
        }
    }

    #[test]
    fn mean_and_extremes() {
        let mut s = ResponseStats::new();
        for ms in [1u64, 2, 3, 4, 5] {
            s.record(Duration::from_millis(ms));
        }
        assert_eq!(s.mean(), Duration::from_millis(3));
        assert_eq!(s.min().unwrap(), Duration::from_millis(1));
        assert_eq!(s.max().unwrap(), Duration::from_millis(5));
    }

    #[test]
    fn single_value_dominates_all_percentiles() {
        let mut s = ResponseStats::new();
        s.record(Duration::from_millis(10));
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), Some(Duration::from_millis(10)), "p{p}");
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut s = ResponseStats::new();
        for us in [10u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
            for _ in 0..10 {
                s.record(Duration::from_micros(us));
            }
        }
        let mut prev = Duration::ZERO;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
            let v = s.percentile(p).unwrap();
            assert!(v >= prev, "p{p}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn handles_extremes() {
        let mut s = ResponseStats::new();
        s.record(Duration::ZERO);
        s.record(Duration::from_secs(100_000));
        assert_eq!(s.count(), 2);
        // Sub-microsecond responses share the sketch's first bucket.
        assert!(s.percentile(0.0).unwrap() <= Duration::from_micros(1));
        assert_eq!(s.percentile(100.0), Some(Duration::from_secs(100_000)));
    }

    #[test]
    fn merge_equals_sequential() {
        let mut all = ResponseStats::new();
        let mut a = ResponseStats::new();
        let mut b = ResponseStats::new();
        for i in 0..100u64 {
            // Microseconds through seconds, so the merge spans buckets.
            let d = Duration::from_micros(10 + i * i * i * 37);
            all.record(d);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.mean_ms(), all.mean_ms());
        assert_eq!((a.min(), a.max()), (all.min(), all.max()));
        for p in [1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), all.percentile(p), "p{p}");
        }
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = ResponseStats::new();
        let mut b = ResponseStats::new();
        a.record(Duration::from_micros(50));
        b.record(Duration::from_secs(5));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.percentile(99.0).unwrap() > Duration::from_secs(1));
        assert_eq!(a.min(), Some(Duration::from_micros(50)));
    }

    #[test]
    fn merged_folds_many() {
        let mut m = ResponseStats::new();
        for d in [
            Duration::from_micros(10),
            Duration::from_millis(10),
            Duration::from_secs(10),
        ] {
            let mut part = ResponseStats::new();
            part.record(d);
            m.merge(&part);
        }
        assert_eq!(m.count(), 3);
        assert!(m.percentile(99.0).unwrap() >= Duration::from_secs(9));
        assert_eq!(m.min(), Some(Duration::from_micros(10)));
        assert_eq!(m.max(), Some(Duration::from_secs(10)));
    }

    #[test]
    fn merge_with_empty() {
        let mut a = ResponseStats::new();
        a.record(Duration::from_millis(7));
        let b = ResponseStats::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = ResponseStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), Duration::from_millis(7));
    }

    proptest! {
        #[test]
        fn prop_mean_within_extremes(values in proptest::collection::vec(1u64..10_000_000, 1..100)) {
            let mut s = ResponseStats::new();
            for v in &values {
                s.record(Duration::from_micros(*v));
            }
            prop_assert!(s.mean() >= s.min().unwrap());
            prop_assert!(s.mean() <= s.max().unwrap());
            prop_assert_eq!(s.count(), values.len() as u64);
        }

        /// Rounding the sketch to whole microseconds keeps it within
        /// 1 % (plus the half microsecond rounding adds) of the exact
        /// sample percentile.
        #[test]
        fn prop_percentile_within_one_percent(values in proptest::collection::vec(1u64..100_000_000, 1..100)) {
            let mut s = ResponseStats::new();
            for v in &values {
                s.record(Duration::from_micros(*v));
            }
            let samples: Vec<f64> = values.iter().map(|&v| v as f64).collect();
            for p in [50.0, 95.0, 99.0] {
                let exact = exact_percentile(&samples, p).unwrap();
                let est = s.percentile(p).unwrap().as_micros() as f64;
                prop_assert!((est - exact).abs() <= 0.01 * exact + 0.5, "p{}: {} vs {}", p, est, exact);
            }
        }
    }

    fn report(energy: f64, mean_us: u64) -> SimReport {
        let mut responses = ResponseStats::new();
        responses.record(Duration::from_micros(mean_us));
        SimReport {
            scheme: "test".into(),
            trace_duration: Duration::from_secs(1),
            drained_at: Duration::from_secs(1),
            user_requests: 1,
            total_energy_j: energy,
            energy_by_disk: Vec::new(),
            aggregate_energy: DiskEnergyReport::default(),
            spin_cycles: 0,
            responses,
            read_responses: ResponseStats::new(),
            write_responses: ResponseStats::new(),
            logging_phase: PhaseSummary::default(),
            destaging_phase: PhaseSummary::default(),
            destaging_interval_ratio: 0.0,
            destaging_energy_ratio: 0.0,
            log_capacity_timeline: Vec::new(),
            power_timeline: Vec::new(),
            policy: PolicyStats::default(),
            faults: FaultMetrics::default(),
            degraded_responses: ResponseStats::new(),
            consistency: Ok(()),
            profile: RunProfile::default(),
        }
    }

    #[test]
    fn relative_metrics() {
        let base = report(1000.0, 10_000);
        let mine = report(500.0, 11_000);
        assert!((mine.energy_vs(&base) - 0.5).abs() < 1e-12);
        assert!((mine.energy_saved_over(&base) - 0.5).abs() < 1e-12);
        assert!((mine.response_vs(&base) - 1.1).abs() < 1e-9);
        assert!((mine.performance_gained_over(&base) + 0.1).abs() < 1e-9);
    }

    #[test]
    fn deterministic_json_strips_profile_only() {
        let mut r = report(1.0, 100);
        r.profile.wall_total_us = 123_456;
        r.profile.sink = "ring".into();
        let json = r.deterministic_json();
        let v = serde_json::from_str(&json).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        // Every report field but the profile, in declaration order: a
        // field added to or dropped from the report shows up here.
        assert_eq!(
            keys,
            [
                "scheme",
                "trace_duration",
                "drained_at",
                "user_requests",
                "total_energy_j",
                "energy_by_disk",
                "aggregate_energy",
                "spin_cycles",
                "responses",
                "read_responses",
                "write_responses",
                "logging_phase",
                "destaging_phase",
                "destaging_interval_ratio",
                "destaging_energy_ratio",
                "log_capacity_timeline",
                "power_timeline",
                "policy",
                "faults",
                "degraded_responses",
                "consistency",
            ]
        );

        // Differing wall-clock profiles must not differ the output.
        let mut other = report(1.0, 100);
        other.profile.wall_total_us = 999;
        assert_eq!(json, other.deterministic_json());
    }
}
