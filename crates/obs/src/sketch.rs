//! Mergeable streaming quantile sketch with log-scaled buckets.
//!
//! [`QuantileSketch`] is the always-on quantile engine of the telemetry
//! pipeline (DESIGN.md §12): an HDR-style histogram whose bucket
//! boundaries grow geometrically by [`GROWTH`] = 1.02, so any reported
//! quantile is within `sqrt(1.02) − 1 ≈ 0.995 %` of the exact sample
//! quantile — the ≤ 1 % relative-error bar — while storing only dense
//! `u64` bucket counts. Because the state is a pure sum of per-sample
//! one-hot increments plus order-independent aggregates (count, sum,
//! min, max), [`QuantileSketch::merge`] is associative and commutative:
//! per-shard or per-window sketches fold into fleet rollups in any
//! order and yield identical quantiles.
//!
//! Values are unit-less non-negative `f64`s; latency call sites record
//! **microseconds** so the `[1, GROWTH^MAX_BUCKETS)` resolution band
//! (1 µs … ~28 h) covers everything from a cache hit to a spin-up
//! stalled read miss. Values below 1 clamp into the first bucket.

use serde::Serialize;

/// Geometric growth factor of bucket boundaries. Bucket `i` covers
/// `[GROWTH^i, GROWTH^(i+1))`; reporting the geometric bucket midpoint
/// bounds the relative quantile error by `sqrt(GROWTH) − 1 < 1 %`.
pub const GROWTH: f64 = 1.02;

/// Hard cap on bucket count; `GROWTH^1400 µs ≈ 3·10^6 s`, far past any
/// simulated response time. Values beyond the cap clamp into the last
/// bucket (their quantile error is then bounded by `max`-clamping).
const MAX_BUCKETS: usize = 1400;

/// A mergeable log-bucketed quantile sketch.
///
/// # Example
///
/// ```
/// use rolo_obs::QuantileSketch;
///
/// let mut s = QuantileSketch::new();
/// for us in 1..=1000u64 {
///     s.record(us as f64);
/// }
/// let p95 = s.percentile(95.0).unwrap();
/// assert!((p95 / 950.0 - 1.0).abs() < 0.01, "{p95}");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuantileSketch {
    /// Dense bucket counts, grown on demand up to [`MAX_BUCKETS`].
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    fn bucket_of(value: f64) -> usize {
        let v = value.max(1.0);
        let idx = v.ln() / GROWTH.ln();
        (idx as usize).min(MAX_BUCKETS - 1)
    }

    /// Geometric midpoint of bucket `i` — the value reported for any
    /// quantile landing in the bucket.
    fn bucket_mid(i: usize) -> f64 {
        GROWTH.powf(i as f64 + 0.5)
    }

    /// Records one non-negative observation.
    pub fn record(&mut self, value: f64) {
        let value = value.max(0.0);
        if self.total == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.total += 1;
        self.sum += value;
        let b = Self::bucket_of(value);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `p`-th percentile (0–100), or `None` when empty.
    ///
    /// Uses the same rank convention as the exact reference
    /// ([`exact_percentile`]): the value at 1-based rank
    /// `ceil(p/100 · n)`. The estimate is the geometric midpoint of the
    /// rank's bucket, clamped into `[min, max]` so degenerate sketches
    /// (single value, extreme p) stay exact.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.total == 0 {
            return None;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another sketch into this one.
    ///
    /// Merging is associative and commutative: bucket counts add
    /// element-wise and the scalar aggregates (count, sum, min, max)
    /// are order-independent, so folding shards in any order yields
    /// the same sketch.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.total == 0 {
            return;
        }
        if self.total == 0 {
            *self = other.clone();
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Merges an iterator of sketches into a fresh one.
    pub fn merged<'a, I>(parts: I) -> QuantileSketch
    where
        I: IntoIterator<Item = &'a QuantileSketch>,
    {
        let mut out = QuantileSketch::new();
        for s in parts {
            out.merge(s);
        }
        out
    }

    /// Compact serializable digest: count/sum/min/max/mean plus the
    /// standard quantile ladder. This is what window rollups and report
    /// exports embed instead of the raw bucket vector.
    pub fn digest(&self) -> SketchDigest {
        SketchDigest {
            count: self.total,
            sum: self.sum,
            min: self.min,
            max: self.max,
            mean: self.mean(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
        }
    }
}

/// Compact summary of a [`QuantileSketch`]: scalar aggregates plus the
/// standard quantile ladder (`None` when the sketch was empty).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SketchDigest {
    /// Observations covered.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when none).
    pub min: f64,
    /// Largest observation (0 when none).
    pub max: f64,
    /// Mean observation (0 when none).
    pub mean: f64,
    /// Median.
    pub p50: Option<f64>,
    /// 90th percentile.
    pub p90: Option<f64>,
    /// 95th percentile.
    pub p95: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
}

/// Exact sample percentile over raw observations — the ground-truth
/// reference the sketch is validated against. Returns the value at
/// 1-based rank `ceil(p/100 · n)` of the sorted samples (`None` when
/// empty), the rank convention of [`QuantileSketch::percentile`].
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn exact_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentile_rank_convention() {
        assert_eq!(exact_percentile(&[], 50.0), None);
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(exact_percentile(&v, 0.0), Some(1.0));
        assert_eq!(exact_percentile(&v, 50.0), Some(3.0));
        assert_eq!(exact_percentile(&v, 100.0), Some(5.0));
        // rank = ceil(0.95 * 5) = 5 → the max.
        assert_eq!(exact_percentile(&v, 95.0), Some(5.0));
    }

    #[test]
    fn empty_sketch_has_no_percentiles() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert!(s.percentile(50.0).is_none());
        assert_eq!(s.digest().p95, None);
    }

    #[test]
    fn single_value_is_exact() {
        let mut s = QuantileSketch::new();
        s.record(1234.0);
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(s.percentile(p), Some(1234.0), "p{p}");
        }
    }

    #[test]
    fn quantiles_track_uniform_ramp_within_one_percent() {
        let mut s = QuantileSketch::new();
        for v in 1..=10_000u64 {
            s.record(v as f64);
        }
        for p in [10.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            let exact = ((p / 100.0) * 10_000.0_f64).ceil().max(1.0);
            let est = s.percentile(p).unwrap();
            let err = (est / exact - 1.0).abs();
            assert!(err < 0.01, "p{p}: est {est} vs exact {exact} (err {err})");
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut s = QuantileSketch::new();
        for us in [10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7] {
            for _ in 0..7 {
                s.record(us);
            }
        }
        let mut prev = 0.0;
        for p in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p).unwrap();
            assert!(v >= prev, "p{p}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut whole = QuantileSketch::new();
        for v in 1..=1000u64 {
            let v = (v * v % 7919) as f64;
            whole.record(v);
            if (v as u64).is_multiple_of(2) {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for p in [10.0, 50.0, 95.0, 99.0] {
            assert_eq!(a.percentile(p), whole.percentile(p), "p{p}");
        }
    }

    #[test]
    fn merge_into_empty_adopts_other() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        b.record(42.0);
        a.merge(&b);
        assert_eq!(a, b);
        // ... and merging an empty sketch is a no-op.
        let before = a.clone();
        a.merge(&QuantileSketch::new());
        assert_eq!(a, before);
    }

    #[test]
    fn values_below_one_clamp_into_first_bucket() {
        let mut s = QuantileSketch::new();
        s.record(0.0);
        s.record(0.5);
        assert_eq!(s.count(), 2);
        // max-clamping keeps the sub-unit estimates honest.
        assert!(s.percentile(0.0).unwrap() <= 0.5);
        assert_eq!(s.percentile(100.0), Some(0.5));
        assert_eq!(s.min(), 0.0);
    }

    #[test]
    fn huge_values_clamp_to_last_bucket() {
        let mut s = QuantileSketch::new();
        s.record(1e300);
        assert_eq!(s.percentile(50.0), Some(1e300), "max-clamped");
    }
}
