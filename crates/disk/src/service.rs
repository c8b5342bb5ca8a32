//! Positioning-aware service-time model.
//!
//! Service time = seek + rotational latency + media transfer, with head
//! position tracked across requests:
//!
//! * **Seek** follows the classical `settle + b·√(cylinder distance)` curve.
//!   The coefficient `b` is calibrated so that the *expected* seek over
//!   uniformly random cylinder pairs equals the datasheet average seek
//!   (for `U = |X−Y|` with `X,Y ~ U[0,1]`, `E[√U] = 8/15`).
//! * **Rotational latency** is uniform in `[0, full rotation)` for
//!   non-sequential accesses and zero when the request starts exactly where
//!   the previous one ended (the sequential-append fast path that logging
//!   architectures exploit).
//! * **Transfer** is `bytes / sustained rate`.
//!
//! This reproduces the two regimes that drive every result in the paper:
//! random in-place writes cost ~½ rotation + seek, sequential log appends
//! cost transfer only.

use crate::params::DiskParams;
use rolo_sim::{Duration, SimRng};

/// Decomposition of one service time into its physical parts.
///
/// `seek + rotation + transfer` always equals the value
/// [`ServiceModel::service_time`] would have returned for the same
/// request — the decomposition is exact, not a re-estimate, so the span
/// layer can attribute every microsecond of media time to a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceParts {
    /// Arm movement under the √-distance curve (zero when sequential or
    /// rewriting within the current cylinder).
    pub seek: Duration,
    /// Rotational latency: a uniform draw for random accesses, one full
    /// revolution for the same-cylinder rewrite (RMW) case, the
    /// datasheet average for the first-ever request, zero when
    /// sequential.
    pub rotation: Duration,
    /// Media transfer (`bytes / sustained rate`).
    pub transfer: Duration,
}

impl ServiceParts {
    /// Total service time: the sum of the three parts.
    pub fn total(&self) -> Duration {
        self.seek + self.rotation + self.transfer
    }
}

/// Computes per-request service times while tracking head position.
///
/// # Example
///
/// ```
/// use rolo_disk::{DiskParams, ServiceModel};
/// use rolo_sim::SimRng;
///
/// let params = DiskParams::ultrastar_36z15();
/// let mut m = ServiceModel::new(params.clone(), SimRng::seed_from(3));
/// let first = m.service_time(0, 64 * 1024);
/// let sequential = m.service_time(64 * 1024, 64 * 1024);
/// // The sequential follow-up pays neither seek nor rotation.
/// assert_eq!(sequential, params.transfer_time(64 * 1024));
/// assert!(first >= sequential);
/// ```
#[derive(Debug, Clone)]
pub struct ServiceModel {
    params: DiskParams,
    rng: SimRng,
    /// Byte offset immediately after the last transferred byte; `None`
    /// before the first request (head position unknown).
    head: Option<u64>,
    /// Calibrated √-seek coefficient in microseconds.
    seek_coeff_us: f64,
    /// Pre-drawn rotational-latency samples, consumed in draw order.
    /// Refilled from `rng` in chunks of `batch`; because the rotation
    /// bound is a constant of the model and `rng` feeds nothing else,
    /// the value sequence is identical to scalar per-request draws.
    draws: Vec<u64>,
    next_draw: usize,
    batch: usize,
}

/// Rotation draws pre-fetched per refill; amortizes the per-draw RNG
/// call overhead on the service-time hot path.
const ROTATION_BATCH: usize = 64;

impl ServiceModel {
    /// Creates a model for `params` with its own random stream for
    /// rotational-latency draws.
    pub fn new(params: DiskParams, rng: SimRng) -> Self {
        // E[sqrt(|X-Y|)] = 8/15 for X,Y ~ U[0,1]; calibrate b so that
        // settle + b * 8/15 = avg_seek.
        let variable = params.avg_seek.as_micros() as f64 - params.seek_settle.as_micros() as f64;
        assert!(
            variable > 0.0,
            "average seek must exceed the settle overhead"
        );
        let seek_coeff_us = variable * 15.0 / 8.0;
        ServiceModel {
            params,
            rng,
            head: None,
            seek_coeff_us,
            draws: Vec::new(),
            next_draw: 0,
            batch: ROTATION_BATCH,
        }
    }

    /// Overrides how many rotation draws are pre-fetched per RNG refill.
    /// `1` degenerates to scalar per-request draws; any size yields the
    /// same value sequence (see the draw-order regression test).
    pub fn set_rotation_batch(&mut self, batch: usize) {
        assert!(batch > 0, "rotation batch must be positive");
        self.batch = batch;
    }

    /// The disk parameters this model was built from.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Seek time between two byte offsets under the √-distance curve.
    /// Zero within the same cylinder.
    pub fn seek_time(&self, from: u64, to: u64) -> Duration {
        let bpc = self.params.bytes_per_cylinder();
        let c_from = from / bpc;
        let c_to = to / bpc;
        if c_from == c_to {
            return Duration::ZERO;
        }
        let dist = c_from.abs_diff(c_to) as f64 / f64::from(self.params.cylinders);
        let us = self.params.seek_settle.as_micros() as f64 + self.seek_coeff_us * dist.sqrt();
        Duration::from_micros(us.round() as u64)
    }

    /// Computes the service time for a request at byte `offset` of length
    /// `bytes`, and advances the head.
    ///
    /// # Panics
    ///
    /// Panics if the request extends past the end of the disk.
    pub fn service_time(&mut self, offset: u64, bytes: u64) -> Duration {
        self.service_parts(offset, bytes).total()
    }

    /// Like [`service_time`](Self::service_time) but returns the
    /// seek/rotation/transfer decomposition. Draws from the same random
    /// stream in the same order, so a run that asks for parts is
    /// bit-identical to one that asks for totals.
    ///
    /// # Panics
    ///
    /// Panics if the request extends past the end of the disk.
    pub fn service_parts(&mut self, offset: u64, bytes: u64) -> ServiceParts {
        assert!(
            offset + bytes <= self.params.capacity_bytes,
            "request [{offset}, {}) exceeds capacity {}",
            offset + bytes,
            self.params.capacity_bytes
        );
        let transfer = self.params.transfer_time(bytes);
        let bpc = self.params.bytes_per_cylinder();
        let (seek, rotation) = match self.head {
            Some(h) if h == offset => (Duration::ZERO, Duration::ZERO),
            // Rewriting (or re-reading) a sector the head just passed on
            // the same cylinder costs a missed revolution — the physics
            // behind the RAID small-write read-modify-write penalty.
            Some(h) if offset < h && h / bpc == offset / bpc => {
                (Duration::ZERO, self.params.full_rotation())
            }
            Some(h) => (self.seek_time(h, offset), self.rotation_draw()),
            // First request ever: charge an average positioning cost.
            None => (self.params.avg_seek, self.params.avg_rotation()),
        };
        self.head = Some(offset + bytes);
        ServiceParts {
            seek,
            rotation,
            transfer,
        }
    }

    /// Current head position (end of last transfer), if known.
    pub fn head_position(&self) -> Option<u64> {
        self.head
    }

    fn rotation_draw(&mut self) -> Duration {
        if self.next_draw == self.draws.len() {
            let full = self.params.full_rotation().as_micros().max(1);
            self.draws.clear();
            self.rng.fill_below(full, self.batch, &mut self.draws);
            self.next_draw = 0;
        }
        let v = self.draws[self.next_draw];
        self.next_draw += 1;
        Duration::from_micros(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model(seed: u64) -> ServiceModel {
        ServiceModel::new(DiskParams::ultrastar_36z15(), SimRng::seed_from(seed))
    }

    #[test]
    fn sequential_pays_transfer_only() {
        let mut m = model(1);
        let _ = m.service_time(1024 * 1024, 64 * 1024);
        let t = m.service_time(1024 * 1024 + 64 * 1024, 64 * 1024);
        assert_eq!(t, m.params().transfer_time(64 * 1024));
    }

    #[test]
    fn random_access_costs_more_than_sequential() {
        let mut m = model(2);
        let _ = m.service_time(0, 4096);
        let far = m.params().capacity_bytes / 2;
        let random = m.service_time(far, 4096);
        assert!(random > m.params().transfer_time(4096));
    }

    #[test]
    fn seek_is_zero_within_cylinder() {
        let m = model(3);
        let bpc = m.params().bytes_per_cylinder();
        assert_eq!(m.seek_time(10, bpc - 1), Duration::ZERO);
        assert!(m.seek_time(0, bpc * 100) > Duration::ZERO);
    }

    #[test]
    fn seek_grows_with_distance() {
        let m = model(4);
        let bpc = m.params().bytes_per_cylinder();
        let near = m.seek_time(0, bpc * 10);
        let far = m.seek_time(0, bpc * 10_000);
        assert!(far > near, "{far} !> {near}");
    }

    #[test]
    fn mean_random_seek_close_to_datasheet() {
        let mut m = model(5);
        let mut rng = SimRng::seed_from(77);
        let cap = m.params().capacity_bytes;
        let n = 20_000;
        let mut total = 0.0;
        for _ in 0..n {
            let a = rng.below(cap);
            let b = rng.below(cap);
            total += m.seek_time(a, b).as_secs_f64();
        }
        let mean_ms = total / n as f64 * 1e3;
        assert!(
            (mean_ms - 3.4).abs() < 0.15,
            "mean random seek {mean_ms} ms should be ~3.4 ms"
        );
        let _ = &mut m;
    }

    #[test]
    fn rmw_rewrite_costs_full_rotation() {
        // Read X, then write X again: the head just passed the sector, so
        // the rewrite waits out one full revolution.
        let mut m = model(20);
        let x = 512 * 1024;
        let _ = m.service_time(x, 16 * 1024);
        let t = m.service_time(x, 16 * 1024);
        let expect = m.params().full_rotation() + m.params().transfer_time(16 * 1024);
        assert_eq!(t, expect);
    }

    #[test]
    fn parts_sum_to_service_time_with_identical_rng_stream() {
        let mut totals = model(21);
        let mut parts = model(21);
        let mut rng = SimRng::seed_from(22);
        for _ in 0..200 {
            let off = rng.below(totals.params().capacity_bytes - (1 << 20));
            let bytes = 4096 * (1 + rng.below(64));
            let t = totals.service_time(off, bytes);
            let p = parts.service_parts(off, bytes);
            assert_eq!(p.total(), t, "decomposition must be exact");
            assert_eq!(p.transfer, totals.params().transfer_time(bytes));
        }
        assert_eq!(totals.head_position(), parts.head_position());
    }

    #[test]
    fn batched_draws_match_scalar_on_1k_requests() {
        // The RNG batching contract: pre-fetching rotation draws must
        // consume the seeded stream in exactly the order scalar
        // per-request draws would, so every per-request decomposition —
        // and therefore every simulated byte downstream — is identical.
        let mut scalar = model(31);
        scalar.set_rotation_batch(1);
        let mut batched = model(31); // default ROTATION_BATCH
        let mut rng = SimRng::seed_from(32);
        for i in 0..1000 {
            let off = rng.below(scalar.params().capacity_bytes - (1 << 21));
            let bytes = 4096 * (1 + rng.below(128));
            let a = scalar.service_parts(off, bytes);
            let b = batched.service_parts(off, bytes);
            assert_eq!(a, b, "request {i}: batched parts diverged from scalar");
        }
        assert_eq!(scalar.head_position(), batched.head_position());
    }

    #[test]
    fn head_advances() {
        let mut m = model(6);
        assert_eq!(m.head_position(), None);
        m.service_time(100 * 1024, 64 * 1024);
        assert_eq!(m.head_position(), Some(164 * 1024));
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn rejects_out_of_range() {
        let mut m = model(7);
        let cap = m.params().capacity_bytes;
        m.service_time(cap - 10, 4096);
    }

    proptest! {
        #[test]
        fn prop_service_time_at_least_transfer(
            offset in 0u64..18_000 * 1024 * 1024,
            kib in 1u64..2048,
        ) {
            let mut m = model(8);
            let bytes = kib * 1024;
            prop_assume!(offset + bytes <= m.params().capacity_bytes);
            let t = m.service_time(offset, bytes);
            prop_assert!(t >= m.params().transfer_time(bytes));
        }

        #[test]
        fn prop_seek_symmetric(a in 0u64..18_000u64 * 1024 * 1024, b in 0u64..18_000u64 * 1024 * 1024) {
            let m = model(9);
            prop_assert_eq!(m.seek_time(a, b), m.seek_time(b, a));
        }

        #[test]
        fn prop_seek_bounded_by_full_stroke(a in 0u64..18_000u64 * 1024 * 1024, b in 0u64..18_000u64 * 1024 * 1024) {
            let m = model(10);
            let full = m.seek_time(0, m.params().capacity_bytes - 1);
            prop_assert!(m.seek_time(a, b) <= full);
        }
    }
}
