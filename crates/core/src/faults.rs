//! Fault-injection plan and degraded-window metrics.
//!
//! Failures are first-class events inside [`crate::driver::run_trace`]:
//! the driver expands a [`FaultPlan`] into scheduled disk-failure events
//! before replay starts, and classifies every I/O completion against the
//! plan's latent-sector-error and timeout probabilities. The resulting
//! [`FaultMetrics`] quantify the degraded window (DESIGN.md §Fault
//! model): how fast reads were redirected to surviving copies, how long
//! the array ran degraded, and how rebuild fared under foreground load.

use rolo_disk::DiskId;
use rolo_raid::ArrayGeometry;
use rolo_sim::{schedule, Duration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Declarative description of the faults to inject during a run.
///
/// The default plan ([`FaultPlan::none`]) injects nothing, so existing
/// callers of `run_trace` are unaffected. Whole-disk failures can be
/// pinned to exact instants (`disk_failures`) or drawn from a Poisson
/// process (`random_failure_rate`); both feed the same degraded-mode
/// machinery. Media errors and timeouts are per-I/O Bernoulli draws made
/// at completion time from a dedicated RNG stream, so the fault schedule
/// never perturbs service-time sampling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Whole-disk failures pinned to exact instants after trace start.
    pub disk_failures: Vec<(DiskId, Duration)>,
    /// Poisson rate (failures per second, array-wide) of additional
    /// random whole-disk failures. Zero disables random failures.
    pub random_failure_rate: f64,
    /// Probability that any single read completion surfaces a latent
    /// sector error (media error) instead of data.
    pub media_error_per_read: f64,
    /// Probability that any single I/O completion is a transient
    /// timeout. Timed-out requests are retried with exponential backoff.
    pub timeout_per_io: f64,
    /// Maximum retry attempts for a timed-out request before it is
    /// counted as lost.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each further attempt.
    pub retry_backoff: Duration,
    /// Per-disk Poisson rate (events per second) of latent sector
    /// errors landing while the disk is spun up (Active/Idle). Zero
    /// disables active-time corruption.
    pub lse_rate_active: f64,
    /// Per-disk Poisson rate of latent sector errors while the disk is
    /// spun down (Standby or spinning down). Spun-down disks typically
    /// accrue *more* latent errors per unit time than active ones —
    /// nobody reads them, so nothing surfaces the decay — which is the
    /// RoLo-E danger window the scrub engine exists to close.
    pub lse_rate_standby: f64,
    /// Size in bytes of each injected latent extent.
    pub lse_extent: u64,
    /// Array-wide Poisson rate (events per second) of correlated
    /// enclosure shocks. Each shock picks one enclosure and fails or
    /// corrupts several of its disks within `correlation_window`.
    pub shock_rate: f64,
    /// Probability that a shocked disk fails outright (vs. accruing a
    /// latent corrupt extent).
    pub shock_fail_prob: f64,
    /// Number of physically adjacent disks sharing one enclosure (the
    /// blast radius of a shock).
    pub shock_enclosure: usize,
    /// Window over which one shock's per-disk effects are spread.
    pub correlation_window: Duration,
    /// Seed for the fault RNG stream (forked from this value, not from
    /// the workload seed, so fault draws are reproducible in isolation).
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that injects no faults at all.
    pub fn none() -> Self {
        FaultPlan {
            disk_failures: Vec::new(),
            random_failure_rate: 0.0,
            media_error_per_read: 0.0,
            timeout_per_io: 0.0,
            max_retries: 3,
            retry_backoff: Duration::from_millis(10),
            lse_rate_active: 0.0,
            lse_rate_standby: 0.0,
            lse_extent: 64 * 1024,
            shock_rate: 0.0,
            shock_fail_prob: 0.5,
            shock_enclosure: 4,
            correlation_window: Duration::from_secs(5),
            seed: 0xFA_17,
        }
    }

    /// A plan that kills exactly one disk at one instant — the shape
    /// every crash-point replay study uses (kill a logger mid-write,
    /// then assert the replayed dirty maps match the survivors').
    pub fn single(disk: usize, at: Duration) -> Self {
        FaultPlan {
            disk_failures: vec![(disk, at)],
            ..FaultPlan::none()
        }
    }

    /// True if this plan can never produce a fault.
    pub fn is_none(&self) -> bool {
        self.disk_failures.is_empty()
            && self.random_failure_rate <= 0.0
            && self.media_error_per_read <= 0.0
            && self.timeout_per_io <= 0.0
            && !self.injects_lse()
            && self.shock_rate <= 0.0
    }

    /// True if the plan injects latent sector corruption.
    pub fn injects_lse(&self) -> bool {
        self.max_lse_rate() > 0.0
    }

    /// The larger of the two power-state LSE rates — the rate the
    /// candidate stream is pre-sampled at (Poisson thinning accepts a
    /// candidate with probability `rate(state) / max_rate` at fire
    /// time, so the accepted process has the state-dependent rate while
    /// the schedule itself stays deterministic).
    pub fn max_lse_rate(&self) -> f64 {
        self.lse_rate_active.max(self.lse_rate_standby)
    }

    /// Validates the plan against the physical disk count (which, unlike
    /// the geometry, includes GRAID's dedicated log disk).
    pub fn check(&self, disks: usize) -> Result<(), FaultPlanError> {
        for &(d, _) in &self.disk_failures {
            if d >= disks {
                return Err(FaultPlanError::DiskOutOfRange { disk: d, disks });
            }
        }
        for (name, p) in [
            ("media_error_per_read", self.media_error_per_read),
            ("timeout_per_io", self.timeout_per_io),
            ("shock_fail_prob", self.shock_fail_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(FaultPlanError::BadProbability { name, value: p });
            }
        }
        if self.random_failure_rate < 0.0 || !self.random_failure_rate.is_finite() {
            return Err(FaultPlanError::BadRate(self.random_failure_rate));
        }
        for (name, r) in [
            ("lse_rate_active", self.lse_rate_active),
            ("lse_rate_standby", self.lse_rate_standby),
            ("shock_rate", self.shock_rate),
        ] {
            if r < 0.0 || !r.is_finite() {
                return Err(FaultPlanError::BadKnob { name, value: r });
            }
        }
        if self.injects_lse() && self.lse_extent == 0 {
            return Err(FaultPlanError::BadExtent(self.lse_extent));
        }
        if self.shock_rate > 0.0 && self.shock_enclosure == 0 {
            return Err(FaultPlanError::BadEnclosure(self.shock_enclosure));
        }
        Ok(())
    }

    /// Expands the plan into a sorted schedule of whole-disk failure
    /// instants over `[0, horizon)`: the pinned failures plus Poisson
    /// arrivals assigned to uniformly-drawn disks. At most one failure
    /// is kept per disk (the earliest); later ones would hit an
    /// already-replaced slot and are dropped here rather than at run
    /// time so the schedule is inspectable up front.
    pub fn schedule(&self, disk_count: usize, horizon: Duration) -> Vec<(DiskId, SimTime)> {
        let mut raw: Vec<(DiskId, SimTime)> = self
            .disk_failures
            .iter()
            .filter(|&&(_, at)| at < horizon)
            .map(|&(d, at)| (d, SimTime::ZERO + at))
            .collect();
        if self.random_failure_rate > 0.0 && disk_count > 0 {
            let mut rng = SimRng::seed_from(self.seed).fork("fault-schedule");
            for t in schedule::exponential_arrivals(&mut rng, self.random_failure_rate, horizon) {
                raw.push((rng.below(disk_count as u64) as DiskId, t));
            }
        }
        raw.sort_by_key(|&(d, t)| (t, d));
        let mut seen = vec![false; disk_count];
        raw.retain(|&(d, _)| {
            let fresh = !seen[d];
            seen[d] = true;
            fresh
        });
        raw
    }

    /// Pre-samples the latent-sector-error *candidate* stream over
    /// `[0, horizon)`: per disk, Poisson arrivals at [`Self::max_lse_rate`],
    /// merged and sorted by `(time, disk)`. Each candidate is accepted
    /// or rejected at fire time against the disk's power state
    /// (thinning), so the schedule is independent of simulation
    /// dynamics and fully reproducible from the fault seed.
    pub fn lse_candidates(&self, disk_count: usize, horizon: Duration) -> Vec<(DiskId, SimTime)> {
        let rate = self.max_lse_rate();
        if rate <= 0.0 || disk_count == 0 {
            return Vec::new();
        }
        let mut out: Vec<(DiskId, SimTime)> = Vec::new();
        for d in 0..disk_count {
            let mut rng = SimRng::seed_from(self.seed).fork(&format!("lse-{d}"));
            for t in schedule::exponential_arrivals(&mut rng, rate, horizon) {
                out.push((d, t));
            }
        }
        out.sort_by_key(|&(d, t)| (t, d));
        out
    }

    /// Pre-samples the enclosure-shock instants over `[0, horizon)`.
    pub fn shock_instants(&self, horizon: Duration) -> Vec<SimTime> {
        if self.shock_rate <= 0.0 {
            return Vec::new();
        }
        let mut rng = SimRng::seed_from(self.seed).fork("shock-schedule");
        schedule::exponential_arrivals(&mut rng, self.shock_rate, horizon)
    }
}

/// A [`FaultPlan`] that failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A pinned failure names a disk outside the array.
    DiskOutOfRange {
        /// The out-of-range disk id.
        disk: DiskId,
        /// Number of disks in the array.
        disks: usize,
    },
    /// A probability field is outside `[0, 1]`.
    BadProbability {
        /// Field name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// `random_failure_rate` is negative or non-finite.
    BadRate(f64),
    /// A named corruption/shock rate knob is negative or non-finite.
    BadKnob {
        /// Field name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// `lse_extent` is zero while LSE injection is enabled.
    BadExtent(u64),
    /// `shock_enclosure` is zero while shocks are enabled.
    BadEnclosure(usize),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::DiskOutOfRange { disk, disks } => {
                write!(
                    f,
                    "fault plan names disk {disk} but the array has {disks} disks"
                )
            }
            FaultPlanError::BadProbability { name, value } => {
                write!(f, "fault plan {name} = {value} is not a probability")
            }
            FaultPlanError::BadRate(r) => {
                write!(
                    f,
                    "fault plan random_failure_rate = {r} is not a valid rate"
                )
            }
            FaultPlanError::BadKnob { name, value } => {
                write!(f, "fault plan {name} = {value} is not a valid rate")
            }
            FaultPlanError::BadExtent(e) => {
                write!(f, "fault plan lse_extent = {e} must be positive")
            }
            FaultPlanError::BadEnclosure(e) => {
                write!(f, "fault plan shock_enclosure = {e} must be positive")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Counters describing how the run weathered the injected faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultMetrics {
    /// Whole-disk failures that were actually injected.
    pub disk_failures: u64,
    /// Scheduled failures suppressed because they would have produced a
    /// double fault within a mirror pair (data loss — out of scope for
    /// the degraded-mode study; the reliability crate models it).
    pub double_faults_suppressed: u64,
    /// Read completions reclassified as latent sector errors.
    pub media_errors: u64,
    /// I/O completions reclassified as transient timeouts.
    pub timeouts: u64,
    /// Retry submissions issued for timed-out requests.
    pub retries: u64,
    /// Requests that exhausted their retry budget and were counted lost.
    pub io_lost: u64,
    /// User reads redirected to a surviving copy.
    pub reads_redirected: u64,
    /// Delay between the first disk failure and the first successful
    /// redirect of a user read to a surviving copy.
    pub time_to_first_redirect: Option<Duration>,
    /// Total wall-clock time the array spent with at least one slot
    /// degraded (rebuild not yet complete).
    pub degraded_time: Duration,
    /// Rebuilds driven to completion during the run.
    pub rebuilds_completed: u64,
    /// Bytes written to replacement disks by the rebuild engine.
    pub rebuild_bytes: u64,
    /// Duration of each completed rebuild, in injection order.
    pub rebuild_durations: Vec<Duration>,
    /// Latent corrupt extents injected (LSE accrual plus shock
    /// corruption; overlapping injections onto an already-latent extent
    /// are skipped and not counted).
    pub lse_injected: u64,
    /// Latent extents detected by a foreground read's verify and
    /// repaired from the surviving mirror copy.
    pub lse_repaired_on_read: u64,
    /// Latent extents detected and repaired by the background scrub.
    pub lse_repaired_by_scrub: u64,
    /// Latent extents destroyed by being overwritten before any read
    /// observed them (a full-extent write replaces the bad data).
    pub lse_overwritten: u64,
    /// Latent extents that became unrecoverable: the mirror partner was
    /// dead or also corrupt when the extent was needed.
    pub lse_lost: u64,
    /// Latent extents still undetected when the run ended.
    pub lse_latent_at_end: u64,
    /// Complete scrub passes over a disk's data region.
    pub scrub_passes: u64,
    /// Scrub chunk reads issued.
    pub scrub_chunks: u64,
    /// Bytes verified by the scrub engine.
    pub scrub_bytes: u64,
    /// Correlated enclosure shocks injected.
    pub shocks_injected: u64,
}

impl FaultMetrics {
    /// Sum of the classified fates of injected latent extents. The
    /// zero-silent-corruption invariant is
    /// `lse_injected == lse_classified()`: every injected extent ends
    /// the run repaired (by scrub, by a read, or by an overwrite),
    /// counted lost, or still latent — never silently forgotten.
    pub fn lse_classified(&self) -> u64 {
        self.lse_repaired_on_read
            + self.lse_repaired_by_scrub
            + self.lse_overwritten
            + self.lse_lost
            + self.lse_latent_at_end
    }

    /// True if every injected latent extent is accounted for.
    pub fn lse_conserved(&self) -> bool {
        self.lse_injected == self.lse_classified()
    }
}

/// The mirror partner that can serve a degraded slot's data, if any.
///
/// Primaries and mirrors are partners of each other; the GRAID log disk
/// (id ≥ `2 * pairs`) holds only redundant log copies and has no
/// partner.
pub fn surviving_partner(geometry: &ArrayGeometry, disk: DiskId) -> Option<DiskId> {
    let pairs = geometry.pairs();
    if disk < pairs {
        Some(geometry.mirror_disk(disk))
    } else if disk < 2 * pairs {
        Some(disk - pairs)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scheme, SimConfig};

    fn geo(scheme: Scheme) -> ArrayGeometry {
        SimConfig::paper_default(scheme, 4).geometry().unwrap()
    }

    #[test]
    fn none_plan_is_empty() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert!(plan.schedule(8, Duration::from_secs(1000)).is_empty());
        assert!(plan.check(8).is_ok());
    }

    #[test]
    fn check_rejects_bad_plans() {
        let mut plan = FaultPlan::none();
        plan.disk_failures.push((99, Duration::from_secs(1)));
        assert!(matches!(
            plan.check(8),
            Err(FaultPlanError::DiskOutOfRange { disk: 99, .. })
        ));
        let mut plan = FaultPlan::none();
        plan.media_error_per_read = 1.5;
        assert!(matches!(
            plan.check(8),
            Err(FaultPlanError::BadProbability { .. })
        ));
        let mut plan = FaultPlan::none();
        plan.random_failure_rate = -1.0;
        assert!(matches!(plan.check(8), Err(FaultPlanError::BadRate(_))));
    }

    #[test]
    fn schedule_merges_pinned_and_random_sorted() {
        let mut plan = FaultPlan::none();
        plan.disk_failures.push((3, Duration::from_secs(200)));
        plan.random_failure_rate = 0.01;
        plan.seed = 42;
        let sched = plan.schedule(8, Duration::from_secs(600));
        assert!(sched.iter().any(|&(d, _)| d == 3));
        assert!(sched.windows(2).all(|w| w[0].1 <= w[1].1));
        // At most one failure per disk survives dedup.
        let mut ids: Vec<_> = sched.iter().map(|&(d, _)| d).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sched.len());
    }

    #[test]
    fn schedule_drops_failures_past_horizon() {
        let mut plan = FaultPlan::none();
        plan.disk_failures.push((0, Duration::from_secs(999)));
        assert!(plan.schedule(8, Duration::from_secs(100)).is_empty());
    }

    #[test]
    fn schedule_keeps_earliest_per_disk() {
        let mut plan = FaultPlan::none();
        plan.disk_failures.push((2, Duration::from_secs(300)));
        plan.disk_failures.push((2, Duration::from_secs(100)));
        let sched = plan.schedule(8, Duration::from_secs(600));
        assert_eq!(sched.len(), 1);
        assert_eq!(sched[0].1, SimTime::ZERO + Duration::from_secs(100));
    }

    #[test]
    fn check_rejects_bad_corruption_knobs() {
        let mut plan = FaultPlan::none();
        plan.lse_rate_active = -1.0;
        assert!(matches!(
            plan.check(8),
            Err(FaultPlanError::BadKnob {
                name: "lse_rate_active",
                ..
            })
        ));
        let mut plan = FaultPlan::none();
        plan.lse_rate_standby = f64::NAN;
        assert!(matches!(plan.check(8), Err(FaultPlanError::BadKnob { .. })));
        let mut plan = FaultPlan::none();
        plan.shock_rate = f64::INFINITY;
        assert!(matches!(
            plan.check(8),
            Err(FaultPlanError::BadKnob {
                name: "shock_rate",
                ..
            })
        ));
        let mut plan = FaultPlan::none();
        plan.shock_fail_prob = 1.5;
        assert!(matches!(
            plan.check(8),
            Err(FaultPlanError::BadProbability {
                name: "shock_fail_prob",
                ..
            })
        ));
        let mut plan = FaultPlan::none();
        plan.lse_rate_standby = 0.1;
        plan.lse_extent = 0;
        assert!(matches!(plan.check(8), Err(FaultPlanError::BadExtent(0))));
        let mut plan = FaultPlan::none();
        plan.shock_rate = 0.1;
        plan.shock_enclosure = 0;
        assert!(matches!(
            plan.check(8),
            Err(FaultPlanError::BadEnclosure(0))
        ));
        // A zero extent without LSE injection is fine: the knob is
        // inert, so it must not invalidate an otherwise-sound plan.
        let mut plan = FaultPlan::none();
        plan.lse_extent = 0;
        assert!(plan.check(8).is_ok());
    }

    #[test]
    fn lse_knobs_count_as_faults() {
        let mut plan = FaultPlan::none();
        plan.lse_rate_standby = 0.5;
        assert!(!plan.is_none());
        assert!(plan.injects_lse());
        let mut plan = FaultPlan::none();
        plan.shock_rate = 0.5;
        assert!(!plan.is_none());
        assert!(!plan.injects_lse());
    }

    #[test]
    fn lse_candidates_sorted_and_reproducible() {
        let mut plan = FaultPlan::none();
        plan.lse_rate_active = 0.01;
        plan.lse_rate_standby = 0.05;
        plan.seed = 7;
        let horizon = Duration::from_secs(3600);
        let a = plan.lse_candidates(4, horizon);
        let b = plan.lse_candidates(4, horizon);
        assert_eq!(a, b, "candidate schedule must be seed-deterministic");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0)));
        assert!(a.iter().all(|&(d, _)| d < 4));
        assert!(plan.lse_candidates(0, horizon).is_empty());
        assert!(FaultPlan::none().lse_candidates(4, horizon).is_empty());
    }

    #[test]
    fn shock_instants_reproducible() {
        let mut plan = FaultPlan::none();
        plan.shock_rate = 0.01;
        plan.seed = 11;
        let horizon = Duration::from_secs(3600);
        let a = plan.shock_instants(horizon);
        assert_eq!(a, plan.shock_instants(horizon));
        assert!(!a.is_empty());
        assert!(FaultPlan::none().shock_instants(horizon).is_empty());
    }

    #[test]
    fn lse_conservation_helper() {
        let mut m = FaultMetrics::default();
        assert!(m.lse_conserved());
        m.lse_injected = 5;
        m.lse_repaired_on_read = 1;
        m.lse_repaired_by_scrub = 2;
        m.lse_lost = 1;
        assert!(!m.lse_conserved());
        m.lse_latent_at_end = 1;
        assert!(m.lse_conserved());
        assert_eq!(m.lse_classified(), 5);
    }

    #[test]
    fn surviving_partner_maps_pairs() {
        let g = geo(Scheme::Graid);
        let pairs = g.pairs();
        assert_eq!(surviving_partner(&g, 0), Some(pairs));
        assert_eq!(surviving_partner(&g, pairs), Some(0));
        assert_eq!(surviving_partner(&g, 2 * pairs), None); // GRAID log disk
    }
}
