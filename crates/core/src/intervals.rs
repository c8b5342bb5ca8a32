//! Logging/destaging phase tracking.
//!
//! The motivation study (§II, Fig. 2) defines the **destaging interval
//! ratio** as the fraction of each logging cycle's wall time spent
//! destaging, and the **destaging energy ratio** analogously for energy.
//! Controllers report phase boundaries here; the tracker accumulates
//! per-phase residency and energy and computes the ratios. Phases of the
//! same kind may overlap (RoLo's decentralized destaging runs several
//! concurrent destage processes); overlapping spans are merged per kind
//! when accumulating so a kind's residency never exceeds wall time.

use rolo_sim::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// The two phases of a logging cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Writes are being redirected to the logger.
    Logging,
    /// Inconsistent mirror blocks are being updated.
    Destaging,
}

/// Summary of one phase kind.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Number of completed spans.
    pub spans: u64,
    /// Total (overlap-merged) residency.
    pub residency: Duration,
    /// Energy attributed to the phase (J), as reported by the caller.
    pub energy_j: f64,
}

/// Tracks logging/destaging spans and computes the Fig. 2 ratios.
///
/// # Example
///
/// ```
/// use rolo_core::intervals::{IntervalTracker, Phase};
/// use rolo_sim::SimTime;
///
/// let mut t = IntervalTracker::new();
/// let log = t.begin(Phase::Logging, SimTime::ZERO);
/// t.end(log, SimTime::from_secs(80), 0.0);
/// let de = t.begin(Phase::Destaging, SimTime::from_secs(80));
/// t.end(de, SimTime::from_secs(100), 0.0);
/// assert!((t.interval_ratio(Phase::Destaging) - 0.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IntervalTracker {
    logging: PhaseSummary,
    destaging: PhaseSummary,
    /// Open spans: (token, phase, start).
    open: Vec<(u64, Phase, SimTime)>,
    /// Completed raw spans per kind for overlap merging: (start, end).
    done_logging: Vec<(SimTime, SimTime)>,
    done_destaging: Vec<(SimTime, SimTime)>,
    next_token: u64,
    /// The array-wide phase [`IntervalTracker::enter`] opened last, and
    /// the energy reading it was opened at.
    current: Option<u64>,
    mark_j: f64,
}

impl IntervalTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span of `phase` at `start`; returns a token to close it.
    pub fn begin(&mut self, phase: Phase, start: SimTime) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.open.push((token, phase, start));
        token
    }

    /// Closes the span identified by `token` at `end`, attributing
    /// `energy_j` joules to its phase.
    ///
    /// # Panics
    ///
    /// Panics if the token is unknown (already closed or never opened).
    pub fn end(&mut self, token: u64, end: SimTime, energy_j: f64) {
        let idx = self
            .open
            .iter()
            .position(|(t, _, _)| *t == token)
            .unwrap_or_else(|| panic!("unknown interval token {token}"));
        let (_, phase, start) = self.open.swap_remove(idx);
        let end = end.max(start);
        let summary = match phase {
            Phase::Logging => {
                self.done_logging.push((start, end));
                &mut self.logging
            }
            Phase::Destaging => {
                self.done_destaging.push((start, end));
                &mut self.destaging
            }
        };
        summary.spans += 1;
        summary.energy_j += energy_j;
    }

    /// The array-wide phase clock: closes the phase the previous call
    /// opened, charging it the energy spent since (`energy_j` is the
    /// array's cumulative energy at `now`), and opens `phase` at `now`.
    /// The first call only opens. Centralized destaging (GRAID, RoLo-E)
    /// alternates logging and destaging phases through it; RoLo-P/R open
    /// a fresh logging phase at each rotation.
    pub fn enter(&mut self, phase: Phase, now: SimTime, energy_j: f64) {
        if let Some(token) = self.current.take() {
            self.end(token, now, energy_j - self.mark_j);
        }
        self.mark_j = energy_j;
        self.current = Some(self.begin(phase, now));
    }

    fn merged_residency(spans: &[(SimTime, SimTime)]) -> Duration {
        if spans.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = spans.to_vec();
        sorted.sort_unstable();
        let mut total = Duration::ZERO;
        let (mut cur_s, mut cur_e) = sorted[0];
        for &(s, e) in &sorted[1..] {
            if s <= cur_e {
                cur_e = cur_e.max(e);
            } else {
                total += cur_e.since(cur_s);
                cur_s = s;
                cur_e = e;
            }
        }
        total += cur_e.since(cur_s);
        total
    }

    /// Completed-span summary for `phase` (with overlap-merged residency).
    pub fn summary(&self, phase: Phase) -> PhaseSummary {
        let (base, spans) = match phase {
            Phase::Logging => (self.logging, &self.done_logging),
            Phase::Destaging => (self.destaging, &self.done_destaging),
        };
        PhaseSummary {
            residency: Self::merged_residency(spans),
            ..base
        }
    }

    /// Fraction of cycle wall time spent in `phase` — the paper's
    /// *destaging interval ratio* when called with
    /// [`Phase::Destaging`]. Zero if nothing has completed.
    pub fn interval_ratio(&self, phase: Phase) -> f64 {
        let l = self.summary(Phase::Logging).residency.as_secs_f64();
        let d = self.summary(Phase::Destaging).residency.as_secs_f64();
        let total = l + d;
        if total == 0.0 {
            return 0.0;
        }
        match phase {
            Phase::Logging => l / total,
            Phase::Destaging => d / total,
        }
    }

    /// Fraction of cycle energy consumed in `phase` — the paper's
    /// *destaging energy ratio* when called with [`Phase::Destaging`].
    pub fn energy_ratio(&self, phase: Phase) -> f64 {
        let l = self.summary(Phase::Logging).energy_j;
        let d = self.summary(Phase::Destaging).energy_j;
        let total = l + d;
        if total == 0.0 {
            return 0.0;
        }
        match phase {
            Phase::Logging => l / total,
            Phase::Destaging => d / total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_alternation() {
        let mut t = IntervalTracker::new();
        // Two cycles: 80 s logging + 20 s destaging each.
        for c in 0..2u64 {
            let base = c * 100;
            let l = t.begin(Phase::Logging, SimTime::from_secs(base));
            t.end(l, SimTime::from_secs(base + 80), 800.0);
            let d = t.begin(Phase::Destaging, SimTime::from_secs(base + 80));
            t.end(d, SimTime::from_secs(base + 100), 400.0);
        }
        assert!((t.interval_ratio(Phase::Destaging) - 0.2).abs() < 1e-9);
        assert!((t.energy_ratio(Phase::Destaging) - 400.0 * 2.0 / 2400.0).abs() < 1e-9);
        assert_eq!(t.summary(Phase::Logging).spans, 2);
    }

    #[test]
    fn enter_alternation_matches_explicit_spans() {
        let mut t = IntervalTracker::new();
        // `simple_alternation`'s two cycles on one clock: each phase
        // closes when the next opens, charged the energy since.
        let mut energy = 0.0;
        for c in 0..2u64 {
            let base = c * 100;
            t.enter(Phase::Logging, SimTime::from_secs(base), energy);
            energy += 800.0;
            t.enter(Phase::Destaging, SimTime::from_secs(base + 80), energy);
            energy += 400.0;
        }
        t.enter(Phase::Logging, SimTime::from_secs(200), energy);
        assert!((t.interval_ratio(Phase::Destaging) - 0.2).abs() < 1e-9);
        assert!((t.energy_ratio(Phase::Destaging) - 400.0 * 2.0 / 2400.0).abs() < 1e-9);
        assert_eq!(t.summary(Phase::Logging).spans, 2, "the last phase is open");
        assert_eq!(t.summary(Phase::Destaging).spans, 2);
        assert_eq!(t.summary(Phase::Logging).energy_j, 1600.0);
    }

    #[test]
    fn overlapping_destage_spans_merge() {
        let mut t = IntervalTracker::new();
        let a = t.begin(Phase::Destaging, SimTime::from_secs(0));
        let b = t.begin(Phase::Destaging, SimTime::from_secs(5));
        t.end(a, SimTime::from_secs(10), 0.0);
        t.end(b, SimTime::from_secs(12), 0.0);
        // Merged residency is 12 s, not 17 s.
        assert_eq!(
            t.summary(Phase::Destaging).residency,
            Duration::from_secs(12)
        );
    }

    #[test]
    fn disjoint_spans_accumulate() {
        let mut t = IntervalTracker::new();
        let a = t.begin(Phase::Destaging, SimTime::from_secs(0));
        t.end(a, SimTime::from_secs(3), 0.0);
        let b = t.begin(Phase::Destaging, SimTime::from_secs(10));
        t.end(b, SimTime::from_secs(14), 0.0);
        assert_eq!(
            t.summary(Phase::Destaging).residency,
            Duration::from_secs(7)
        );
    }

    #[test]
    fn empty_ratios_are_zero() {
        let t = IntervalTracker::new();
        assert_eq!(t.interval_ratio(Phase::Destaging), 0.0);
        assert_eq!(t.energy_ratio(Phase::Logging), 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown interval token")]
    fn double_close_panics() {
        let mut t = IntervalTracker::new();
        let tok = t.begin(Phase::Logging, SimTime::ZERO);
        t.end(tok, SimTime::from_secs(1), 0.0);
        t.end(tok, SimTime::from_secs(2), 0.0);
    }

    #[test]
    fn ratios_complement() {
        let mut t = IntervalTracker::new();
        let l = t.begin(Phase::Logging, SimTime::ZERO);
        t.end(l, SimTime::from_secs(30), 10.0);
        let d = t.begin(Phase::Destaging, SimTime::from_secs(30));
        t.end(d, SimTime::from_secs(40), 30.0);
        let sum = t.interval_ratio(Phase::Logging) + t.interval_ratio(Phase::Destaging);
        assert!((sum - 1.0).abs() < 1e-12);
        let esum = t.energy_ratio(Phase::Logging) + t.energy_ratio(Phase::Destaging);
        assert!((esum - 1.0).abs() < 1e-12);
    }
}
