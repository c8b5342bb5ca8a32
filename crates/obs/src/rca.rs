//! Automated root-cause attribution for SLO alert windows
//! (DESIGN.md §14).
//!
//! [`analyze`] folds the tail exemplars of every window that raised a
//! [`SloAlert`] (see [`crate::exemplar`]) into a phase-ranked blame
//! table, then walks the exemplar legs' `delayed_by` causality links
//! into the run's [`BgSpan`]s to name the culprit background activity
//! (destage / rebuild / compaction / scrub / spin-up) and the
//! [`crate::SimEvent`] kind that originated it — the machinery an
//! adaptive meta-controller needs before it can switch policies per
//! workload phase.
//!
//! # Conservation contract
//!
//! Per window, the blame rows partition the exemplars' attributed
//! critical-path time exactly: `Σ blame.us == attributed_us`,
//! `attributed_us + unattributed_us == total_us`, and the shares sum
//! to 1 (of attributed time) whenever anything was attributed.
//! [`RcaReport::check`] verifies all three, and the whole pass is a
//! pure function of its inputs — same exemplars and alerts, same
//! report, byte for byte.

use crate::exemplar::{ExemplarSet, ExemplarSpan};
use crate::slo::{SloAlert, SloSignal};
use crate::span::{dominant_phase, BgSpan, BgSpanKind, Phase, NUM_PHASES};
use rolo_disk::{DiskId, PowerState};
use serde::Serialize;

/// One phase's row in a window's blame table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseBlame {
    /// Phase name ([`Phase::name`]).
    pub phase: &'static str,
    /// Critical-path microseconds the window's exemplars spent in the
    /// phase.
    pub us: u64,
    /// Share of the window's *attributed* exemplar tail time (the
    /// rows sum to 1.0 when anything was attributed).
    pub share: f64,
}

/// The background activity a window's dominant phase implicates, with
/// the causality evidence that names it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Culprit {
    /// Human-readable activity name: `spin-up`, `destage`, `rebuild`,
    /// `compaction`, `scrub`, `degraded-redirect` or `direct-mirror`.
    pub activity: &'static str,
    /// The background span kind behind the interference, when the
    /// dominant phase is caused by one (spin-up stalls and degraded
    /// redirects have no [`BgSpan`]; they implicate power state and
    /// failed disks instead).
    pub bg_kind: Option<BgSpanKind>,
    /// Kind name of the [`crate::SimEvent`] that originates this
    /// activity (e.g. `ReadMissSpinUp`, `DestageStart`, `DiskFailed`,
    /// `ScrubStart`, `LoggingDeactivated`).
    pub origin_event: &'static str,
    /// Ids of the background spans the exemplar legs were delayed
    /// behind, ascending, deduplicated.
    pub bg_spans: Vec<u64>,
    /// Disks whose legs carried the dominant phase, ascending.
    pub disks: Vec<DiskId>,
    /// Power state of each implicated disk as stamped at exemplar
    /// completion, ascending by disk.
    pub power_states: Vec<(DiskId, PowerState)>,
}

/// Root-cause attribution of one SLO alert window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowRca {
    /// Telemetry window index.
    pub window: u64,
    /// Name of the SLO that fired.
    pub slo: String,
    /// Warning or breach.
    pub signal: SloSignal,
    /// The window's observed value (µs for latency SLOs, watts for
    /// energy SLOs).
    pub observed: f64,
    /// The objective's bound, same unit.
    pub target: f64,
    /// Burn rate over the short lookback.
    pub burn_short: f64,
    /// Burn rate over the long lookback.
    pub burn_long: f64,
    /// Exemplars the window retained (0 when the breach window's tail
    /// was never captured, e.g. spans disabled).
    pub exemplars: usize,
    /// Summed end-to-end response of the exemplars (µs).
    pub total_us: u64,
    /// Microseconds the blame rows partition.
    pub attributed_us: u64,
    /// Exemplar microseconds no leg explains.
    pub unattributed_us: u64,
    /// Name of the dominant phase, if anything was attributed.
    pub dominant_phase: Option<&'static str>,
    /// Blame rows, largest share first (only phases that appear);
    /// equal shares order by [`Phase::ALL`] index, deterministically.
    pub blame: Vec<PhaseBlame>,
    /// The background activity the dominant phase implicates, when it
    /// names one.
    pub culprit: Option<Culprit>,
}

impl WindowRca {
    /// Verifies the conservation contract of this window's blame
    /// table.
    pub fn check(&self) -> Result<(), String> {
        let blamed: u64 = self.blame.iter().map(|b| b.us).sum();
        if blamed != self.attributed_us {
            return Err(format!(
                "window {}: blame rows sum to {blamed} µs but {} µs were attributed",
                self.window, self.attributed_us
            ));
        }
        if self.attributed_us + self.unattributed_us != self.total_us {
            return Err(format!(
                "window {}: attributed {} + unattributed {} != total {}",
                self.window, self.attributed_us, self.unattributed_us, self.total_us
            ));
        }
        if self.attributed_us > 0 {
            let shares: f64 = self.blame.iter().map(|b| b.share).sum();
            if (shares - 1.0).abs() > 1e-9 {
                return Err(format!(
                    "window {}: blame shares sum to {shares}, not 1",
                    self.window
                ));
            }
            if self.dominant_phase.is_none() {
                return Err(format!(
                    "window {}: attributed time but no dominant phase",
                    self.window
                ));
            }
        }
        Ok(())
    }
}

/// The typed forensics report: one entry per SLO alert, in alert
/// emission order. Empty when the run raised no alerts.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RcaReport {
    /// Per-alert-window attributions, in emission order.
    pub windows: Vec<WindowRca>,
    /// Alert windows with [`SloSignal::Warning`].
    pub warnings: usize,
    /// Alert windows with [`SloSignal::Breach`].
    pub breaches: usize,
}

impl RcaReport {
    /// True when the run raised no SLO alerts at all.
    pub fn is_clean(&self) -> bool {
        self.windows.is_empty()
    }

    /// The first breach window's attribution, if the run breached.
    pub fn first_breach(&self) -> Option<&WindowRca> {
        self.windows.iter().find(|w| w.signal == SloSignal::Breach)
    }

    /// Verifies the conservation contract for every window.
    pub fn check(&self) -> Result<(), String> {
        for w in &self.windows {
            w.check()?;
        }
        let warns = self
            .windows
            .iter()
            .filter(|w| w.signal == SloSignal::Warning)
            .count();
        let breaches = self
            .windows
            .iter()
            .filter(|w| w.signal == SloSignal::Breach)
            .count();
        if warns != self.warnings || breaches != self.breaches {
            return Err(format!(
                "counts ({}, {}) disagree with windows ({warns}, {breaches})",
                self.warnings, self.breaches
            ));
        }
        Ok(())
    }
}

/// Attributes every alert's window: folds its exemplar critical paths
/// into a blame table and names the culprit background activity via
/// `delayed_by` causality into `background`. Pure — same inputs, same
/// report.
pub fn analyze(alerts: &[SloAlert], exemplars: &ExemplarSet, background: &[BgSpan]) -> RcaReport {
    let mut report = RcaReport::default();
    for a in alerts {
        let spans: &[ExemplarSpan] = exemplars
            .window(a.window)
            .map(|w| w.spans.as_slice())
            .unwrap_or(&[]);
        let mut phase_us = [0u64; NUM_PHASES];
        let mut total = 0u64;
        let mut unattributed = 0u64;
        for e in spans {
            total += e.response_us;
            unattributed += e.unattributed_us;
            for (i, &us) in e.phase_us.iter().enumerate() {
                phase_us[i] += us;
            }
        }
        let attributed: u64 = phase_us.iter().sum();
        let mut blame: Vec<PhaseBlame> = Phase::ALL
            .iter()
            .filter(|p| phase_us[p.index()] > 0)
            .map(|&p| PhaseBlame {
                phase: p.name(),
                us: phase_us[p.index()],
                share: phase_us[p.index()] as f64 / attributed as f64,
            })
            .collect();
        // Descending by time; Phase::ALL order already breaks ties by
        // construction (stable sort on a pre-ordered list).
        blame.sort_by_key(|b| std::cmp::Reverse(b.us));
        let dominant = dominant_phase(&phase_us);
        report.windows.push(WindowRca {
            window: a.window,
            slo: a.slo.clone(),
            signal: a.signal,
            observed: a.observed,
            target: a.target,
            burn_short: a.burn_short,
            burn_long: a.burn_long,
            exemplars: spans.len(),
            total_us: total,
            attributed_us: attributed,
            unattributed_us: unattributed,
            dominant_phase: dominant.map(Phase::name),
            blame,
            culprit: dominant.and_then(|p| culprit_for(p, spans, background)),
        });
        match a.signal {
            SloSignal::Warning => report.warnings += 1,
            SloSignal::Breach => report.breaches += 1,
        }
    }
    report
}

/// Walks the exemplar legs carrying `dominant` into the background
/// span table and names the activity + originating event.
fn culprit_for(dominant: Phase, spans: &[ExemplarSpan], background: &[BgSpan]) -> Option<Culprit> {
    // Evidence: every leg whose slice list contains the dominant phase.
    let mut disks: Vec<DiskId> = Vec::new();
    let mut bg_ids: Vec<u64> = Vec::new();
    let mut states: Vec<(DiskId, PowerState)> = Vec::new();
    for e in spans {
        for leg in &e.span.legs {
            if !leg.slices.iter().any(|s| s.phase == dominant) {
                continue;
            }
            disks.push(leg.disk);
            if let Some(bg) = leg.delayed_by {
                bg_ids.push(bg);
            }
            if let Some(&(d, s)) = e.disk_states.iter().find(|(d, _)| *d == leg.disk) {
                states.push((d, s));
            }
        }
    }
    disks.sort_unstable();
    disks.dedup();
    bg_ids.sort_unstable();
    bg_ids.dedup();
    states.sort_unstable_by_key(|&(d, _)| d);
    states.dedup();
    // The background kind behind the interference, majority-voted over
    // the linked spans (ties break toward the smaller kind index, i.e.
    // BgSpanKind declaration order — deterministic).
    let kind_of = |id: u64| background.iter().find(|b| b.id == id).map(|b| b.kind);
    let bg_kind = {
        let mut votes = [0usize; 4];
        for &id in &bg_ids {
            if let Some(k) = kind_of(id) {
                votes[k as usize] += 1;
            }
        }
        const KINDS: [BgSpanKind; 4] = [
            BgSpanKind::Destage,
            BgSpanKind::Rebuild,
            BgSpanKind::Compaction,
            BgSpanKind::Scrub,
        ];
        votes
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0)
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .map(|(i, _)| KINDS[i])
    };
    let (activity, bg_kind, origin_event) = match dominant {
        Phase::SpinUpStall => ("spin-up", None, "ReadMissSpinUp"),
        Phase::DestageInterference => match bg_kind {
            Some(BgSpanKind::Rebuild) => ("rebuild", bg_kind, "DiskFailed"),
            _ => ("destage", Some(BgSpanKind::Destage), "DestageStart"),
        },
        Phase::Compaction => (
            "compaction",
            Some(BgSpanKind::Compaction),
            "CompactionStart",
        ),
        Phase::ScrubInterference => ("scrub", Some(BgSpanKind::Scrub), "ScrubStart"),
        Phase::DegradedRedirect => ("degraded-redirect", None, "DiskFailed"),
        Phase::MirrorCopy => ("direct-mirror", None, "LoggingDeactivated"),
        // Plain foreground service phases implicate no background
        // activity — there is no culprit to name.
        _ => return None,
    };
    Some(Culprit {
        activity,
        bg_kind,
        origin_event,
        bg_spans: bg_ids,
        disks,
        power_states: states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exemplar::{ExemplarRecorder, ExemplarSet};
    use crate::span::{critical_path, PhaseSlice, RequestSpan, SpanLeg};
    use rolo_sim::{Duration, SimTime};
    use rolo_trace::ReqKind;

    fn stalled_span(rid: u64, disk: DiskId, stall_us: u64, xfer_us: u64) -> RequestSpan {
        let begin = SimTime::from_micros(0);
        let end = SimTime::from_micros(stall_us + xfer_us);
        RequestSpan {
            id: rid,
            kind: ReqKind::Read,
            begin,
            end,
            legs: vec![SpanLeg {
                io: rid * 10,
                disk,
                submit: begin,
                start: SimTime::from_micros(stall_us),
                end,
                slices: [
                    PhaseSlice {
                        phase: Phase::SpinUpStall,
                        duration: Duration::from_micros(stall_us),
                    },
                    PhaseSlice {
                        phase: Phase::Transfer,
                        duration: Duration::from_micros(xfer_us),
                    },
                ]
                .into_iter()
                .collect(),
                delayed_by: None,
            }],
        }
    }

    fn alert(window: u64, signal: SloSignal) -> SloAlert {
        SloAlert {
            slo: "latency_p95".to_owned(),
            window,
            signal,
            burn_short: 9.0,
            burn_long: 6.0,
            observed: 1.0e7,
            target: 5.0e5,
        }
    }

    fn capture(spans: &[RequestSpan]) -> ExemplarSet {
        let mut rec = ExemplarRecorder::new(4, Duration::from_secs(60), 16);
        for s in spans {
            let path = critical_path(s);
            rec.observe(s.end, s, &path, &[PowerState::SpinningUp, PowerState::Idle]);
        }
        rec.finish()
    }

    #[test]
    fn spinup_dominated_window_names_the_spinup_culprit() {
        let spans = vec![
            stalled_span(1, 0, 10_000_000, 900),
            stalled_span(2, 1, 9_000_000, 500),
        ];
        let set = capture(&spans);
        let report = analyze(
            &[alert(0, SloSignal::Warning), alert(0, SloSignal::Breach)],
            &set,
            &[],
        );
        report.check().expect("conservation holds");
        assert_eq!((report.warnings, report.breaches), (1, 1));
        let breach = report.first_breach().expect("breach attributed");
        assert_eq!(breach.exemplars, 2);
        assert_eq!(breach.dominant_phase, Some("SpinUpStall"));
        assert_eq!(breach.total_us, 19_001_400);
        assert_eq!(
            breach.attributed_us + breach.unattributed_us,
            breach.total_us
        );
        let culprit = breach.culprit.as_ref().expect("culprit named");
        assert_eq!(culprit.activity, "spin-up");
        assert_eq!(culprit.origin_event, "ReadMissSpinUp");
        assert_eq!(culprit.disks, vec![0, 1]);
        assert_eq!(
            culprit.power_states,
            vec![(0, PowerState::SpinningUp), (1, PowerState::Idle)]
        );
    }

    #[test]
    fn no_alerts_yield_an_empty_report() {
        let set = capture(&[stalled_span(1, 0, 100, 100)]);
        let report = analyze(&[], &set, &[]);
        assert!(report.is_clean());
        report.check().expect("empty report is consistent");
    }

    #[test]
    fn destage_interference_walks_delayed_by_to_the_bg_span() {
        let begin = SimTime::from_micros(0);
        let end = SimTime::from_micros(5_000);
        let span = RequestSpan {
            id: 3,
            kind: ReqKind::Write,
            begin,
            end,
            legs: vec![SpanLeg {
                io: 30,
                disk: 1,
                submit: begin,
                start: SimTime::from_micros(4_000),
                end,
                slices: [
                    PhaseSlice {
                        phase: Phase::DestageInterference,
                        duration: Duration::from_micros(4_000),
                    },
                    PhaseSlice {
                        phase: Phase::LogAppend,
                        duration: Duration::from_micros(1_000),
                    },
                ]
                .into_iter()
                .collect(),
                delayed_by: Some(7),
            }],
        };
        let bg = BgSpan {
            id: 7,
            kind: BgSpanKind::Destage,
            begin,
            end: Some(SimTime::from_micros(100_000)),
            delayed: vec![3],
        };
        let set = capture(std::slice::from_ref(&span));
        let report = analyze(&[alert(0, SloSignal::Breach)], &set, &[bg]);
        report.check().expect("conservation holds");
        let w = &report.windows[0];
        assert_eq!(w.dominant_phase, Some("DestageInterference"));
        let culprit = w.culprit.as_ref().expect("culprit named");
        assert_eq!(culprit.activity, "destage");
        assert_eq!(culprit.bg_kind, Some(BgSpanKind::Destage));
        assert_eq!(culprit.origin_event, "DestageStart");
        assert_eq!(culprit.bg_spans, vec![7]);
    }

    #[test]
    fn alert_window_without_exemplars_still_reports() {
        let report = analyze(
            &[alert(42, SloSignal::Breach)],
            &ExemplarSet::default(),
            &[],
        );
        report.check().expect("consistent");
        let w = &report.windows[0];
        assert_eq!((w.exemplars, w.total_us), (0, 0));
        assert!(w.dominant_phase.is_none() && w.culprit.is_none());
    }
}
