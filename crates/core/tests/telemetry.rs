//! Online telemetry acceptance tests (DESIGN.md §12): the SLO monitor
//! must flag RoLo-E's spin-up latency tail *during* the run while
//! RoLo-P on the same trace stays clean, and the telemetry snapshot
//! must carry coherent windowed rollups.

use rolo_core::{run_scheme_observed, Scheme, SimConfig};
use rolo_obs::{RingSink, RollupValue, SimEvent, SloSignal};
use rolo_sim::Duration;
use rolo_trace::profiles;

const SEED: u64 = 0x7e1e;

fn hm1_records(dur: Duration) -> Vec<rolo_trace::TraceRecord> {
    profiles::hm_1().generator(dur, 42).collect()
}

fn run(scheme: Scheme, dur: Duration) -> (rolo_core::SimReport, rolo_core::RunObservations) {
    let mut cfg = SimConfig::paper_default(scheme, 10);
    cfg.seed = SEED;
    run_scheme_observed(
        &cfg,
        hm1_records(dur),
        dur,
        Box::new(RingSink::new(1 << 16)),
        false,
    )
}

/// The paper's headline trade-off, caught online: RoLo-E serves hm_1
/// behind 10.9 s spin-up stalls, so its p95 SLO must breach *before*
/// the trace ends; RoLo-P keeps every disk's primary spun up and must
/// raise no alert at all on the identical workload.
#[test]
fn roloe_spinup_tail_breaches_online_while_rolop_stays_clean() {
    let dur = Duration::from_secs(3 * 3600);
    let (_, obs_e) = run(Scheme::RoloE, dur);
    let breach = obs_e
        .slo_alerts
        .iter()
        .find(|a| a.signal == SloSignal::Breach && a.slo == "latency_p95")
        .expect("RoLo-E on hm_1 must breach the latency SLO");
    // "Online" means the alert fired at a window that closed strictly
    // inside the simulated trace, not in a post-run sweep.
    let window_us = 60_000_000u64;
    assert!(
        (breach.window + 1) * window_us < dur.as_micros(),
        "breach at window {} should precede end of trace",
        breach.window
    );
    assert!(
        breach.observed > breach.target,
        "breach carries the violating observation"
    );

    let (_, obs_p) = run(Scheme::RoloP, dur);
    assert!(
        obs_p.slo_alerts.is_empty(),
        "RoLo-P on the same trace must stay clean, got {:?}",
        obs_p.slo_alerts
    );
}

/// Within one window a breach always follows a warning for the same
/// SLO — both in the alert list and in the emitted event stream.
#[test]
fn warning_precedes_breach_in_alerts_and_event_stream() {
    let dur = Duration::from_secs(2 * 3600);
    let (_, mut obs) = run(Scheme::RoloE, dur);
    for (i, a) in obs.slo_alerts.iter().enumerate() {
        if a.signal == SloSignal::Breach {
            let warned = obs.slo_alerts[..i]
                .iter()
                .any(|w| w.signal == SloSignal::Warning && w.slo == a.slo && w.window == a.window);
            assert!(
                warned,
                "breach of {} at window {} unwarned",
                a.slo, a.window
            );
        }
    }
    assert!(
        obs.slo_alerts.iter().any(|a| a.signal == SloSignal::Breach),
        "RoLo-E run should reach a breach"
    );

    let events = obs.sink.drain();
    let mut seen_warn: Vec<(String, u64)> = Vec::new();
    let mut saw_breach_event = false;
    for t in &events {
        match &t.event {
            SimEvent::SloBurnWarning(w) => {
                seen_warn.push((w.slo.clone(), w.window));
            }
            SimEvent::SloBreach(b) => {
                saw_breach_event = true;
                assert!(
                    seen_warn.contains(&(b.slo.clone(), b.window)),
                    "SloBreach({}, w{}) emitted before its warning",
                    b.slo,
                    b.window
                );
            }
            _ => {}
        }
    }
    assert!(saw_breach_event, "breach must reach the trace sink");
}

/// The exported snapshot's windows are coherent: window indices are
/// contiguous, the completion counter's deltas sum to the report's
/// request count (retention permitting), and the response quantile
/// series carries non-empty digests for active windows.
#[test]
fn telemetry_snapshot_rolls_up_the_run() {
    let dur = Duration::from_secs(1800);
    let (report, obs) = run(Scheme::RoloP, dur);
    let snap = obs.telemetry.expect("telemetry on by default");
    assert_eq!(snap.window_us, 60_000_000);
    let completions = snap.get("sim.user_completions").expect("series exists");
    assert!(!completions.windows.is_empty());
    let mut prev = None;
    let mut total = 0.0;
    for w in &completions.windows {
        if let Some(p) = prev {
            assert_eq!(w.window, p + 1, "window indices are contiguous");
        }
        prev = Some(w.window);
        match &w.value {
            RollupValue::Counter { delta } => total += delta,
            v => panic!("completions is a counter, got {v:?}"),
        }
    }
    // Retention kept every window of this short run, so the deltas
    // must account for every request completed before the last close.
    assert!(total > 0.0 && total <= report.user_requests as f64);
    let resp = snap.get("sim.response_us").expect("series exists");
    let active = resp.windows.iter().any(|w| match &w.value {
        RollupValue::Quantile(d) => d.count > 0 && d.p95.is_some(),
        _ => false,
    });
    assert!(active, "at least one window saw responses");
    let power = snap.get("sim.power_w").expect("series exists");
    let powered = power.windows.iter().any(|w| match &w.value {
        RollupValue::Gauge { mean, .. } => *mean > 0.0,
        _ => false,
    });
    assert!(powered, "power gauge sampled");
    // Per-disk series registered for every slot.
    assert!(snap.get("disk.00.state_transitions").is_some());
}
