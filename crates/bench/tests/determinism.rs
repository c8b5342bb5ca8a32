//! Determinism lock-down: the same seed and config must yield the same
//! report and the same trace-event sequence, no matter how the runs are
//! scheduled.
//!
//! `SimReport::deterministic_json` strips the one intentionally
//! non-deterministic field (the wall-clock `RunProfile`), so two
//! equivalent runs must serialize byte-identically — across repeated
//! runs, across serial vs `run_jobs` parallel execution, and with
//! tracing on vs off.

use rolo_bench::{run_jobs, run_records, RunJob};
use rolo_core::{run_scheme_observed, Scheme, SimConfig};
use rolo_obs::{NullSink, RingSink, TraceSink, TracedEvent};
use rolo_sim::Duration;
use rolo_trace::{profiles, TraceRecord};

fn small_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme, 4);
    cfg.logger_region = 64 << 20;
    cfg.graid_log_capacity = 96 << 20;
    cfg
}

fn workload(dur: Duration, seed: u64) -> Vec<TraceRecord> {
    profiles::src2_2().generator(dur, seed).collect()
}

#[test]
fn parallel_run_jobs_matches_serial() {
    let dur = Duration::from_secs(900);
    let records = workload(dur, 42);
    let jobs: Vec<RunJob> = Scheme::all()
        .into_iter()
        .map(|scheme| RunJob {
            cfg: small_cfg(scheme),
            records: records.clone(),
            duration: dur,
        })
        .collect();
    let serial: Vec<String> = jobs
        .iter()
        .map(|j| run_records(&j.cfg, j.records.clone(), j.duration).deterministic_json())
        .collect();
    let parallel = run_jobs(jobs);
    assert_eq!(parallel.len(), serial.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s,
            &p.deterministic_json(),
            "parallel run diverged from serial for {}",
            p.scheme
        );
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    let dur = Duration::from_secs(900);
    for scheme in [Scheme::RoloP, Scheme::Graid] {
        let a = run_records(&small_cfg(scheme), workload(dur, 7), dur);
        let b = run_records(&small_cfg(scheme), workload(dur, 7), dur);
        assert_eq!(
            a.deterministic_json(),
            b.deterministic_json(),
            "{scheme} is not deterministic"
        );
    }
}

#[test]
fn trace_event_sequence_is_deterministic() {
    let dur = Duration::from_secs(900);
    let run = || -> (String, Vec<TracedEvent>) {
        let cfg = small_cfg(Scheme::RoloP);
        let (report, mut obs) = run_scheme_observed(
            &cfg,
            workload(dur, 21),
            dur,
            Box::new(RingSink::new(1 << 20)),
            false,
        );
        (report.deterministic_json(), obs.sink.drain())
    };
    let (ja, ea) = run();
    let (jb, eb) = run();
    assert_eq!(ja, jb, "reports diverged");
    assert_eq!(ea.len(), eb.len(), "event counts diverged");
    assert_eq!(ea, eb, "event sequences diverged");
    assert!(!ea.is_empty(), "tracing recorded nothing");
    // Tracing on vs off: identical deterministic report.
    let cfg = small_cfg(Scheme::RoloP);
    let untraced = run_records(&cfg, workload(dur, 21), dur);
    assert_eq!(
        ja,
        untraced.deterministic_json(),
        "enabling tracing changed the simulation"
    );
}

/// The tracing budget DESIGN.md §9 promises: a live ring buffer costs
/// at most 10 % (plus 250 ms of scheduling slack) over the no-op sink on
/// RoLo-P replaying 24 h of src2_2 on 20 pairs, each sink timed as the
/// minimum of three runs. Wall-clock bound, so only meaningful in a
/// release build: `cargo test --release -p rolo-bench -- --ignored`.
#[test]
#[ignore = "wall-clock budget; run in release with --ignored"]
fn ring_tracing_stays_within_its_overhead_budget() {
    let cfg = SimConfig::paper_default(Scheme::RoloP, 20);
    let dur = Duration::from_secs(24 * 3600);
    let records: Vec<_> = profiles::src2_2().generator(dur, 1).collect();
    let fastest = |sink: fn() -> Box<dyn TraceSink>| {
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                run_scheme_observed(&cfg, records.clone(), dur, sink(), false);
                start.elapsed()
            })
            .min()
            .expect("three runs")
    };
    let null = fastest(|| Box::new(NullSink));
    let ring = fastest(|| Box::new(RingSink::new(1 << 20)));
    let budget = null.mul_f64(1.10) + std::time::Duration::from_millis(250);
    assert!(
        ring <= budget,
        "ring-buffer tracing too slow: {ring:?} > budget {budget:?} (null {null:?})"
    );
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let dur = Duration::from_secs(900);
    for scheme in Scheme::all() {
        let cfg_on = small_cfg(scheme);
        assert!(cfg_on.telemetry_enabled, "telemetry is on by default");
        let mut cfg_off = small_cfg(scheme);
        cfg_off.telemetry_enabled = false;
        let on = run_records(&cfg_on, workload(dur, 33), dur);
        let off = run_records(&cfg_off, workload(dur, 33), dur);
        assert_eq!(
            on.deterministic_json(),
            off.deterministic_json(),
            "telemetry changed the simulation for {scheme}"
        );
    }
    // The out-of-band observations themselves are deterministic: two
    // identical runs export identical snapshots and alert lists.
    let cfg = small_cfg(Scheme::RoloE);
    let observe = || {
        let (_, obs) = run_scheme_observed(&cfg, workload(dur, 33), dur, Box::new(NullSink), false);
        (obs.telemetry.expect("telemetry on"), obs.slo_alerts)
    };
    let (snap_a, alerts_a) = observe();
    let (snap_b, alerts_b) = observe();
    assert_eq!(snap_a, snap_b, "telemetry snapshots diverged");
    assert_eq!(alerts_a, alerts_b, "SLO alerts diverged");
}

#[test]
fn forensics_do_not_perturb_the_simulation() {
    let dur = Duration::from_secs(900);
    for scheme in Scheme::all() {
        // Forensics fully on (exemplars + RCA, which force-enables
        // span recording) vs fully off: the deterministic report must
        // not move by a byte.
        let mut cfg_on = small_cfg(scheme);
        cfg_on.rca_enabled = true;
        assert!(cfg_on.exemplars_per_window > 0, "exemplars on by default");
        let mut cfg_off = small_cfg(scheme);
        cfg_off.exemplars_per_window = 0;
        cfg_off.rca_enabled = false;
        let observe = |cfg: &SimConfig| {
            run_scheme_observed(cfg, workload(dur, 51), dur, Box::new(NullSink), false)
        };
        let (on, obs_on) = observe(&cfg_on);
        let (off, obs_off) = observe(&cfg_off);
        assert_eq!(
            on.deterministic_json(),
            off.deterministic_json(),
            "tail forensics changed the simulation for {scheme}"
        );
        assert!(
            obs_on.rca.is_some(),
            "{scheme}: rca_enabled exports a report"
        );
        assert!(
            obs_off.exemplars.is_none(),
            "{scheme}: k = 0 disables capture"
        );
        // The forensics exports themselves are deterministic.
        let (_, obs_again) = observe(&cfg_on);
        assert_eq!(
            obs_on.exemplars, obs_again.exemplars,
            "{scheme}: exemplars diverged"
        );
        assert_eq!(obs_on.rca, obs_again.rca, "{scheme}: RCA reports diverged");
    }
}

#[test]
fn span_recording_does_not_perturb_the_simulation() {
    let dur = Duration::from_secs(900);
    for scheme in Scheme::all() {
        let cfg = small_cfg(scheme);
        let plain = run_records(&cfg, workload(dur, 13), dur);
        let (spanned, obs) =
            run_scheme_observed(&cfg, workload(dur, 13), dur, Box::new(NullSink), true);
        let spans = obs.spans.expect("span recording was enabled");
        assert_eq!(
            plain.deterministic_json(),
            spanned.deterministic_json(),
            "span recording changed the simulation for {scheme}"
        );
        assert_eq!(
            spans.requests.len() as u64,
            spanned.user_requests,
            "{scheme}: every completed request must yield a span"
        );
        spans.validate().expect("span invariants");
        // The spans really measure the same runtime the report does:
        // summed span durations equal summed response times.
        let span_us = spans.requests.all.total_us;
        let mean_ms = span_us as f64 / 1e3 / spanned.user_requests as f64;
        assert!(
            (mean_ms - spanned.mean_response_ms()).abs() < 1e-6,
            "{scheme}: span durations diverge from response stats \
             ({mean_ms} vs {})",
            spanned.mean_response_ms()
        );
    }
}
