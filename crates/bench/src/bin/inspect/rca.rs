//! `inspect rca`: breach drill-down. Runs one scheme with tail
//! forensics on and prints the root-cause attribution of every SLO
//! alert window (DESIGN.md §14) — the phase-ranked blame table built
//! from the window's tail exemplars, the culprit background activity
//! named by `delayed_by` causality, and the originating event kind.
//!
//! Defaults reproduce the locked telemetry acceptance run: rolo-e on
//! hm_1 for 3 simulated hours, 10 pairs, seed 0x7e1e, trace seed 42 —
//! the configuration whose p95 spin-up tail the SLO monitor is known
//! to breach online. Exemplar capture keeps `SimConfig`'s default of 8
//! per window.
//!
//! * `--check` — verify the report's conservation contract (blame
//!   shares partition the attributed tail time exactly) and exit 1 on
//!   violation.
//! * `--expect-dominant PHASE` — additionally require a breach whose
//!   first breach window's dominant phase is `PHASE` (the CI gate for
//!   RoLo-E × hm_1: SpinUpStall).
//! * `--expect-clean` — additionally require that the run raised no
//!   SLO alert at all (the CI gate for RoLo-P × hm_1).
//!
//! The full typed `RcaReport` lands in
//! `results/rca_<scheme>_<trace>.json` (strict JSON, deterministic
//! for fixed inputs).

use rolo_bench::cli::Invocation;
use rolo_obs::{NullSink, RcaReport, SloSignal};
use serde::Serialize;

/// The strict-JSON document: run coordinates plus the typed report.
#[derive(Debug, Serialize)]
struct Export {
    scheme: String,
    trace: String,
    hours: f64,
    pairs: usize,
    seed: u64,
    trace_seed: u64,
    exemplars_per_window: usize,
    exemplar_windows: usize,
    exemplars_captured: usize,
    rca: RcaReport,
}

fn print_window(w: &rolo_obs::WindowRca) {
    let signal = match w.signal {
        SloSignal::Warning => "WARN",
        SloSignal::Breach => "BREACH",
    };
    println!(
        "window {:>4}  {:<12} {:<6} observed {:>12.0}  target {:>10.0}  burn {:>5.1}/{:<5.1}",
        w.window, w.slo, signal, w.observed, w.target, w.burn_short, w.burn_long
    );
    if w.exemplars == 0 {
        println!("  (no tail exemplars captured for this window)");
        return;
    }
    println!(
        "  {} exemplars, {:.1} ms tail time, {:.1}% attributed, dominant: {}",
        w.exemplars,
        w.total_us as f64 / 1e3,
        if w.total_us == 0 {
            100.0
        } else {
            w.attributed_us as f64 / w.total_us as f64 * 100.0
        },
        w.dominant_phase.unwrap_or("-"),
    );
    for b in &w.blame {
        println!(
            "    {:<20} {:>10.1} ms  {:>5.1}%",
            b.phase,
            b.us as f64 / 1e3,
            b.share * 100.0
        );
    }
    if let Some(c) = &w.culprit {
        println!(
            "  culprit: {} (origin event {}), disks {:?}, {} linked bg span(s)",
            c.activity,
            c.origin_event,
            c.disks,
            c.bg_spans.len()
        );
        if !c.power_states.is_empty() {
            let states: Vec<String> = c
                .power_states
                .iter()
                .map(|(d, s)| format!("{d}:{s:?}"))
                .collect();
            println!("  implicated power states: {}", states.join(" "));
        }
    }
}

/// Runs `inspect rca`.
pub fn run(inv: &Invocation) {
    let spec = &inv.spec;
    let mut cfg = spec.config();
    cfg.rca_enabled = true;
    let (report, obs) = spec.observe(&cfg, Box::new(NullSink), true);
    rolo_bench::expect_consistent(&report, &report.scheme);
    let rca = obs.rca.expect("rca_enabled");
    let exemplars = obs.exemplars.expect("exemplar capture on");

    println!(
        "tail forensics: {} on {} for {} h ({} requests, {} exemplar windows, {} exemplars)",
        report.scheme,
        spec.trace,
        spec.hours,
        report.user_requests,
        exemplars.windows.len(),
        exemplars.total(),
    );
    if rca.is_clean() {
        println!("no SLO alerts raised — nothing to attribute");
    } else {
        println!(
            "{} warning window(s), {} breach window(s):",
            rca.warnings, rca.breaches
        );
        for w in &rca.windows {
            print_window(w);
        }
    }

    let export = Export {
        scheme: report.scheme.clone(),
        trace: spec.trace.clone(),
        hours: spec.hours,
        pairs: spec.pairs,
        seed: spec.seed,
        trace_seed: spec.trace_seed.unwrap_or(spec.seed),
        exemplars_per_window: cfg.exemplars_per_window,
        exemplar_windows: exemplars.windows.len(),
        exemplars_captured: exemplars.total(),
        rca,
    };
    rolo_bench::write_results(&format!("rca_{}", spec.tag()), &export);
    let rca = &export.rca;

    let mut failures: Vec<String> = Vec::new();
    if inv.check {
        if let Err(e) = rca.check() {
            failures.push(format!("conservation violated: {e}"));
        }
    }
    if let Some(phase) = &inv.expect_dominant {
        match rca.first_breach() {
            None => failures.push("expected a breach window, none raised".to_owned()),
            Some(w) if w.dominant_phase != Some(phase.as_str()) => failures.push(format!(
                "first breach window {} dominated by {:?}, expected {phase}",
                w.window, w.dominant_phase
            )),
            Some(_) => {}
        }
    }
    if inv.expect_clean && !rca.is_clean() {
        failures.push(format!(
            "expected a clean run, got {} warning(s) and {} breach(es)",
            rca.warnings, rca.breaches
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    if inv.check || inv.expect_dominant.is_some() || inv.expect_clean {
        println!("rca checks passed");
    }
}
