//! `inspect diff`: regression triage between two `inspect export`
//! documents (DESIGN.md §12): where did two runs of the same workload
//! part ways, and by how much?
//!
//! Prints, in order:
//!
//! 1. headline report deltas (requests, mean/p95/p99 response, energy,
//!    spin cycles);
//! 2. the event-stream divergence point — the first telemetry window
//!    whose per-window FNV event checksum differs (seed-identical runs
//!    of the same build diverge nowhere; a behavioral change shows up
//!    as the window where its first event landed);
//! 3. per-window metric deltas — for every series both runs exported,
//!    how many shared windows differ and the largest relative delta
//!    (counters compare window deltas, gauges window means, quantile
//!    series window p95);
//! 4. critical-path phase-attribution shifts in percentage points;
//! 5. SLO alert counts per (objective, signal) on each side.
//!
//! `--check` turns this into a CI gate: exit 1 when either file is
//! malformed, the runs' scheme/trace/window length disagree, the
//! mean-response delta exceeds ±5 %, the request-count delta ±1 %, or
//! any phase share shifts by more than 5 points. When both documents
//! come from the same run inputs (scheme, trace, hours, seed, pairs)
//! the simulation is deterministic, so any divergence is a behaviour
//! change: then a diverged event-checksum window, a differing shared
//! series window or a differing alert count fails the gate too. A
//! self-compare must report zero divergence and pass with all deltas
//! exactly 0.

use crate::fail;
use rolo_bench::cli::Invocation;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};

/// `--check` bound on the mean-response delta, percent.
const MAX_MEAN_DELTA_PCT: f64 = 5.0;
/// `--check` bound on the request-count delta, percent.
const MAX_REQUESTS_DELTA_PCT: f64 = 1.0;
/// `--check` bound on any phase's share shift, percentage points.
const MAX_PHASE_SHIFT_PTS: f64 = 5.0;
/// The `meta` fields that fix a run's inputs.
const RUN_INPUTS: [&str; 5] = ["scheme", "trace", "hours", "seed", "pairs"];

fn load(path: &str) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(format!("{path}: malformed export JSON: {e}")))
}

fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or(0.0)
}

fn int(v: &Value) -> u64 {
    v.as_u64().unwrap_or(0)
}

fn array(v: &Value) -> &[Value] {
    v.as_array().map_or(&[], Vec::as_slice)
}

/// Percent change B vs A; 0 when both sides are 0.
fn pct_delta(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        (b - a) / a * 100.0
    }
}

/// The scalar each series kind is compared on, per window.
fn window_scalar(kind: &str, value: &Value) -> Option<f64> {
    match kind {
        "Counter" => value.get("Counter").map(|c| num(&c["delta"])),
        "Gauge" => value.get("Gauge").map(|g| num(&g["mean"])),
        "Quantile" => value.get("Quantile").map(|q| {
            let p95 = &q["p95"];
            if p95.is_null() {
                // Idle windows compare on count (0 == 0 stays equal).
                num(&q["count"])
            } else {
                num(p95)
            }
        }),
        _ => None,
    }
}

/// (series name, kind) → window index → (scalar, full value rendering).
type SeriesWindows = BTreeMap<(String, String), BTreeMap<u64, (f64, String)>>;

fn text(v: &Value) -> String {
    v.as_str().unwrap_or("?").to_owned()
}

fn series_windows(doc: &Value) -> SeriesWindows {
    let mut out = SeriesWindows::new();
    for s in array(&doc["telemetry"]["series"]) {
        let kind = text(&s["kind"]);
        let windows = array(&s["windows"]).iter().map(|w| {
            let scalar = window_scalar(&kind, &w["value"]).unwrap_or(0.0);
            (int(&w["window"]), (scalar, w["value"].to_string()))
        });
        let windows = windows.collect();
        out.insert((text(&s["name"]), kind), windows);
    }
    out
}

fn alert_counts(doc: &Value) -> BTreeMap<(String, String), u64> {
    let mut out = BTreeMap::new();
    for a in array(&doc["slo_alerts"]) {
        *out.entry((text(&a["slo"]), text(&a["signal"])))
            .or_default() += 1;
    }
    out
}

/// Runs `inspect diff`.
pub fn run(inv: &Invocation) {
    let (path_a, path_b) = (&inv.files[0], &inv.files[1]);
    let a = load(path_a);
    let b = load(path_b);
    let mut violations: Vec<String> = Vec::new();

    let meta = |d: &Value, k: &str| d["meta"][k].to_string();
    for (side, path, d) in [("A", path_a, &a), ("B", path_b, &b)] {
        let [scheme, trace, hours, seed] = ["scheme", "trace", "hours", "seed"].map(|k| meta(d, k));
        println!("{side}: {path} ({scheme} on {trace}, {hours} h, seed {seed})");
    }
    for k in ["scheme", "trace", "window_us"] {
        if a["meta"][k] != b["meta"][k] {
            violations.push(format!(
                "meta mismatch: {k} {} vs {}",
                meta(&a, k),
                meta(&b, k)
            ));
        }
    }

    // 1. Headline report deltas.
    println!("\nreport deltas (B vs A):");
    let report_fields = [
        ("user_requests", "requests"),
        ("mean_response_ms", "mean response (ms)"),
        ("p95_response_ms", "p95 response (ms)"),
        ("p99_response_ms", "p99 response (ms)"),
        ("total_energy_j", "energy (J)"),
        ("spin_cycles", "spin cycles"),
    ];
    let mut mean_delta_pct = 0.0;
    let mut requests_delta_pct = 0.0;
    for (key, label) in report_fields {
        let (va, vb) = (num(&a["report"][key]), num(&b["report"][key]));
        let d = pct_delta(va, vb);
        println!("{label:>20}: {va:>14.3} -> {vb:>14.3} ({d:>+8.2}%)");
        match key {
            "mean_response_ms" => mean_delta_pct = d,
            "user_requests" => requests_delta_pct = d,
            _ => {}
        }
    }

    // 2. Event-stream divergence point.
    let checksums = |d: &Value| -> BTreeMap<u64, (u64, u64)> {
        let cs = array(&d["event_checksums"]).iter();
        cs.map(|c| (int(&c["window"]), (int(&c["fnv"]), int(&c["events"]))))
            .collect()
    };
    let (ca, cb) = (checksums(&a), checksums(&b));
    let all_windows: BTreeSet<u64> = ca.keys().chain(cb.keys()).copied().collect();
    let mut divergence: Option<u64> = None;
    let mut diverged_windows = 0u64;
    for &w in &all_windows {
        if ca.get(&w) != cb.get(&w) {
            diverged_windows += 1;
            divergence.get_or_insert(w);
        }
    }
    match divergence {
        None => println!("\nevent streams: zero divergence ({} windows)", ca.len()),
        Some(w) => {
            let describe = |c: Option<&(u64, u64)>| match c {
                Some((fnv, n)) => format!("{n} events, fnv {fnv:016x}"),
                None => "absent".to_owned(),
            };
            println!(
                "\nevent streams diverge at window {w} ({} of {} windows differ)",
                diverged_windows,
                all_windows.len()
            );
            println!("  A: {}", describe(ca.get(&w)));
            println!("  B: {}", describe(cb.get(&w)));
        }
    }

    // 3. Per-window metric deltas.
    let (sa, sb) = (series_windows(&a), series_windows(&b));
    struct SeriesDelta {
        name: String,
        differing: u64,
        shared: u64,
        max_delta_pct: f64,
        at_window: u64,
    }
    let mut deltas: Vec<SeriesDelta> = Vec::new();
    for (key, wa) in &sa {
        let Some(wb) = sb.get(key) else {
            println!("series only in A: {}", key.0);
            continue;
        };
        let mut d = SeriesDelta {
            name: key.0.clone(),
            differing: 0,
            shared: 0,
            max_delta_pct: 0.0,
            at_window: 0,
        };
        for (w, (scalar_a, raw_a)) in wa {
            let Some((scalar_b, raw_b)) = wb.get(w) else {
                continue;
            };
            d.shared += 1;
            if raw_a != raw_b {
                d.differing += 1;
                let p = pct_delta(*scalar_a, *scalar_b).abs();
                if p >= d.max_delta_pct {
                    d.max_delta_pct = p;
                    d.at_window = *w;
                }
            }
        }
        if d.differing > 0 {
            deltas.push(d);
        }
    }
    for key in sb.keys() {
        if !sa.contains_key(key) {
            println!("series only in B: {}", key.0);
        }
    }
    if deltas.is_empty() {
        println!("per-window metrics: identical on every shared series/window");
    } else {
        deltas.sort_by(|x, y| y.differing.cmp(&x.differing).then(x.name.cmp(&y.name)));
        println!(
            "\nper-window metric deltas (top {} of {} differing series):",
            deltas.len().min(12),
            deltas.len()
        );
        println!(
            "{:>32} {:>10} {:>12} {:>12}",
            "series", "differing", "max-delta", "at-window"
        );
        for d in deltas.iter().take(12) {
            println!(
                "{:>32} {:>6}/{:<3} {:>11.2}% {:>12}",
                d.name, d.differing, d.shared, d.max_delta_pct, d.at_window
            );
        }
    }

    // 4. Phase-attribution shifts.
    println!("\nphase-attribution shifts (B vs A, percentage points):");
    let mut max_shift = (0.0f64, String::new());
    for pa in array(&a["phases"]["phases"]) {
        let name = pa["phase"].as_str().unwrap_or("?");
        let share_a = num(&pa["share"]) * 100.0;
        let share_b = array(&b["phases"]["phases"])
            .iter()
            .find(|p| p["phase"].as_str() == Some(name))
            .map_or(0.0, |p| num(&p["share"]) * 100.0);
        let shift = share_b - share_a;
        if shift.abs() > 0.05 {
            println!("{name:>12}: {share_a:>6.1}% -> {share_b:>6.1}% ({shift:>+6.1} pts)");
        }
        if shift.abs() > max_shift.0 {
            max_shift = (shift.abs(), name.to_owned());
        }
    }
    if max_shift.0 <= 0.05 {
        println!("  none above 0.1 pts");
    }

    // 5. SLO alert counts.
    let (aa, ab) = (alert_counts(&a), alert_counts(&b));
    if aa.is_empty() && ab.is_empty() {
        println!("\nSLO alerts: none on either side");
    } else {
        println!("\nSLO alerts per (objective, signal):");
        let keys: BTreeSet<_> = aa.keys().chain(ab.keys()).collect();
        for k in keys {
            println!(
                "{:>16} {:>8}: {:>6} -> {:>6}",
                k.0,
                k.1,
                aa.get(k).copied().unwrap_or(0),
                ab.get(k).copied().unwrap_or(0)
            );
        }
    }

    // --check: thresholds as a CI gate.
    if inv.check {
        for (what, delta, bound) in [
            ("mean response", mean_delta_pct, MAX_MEAN_DELTA_PCT),
            ("request count", requests_delta_pct, MAX_REQUESTS_DELTA_PCT),
        ] {
            if delta.abs() > bound {
                violations.push(format!("{what} delta {delta:+.2}% exceeds ±{bound}%"));
            }
        }
        if max_shift.0 > MAX_PHASE_SHIFT_PTS {
            violations.push(format!(
                "phase `{}` share shifted {:.1} pts, exceeds {MAX_PHASE_SHIFT_PTS} pts",
                max_shift.1, max_shift.0
            ));
        }
        // Same inputs, same simulator: the runs must agree exactly.
        if RUN_INPUTS.iter().all(|k| a["meta"][*k] == b["meta"][*k]) {
            if let Some(w) = divergence {
                violations.push(format!(
                    "same run inputs, but event streams diverge at window {w} \
                     ({diverged_windows} of {} windows differ)",
                    all_windows.len()
                ));
            }
            if let Some(d) = deltas.first() {
                violations.push(format!(
                    "same run inputs, but {} series differ in shared windows (most: {}, {} windows)",
                    deltas.len(),
                    d.name,
                    d.differing
                ));
            }
            if aa != ab {
                violations.push("same run inputs, but SLO alert counts differ".to_owned());
            }
        }
        if violations.is_empty() {
            println!(
                "\ncheck: within thresholds (mean ±{MAX_MEAN_DELTA_PCT}%, requests \
                 ±{MAX_REQUESTS_DELTA_PCT}%, phase shift {MAX_PHASE_SHIFT_PTS} pts){}",
                if divergence.is_none() {
                    ", zero event-stream divergence"
                } else {
                    ""
                }
            );
        } else {
            eprintln!("\ncheck: {} violations:", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}
