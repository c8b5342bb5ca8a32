//! `inspect export`: writes one observed run as machine-readable
//! telemetry artifacts (DESIGN.md §12): an OpenMetrics text exposition,
//! a JSONL window timeline, and a full export JSON that `inspect diff`
//! consumes.
//!
//! * `--tag`  — artifact basename (default `<scheme>_<trace>`)
//! * `--out-dir` — output directory (default `results/metrics_export`)
//!
//! Artifacts, all deterministic for a fixed (scheme, trace, hours,
//! seed, pairs):
//!
//! * `<tag>.om` — OpenMetrics text. Counters export their cumulative
//!   total over retained windows, gauges their final level, quantile
//!   series an OpenMetrics summary whose quantile values come from the
//!   freshest non-idle window (summaries are windowed by convention)
//!   and whose `_count`/`_sum` cover all retained windows. Every
//!   sample carries `scheme`/`trace` labels. Latency-quantile sample
//!   lines additionally carry an OpenMetrics exemplar annotation
//!   (`... # {rid="...",phase="..."} <response_us> <ts>`) naming a
//!   real tail request captured in the same window by the exemplar
//!   recorder (DESIGN.md §14): higher quantiles reference slower
//!   exemplars, so a p99 sample points at the window's slowest
//!   request and its dominant critical-path phase.
//! * `<tag>.timeline.jsonl` — one line per (series, closed window):
//!   the raw `WindowRollup` with its series label, for offline rollup
//!   tooling.
//! * `<tag>.json` — the `inspect diff` input: run metadata, report
//!   headline numbers, the full telemetry snapshot, per-window FNV-1a
//!   checksums of the emitted event stream (the divergence-point
//!   probe), the critical-path phase attribution, and the SLO alert
//!   list.

use crate::{fail, RING_CAPACITY};
use rolo_bench::cli::Invocation;
use rolo_bench::{fnv1a, FNV_OFFSET};
use rolo_core::SimReport;
use rolo_obs::{
    AttributionSummary, ExemplarSet, RingSink, RollupValue, SeriesKind, SloAlert,
    TelemetrySnapshot, TracedEvent,
};
use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;

/// One telemetry window's event-stream fingerprint.
#[derive(Debug, Clone, Serialize)]
struct WindowChecksum {
    /// Window index (same clock as the telemetry snapshot).
    window: u64,
    /// Events emitted in the window.
    events: u64,
    /// FNV-1a over the window's serialized event lines, in order.
    fnv: u64,
}

/// Headline report numbers worth diffing between runs.
#[derive(Debug, Clone, Serialize)]
struct ReportSummary {
    scheme: String,
    user_requests: u64,
    mean_response_ms: f64,
    p95_response_ms: f64,
    p99_response_ms: f64,
    total_energy_j: f64,
    spin_cycles: u64,
}

#[derive(Debug, Clone, Serialize)]
struct ExportMeta {
    scheme: String,
    trace: String,
    hours: f64,
    seed: u64,
    pairs: usize,
    window_us: u64,
    events_recorded: u64,
    events_dropped: u64,
}

/// The `inspect diff` input document.
#[derive(Debug, Serialize)]
struct Export {
    meta: ExportMeta,
    report: ReportSummary,
    telemetry: TelemetrySnapshot,
    event_checksums: Vec<WindowChecksum>,
    phases: AttributionSummary,
    slo_alerts: Vec<SloAlert>,
}

/// One `<tag>.timeline.jsonl` line.
#[derive(Debug, Serialize)]
struct TimelineLine {
    series: String,
    kind: SeriesKind,
    window: u64,
    start_us: u64,
    value: RollupValue,
}

fn window_checksums(events: &[TracedEvent], window_us: u64) -> Vec<WindowChecksum> {
    let mut out: Vec<WindowChecksum> = Vec::new();
    for ev in events {
        let window = ev.at.as_micros() / window_us;
        if out.last().map(|last| last.window) != Some(window) {
            out.push(WindowChecksum {
                window,
                events: 0,
                fnv: FNV_OFFSET,
            });
        }
        let last = out.last_mut().expect("window pushed above");
        last.events += 1;
        last.fnv = fnv1a(last.fnv, Serialize::to_value(ev).to_string().as_bytes());
    }
    out
}

/// `sim.response_us` → `rolo_sim_response_us` (OpenMetrics name
/// charset).
fn om_name(series: &str) -> String {
    let mut n = String::from("rolo_");
    for c in series.chars() {
        n.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    n
}

fn om_labels(meta: &ExportMeta, extra: Option<(&str, &str)>) -> String {
    let mut l = format!("scheme=\"{}\",trace=\"{}\"", meta.scheme, meta.trace);
    if let Some((k, v)) = extra {
        l.push_str(&format!(",{k}=\"{v}\""));
    }
    l
}

/// The exemplar annotation for one quantile sample line, OpenMetrics
/// exemplar syntax: `# {rid="...",phase="..."} <value> <ts>`. Higher
/// quantiles get slower exemplars (`rank` 0 = the window's slowest),
/// clamped to what the window retained.
fn om_exemplar(exemplars: Option<&rolo_obs::WindowExemplars>, rank: usize) -> String {
    let Some(we) = exemplars else {
        return String::new();
    };
    let Some(e) = we.spans.get(rank.min(we.spans.len().saturating_sub(1))) else {
        return String::new();
    };
    let phase = e.dominant_phase().map(|p| p.name()).unwrap_or("-");
    format!(
        " # {{rid=\"{}\",phase=\"{phase}\"}} {} {}",
        e.rid,
        e.response_us,
        e.completed.as_micros() as f64 / 1e6
    )
}

/// Renders the OpenMetrics exposition: every telemetry series plus the
/// report headline numbers, `# EOF`-terminated per the spec.
fn render_openmetrics(
    meta: &ExportMeta,
    report: &ReportSummary,
    snap: &TelemetrySnapshot,
    exemplars: Option<&ExemplarSet>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let labels = om_labels(meta, None);
    for s in &snap.series {
        let name = om_name(&s.name);
        match s.kind {
            SeriesKind::Counter => {
                let total: f64 = s
                    .windows
                    .iter()
                    .map(|w| match &w.value {
                        RollupValue::Counter { delta } => *delta,
                        _ => 0.0,
                    })
                    .sum();
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name}_total{{{labels}}} {total}");
            }
            SeriesKind::Gauge => {
                let last = s
                    .windows
                    .iter()
                    .rev()
                    .find_map(|w| match &w.value {
                        RollupValue::Gauge { last, .. } => Some(*last),
                        _ => None,
                    })
                    .unwrap_or(0.0);
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name}{{{labels}}} {last}");
            }
            SeriesKind::Quantile => {
                // Quantile values come from the freshest non-idle
                // window; count/sum aggregate every retained window.
                let mut count = 0u64;
                let mut sum = 0.0;
                let mut fresh = None;
                for w in &s.windows {
                    if let RollupValue::Quantile(d) = &w.value {
                        count += d.count;
                        sum += d.sum;
                        if d.count > 0 {
                            fresh = Some((w.window, d));
                        }
                    }
                }
                let _ = writeln!(out, "# TYPE {name} summary");
                if let Some((fw, d)) = fresh {
                    // Tail exemplars captured in the same window the
                    // quantile values come from, slowest-first; rank 0
                    // annotates the highest quantile.
                    let wexm = exemplars.and_then(|e| e.window(fw));
                    for (q, v, rank) in [
                        ("0.5", d.p50, 3usize),
                        ("0.9", d.p90, 2),
                        ("0.95", d.p95, 1),
                        ("0.99", d.p99, 0),
                    ] {
                        if let Some(v) = v {
                            let ql = om_labels(meta, Some(("quantile", q)));
                            let exm = om_exemplar(wexm, rank);
                            let _ = writeln!(out, "{name}{{{ql}}} {v}{exm}");
                        }
                    }
                }
                let _ = writeln!(out, "{name}_count{{{labels}}} {count}");
                let _ = writeln!(out, "{name}_sum{{{labels}}} {sum}");
            }
        }
    }
    let _ = writeln!(out, "# TYPE rolo_report_mean_response_ms gauge");
    let _ = writeln!(
        out,
        "rolo_report_mean_response_ms{{{labels}}} {}",
        report.mean_response_ms
    );
    let _ = writeln!(out, "# TYPE rolo_report_user_requests counter");
    let _ = writeln!(
        out,
        "rolo_report_user_requests_total{{{labels}}} {}",
        report.user_requests
    );
    let _ = writeln!(out, "# TYPE rolo_report_energy_joules counter");
    let _ = writeln!(
        out,
        "rolo_report_energy_joules_total{{{labels}}} {}",
        report.total_energy_j
    );
    out.push_str("# EOF\n");
    out
}

fn summarize(report: &SimReport) -> ReportSummary {
    let pct_ms = |p: f64| {
        report
            .responses
            .percentile(p)
            .map_or(0.0, |d| d.as_micros() as f64 / 1e3)
    };
    ReportSummary {
        scheme: report.scheme.clone(),
        user_requests: report.user_requests,
        mean_response_ms: report.mean_response_ms(),
        p95_response_ms: pct_ms(95.0),
        p99_response_ms: pct_ms(99.0),
        total_energy_j: report.total_energy_j,
        spin_cycles: report.spin_cycles,
    }
}

/// Runs `inspect export`.
pub fn run(inv: &Invocation) {
    let spec = &inv.spec;
    let (report, mut obs) =
        spec.observe(&spec.config(), Box::new(RingSink::new(RING_CAPACITY)), true);
    let recorded = obs.sink.recorded();
    let dropped = obs.sink.dropped();
    if dropped > 0 {
        eprintln!("warning: ring overflowed, {dropped} oldest events lost — checksums cover the retained tail only");
    }
    let events = obs.sink.drain();
    let snap = obs.telemetry.take().expect("telemetry enabled");
    let exemplars = obs.exemplars.take();
    let spans = obs.spans.take().expect("spans requested");
    let phases = spans.requests.all.summary();

    let meta = ExportMeta {
        scheme: report.scheme.clone(),
        trace: spec.trace.clone(),
        hours: spec.hours,
        seed: spec.seed,
        pairs: spec.pairs,
        window_us: snap.window_us,
        events_recorded: recorded,
        events_dropped: dropped,
    };
    let summary = summarize(&report);
    let checksums = window_checksums(&events, snap.window_us);

    let dir: PathBuf = inv
        .out_dir
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| rolo_bench::results_dir().join("metrics_export"));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dir.display())));
    let tag = inv.tag.clone().unwrap_or_else(|| spec.tag());

    // OpenMetrics exposition.
    let om_path = dir.join(format!("{tag}.om"));
    let om = render_openmetrics(&meta, &summary, &snap, exemplars.as_ref());
    std::fs::write(&om_path, &om).expect("write OpenMetrics file");

    // Window timeline, one rollup per line.
    let tl_path = dir.join(format!("{tag}.timeline.jsonl"));
    let mut tl = std::fs::File::create(&tl_path).expect("create timeline");
    let mut timeline_lines = 0u64;
    for s in &snap.series {
        for w in &s.windows {
            let line = TimelineLine {
                series: s.name.clone(),
                kind: s.kind,
                window: w.window,
                start_us: w.start.as_micros(),
                value: w.value.clone(),
            };
            writeln!(tl, "{}", Serialize::to_value(&line)).expect("write timeline line");
            timeline_lines += 1;
        }
    }
    drop(tl);

    // The `inspect diff` input document.
    let export = Export {
        meta,
        report: summary,
        telemetry: snap,
        event_checksums: checksums,
        phases,
        slo_alerts: obs.slo_alerts,
    };
    let json_path = dir.join(format!("{tag}.json"));
    std::fs::write(&json_path, Serialize::to_value(&export).to_string())
        .expect("write export JSON");

    println!(
        "{}: {} series / {} timeline rollups / {} windows checksummed / {} SLO alerts",
        export.meta.scheme,
        export.telemetry.series.len(),
        timeline_lines,
        export.event_checksums.len(),
        export.slo_alerts.len()
    );
    println!("  {}", om_path.display());
    println!("  {}", tl_path.display());
    println!("  {}", json_path.display());
}
