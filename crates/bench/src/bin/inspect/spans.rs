//! `inspect spans`: per-scheme critical-path attribution over the smoke
//! workload (DESIGN.md §9): runs every scheme with span tracing on,
//! folds the finished request spans through [`rolo_obs::critical_path`]
//! and prints where each scheme's mean response time actually goes.
//!
//! Exits 1 if any scheme attributes less than 95 % of its summed
//! response time to typed phases — the coverage bar the span taxonomy
//! promises. Results land in `results/span_report.json`. Rows are
//! sorted by scheme name so the table and JSON are byte-stable for CI
//! diffs regardless of worker scheduling.
//!
//! `--top N` appends a per-scheme drill-down of the N slowest requests
//! (selected by the same deterministic total order the exemplar
//! recorder uses — response time descending, request id ascending):
//! request id, response time, dominant critical-path phase and the
//! background activity that delayed it, if `delayed_by` names one.

use rolo_bench::cli::{Invocation, RunSpec};
use rolo_bench::{expect_consistent, parallel_map};
use rolo_core::{run_trace_observed, ParaidPolicy, Scheme, SimConfig, SimReport};
use rolo_obs::{AttributionSummary, NullSink, SpanAnalysis, SpanSet};
use rolo_sim::Duration;
use serde::Serialize;

/// Minimum fraction of summed response time that must be explained by
/// typed phases, per scheme.
const MIN_ATTRIBUTED: f64 = 0.95;

/// Short column headers, in [`Phase::ALL`](rolo_obs::Phase::ALL) order.
const COLS: [&str; rolo_obs::NUM_PHASES] = [
    "queue", "seek", "rot", "xfer", "log", "mirror", "spinup", "destage", "redir", "compact",
    "scrub",
];

#[derive(Debug, Clone, Serialize)]
struct SchemeAttribution {
    scheme: String,
    trace: String,
    hours: f64,
    background_spans: usize,
    delayed_legs: u64,
    all: AttributionSummary,
    reads: AttributionSummary,
    writes: AttributionSummary,
}

fn paraid(cfg: &SimConfig, burst_iops: f64) -> ParaidPolicy {
    let geo = cfg.geometry().expect("geometry");
    ParaidPolicy::new(
        cfg.pairs,
        geo.logger_base(),
        geo.logger_region(),
        burst_iops * 0.5,
        burst_iops * 0.1,
        Duration::from_secs(300),
        cfg.destage_chunk,
    )
}

/// The N slowest requests of one scheme's run, for `--top`.
fn top_table(scheme: &str, spans: &SpanSet, n: usize) {
    println!("{scheme}: {n} slowest requests");
    println!(
        "  {:>8} {:>12} {:<20} {:<10}",
        "rid", "response", "dominant", "culprit"
    );
    for span in rolo_obs::slowest_spans(&spans.requests, n) {
        let path = rolo_obs::critical_path(span);
        let dominant = rolo_obs::dominant_phase(&path.phase_us).map_or("-", |p| p.name());
        // Name the background activity that delayed the request, if
        // any leg was pushed behind one (`-` covers self-inflicted
        // tails like spin-up stalls, which have no bg span).
        let culprit = span
            .legs
            .iter()
            .filter_map(|l| l.delayed_by)
            .find_map(|id| spans.background.iter().find(|b| b.id == id))
            .map(|b| format!("{:?}", b.kind))
            .unwrap_or_else(|| "-".to_owned());
        println!(
            "  {:>8} {:>10.2}ms {:<20} {:<10}",
            span.id,
            span.duration().as_micros() as f64 / 1e3,
            dominant,
            culprit
        );
    }
}

/// Runs `inspect spans`.
pub fn run(inv: &Invocation) {
    let spec = &inv.spec;
    let (trace, hours) = (&spec.trace, spec.hours);
    // PARAID is not a `Scheme` variant; it runs through
    // `run_trace_observed` directly, proving the span plumbing is
    // policy-agnostic.
    let jobs: Vec<Option<Scheme>> = Scheme::all().into_iter().map(Some).chain([None]).collect();
    let mut runs: Vec<(SimReport, SpanSet)> = parallel_map(jobs, |job| {
        let spec = RunSpec {
            scheme: job.unwrap_or(Scheme::Raid10),
            ..spec.clone()
        };
        let (cfg, sink) = (spec.config(), Box::new(NullSink));
        let (report, obs) = match job {
            Some(_) => spec.observe(&cfg, sink, true),
            None => {
                let policy = paraid(&cfg, spec.profile().burst_iops);
                let (records, dur) = (spec.records(), spec.duration());
                let (report, _, obs) = run_trace_observed(&cfg, records, policy, dur, sink, true);
                (report, obs)
            }
        };
        (report, obs.spans.expect("span recording was enabled"))
    });
    // Rows sorted by scheme name keep the table, the drill-down and the
    // results JSON byte-stable for CI diffs regardless of scheduling.
    runs.sort_by(|a, b| a.0.scheme.cmp(&b.0.scheme));

    let mut out = Vec::new();
    let mut failures = Vec::new();
    for (report, spans) in &runs {
        expect_consistent(report, &report.scheme);
        spans.validate().expect("span invariants hold");
        let analysis = SpanAnalysis::analyze(&spans.requests);
        let stats = &analysis.all;
        assert_eq!(
            stats.requests, report.user_requests,
            "{}: every completed request must have a span",
            report.scheme
        );
        if stats.attributed_fraction() < MIN_ATTRIBUTED {
            failures.push(format!(
                "{}: only {:.2}% attributed",
                report.scheme,
                stats.attributed_fraction() * 100.0
            ));
        }
        let delayed = spans
            .requests
            .iter()
            .flat_map(|s| &s.legs)
            .filter(|l| l.delayed_by.is_some())
            .count() as u64;
        out.push(SchemeAttribution {
            scheme: report.scheme.clone(),
            trace: trace.to_owned(),
            hours,
            background_spans: spans.background.len(),
            delayed_legs: delayed,
            all: stats.summary(),
            reads: analysis.reads.summary(),
            writes: analysis.writes.summary(),
        });
    }

    println!("critical-path attribution: {trace} for {hours} h (share of summed response)");
    print!(
        "{:<10} {:>8} {:>9} {:>9} {:>7}",
        "scheme", "requests", "mean", "p99", "attrib"
    );
    for c in COLS {
        print!(" {c:>7}");
    }
    println!(" {:>7}", "unattr");
    let pct = |x: f64| format!("{:.1}%", x * 100.0);
    for row in &out {
        let s = &row.all;
        print!(
            "{:<10} {:>8} {:>7.2}ms {:>7.2}ms {:>7}",
            row.scheme,
            s.requests,
            s.mean_response_ms,
            s.p99_ms.unwrap_or(0.0),
            pct(s.attributed_fraction),
        );
        for share in &s.phases {
            print!(" {:>7}", pct(share.share));
        }
        println!(" {:>7}", pct(1.0 - s.attributed_fraction));
    }

    for row in &out {
        if row.delayed_legs > 0 {
            println!(
                "{}: {} foreground legs delayed by {} background spans",
                row.scheme, row.delayed_legs, row.background_spans
            );
        }
    }

    if inv.top > 0 {
        println!();
        for (report, spans) in &runs {
            top_table(&report.scheme, spans, inv.top);
        }
    }

    rolo_bench::write_results("span_report", &out);

    if !failures.is_empty() {
        eprintln!("attribution below the {:.0}% bar:", MIN_ATTRIBUTED * 100.0);
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!(
        "all schemes attribute >= {:.0}% of response time to typed phases",
        MIN_ATTRIBUTED * 100.0
    );
}
