//! Quick feasibility smoke run: one scheme, one trace profile, printed
//! report. Not a paper experiment — a harness check.
//!
//! Usage: `smoke [scheme] [trace] [hours]` (defaults: rolo-p, src2_2, 24).
//! Set `ROLO_E_SPINDOWN_SECS` to override RoLo-E's idle spin-down timeout.
//! A malformed argument or timeout exits 2 with a message naming it.
//!
//! After the report the binary re-runs the same workload with the no-op
//! [`NullSink`] and with a [`RingSink`] — three runs each, taking the
//! minimum wall time per sink — and asserts the tracing overhead stays
//! within 10 % (+ scheduling slack) of the untraced run, the budget
//! DESIGN.md §9 promises.

use rolo_bench::cli::{self, ArgError};
use rolo_core::{run_scheme_observed, Scheme, SimConfig};
use rolo_obs::{NullSink, RingSink};
use rolo_sim::Duration;
use rolo_trace::TraceProfile;

const USAGE: &str = "usage: smoke [scheme] [trace] [hours] (defaults: rolo-p src2_2 24)";

/// The paper-default configuration of the scheme `args` names, with
/// RoLo-E's spin-down timeout set to `spindown_secs` if given, and the
/// trace profile and whole hours `args` name.
fn parse(
    args: &[String],
    spindown_secs: Option<&str>,
) -> Result<(SimConfig, TraceProfile, u64), ArgError> {
    let mut args = args.iter().map(String::as_str);
    let scheme = args.next().map_or(Ok(Scheme::RoloP), cli::scheme_arg)?;
    let profile = cli::trace_arg(args.next().unwrap_or("src2_2"))?;
    let hours = args.next().map_or(Ok(24), |h| cli::number("hours", h))?;
    if let Some(extra) = args.next() {
        return Err(ArgError::Positional(format!(
            "unexpected argument `{extra}`"
        )));
    }
    let mut cfg = SimConfig::paper_default(scheme, 20);
    if let Some(secs) = spindown_secs {
        let secs = cli::number("ROLO_E_SPINDOWN_SECS", secs)?;
        cfg.roloe_idle_spindown = Duration::from_secs(secs);
    }
    Ok((cfg, profile, hours))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spindown = std::env::var("ROLO_E_SPINDOWN_SECS").ok();
    let (cfg, profile, hours) = parse(&args, spindown.as_deref()).unwrap_or_else(|e| {
        eprintln!("smoke: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let dur = Duration::from_secs(hours * 3600);
    let start = std::time::Instant::now();
    let report = rolo_core::run_scheme(&cfg, profile.generator(dur, 1), dur);
    let wall = start.elapsed();

    println!("scheme          : {}", report.scheme);
    println!("trace           : {} for {hours} h", profile.name);
    println!("requests        : {}", report.user_requests);
    println!(
        "energy          : {}",
        rolo_bench::mj(report.total_energy_j)
    );
    println!("mean response   : {:.2} ms", report.mean_response_ms());
    println!("spin cycles     : {}", report.spin_cycles);
    println!("rotations       : {}", report.policy.rotations);
    println!("destage cycles  : {}", report.policy.destage_cycles);
    println!(
        "destaged        : {:.2} GiB",
        report.policy.destaged_bytes as f64 / (1u64 << 30) as f64
    );
    println!(
        "logged          : {:.2} GiB",
        report.policy.log_appended_bytes as f64 / (1u64 << 30) as f64
    );
    println!(
        "cache hit rate  : {:.2} %",
        report.policy.cache_hit_rate() * 100.0
    );
    println!("consistency     : {:?}", report.consistency);
    for p in [50.0, 90.0, 99.0] {
        println!(
            "  p{p:<5} write  : {:?}",
            report.write_responses.percentile(p)
        );
    }
    println!("drained at      : {}", report.drained_at);
    println!("wall clock      : {wall:.2?}");
    println!(
        "phases: logging {} spans / {:.1}h, destaging {} spans / {:.2}h (ratio {:.3})",
        report.logging_phase.spans,
        report.logging_phase.residency.as_secs_f64() / 3600.0,
        report.destaging_phase.spans,
        report.destaging_phase.residency.as_secs_f64() / 3600.0,
        report.destaging_interval_ratio,
    );
    let a = &report.aggregate_energy;
    println!(
        "disk-time: active {:.1}h idle {:.1}h standby {:.1}h spin-up {:.1}h spin-down {:.1}h",
        a.active.as_secs_f64() / 3600.0,
        a.idle.as_secs_f64() / 3600.0,
        a.standby.as_secs_f64() / 3600.0,
        a.spinning_up.as_secs_f64() / 3600.0,
        a.spinning_down.as_secs_f64() / 3600.0,
    );

    // Tracing-overhead check: identical workload with the hot path's
    // one dead branch (NullSink) vs a live ring buffer. Each variant is
    // timed as the minimum of three runs — one noisy scheduler quantum
    // must not fail (or pass) the budget on its own.
    let records: Vec<_> = profile.generator(dur, 1).collect();
    const OVERHEAD_RUNS: u32 = 3;
    let mut null_wall = std::time::Duration::MAX;
    let mut null_report = None;
    for _ in 0..OVERHEAD_RUNS {
        let start = std::time::Instant::now();
        let (r, _) = run_scheme_observed(&cfg, records.clone(), dur, Box::new(NullSink), false);
        null_wall = null_wall.min(start.elapsed());
        null_report = Some(r);
    }
    let null_report = null_report.expect("at least one run");
    let mut ring_wall = std::time::Duration::MAX;
    let mut ring_run = None;
    for _ in 0..OVERHEAD_RUNS {
        let start = std::time::Instant::now();
        let sink = Box::new(RingSink::new(1 << 20));
        let out = run_scheme_observed(&cfg, records.clone(), dur, sink, false);
        ring_wall = ring_wall.min(start.elapsed());
        ring_run = Some(out);
    }
    let (ring_report, obs) = ring_run.expect("at least one run");
    assert_eq!(
        null_report.deterministic_json(),
        ring_report.deterministic_json(),
        "tracing changed the simulation outcome"
    );
    println!(
        "tracing overhead (min of {OVERHEAD_RUNS}): null {null_wall:.2?} vs \
         ring {ring_wall:.2?} ({} events, {} dropped)",
        obs.sink.recorded(),
        obs.sink.dropped()
    );
    // 10 % budget plus absolute slack so sub-second runs are not judged
    // on scheduler noise.
    let budget = null_wall.mul_f64(1.10) + std::time::Duration::from_millis(250);
    assert!(
        ring_wall <= budget,
        "ring-buffer tracing too slow: {ring_wall:?} > budget {budget:?} (null {null_wall:?})"
    );
    println!("tracing overhead within budget ({budget:.2?})");
}
