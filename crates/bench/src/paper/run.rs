//! `paper run`: one scheme over one trace profile (or a real MSR
//! trace), with the full report.
//!
//! ```text
//! paper run [scheme] [trace] [hours] [--seed S] [--pairs N]
//!           [--msr FILE] [--stripe-kib K] [--free-gib G] [--json PATH]
//! ```
//!
//! Defaults: RoLo-P over src2_2 for 24 h on 20 pairs, seed 1, a 64 KiB
//! stripe unit and 8 GiB of free space per disk. `--msr` replays the
//! file instead of the profile, for its span plus one second. `paper`
//! prints the report and, with `--json`, writes it as JSON without the
//! wall-clock profile ([`SimReport::deterministic_json`]), so two runs of
//! one invocation write the same bytes.

use crate::cli::{Invocation, Paper};
use rolo_core::SimReport;
use rolo_sim::{Duration, SimTime};
use std::io::BufReader;

/// Replays `inv`'s run spec with its stripe unit and free space, over
/// the `--msr` file if one is given, else over the spec's profile.
///
/// # Errors
///
/// The message if the `--msr` file cannot be opened or parsed.
pub fn run(inv: &Invocation<Paper>) -> Result<SimReport, String> {
    let mut cfg = inv.spec.config();
    cfg.stripe_unit = inv.stripe_kib * 1024;
    cfg.logger_region = (inv.free_gib * f64::from(1 << 30)) as u64;
    let Some(path) = &inv.msr else {
        let spec = &inv.spec;
        return Ok(rolo_core::run_scheme(&cfg, spec.records(), spec.duration()));
    };
    let capacity = cfg.geometry().expect("geometry").logical_capacity();
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let records = rolo_trace::parse_msr_csv(BufReader::new(file), Some(capacity))
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    let duration = records
        .last()
        .map(|r| r.arrival.since(SimTime::ZERO) + Duration::from_secs(1))
        .unwrap_or(Duration::from_secs(1));
    Ok(rolo_core::run_scheme(&cfg, records, duration))
}

/// Prints the report of one run.
pub fn print_report(report: &SimReport) {
    println!("scheme            : {}", report.scheme);
    println!("window            : {}", report.trace_duration);
    println!("requests          : {}", report.user_requests);
    println!(
        "   reads / writes : {} / {}",
        report.read_responses.count(),
        report.write_responses.count()
    );
    println!("mean response     : {:.3} ms", report.mean_response_ms());
    for p in [50.0, 95.0, 99.0] {
        if let Some(v) = report.responses.percentile(p) {
            println!("   p{p:<4}          : {:.3} ms", v.as_millis_f64());
        }
    }
    println!("energy            : {:.3} MJ", report.total_energy_j / 1e6);
    let a = &report.aggregate_energy;
    println!(
        "   disk-time      : active {:.2}h idle {:.2}h standby {:.2}h",
        a.active.as_secs_f64() / 3600.0,
        a.idle.as_secs_f64() / 3600.0,
        a.standby.as_secs_f64() / 3600.0
    );
    println!("spin cycles       : {}", report.spin_cycles);
    println!("rotations         : {}", report.policy.rotations);
    println!("destage cycles    : {}", report.policy.destage_cycles);
    println!(
        "logged / destaged : {:.2} / {:.2} GiB",
        report.policy.log_appended_bytes as f64 / (1u64 << 30) as f64,
        report.policy.destaged_bytes as f64 / (1u64 << 30) as f64
    );
    if report.policy.cache_hits + report.policy.cache_misses > 0 {
        println!(
            "cache hit rate    : {:.2} % ({} misses, {} miss spin-ups)",
            report.policy.cache_hit_rate() * 100.0,
            report.policy.cache_misses,
            report.policy.read_miss_spinups
        );
    }
    println!(
        "destage ratio     : {:.4} (interval) / {:.4} (energy)",
        report.destaging_interval_ratio, report.destaging_energy_ratio
    );
    println!("consistency       : {:?}", report.consistency);
}
