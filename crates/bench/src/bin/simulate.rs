//! General-purpose simulation runner.
//!
//! ```text
//! simulate [--scheme raid10|graid|rolo-p|rolo-r|rolo-e]
//!          [--trace src2_2|proj_0|mds_0|wdev_0|web_1|rsrch_2|hm_1]
//!          [--msr <file.csv>]           # replay a real MSR trace instead
//!          [--pairs N] [--hours H] [--stripe-kib K] [--free-gib G]
//!          [--seed S] [--json <out.json>]
//! ```
//!
//! Prints the full report; optionally writes it as JSON.

use rolo_bench::cli::scheme_from_slug;
use rolo_core::{Scheme, SimConfig, SimReport};
use rolo_sim::{Duration, SimTime};
use std::io::BufReader;

struct Args {
    scheme: Scheme,
    trace: String,
    msr: Option<String>,
    pairs: usize,
    hours: f64,
    stripe_kib: u64,
    free_gib: f64,
    seed: u64,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scheme: Scheme::RoloP,
        trace: "src2_2".to_owned(),
        msr: None,
        pairs: 20,
        hours: 24.0,
        stripe_kib: 64,
        free_gib: 8.0,
        seed: 1,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--scheme" => {
                let slug = val("--scheme");
                args.scheme = scheme_from_slug(&slug).unwrap_or_else(|| {
                    eprintln!("unknown scheme {slug}");
                    std::process::exit(2);
                })
            }
            "--trace" => args.trace = val("--trace"),
            "--msr" => args.msr = Some(val("--msr")),
            "--pairs" => args.pairs = val("--pairs").parse().expect("pairs"),
            "--hours" => args.hours = val("--hours").parse().expect("hours"),
            "--stripe-kib" => args.stripe_kib = val("--stripe-kib").parse().expect("stripe"),
            "--free-gib" => args.free_gib = val("--free-gib").parse().expect("free"),
            "--seed" => args.seed = val("--seed").parse().expect("seed"),
            "--json" => args.json = Some(val("--json")),
            "--help" | "-h" => {
                eprintln!("see the module docs at the top of simulate.rs");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn print_report(report: &SimReport) {
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

fn main() {
    let args = parse_args();
    let mut cfg = SimConfig::paper_default(args.scheme, args.pairs);
    cfg.stripe_unit = args.stripe_kib * 1024;
    cfg.logger_region = (args.free_gib * f64::from(1 << 30)) as u64;
    cfg.seed = args.seed;

    let report = if let Some(path) = &args.msr {
        let capacity = cfg.geometry().expect("geometry").logical_capacity();
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(1);
        });
        let records = rolo_trace::parse_msr_csv(BufReader::new(file), Some(capacity))
            .unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(1);
            });
        let duration = records
            .last()
            .map(|r| r.arrival.since(SimTime::ZERO) + Duration::from_secs(1))
            .unwrap_or(Duration::from_secs(1));
        rolo_core::run_scheme(&cfg, records, duration)
    } else {
        let profile = rolo_trace::profiles::by_name(&args.trace).unwrap_or_else(|| {
            eprintln!("unknown trace profile {}", args.trace);
            std::process::exit(2);
        });
        let duration = Duration::from_secs_f64(args.hours * 3600.0);
        rolo_core::run_scheme(&cfg, profile.generator(duration, args.seed), duration)
    };

    print_report(&report);
    if let Some(path) = &args.json {
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("\nreport written to {path}");
    }
}
