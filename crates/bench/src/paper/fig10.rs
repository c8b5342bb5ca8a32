//! Figure 10 + Tables IV & V: the paper's headline comparison.
//!
//! Energy consumption and average response time of RAID10, GRAID,
//! RoLo-P, RoLo-R and RoLo-E — normalised to RAID10 — on a 40-disk array
//! (64 KB stripe unit, 8 GB free space per disk) under the src2_2 and
//! proj_0 traces. Also prints:
//!
//! * Table IV: energy saved / performance gained over RAID10 and GRAID;
//! * Table V: RoLo-E read ratio, hit rate and performance polarization.

use crate::{expect_consistent, mj, parallel_map, run_profile, whole_hours};
use rolo_core::{Scheme, SimConfig, SimReport};
use rolo_sim::Duration;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct SchemeResult {
    trace: String,
    scheme: String,
    energy_j: f64,
    energy_norm: f64,
    mean_response_ms: f64,
    response_norm: f64,
    spin_cycles: u64,
    cache_hit_rate: f64,
    read_ratio: f64,
}

/// Runs the five schemes over src2_2 and proj_0 for `window`, prints
/// Fig. 10 and Tables IV and V, and returns the Fig. 10 rows.
pub fn run(window: Duration) -> Vec<SchemeResult> {
    let traces = ["src2_2", "proj_0"];
    let jobs: Vec<(String, Scheme)> = traces
        .iter()
        .flat_map(|t| Scheme::all().map(|s| (t.to_string(), s)))
        .collect();
    let reports: Vec<(String, SimReport)> = parallel_map(jobs, |(trace, scheme)| {
        let profile = rolo_trace::profiles::by_name(&trace).expect("profile");
        let cfg = SimConfig::paper_default(scheme, 20);
        let r = run_profile(&cfg, &profile, 1106, window);
        expect_consistent(&r, &format!("fig10 {trace} {scheme:?}"));
        (trace, r)
    });

    let mut rows: Vec<SchemeResult> = Vec::new();
    for trace in traces {
        let of_trace: Vec<&SimReport> = reports
            .iter()
            .filter(|(t, _)| t == trace)
            .map(|(_, r)| r)
            .collect();
        let base = of_trace[0];
        println!("\n=== {trace} ({} h simulated) ===", whole_hours(window));
        println!(
            "{:<8} {:>11} {:>8} {:>11} {:>8} {:>8} {:>7}",
            "scheme", "energy", "norm", "mean resp", "norm", "spins", "hit%"
        );
        for r in &of_trace {
            let reads = r.read_responses.count();
            let row = SchemeResult {
                trace: trace.to_owned(),
                scheme: r.scheme.clone(),
                energy_j: r.total_energy_j,
                energy_norm: r.energy_vs(base),
                mean_response_ms: r.mean_response_ms(),
                response_norm: r.response_vs(base),
                spin_cycles: r.spin_cycles,
                cache_hit_rate: r.policy.cache_hit_rate(),
                read_ratio: reads as f64 / r.user_requests.max(1) as f64,
            };
            println!(
                "{:<8} {:>11} {:>8.3} {:>9.2}ms {:>8.3} {:>8} {:>7.1}",
                row.scheme,
                mj(row.energy_j),
                row.energy_norm,
                row.mean_response_ms,
                row.response_norm,
                row.spin_cycles,
                row.cache_hit_rate * 100.0
            );
            rows.push(row);
        }
    }

    // Table IV: deltas vs RAID10 and GRAID.
    println!("\n=== Table IV: comparison summary ===");
    println!(
        "{:<8} {:<8} {:>16} {:>16} {:>18} {:>18}",
        "trace", "scheme", "E saved/RAID10", "E saved/GRAID", "perf vs RAID10", "perf vs GRAID"
    );
    for trace in traces {
        let of_trace: Vec<&SimReport> = reports
            .iter()
            .filter(|(t, _)| t == trace)
            .map(|(_, r)| r)
            .collect();
        let raid10 = of_trace[0];
        let graid = of_trace[1];
        for r in of_trace.iter().skip(2) {
            println!(
                "{:<8} {:<8} {:>15.1}% {:>15.1}% {:>17.1}% {:>17.1}%",
                trace,
                r.scheme,
                r.energy_saved_over(raid10) * 100.0,
                r.energy_saved_over(graid) * 100.0,
                r.performance_gained_over(raid10) * 100.0,
                r.performance_gained_over(graid) * 100.0,
            );
        }
    }
    println!("(paper: RoLo-P/R save 42.6–47.2 % over RAID10 and ~11.5 % over GRAID;");
    println!(" RoLo-E saves 75.8–81.7 % over RAID10; RoLo-P loses 0.7–4.2 % performance");
    println!(" to RAID10; RoLo-R trails RoLo-P by 3.8–4.4 %; RoLo-E polarizes.)");

    // Table V: RoLo-E characteristics.
    println!("\n=== Table V: RoLo-E under the two traces ===");
    println!(
        "{:<8} {:>10} {:>10} {:>22}",
        "trace", "read %", "hit %", "perf gained/RAID10"
    );
    for trace in traces {
        let of_trace: Vec<&SimReport> = reports
            .iter()
            .filter(|(t, _)| t == trace)
            .map(|(_, r)| r)
            .collect();
        let raid10 = of_trace[0];
        let roloe = of_trace[4];
        let reads = roloe.read_responses.count();
        println!(
            "{:<8} {:>9.2}% {:>9.2}% {:>21.0}%",
            trace,
            reads as f64 / roloe.user_requests.max(1) as f64 * 100.0,
            roloe.policy.cache_hit_rate() * 100.0,
            roloe.performance_gained_over(raid10) * 100.0
        );
    }
    println!("(paper: src2_2 0.38 % reads / 90.6 % hits / +75 %; proj_0 5.1 % / 26.7 % / -584 %)");

    rows
}
