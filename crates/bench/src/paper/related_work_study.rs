//! §VI related-work comparison: RoLo vs a PARAID-style gear-shifter.
//!
//! The paper positions RoLo against PARAID qualitatively (*"PARAID uses
//! [free space] to gather all active data onto a small number of
//! disks"*). This study makes the contrast quantitative on the paper's
//! two write-intensive traces: a two-gear PARAID-style controller
//! (mirrors parked in low gear, second copies shadowed onto the
//! primaries' free space, whole-set gear shifts on load) against RoLo-P
//! and GRAID.

use crate::{expect_consistent, parallel_map};
use rolo_core::{ParaidPolicy, Scheme, SimConfig};
use rolo_sim::Duration;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    trace: String,
    scheme: String,
    energy_j: f64,
    energy_norm_raid10: f64,
    mean_response_ms: f64,
    spin_cycles: u64,
    gear_shifts_or_rotations: u64,
}

/// Runs RAID10, GRAID, RoLo-P and a PARAID-style controller over
/// src2_2 and proj_0 for `window`, prints the table and returns its rows.
pub fn run(window: Duration) -> Vec<Row> {
    let traces = ["src2_2", "proj_0"];
    let rows: Vec<Vec<Row>> = parallel_map(traces.to_vec(), |trace| {
        let profile = rolo_trace::profiles::by_name(trace).expect("profile");
        let mut out = Vec::new();
        let mut reports = Vec::new();
        for scheme in [Scheme::Raid10, Scheme::Graid, Scheme::RoloP] {
            let cfg = SimConfig::paper_default(scheme, 20);
            let r = rolo_core::run_scheme(&cfg, profile.generator(window, 0x6e1), window);
            expect_consistent(&r, &format!("{trace} {scheme:?}"));
            reports.push(r);
        }
        // PARAID: gear up when the busy-interval rate arrives (half the
        // table's burst IOPS), gear down after 5 quiet minutes.
        let cfg = SimConfig::paper_default(Scheme::Raid10, 20);
        let geo = cfg.geometry().expect("geometry");
        let paraid = ParaidPolicy::new(
            cfg.pairs,
            geo.logger_base(),
            geo.logger_region(),
            profile.burst_iops * 0.5,
            profile.burst_iops * 0.1,
            Duration::from_secs(300),
            cfg.destage_chunk,
        );
        let r = rolo_core::run_trace(&cfg, profile.generator(window, 0x6e1), paraid, window);
        expect_consistent(&r, &format!("{trace} paraid"));
        reports.push(r);

        let base = reports[0].total_energy_j;
        for r in &reports {
            out.push(Row {
                trace: trace.to_owned(),
                scheme: r.scheme.clone(),
                energy_j: r.total_energy_j,
                energy_norm_raid10: r.total_energy_j / base,
                mean_response_ms: r.mean_response_ms(),
                spin_cycles: r.spin_cycles,
                gear_shifts_or_rotations: r.policy.rotations,
            });
        }
        out
    });
    let rows: Vec<Row> = rows.into_iter().flatten().collect();

    println!("§VI related work: RoLo vs PARAID-style gear shifting (one week, 40 disks)\n");
    println!(
        "{:<8} {:<10} {:>10} {:>8} {:>11} {:>7} {:>13}",
        "trace", "scheme", "energy", "norm", "mean resp", "spins", "shifts/rots"
    );
    for r in &rows {
        println!(
            "{:<8} {:<10} {:>8.1}MJ {:>8.3} {:>9.2}ms {:>7} {:>13}",
            r.trace,
            r.scheme,
            r.energy_j / 1e6,
            r.energy_norm_raid10,
            r.mean_response_ms,
            r.spin_cycles,
            r.gear_shifts_or_rotations
        );
    }
    println!("\n(the contrast the paper draws in §VI: both exploit free space, but a");
    println!(" gear shift moves the *entire* mirror set at once — spin bursts and");
    println!(" gear-up latency — where RoLo's rotation touches one logger at a time)");
    rows
}
