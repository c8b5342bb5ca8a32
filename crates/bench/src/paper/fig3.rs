//! Figure 3: proportion of IDLE time versus ACTIVE/STANDBY time, for the
//! primary disks and the log disk of the centralized logging
//! architecture, under I/O intensities of 10/50/100/200 IOPS.
//!
//! The paper's point: even under load, disks spend most of their time in
//! *short* idle slots (well below the spin-down break-even), which is the
//! free resource RoLo's decentralized destaging exploits.

use crate::{expect_consistent, parallel_map};
use rolo_core::{Scheme, SimConfig};
use rolo_disk::DiskParams;
use rolo_sim::Duration;
use rolo_trace::SyntheticConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    iops: f64,
    primary_idle_fraction: f64,
    primary_active_standby_fraction: f64,
    log_idle_fraction: f64,
    log_active_standby_fraction: f64,
}

/// Runs the four intensities for four hours each (capped at `window`),
/// prints Fig. 3 and returns its rows.
pub fn run(window: Duration) -> Vec<Row> {
    let iops_levels = vec![10.0, 50.0, 100.0, 200.0];
    let rows = parallel_map(iops_levels, |iops| {
        let cfg = SimConfig::paper_default(Scheme::Graid, 10);
        let wl = SyntheticConfig::motivation_write_only(iops);
        let duration = Duration::from_secs(4 * 3600).min(window);
        let report = rolo_core::run_scheme(&cfg, wl.generator(duration, 33), duration);
        expect_consistent(&report, "fig3");
        let frac = |r: &rolo_disk::DiskEnergyReport| {
            let total = r.total_time().as_secs_f64();
            let idle = r.idle.as_secs_f64() / total;
            let act_stby = (r.active.as_secs_f64() + r.standby.as_secs_f64()) / total;
            (idle, act_stby)
        };
        // Primaries are disks 0..10; the log disk is the last.
        let mut p_idle = 0.0;
        let mut p_as = 0.0;
        for d in 0..10 {
            let (i, a) = frac(&report.energy_by_disk[d]);
            p_idle += i / 10.0;
            p_as += a / 10.0;
        }
        let (l_idle, l_as) = frac(report.energy_by_disk.last().expect("log disk"));
        Row {
            iops,
            primary_idle_fraction: p_idle,
            primary_active_standby_fraction: p_as,
            log_idle_fraction: l_idle,
            log_active_standby_fraction: l_as,
        }
    });

    println!("Figure 3: IDLE vs ACTIVE/STANDBY time proportions under centralized logging");
    println!(
        "{:>6} | {:>12} {:>15} | {:>12} {:>15}",
        "iops", "prim IDLE", "prim ACT+STBY", "log IDLE", "log ACT+STBY"
    );
    for r in &rows {
        println!(
            "{:>6} | {:>12.3} {:>15.3} | {:>12.3} {:>15.3}",
            r.iops,
            r.primary_idle_fraction,
            r.primary_active_standby_fraction,
            r.log_idle_fraction,
            r.log_active_standby_fraction
        );
    }
    let be = DiskParams::ultrastar_36z15().break_even_time();
    println!(
        "\n(spin-down break-even for this disk: {be} — idle slots between\n 64 KB requests at these intensities are far shorter, so idling\n disks cannot profitably spin down: the paper's §II argument)"
    );
    rows
}
