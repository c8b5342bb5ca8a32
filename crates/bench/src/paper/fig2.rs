//! Figure 2: the motivation study of centralized logging (§II).
//!
//! A RAID10 array of 10 mirrored pairs plus one dedicated log disk runs
//! the conventional centralized logging architecture (GRAID) under a
//! 100 %-write, 70 %-random, 64 KB workload at several intensities, with
//! logger capacities of 8/12/16 GB.
//!
//! * (a)/(b): logging-capacity timeline and per-phase durations/energy
//!   for a sample configuration;
//! * (c): destaging interval ratio vs logger capacity;
//! * (d): destaging energy ratio vs logger capacity.
//!
//! The paper's observation to reproduce: **increasing the logging space
//! does not decrease either ratio** — both periods stretch
//! proportionally.

use crate::{expect_consistent, mj, parallel_map};
use rolo_core::{Scheme, SimConfig};
use rolo_sim::Duration;
use rolo_trace::SyntheticConfig;
use serde::Serialize;

const GIB: u64 = 1 << 30;

#[derive(Debug, Serialize)]
pub struct Cell {
    iops: f64,
    logger_gib: u64,
    destaging_interval_ratio: f64,
    destaging_energy_ratio: f64,
    mean_logging_mins: f64,
    mean_destaging_mins: f64,
    logging_energy_j: f64,
    destaging_energy_j: f64,
    cycles: u64,
}

#[derive(Debug, Serialize)]
pub struct Output {
    cells: Vec<Cell>,
    /// (seconds, occupied GiB) for the sample configuration (Fig. 2a).
    timeline: Vec<(f64, f64)>,
    /// (seconds, watts) aggregate power draw for the same configuration —
    /// the energy-over-time view behind Fig. 2(b).
    power: Vec<(f64, f64)>,
}

/// (time, value) series as exported in the results JSON.
type Series = Vec<(f64, f64)>;

fn run_cell(iops: f64, logger_gib: u64, window: Duration) -> (Cell, Series, Series) {
    let mut cfg = SimConfig::paper_default(Scheme::Graid, 10);
    cfg.graid_log_capacity = logger_gib * GIB;
    let wl = SyntheticConfig::motivation_write_only(iops);
    // Long enough for ~4 logging cycles at this fill rate.
    let cycle_secs = (0.8 * (logger_gib * GIB) as f64) / (iops * 64.0 * 1024.0);
    let duration = Duration::from_secs_f64((cycle_secs * 4.0).max(2.0 * 3600.0)).min(window);
    let report = rolo_core::run_scheme(&cfg, wl.generator(duration, 2024), duration);
    expect_consistent(&report, "fig2");
    let cell = Cell {
        iops,
        logger_gib,
        destaging_interval_ratio: report.destaging_interval_ratio,
        destaging_energy_ratio: report.destaging_energy_ratio,
        mean_logging_mins: report.logging_phase.residency.as_secs_f64()
            / report.logging_phase.spans.max(1) as f64
            / 60.0,
        mean_destaging_mins: report.destaging_phase.residency.as_secs_f64()
            / report.destaging_phase.spans.max(1) as f64
            / 60.0,
        logging_energy_j: report.logging_phase.energy_j,
        destaging_energy_j: report.destaging_phase.energy_j,
        cycles: report.policy.destage_cycles,
    };
    let timeline = report
        .log_capacity_timeline
        .iter()
        .map(|(t, b)| (*t, b / GIB as f64))
        .collect();
    (cell, timeline, report.power_timeline.clone())
}

/// Runs the motivation sweep, each replay capped at `window`, prints
/// Fig. 2(a)–(d) and returns every cell plus the sample configuration's
/// timelines.
pub fn run(window: Duration) -> Output {
    const IOPS_LEVELS: [f64; 4] = [10.0, 50.0, 100.0, 200.0];
    const CAPACITIES: [u64; 3] = [8, 12, 16];
    let iops_levels = IOPS_LEVELS;
    let jobs: Vec<(f64, u64)> = IOPS_LEVELS
        .iter()
        .flat_map(|&i| CAPACITIES.iter().map(move |&c| (i, c)))
        .collect();
    let results: Vec<(Cell, Series, Series)> = parallel_map(jobs, |(i, c)| run_cell(i, c, window));

    println!("Figure 2(c): destaging interval ratio");
    println!("{:>6} {:>8} {:>8} {:>8}", "iops", "8GB", "12GB", "16GB");
    for &i in &iops_levels {
        let row: Vec<f64> = results
            .iter()
            .filter(|(c, _, _)| c.iops == i)
            .map(|(c, _, _)| c.destaging_interval_ratio)
            .collect();
        println!("{:>6} {:>8.3} {:>8.3} {:>8.3}", i, row[0], row[1], row[2]);
    }
    println!("\nFigure 2(d): destaging energy ratio");
    println!("{:>6} {:>8} {:>8} {:>8}", "iops", "8GB", "12GB", "16GB");
    for &i in &iops_levels {
        let row: Vec<f64> = results
            .iter()
            .filter(|(c, _, _)| c.iops == i)
            .map(|(c, _, _)| c.destaging_energy_ratio)
            .collect();
        println!("{:>6} {:>8.3} {:>8.3} {:>8.3}", i, row[0], row[1], row[2]);
    }

    println!("\nFigure 2(a)/(b): per-cycle phase lengths and energy");
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "iops", "GB", "logging", "destaging", "log energy", "dest energy", "cycles"
    );
    for (c, _, _) in &results {
        println!(
            "{:>6} {:>6} {:>10.1}m {:>10.1}m {:>12} {:>12} {:>7}",
            c.iops,
            c.logger_gib,
            c.mean_logging_mins,
            c.mean_destaging_mins,
            mj(c.logging_energy_j),
            mj(c.destaging_energy_j),
            c.cycles
        );
    }

    // The paper's observation: ratios do not fall as capacity grows.
    for &i in &iops_levels {
        let cells: Vec<&Cell> = results
            .iter()
            .filter(|(c, _, _)| c.iops == i)
            .map(|(c, _, _)| c)
            .collect();
        let small = cells[0].destaging_interval_ratio;
        let large = cells[2].destaging_interval_ratio;
        // A zero ratio means no destage cycle completed in the window.
        if small > 0.0 && large > 0.0 {
            println!(
                "iops {i}: interval ratio 8GB→16GB changes by {:+.1} % (paper: ~flat)",
                (large / small - 1.0) * 100.0
            );
        }
    }

    let sample = results
        .iter()
        .find(|(c, _, _)| c.iops == 100.0 && c.logger_gib == 16)
        .map(|(_, t, p)| (t.clone(), p.clone()))
        .unwrap_or_default();
    Output {
        cells: results.into_iter().map(|(c, _, _)| c).collect(),
        timeline: sample.0,
        power: sample.1,
    }
}
