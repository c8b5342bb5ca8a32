//! Table I: number of disk spin cycles per scheme under src2_2 and
//! proj_0 (40-disk array, one simulated week).
//!
//! Paper values: RAID10 0/0, GRAID 40/120, RoLo-P/R 4/12, RoLo-E
//! 357/2874 — i.e. RoLo-P/R spin an order of magnitude less than GRAID,
//! while RoLo-E's read-miss wake-ups dwarf everything.

use crate::{expect_consistent, parallel_map, run_profile, week_scale};
use rolo_core::{Scheme, SimConfig};
use rolo_sim::Duration;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    scheme: String,
    src2_2: u64,
    proj_0: u64,
}

/// Runs every scheme over src2_2 and proj_0 for `window`, prints
/// Table I next to the paper's counts scaled to `window`, and returns
/// the rows.
pub fn run(window: Duration) -> Vec<Row> {
    let jobs: Vec<(Scheme, &'static str)> = Scheme::all()
        .into_iter()
        .flat_map(|s| [(s, "src2_2"), (s, "proj_0")])
        .collect();
    let spins = parallel_map(jobs.clone(), |(scheme, trace)| {
        let profile = rolo_trace::profiles::by_name(trace).expect("profile");
        let cfg = SimConfig::paper_default(scheme, 20);
        let r = run_profile(&cfg, &profile, 0xab1e, window);
        expect_consistent(&r, &format!("table1 {scheme:?} {trace}"));
        r.spin_cycles
    });

    println!("Table I: disk spin cycles over one week (paper values in parentheses)");
    println!("{:<8} {:>16} {:>16}", "scheme", "src2_2", "proj_0");
    let paper = [
        ("RAID10", 0u64, 0u64),
        ("GRAID", 40, 120),
        ("RoLo-P", 4, 12),
        ("RoLo-R", 4, 12),
        ("RoLo-E", 357, 2874),
    ];
    let mut rows = Vec::new();
    for (i, scheme) in Scheme::all().into_iter().enumerate() {
        let s = spins[i * 2];
        let p = spins[i * 2 + 1];
        let scale = week_scale(window);
        let (name, ps, pp) = paper[i];
        println!(
            "{:<8} {:>8} ({:>4}) {:>8} ({:>4})",
            scheme,
            s,
            (ps as f64 * scale).round() as u64,
            p,
            (pp as f64 * scale).round() as u64
        );
        let _ = name;
        rows.push(Row {
            scheme: scheme.to_string(),
            src2_2: s,
            proj_0: p,
        });
    }
    println!("\nkey ratios:");
    let graid_s = rows[1].src2_2.max(1);
    let rolo_s = rows[2].src2_2.max(1);
    println!(
        "  RoLo-P spins {:.0}x less than GRAID on src2_2 (paper: 10x)",
        graid_s as f64 / rolo_s as f64
    );
    println!(
        "  RoLo-E spins {:.0}x more than GRAID on proj_0 (paper: ~24x)",
        rows[4].proj_0 as f64 / rows[1].proj_0.max(1) as f64
    );
    rows
}
