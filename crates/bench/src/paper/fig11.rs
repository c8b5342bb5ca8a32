//! Figure 11: energy saved over RAID10 as a function of array size
//! (20/30/40 disks) under src2_2 and proj_0.
//!
//! The paper's findings to reproduce: savings *increase* with the number
//! of disks for every logging scheme, and the increase is larger for the
//! RoLo family than for GRAID.

use crate::{expect_consistent, parallel_map, run_profile};
use rolo_core::{Scheme, SimConfig};
use rolo_sim::Duration;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    trace: String,
    scheme: String,
    disks: usize,
    energy_saved_over_raid10: f64,
}

/// Runs every scheme at 20/30/40 disks over src2_2 and proj_0 for
/// `window`, prints Fig. 11 and returns its rows.
pub fn run(window: Duration) -> Vec<Row> {
    let traces = ["src2_2", "proj_0"];
    const SIZES: [usize; 3] = [10, 15, 20];
    let sizes = SIZES; // pairs → 20/30/40 disks
    let jobs: Vec<(String, Scheme, usize)> = traces
        .iter()
        .flat_map(|t| {
            Scheme::all()
                .into_iter()
                .flat_map(move |s| SIZES.iter().map(move |&p| (t.to_string(), s, p)))
        })
        .collect();
    let results = parallel_map(jobs, |(trace, scheme, pairs)| {
        let profile = rolo_trace::profiles::by_name(&trace).expect("profile");
        let cfg = SimConfig::paper_default(scheme, pairs);
        let r = run_profile(&cfg, &profile, 0xf11, window);
        expect_consistent(&r, &format!("fig11 {trace} {scheme:?} {pairs}"));
        (trace, scheme, pairs, r)
    });

    let mut rows = Vec::new();
    for trace in traces {
        println!("\n=== {trace}: energy saved over RAID10 ===");
        println!("{:<8} {:>8} {:>8} {:>8}", "scheme", "20", "30", "40");
        for scheme in Scheme::all().into_iter().skip(1) {
            let mut line = format!("{scheme:<8}");
            for &pairs in &sizes {
                let raid10 = &results
                    .iter()
                    .find(|(t, s, p, _)| t == trace && *s == Scheme::Raid10 && *p == pairs)
                    .expect("baseline present")
                    .3;
                let r = &results
                    .iter()
                    .find(|(t, s, p, _)| t == trace && *s == scheme && *p == pairs)
                    .expect("run present")
                    .3;
                let saved = r.energy_saved_over(raid10);
                line += &format!(" {:>7.1}%", saved * 100.0);
                rows.push(Row {
                    trace: trace.to_owned(),
                    scheme: scheme.to_string(),
                    disks: pairs * 2,
                    energy_saved_over_raid10: saved,
                });
            }
            println!("{line}");
        }
    }
    println!("\n(paper: savings grow with array size; e.g. +2.4 pp for RoLo-P/R and");
    println!(" +7.8 pp for RoLo-E from 20→40 disks under src2_2, more under proj_0,");
    println!(" and the growth is larger for RoLo than for GRAID)");
    rows
}
