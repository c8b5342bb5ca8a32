//! Figure 13: energy saved over GRAID as a function of per-disk free
//! space (8/6/4 GB) for RoLo-P/R/E under src2_2 and proj_0.
//!
//! The paper's findings to reproduce: savings shrink only slightly as
//! free space shrinks (shorter logging periods → more rotations), and
//! mean response time is essentially insensitive to free space.

use crate::{expect_consistent, parallel_map, run_profile};
use rolo_core::{Scheme, SimConfig};
use rolo_sim::Duration;
use serde::Serialize;

const GIB: u64 = 1 << 30;

#[derive(Debug, Serialize)]
pub struct Row {
    trace: String,
    scheme: String,
    free_gib: u64,
    energy_saved_over_graid: f64,
    mean_response_ms: f64,
    rotations: u64,
}

/// Runs GRAID and the RoLo flavors at 8/6/4 GB free space over src2_2
/// and proj_0 for `window`, prints Fig. 13 and returns its rows.
pub fn run(window: Duration) -> Vec<Row> {
    let traces = ["src2_2", "proj_0"];
    const FREE_SPACE: [u64; 3] = [8, 6, 4];
    let free_space = FREE_SPACE;
    let schemes = [Scheme::Graid, Scheme::RoloP, Scheme::RoloR, Scheme::RoloE];
    let jobs: Vec<(String, Scheme, u64)> = traces
        .iter()
        .flat_map(|t| {
            schemes
                .iter()
                .flat_map(move |&s| FREE_SPACE.iter().map(move |&f| (t.to_string(), s, f)))
        })
        .collect();
    let results = parallel_map(jobs, |(trace, scheme, free)| {
        let profile = rolo_trace::profiles::by_name(&trace).expect("profile");
        let mut cfg = SimConfig::paper_default(scheme, 20);
        cfg.logger_region = free * GIB;
        let r = run_profile(&cfg, &profile, 0xf13, window);
        expect_consistent(&r, &format!("fig13 {trace} {scheme:?} {free}"));
        (trace, scheme, free, r)
    });

    let mut rows = Vec::new();
    for trace in traces {
        println!("\n=== {trace}: energy saved over GRAID ===");
        println!("{:<8} {:>8} {:>8} {:>8}", "scheme", "8GB", "6GB", "4GB");
        for &scheme in &schemes[1..] {
            let mut line = format!("{:<8}", scheme.to_string());
            for &free in &free_space {
                let graid = &results
                    .iter()
                    .find(|(t, s, f, _)| t == trace && *s == Scheme::Graid && *f == free)
                    .expect("baseline present")
                    .3;
                let (_, _, _, r) = results
                    .iter()
                    .find(|(t, s, f, _)| t == trace && *s == scheme && *f == free)
                    .expect("run present");
                let saved = r.energy_saved_over(graid);
                line += &format!(" {:>7.1}%", saved * 100.0);
                rows.push(Row {
                    trace: trace.to_owned(),
                    scheme: scheme.to_string(),
                    free_gib: free,
                    energy_saved_over_graid: saved,
                    mean_response_ms: r.mean_response_ms(),
                    rotations: r.policy.rotations,
                });
            }
            println!("{line}");
        }
    }
    println!("\nresponse-time sensitivity (RoLo-P, ms):");
    for trace in traces {
        let resp: Vec<String> = free_space
            .iter()
            .map(|&f| {
                let row = rows
                    .iter()
                    .find(|r| r.trace == trace && r.scheme == "RoLo-P" && r.free_gib == f)
                    .unwrap();
                format!(
                    "{}GB {:.2}ms ({} rotations)",
                    f, row.mean_response_ms, row.rotations
                )
            })
            .collect();
        println!("  {trace}: {}", resp.join(", "));
    }
    println!("\n(paper: savings decrease slightly with less free space; response");
    println!(" time is almost unchanged — destaging has little foreground impact)");
    rows
}
