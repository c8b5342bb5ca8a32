//! Figure 12: average response time as a function of array size
//! (20/30/40 disks) under src2_2 and proj_0, for GRAID, RoLo-P, RoLo-R
//! and RoLo-E.
//!
//! The paper's finding: response times of RAID10/GRAID/RoLo-P/RoLo-R
//! fall as the array grows (more access parallelism).

use crate::{expect_consistent, parallel_map, run_profile};
use rolo_core::{Scheme, SimConfig};
use rolo_sim::Duration;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    trace: String,
    scheme: String,
    disks: usize,
    mean_response_ms: f64,
    p99_response_ms: f64,
}

/// Runs every scheme at 20/30/40 disks over src2_2 and proj_0 for
/// `window`, prints Fig. 12 and returns its rows.
pub fn run(window: Duration) -> Vec<Row> {
    let traces = ["src2_2", "proj_0"];
    const SIZES: [usize; 3] = [10, 15, 20];
    let sizes = SIZES;
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
        let r = run_profile(&cfg, &profile, 0xf12, window);
        expect_consistent(&r, &format!("fig12 {trace} {scheme:?} {pairs}"));
        let p99 = r
            .responses
            .percentile(99.0)
            .map(|d| d.as_millis_f64())
            .unwrap_or(0.0);
        Row {
            trace,
            scheme: scheme.to_string(),
            disks: pairs * 2,
            mean_response_ms: r.mean_response_ms(),
            p99_response_ms: p99,
        }
    });

    for trace in traces {
        println!("\n=== {trace}: average response time (ms) ===");
        println!("{:<8} {:>9} {:>9} {:>9}", "scheme", "20", "30", "40");
        for scheme in Scheme::all() {
            let mut line = format!("{:<8}", scheme.to_string());
            for pairs in sizes {
                let row = results
                    .iter()
                    .find(|r| {
                        r.trace == trace && r.scheme == scheme.to_string() && r.disks == pairs * 2
                    })
                    .expect("run present");
                line += &format!(" {:>9.2}", row.mean_response_ms);
            }
            println!("{line}");
        }
    }
    println!("\n(paper: response time decreases with array size for all non-RoLo-E");
    println!(" schemes thanks to increased parallelism; RoLo-E shown for context)");
    results
}
