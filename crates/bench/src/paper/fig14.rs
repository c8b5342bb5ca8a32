//! Figure 14: energy consumption and average response time (normalised
//! to RAID10) under the five non-write-intensive traces — mds_0, hm_1,
//! rsrch_2, wdev_0 and web_1.
//!
//! The paper's finding to reproduce: on light, read-heavier workloads
//! RoLo-P/R behave like GRAID energy-wise and the performance penalty of
//! RoLo-R stays within a few percent — "when RoLo is deployed in
//! non-write-intensive application environments, its negative impact, if
//! any, is negligible".

use crate::{expect_consistent, parallel_map, run_profile};
use rolo_core::{Scheme, SimConfig};
use rolo_sim::Duration;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    trace: String,
    scheme: String,
    energy_norm: f64,
    response_norm: f64,
    mean_response_ms: f64,
}

/// Runs every scheme over the five non-write-intensive traces for
/// `window`, prints Fig. 14 and returns its rows.
pub fn run(window: Duration) -> Vec<Row> {
    let traces = ["mds_0", "hm_1", "rsrch_2", "wdev_0", "web_1"];
    let jobs: Vec<(String, Scheme)> = traces
        .iter()
        .flat_map(|t| Scheme::all().map(|s| (t.to_string(), s)))
        .collect();
    let results = parallel_map(jobs, |(trace, scheme)| {
        let profile = rolo_trace::profiles::by_name(&trace).expect("profile");
        let cfg = SimConfig::paper_default(scheme, 20);
        let r = run_profile(&cfg, &profile, 0xf14, window);
        expect_consistent(&r, &format!("fig14 {trace} {scheme:?}"));
        (trace, scheme, r)
    });

    let mut rows = Vec::new();
    println!("=== Figure 14(a): energy normalised to RAID10 ===");
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "trace", "RAID10", "GRAID", "RoLo-P", "RoLo-R", "RoLo-E"
    );
    for trace in traces {
        let base = &results
            .iter()
            .find(|(t, s, _)| t == trace && *s == Scheme::Raid10)
            .unwrap()
            .2;
        let mut line = format!("{trace:<8}");
        for scheme in Scheme::all() {
            let r = &results
                .iter()
                .find(|(t, s, _)| t == trace && *s == scheme)
                .unwrap()
                .2;
            line += &format!(" {:>8.3}", r.energy_vs(base));
            rows.push(Row {
                trace: trace.to_owned(),
                scheme: scheme.to_string(),
                energy_norm: r.energy_vs(base),
                response_norm: r.response_vs(base),
                mean_response_ms: r.mean_response_ms(),
            });
        }
        println!("{line}");
    }

    println!(
        "\n=== Figure 14(b): mean response time normalised to RAID10 (log scale in paper) ==="
    );
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "trace", "RAID10", "GRAID", "RoLo-P", "RoLo-R", "RoLo-E"
    );
    for trace in traces {
        let mut line = format!("{trace:<8}");
        for scheme in Scheme::all() {
            let row = rows
                .iter()
                .find(|r| r.trace == trace && r.scheme == scheme.to_string())
                .unwrap();
            line += &format!(" {:>8.2}", row.response_norm);
        }
        println!("{line}");
    }
    println!("\n(paper: RoLo-P/R energy equals GRAID's; RoLo-R trails RoLo-P and GRAID");
    println!(" by 0.7–7.3 %; RoLo-E's normalised response explodes on read-heavy traces)");
    rows
}
