//! §V-C "Stripe Unit Size": energy sensitivity to 16/32/64 KB stripe
//! units on a 40-disk array under src2_2 and proj_0.
//!
//! The paper reports the results in prose (no figure): *"except for
//! RoLo-E that is noticeably sensitive to stripe unit size under src2_2,
//! none of the schemes is sensitive at all to stripe unit size in terms
//! of energy efficiency"*, because src2_2's large (68 KB) reads split
//! into more sub-requests at small stripe units, spinning up more disks
//! on RoLo-E read misses.

use crate::{expect_consistent, parallel_map, run_profile};
use rolo_core::{Scheme, SimConfig};
use rolo_sim::Duration;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    trace: String,
    scheme: String,
    stripe_kib: u64,
    energy_saved_over_raid10: f64,
    read_miss_spinups: u64,
}

/// Runs every scheme at 16/32/64 KB stripe units over src2_2 and
/// proj_0 for `window`, prints the savings and returns the rows.
pub fn run(window: Duration) -> Vec<Row> {
    let traces = ["src2_2", "proj_0"];
    const STRIPES: [u64; 3] = [16, 32, 64];
    let stripes = STRIPES;
    let jobs: Vec<(String, Scheme, u64)> = traces
        .iter()
        .flat_map(|t| {
            Scheme::all()
                .into_iter()
                .flat_map(move |s| STRIPES.iter().map(move |&u| (t.to_string(), s, u)))
        })
        .collect();
    let results = parallel_map(jobs, |(trace, scheme, stripe)| {
        let profile = rolo_trace::profiles::by_name(&trace).expect("profile");
        let mut cfg = SimConfig::paper_default(scheme, 20);
        cfg.stripe_unit = stripe * 1024;
        let r = run_profile(&cfg, &profile, 0x57e, window);
        expect_consistent(&r, &format!("stripe {trace} {scheme:?} {stripe}"));
        (trace, scheme, stripe, r)
    });

    let mut rows = Vec::new();
    for trace in traces {
        println!("\n=== {trace}: energy saved over RAID10 by stripe unit ===");
        println!("{:<8} {:>8} {:>8} {:>8}", "scheme", "16KB", "32KB", "64KB");
        for scheme in Scheme::all().into_iter().skip(1) {
            let mut line = format!("{:<8}", scheme.to_string());
            for &stripe in &stripes {
                let raid10 = &results
                    .iter()
                    .find(|(t, s, u, _)| t == trace && *s == Scheme::Raid10 && *u == stripe)
                    .unwrap()
                    .3;
                let (_, _, _, r) = results
                    .iter()
                    .find(|(t, s, u, _)| t == trace && *s == scheme && *u == stripe)
                    .unwrap();
                line += &format!(" {:>7.1}%", r.energy_saved_over(raid10) * 100.0);
                rows.push(Row {
                    trace: trace.to_owned(),
                    scheme: scheme.to_string(),
                    stripe_kib: stripe,
                    energy_saved_over_raid10: r.energy_saved_over(raid10),
                    read_miss_spinups: r.policy.read_miss_spinups,
                });
            }
            println!("{line}");
        }
    }
    println!("\nRoLo-E read-miss spin-ups by stripe unit (the cause of its src2_2 sensitivity):");
    for trace in traces {
        let v: Vec<String> = stripes
            .iter()
            .map(|&u| {
                let row = rows
                    .iter()
                    .find(|r| r.trace == trace && r.scheme == "RoLo-E" && r.stripe_kib == u)
                    .unwrap();
                format!("{}KB: {}", u, row.read_miss_spinups)
            })
            .collect();
        println!("  {trace}: {}", v.join("  "));
    }
    rows
}
