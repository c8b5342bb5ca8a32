//! Run-to-run variance of the headline metrics across workload seeds.
//!
//! The synthetic traces are stochastic; this study quantifies how much
//! the Fig. 10 numbers scatter across five independent seeds (src2_2 is
//! the interesting case: at a ~1 % duty cycle, a week holds only ~200 ON
//! bursts, so its weekly volume has visible variance). Reported per
//! scheme: mean ± population σ of energy and response time.

use crate::{expect_consistent, parallel_map, run_profile};
use rolo_core::{Scheme, SimConfig};
use rolo_sim::Duration;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    trace: String,
    scheme: String,
    energy_mean_mj: f64,
    energy_sigma_mj: f64,
    resp_mean_ms: f64,
    resp_sigma_ms: f64,
    seeds: usize,
}

fn stats(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Runs three schemes over src2_2 and proj_0 at five seeds for
/// `window`, prints each metric's mean and σ, and returns the rows.
pub fn run(window: Duration) -> Vec<Row> {
    const SEEDS: [u64; 5] = [11, 23, 47, 83, 131];
    let seeds = SEEDS;
    let traces = ["src2_2", "proj_0"];
    let schemes = [Scheme::Raid10, Scheme::RoloP, Scheme::RoloE];
    let jobs: Vec<(String, Scheme, u64)> = traces
        .iter()
        .flat_map(|t| {
            schemes
                .iter()
                .flat_map(move |&s| SEEDS.iter().map(move |&x| (t.to_string(), s, x)))
        })
        .collect();
    let runs = parallel_map(jobs, |(trace, scheme, seed)| {
        let profile = rolo_trace::profiles::by_name(&trace).expect("profile");
        let cfg = SimConfig::paper_default(scheme, 20);
        let r = run_profile(&cfg, &profile, seed, window);
        expect_consistent(&r, &format!("{trace} {scheme:?} seed {seed}"));
        (trace, scheme, r.total_energy_j, r.mean_response_ms())
    });

    let mut rows = Vec::new();
    println!(
        "run-to-run variance over {} seeds (one week, 40 disks)\n",
        seeds.len()
    );
    println!(
        "{:<8} {:<8} {:>18} {:>18}",
        "trace", "scheme", "energy (MJ)", "mean resp (ms)"
    );
    for trace in traces {
        for &scheme in &schemes {
            let e: Vec<f64> = runs
                .iter()
                .filter(|(t, s, _, _)| t == trace && *s == scheme)
                .map(|(_, _, e, _)| e / 1e6)
                .collect();
            let m: Vec<f64> = runs
                .iter()
                .filter(|(t, s, _, _)| t == trace && *s == scheme)
                .map(|(_, _, _, m)| *m)
                .collect();
            let (em, es) = stats(&e);
            let (mm, ms) = stats(&m);
            println!(
                "{:<8} {:<8} {:>11.2} ± {:<5.2} {:>11.2} ± {:<5.2}",
                trace,
                scheme.to_string(),
                em,
                es,
                mm,
                ms
            );
            rows.push(Row {
                trace: trace.to_owned(),
                scheme: scheme.to_string(),
                energy_mean_mj: em,
                energy_sigma_mj: es,
                resp_mean_ms: mm,
                resp_sigma_ms: ms,
                seeds: seeds.len(),
            });
        }
    }
    println!("\n(energy is tight for always-on schemes — it is dominated by idle");
    println!(" power — and scatters most for RoLo-E, whose destage cycles and");
    println!(" read-miss wake-ups follow the bursty arrival realisation)");
    rows
}
