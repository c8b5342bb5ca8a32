//! §V-C's stated future work: RoLo's energy savings under a different
//! disk model — the Seagate Cheetah 15K.5 the paper names.
//!
//! Runs the Fig. 10 comparison (40 disks, src2_2 and proj_0, one week)
//! on both disk models with the free-space ratio held at the paper's
//! ~43 % of capacity for the Ultrastar (8 GB of 18.4 GB) and the same
//! ratio of the Cheetah's 300 GB. The paper's §V-C conjecture to test:
//! the saving of RoLo over GRAID is governed by disk *count* and free
//! space, not by the disk model.

use crate::{expect_consistent, parallel_map, run_profile};
use rolo_core::{Scheme, SimConfig};
use rolo_disk::DiskParams;
use rolo_sim::Duration;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    disk_model: String,
    trace: String,
    scheme: String,
    energy_j: f64,
    energy_saved_over_raid10: f64,
    energy_saved_over_graid: f64,
    spin_cycles: u64,
}

/// Runs the Fig. 10 comparison on both disk models for `window`, prints
/// the savings and the conjecture check, and returns the rows.
pub fn run(window: Duration) -> Vec<Row> {
    let models = [DiskParams::ultrastar_36z15(), DiskParams::cheetah_15k5()];
    let traces = ["src2_2", "proj_0"];
    let jobs: Vec<(DiskParams, String, Scheme)> = models
        .iter()
        .flat_map(|m| {
            traces.iter().flat_map(move |t| {
                Scheme::all()
                    .into_iter()
                    .map(move |s| (m.clone(), t.to_string(), s))
            })
        })
        .collect();
    let results = parallel_map(jobs, |(model, trace, scheme)| {
        let profile = rolo_trace::profiles::by_name(&trace).expect("profile");
        let mut cfg = SimConfig::paper_default(scheme, 20);
        // Hold the free-space *ratio* at the Ultrastar default.
        let ratio = (8u64 << 30) as f64 / DiskParams::ultrastar_36z15().capacity_bytes as f64;
        cfg.logger_region =
            ((model.capacity_bytes as f64 * ratio) as u64 / cfg.stripe_unit) * cfg.stripe_unit;
        cfg.graid_log_capacity = cfg.logger_region * 2;
        cfg.disk = model.clone();
        let r = run_profile(&cfg, &profile, 0xd15c2, window);
        expect_consistent(&r, &format!("{} {trace} {scheme:?}", model.model));
        (model.model.clone(), trace, scheme, r)
    });

    let mut rows = Vec::new();
    for model in &models {
        for trace in traces {
            let of: Vec<_> = results
                .iter()
                .filter(|(m, t, _, _)| *m == model.model && t == trace)
                .collect();
            let raid10 = &of[0].3;
            let graid = &of[1].3;
            for (m, t, s, r) in &of {
                rows.push(Row {
                    disk_model: m.clone(),
                    trace: t.clone(),
                    scheme: s.to_string(),
                    energy_j: r.total_energy_j,
                    energy_saved_over_raid10: r.energy_saved_over(raid10),
                    energy_saved_over_graid: r.energy_saved_over(graid),
                    spin_cycles: r.spin_cycles,
                });
            }
        }
    }

    println!("§V-C future work: energy savings across disk models (one week, 40 disks)\n");
    println!(
        "{:<22} {:<8} {:<8} {:>10} {:>12} {:>12}",
        "disk", "trace", "scheme", "energy", "vs RAID10", "vs GRAID"
    );
    for r in &rows {
        println!(
            "{:<22} {:<8} {:<8} {:>8.1}MJ {:>11.1}% {:>11.1}%",
            r.disk_model,
            r.trace,
            r.scheme,
            r.energy_j / 1e6,
            r.energy_saved_over_raid10 * 100.0,
            r.energy_saved_over_graid * 100.0
        );
    }

    println!("\nconjecture check (RoLo-P saving over GRAID per model):");
    for model in &models {
        for trace in traces {
            let row = rows
                .iter()
                .find(|r| r.disk_model == model.model && r.trace == trace && r.scheme == "RoLo-P")
                .unwrap();
            println!(
                "  {:<22} {trace}: {:+.2} %",
                model.model,
                row.energy_saved_over_graid * 100.0
            );
        }
    }
    println!("(paper's conjecture: the saving over GRAID does not vary with the model)");
    rows
}
