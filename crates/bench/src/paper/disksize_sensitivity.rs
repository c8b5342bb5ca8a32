//! §V-C "Disk Sizes": energy-saving sensitivity to disk capacity at a
//! fixed 50 % free-space ratio.
//!
//! GRAID's log capacity is set to 16/8/4 GB with RoLo free space at
//! 8/4/2 GB correspondingly (and disk capacity scaled to keep the ratio),
//! mirroring the paper's setup. Reported in prose: *"the energy saving
//! effectiveness of RoLo over GRAID does not vary with the disk capacity
//! under the condition of unalterable disk I/O performance"*.

use crate::{expect_consistent, parallel_map, run_profile};
use rolo_core::{Scheme, SimConfig};
use rolo_sim::Duration;
use serde::Serialize;

const GIB: u64 = 1 << 30;

#[derive(Debug, Serialize)]
pub struct Row {
    trace: String,
    scheme: String,
    rolo_free_gib: u64,
    energy_saved_over_graid: f64,
}

/// Runs GRAID and the RoLo flavors at three disk sizes over src2_2 and
/// proj_0 for `window`, prints the savings and returns the rows.
pub fn run(window: Duration) -> Vec<Row> {
    let traces = ["src2_2", "proj_0"];
    // (GRAID log GiB, RoLo free GiB, disk capacity GiB at 50 % free).
    const SIZES: [(u64, u64, f64); 3] = [(16, 8, 16.0), (8, 4, 8.0), (4, 2, 4.0)];
    let sizes = SIZES;
    let schemes = [Scheme::Graid, Scheme::RoloP, Scheme::RoloR, Scheme::RoloE];
    let jobs: Vec<(String, Scheme, (u64, u64, f64))> = traces
        .iter()
        .flat_map(|t| {
            schemes
                .iter()
                .flat_map(move |&s| SIZES.iter().map(move |&z| (t.to_string(), s, z)))
        })
        .collect();
    let results = parallel_map(jobs, |(trace, scheme, (glog, rfree, cap))| {
        let profile = rolo_trace::profiles::by_name(&trace).expect("profile");
        let mut cfg = SimConfig::paper_default(scheme, 20);
        cfg.disk = cfg.disk.with_capacity(cap);
        cfg.logger_region = rfree * GIB;
        cfg.graid_log_capacity = glog * GIB;
        let r = run_profile(&cfg, &profile, 0xd15c, window);
        expect_consistent(&r, &format!("disksize {trace} {scheme:?} {rfree}"));
        (trace, scheme, rfree, r)
    });

    let mut rows = Vec::new();
    for trace in traces {
        println!("\n=== {trace}: energy saved over GRAID at fixed 50 % free ratio ===");
        println!(
            "{:<8} {:>10} {:>10} {:>10}",
            "scheme", "8GB free", "4GB free", "2GB free"
        );
        for &scheme in &schemes[1..] {
            let mut line = format!("{:<8}", scheme.to_string());
            for &(_, rfree, _) in &sizes {
                let graid = &results
                    .iter()
                    .find(|(t, s, f, _)| t == trace && *s == Scheme::Graid && *f == rfree)
                    .unwrap()
                    .3;
                let (_, _, _, r) = results
                    .iter()
                    .find(|(t, s, f, _)| t == trace && *s == scheme && *f == rfree)
                    .unwrap();
                let saved = r.energy_saved_over(graid);
                line += &format!(" {:>9.1}%", saved * 100.0);
                rows.push(Row {
                    trace: trace.to_owned(),
                    scheme: scheme.to_string(),
                    rolo_free_gib: rfree,
                    energy_saved_over_graid: saved,
                });
            }
            println!("{line}");
        }
    }
    println!("\n(paper: the saving over GRAID is insensitive to disk capacity at a");
    println!(" fixed free-space ratio — it varies with disk *count* and free space)");
    rows
}
