//! §III-C recovery study (not a paper figure — the paper describes the
//! recovery paths qualitatively; this quantifies them).
//!
//! For a primary-disk failure on a 20-pair array, simulates the rebuild
//! under each scheme: which disks wake, how long the rebuild takes
//! (including spin-up latency), and the energy the recovery consumes.
//! The RoLo rows use a realistic set of recent on-duty loggers (three
//! unreclaimed periods, per the Fig. 5 rotation pattern).

use crate::parallel_map;
use rolo_core::{rebuild_primary_failure, Scheme, SimConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    scheme: String,
    disks_awakened: usize,
    disks_involved: usize,
    rebuild_minutes: f64,
    energy_kj: f64,
}

/// Plans and times a primary rebuild under every scheme, prints the
/// table and returns its rows.
pub fn run() -> Vec<Row> {
    let schemes = [
        Scheme::Raid10,
        Scheme::Graid,
        Scheme::RoloP,
        Scheme::RoloR,
        Scheme::RoloE,
    ];
    let rows: Vec<Row> = parallel_map(schemes.to_vec(), |scheme| {
        let cfg = SimConfig::paper_default(scheme, 20);
        let recent = match scheme {
            Scheme::RoloP | Scheme::RoloR => vec![4usize, 5, 6],
            _ => vec![],
        };
        let r = rebuild_primary_failure(&cfg, scheme, &recent);
        Row {
            scheme: r.scheme.clone(),
            disks_awakened: r.disks_awakened,
            disks_involved: r.disks_involved,
            rebuild_minutes: r.duration.as_secs_f64() / 60.0,
            energy_kj: r.energy_j / 1e3,
        }
    });

    println!("§III-C: rebuilding a failed primary on a 40-disk array\n");
    println!(
        "{:<8} {:>9} {:>9} {:>10} {:>10}",
        "scheme", "awakened", "involved", "rebuild", "energy"
    );
    for r in &rows {
        println!(
            "{:<8} {:>9} {:>9} {:>8.1}m {:>8.1}kJ",
            r.scheme, r.disks_awakened, r.disks_involved, r.rebuild_minutes, r.energy_kj
        );
    }
    println!("\n(the paper's §IV argument quantified: GRAID wakes every mirror to");
    println!(" recover a primary, RoLo-P/R wake only the pair's own mirror plus");
    println!(" the recent on-duty loggers, and RAID10 wakes nothing)");
    rows
}
