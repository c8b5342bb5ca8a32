//! Tables II, III and VI: configuration parameters and trace
//! characteristics.
//!
//! Emits the disk/RAID parameters the simulator uses (Table II) and, for
//! each calibrated trace profile, the paper's published characteristics
//! next to the statistics measured over an actual generated week — a
//! self-check that the synthetic substitution matches its calibration
//! targets.

use crate::{parallel_map, week_scale, whole_hours};
use rolo_disk::DiskParams;
use rolo_sim::Duration;
use rolo_trace::{profiles, TraceStats};
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct TraceRow {
    name: String,
    target_write_ratio: f64,
    measured_write_ratio: f64,
    target_burst_iops: f64,
    measured_iops: f64,
    target_avg_kb: f64,
    measured_avg_kb: f64,
    target_volume_gb: f64,
    measured_volume_gb: f64,
}

/// Prints Table II and, for every profile, Tables III/VI's targets
/// next to the statistics of `window` of its generated trace; returns
/// the trace rows.
pub fn run(window: Duration) -> Vec<TraceRow> {
    let p = DiskParams::ultrastar_36z15();
    println!("Table II — disk and RAID configuration");
    println!("  model                : {}", p.model);
    println!(
        "  capacity             : {:.1} GB",
        p.capacity_bytes as f64 / 1e9
    );
    println!("  rotation speed       : {} RPM", p.rpm);
    println!(
        "  avg seek / rotation  : {} / {}",
        p.avg_seek,
        p.avg_rotation()
    );
    println!(
        "  sustained rate       : {} MB/s",
        p.transfer_rate / (1024 * 1024)
    );
    println!(
        "  power A/I/S          : {} / {} / {} W",
        p.power_active_w, p.power_idle_w, p.power_standby_w
    );
    println!(
        "  spin down/up energy  : {} / {} J",
        p.spin_down_energy_j, p.spin_up_energy_j
    );
    println!(
        "  spin down/up time    : {} / {}",
        p.spin_down_time, p.spin_up_time
    );
    println!("  stripe units         : 16 KB / 32 KB / 64 KB");
    println!("  disks                : 20 / 30 / 40 (+1 for GRAID)");
    println!("  free space per disk  : 8 / 6 / 4 GB (16 GB GRAID log)");

    println!(
        "\nTables III & VI — trace characteristics (paper target vs generated, {} h window)",
        whole_hours(window)
    );
    println!(
        "{:<8} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "trace", "wr%", "wr%*", "IOPS", "IOPS*", "avgKB", "avgKB*", "volGB", "volGB*"
    );
    println!(
        "{:<8} (paper targets; * = measured on the synthetic trace)",
        ""
    );

    let scale = week_scale(window);
    let rows: Vec<TraceRow> = parallel_map(profiles::all(), |p| {
        let recs: Vec<_> = p.generator(window, 0xace).collect();
        let s = TraceStats::from_records(&recs, window);
        TraceRow {
            name: p.name.to_owned(),
            target_write_ratio: p.write_ratio,
            measured_write_ratio: s.write_ratio,
            target_burst_iops: p.burst_iops,
            measured_iops: s.iops / p.duty_cycle().max(1e-9),
            target_avg_kb: p.avg_req_bytes as f64 / 1024.0,
            measured_avg_kb: s.avg_req_bytes / 1024.0,
            target_volume_gb: p.week_write_volume as f64 * scale / f64::from(1 << 30),
            measured_volume_gb: s.bytes_written as f64 / f64::from(1 << 30),
        }
    });
    for r in &rows {
        println!(
            "{:<8} {:>8.1}% {:>8.1}% {:>8.2} {:>8.2} {:>8.1} {:>8.1} {:>9.2} {:>9.2}",
            r.name,
            r.target_write_ratio * 100.0,
            r.measured_write_ratio * 100.0,
            r.target_burst_iops,
            r.measured_iops,
            r.target_avg_kb,
            r.measured_avg_kb,
            r.target_volume_gb,
            r.measured_volume_gb,
        );
    }
    rows
}
