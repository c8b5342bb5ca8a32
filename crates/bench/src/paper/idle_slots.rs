//! §II's idleness claim, measured: *"Most idle time slots are much
//! shorter than the break-even time for modern disks to spin down"*.
//!
//! Drives one primary disk with its share of the motivation workload
//! (100 % writes, 64 KB, a tenth of the array's intensity) and reports
//! the distribution of spun-up idle-slot lengths against the disk's
//! spin-down break-even time — the observation that motivates exploiting
//! idle slots for destaging instead of spin-down.

use rolo_disk::{Disk, DiskParams, DiskRequest, IoKind, Priority};
use rolo_sim::{Duration, SimRng, SimTime};
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    iops: f64,
    idle_slots: u64,
    mean_slot_ms: f64,
    fraction_under_break_even: f64,
    fraction_under_100ms: f64,
}

fn tally(array_iops: f64) -> Row {
    // One primary disk sees a tenth of a 10-pair array's write stream.
    let mut disk = Disk::new(0, DiskParams::ultrastar_36z15(), SimRng::seed_from(7));
    let mut rng = SimRng::seed_from(9);
    let per_disk = array_iops / 10.0;
    let mut t = 0.0f64;
    let mut next_free = SimTime::ZERO;
    for i in 0..200_000u64 {
        t += rng.exp(1.0 / per_disk);
        let now = SimTime::from_micros((t * 1e6) as u64).max(next_free);
        let offset = rng.below((10u64 << 30) / 4096) * 4096;
        let w = disk
            .submit(
                DiskRequest::new(i, IoKind::Write, offset, 64 * 1024, Priority::Foreground),
                now,
            )
            .expect("disk idle between requests");
        next_free = w.due();
        disk.on_io_complete(next_free);
    }
    let be = disk.params().break_even_time();
    let h = disk.io_stats().idle_gaps;
    Row {
        iops: array_iops,
        idle_slots: h.count,
        mean_slot_ms: h.mean().as_millis_f64(),
        fraction_under_break_even: h.fraction_shorter_than(be),
        fraction_under_100ms: h.fraction_shorter_than(Duration::from_millis(100)),
    }
}

/// Tallies one primary disk's idle slots at four intensities, prints
/// them against the break-even time and returns the rows.
pub fn run() -> Vec<Row> {
    let be = DiskParams::ultrastar_36z15().break_even_time();
    let rows: Vec<Row> = [10.0, 50.0, 100.0, 200.0].into_iter().map(tally).collect();

    println!("§II idleness: primary-disk idle slots vs the spin-down break-even ({be})\n");
    println!(
        "{:>6} {:>10} {:>12} {:>16} {:>12}",
        "iops", "slots", "mean slot", "< break-even", "< 100ms"
    );
    for r in &rows {
        println!(
            "{:>6} {:>10} {:>10.1}ms {:>15.2}% {:>11.1}%",
            r.iops,
            r.idle_slots,
            r.mean_slot_ms,
            r.fraction_under_break_even * 100.0,
            r.fraction_under_100ms * 100.0
        );
    }
    println!("\n(virtually every idle slot is far below the ~15 s break-even: spinning");
    println!(" down between requests can never pay — the slots are only exploitable");
    println!(" by background work, which is exactly what decentralized destaging does)");
    rows
}
