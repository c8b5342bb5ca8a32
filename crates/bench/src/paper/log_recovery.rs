//! Crash-consistency smoke matrix for recovery-by-replay (DESIGN.md
//! §10): for every scheme with a segment journal, kill each
//! journal-bearing disk at each crash point of a write-heavy window
//! and require that
//!
//! * the replay pass ran (`policy.log_replays ≥ 1`),
//! * it reconstructed every covered pair's dirty map byte-identically
//!   to the controller's NVRAM state (`policy.replay_divergence == 0`),
//! * the end-of-run consistency audit (which folds the segment-store
//!   invariants in) passes, and
//! * span attribution stays ≥ 95 % with the `Compaction` phase in the
//!   taxonomy — the crash must not open attribution holes.
//!
//! ```text
//! paper log_recovery [--pairs N] [--secs S] [--iops R]
//! ```
//!
//! Defaults: 4 pairs, a 400 s window, 40 IOPS of the §II write-only
//! synthetic load, crashes at 90 s and 240 s. `paper` exits 1 on any
//! divergence, missing replay, consistency failure or attribution
//! below the bar — the CI guard for the §10 replay path. A malformed
//! argument, zero pairs, a rate that is not finite and positive, or a
//! window that ends before the last crash exits 2 with a message
//! naming the argument.

use crate::{expect_consistent, parallel_map};
use rolo_core::{FaultPlan, Scheme, SimConfig};
use rolo_obs::NullSink;
use rolo_sim::Duration;
use rolo_trace::SyntheticConfig;

/// Same coverage bar as `inspect spans`.
const MIN_ATTRIBUTED: f64 = 0.95;

/// Crash instants swept for every (scheme, disk) cell: one early (the
/// first logging periods, chains still short) and one late (sealed
/// segments, archival and — for RoLo-P/R — compaction have all run).
pub const CRASH_SECS: [u64; 2] = [90, 240];

/// The journal-bearing disks of a scheme (DESIGN.md §10 topology).
fn journal_disks(scheme: Scheme, pairs: usize) -> Vec<usize> {
    match scheme {
        // RoLo-P journals its mirrors (the on-duty logger slots).
        Scheme::RoloP => (pairs..2 * pairs).collect(),
        // RoLo-R and RoLo-E journal every mirrored disk.
        Scheme::RoloR | Scheme::RoloE => (0..2 * pairs).collect(),
        // GRAID's sole journal is the dedicated log disk.
        Scheme::Graid => vec![2 * pairs],
        Scheme::Raid10 => Vec::new(),
    }
}

/// Crashes each journal-bearing disk of `pairs` pairs at each of
/// [`CRASH_SECS`] in a `secs`-second window of `iops` write IOPS and
/// prints a row per cell; returns the failed checks, if any.
pub fn run(pairs: usize, secs: u64, iops: f64) -> Result<(), Vec<String>> {
    let schemes = [Scheme::RoloP, Scheme::RoloR, Scheme::RoloE, Scheme::Graid];
    let mut jobs = Vec::new();
    for scheme in schemes {
        for disk in journal_disks(scheme, pairs) {
            for at in CRASH_SECS {
                jobs.push((scheme, disk, at));
            }
        }
    }
    let cells = jobs.len();
    println!(
        "log_recovery: {cells} crash cells ({} schemes, {pairs} pairs, \
         crashes at {CRASH_SECS:?} s of a {secs} s window)",
        schemes.len()
    );

    let runs = parallel_map(jobs.clone(), move |(scheme, disk, at)| {
        let mut cfg = SimConfig::paper_default(scheme, pairs);
        // Small disks keep the write-only load hot against the logs.
        cfg.disk.capacity_bytes = 256 << 20;
        cfg.logger_region = 32 << 20;
        cfg.graid_log_capacity = 64 << 20;
        cfg.faults = FaultPlan::single(disk, Duration::from_secs(at));
        let dur = Duration::from_secs(secs);
        let wl = SyntheticConfig::motivation_write_only(iops);
        let records = wl.generator(dur, cfg.seed);
        let (report, obs) =
            rolo_core::run_scheme_observed(&cfg, records, dur, Box::new(NullSink), true);
        (report, obs.spans.expect("span recording was enabled"))
    });

    println!(
        "{:<8} {:>5} {:>8} {:>9} {:>6} {:>11} {:>8} {:>8}",
        "scheme", "disk", "crash", "replays", "torn", "divergence", "seals", "attrib"
    );
    let mut failures = Vec::new();
    for ((scheme, disk, at), (report, spans)) in jobs.iter().zip(&runs) {
        let label = format!("{scheme} disk {disk} @ {at}s");
        expect_consistent(report, &label);
        let stats = &report.policy;
        let (replays, divergence) = (stats.log_replays, stats.replay_divergence);
        let attributed = spans.requests.all.attributed_fraction();
        println!(
            "{:<8} {:>5} {:>7}s {:>9} {:>6} {:>11} {:>8} {:>7.1}%",
            report.scheme,
            disk,
            at,
            replays,
            stats.torn_records,
            divergence,
            stats.segments_sealed,
            attributed * 100.0
        );
        if report.faults.disk_failures != 1 {
            failures.push(format!("{label}: fault never fired"));
        }
        if replays < 1 {
            failures.push(format!("{label}: no replay pass ran"));
        }
        if divergence != 0 {
            failures.push(format!(
                "{label}: replayed dirty maps diverged ({divergence} pairs)"
            ));
        }
        if attributed < MIN_ATTRIBUTED {
            failures.push(format!(
                "{label}: only {:.2}% of response attributed",
                attributed * 100.0
            ));
        }
    }

    if !failures.is_empty() {
        return Err(failures);
    }
    println!("log_recovery: all {cells} cells replayed exactly, attribution ≥ 95%");
    Ok(())
}
