//! Experiment harness shared by the figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index). They all follow the same
//! shape: build configs, run the simulator (in parallel across a sweep),
//! print the same rows/series the paper reports, and write
//! `results/<name>.json` for EXPERIMENTS.md. The observability tools
//! are one binary, `inspect`, whose command line lives in [`cli`].

pub mod cli;

use rolo_core::{SimConfig, SimReport};
use rolo_sim::Duration;
use rolo_trace::{TraceProfile, TraceRecord};
use serde::Serialize;
use std::path::PathBuf;

/// Seconds in the simulated "week" used by trace-driven experiments.
///
/// The MSR traces cover one week; the profiles' long-run rates are
/// calibrated per week, so experiments default to simulating the full
/// window. Override with the `ROLO_WEEK_SECS` environment variable to
/// trade fidelity for speed (e.g. CI smoke runs).
pub fn week_secs() -> u64 {
    std::env::var("ROLO_WEEK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7 * 24 * 3600)
}

/// The simulated duration used by trace-driven experiments.
pub fn week() -> Duration {
    Duration::from_secs(week_secs())
}

/// Scales a profile's per-week volume expectations to the configured
/// window (used when reporting Table I-style per-week counts from a
/// shorter run).
pub fn week_scale() -> f64 {
    week_secs() as f64 / (7.0 * 24.0 * 3600.0)
}

/// Runs one scheme over a profile-generated trace for the configured
/// week window.
pub fn run_profile(cfg: &SimConfig, profile: &TraceProfile, seed: u64) -> SimReport {
    let dur = week();
    rolo_core::run_scheme(cfg, profile.generator(dur, seed), dur)
}

/// Runs one scheme over explicit records.
pub fn run_records(cfg: &SimConfig, records: Vec<TraceRecord>, dur: Duration) -> SimReport {
    rolo_core::run_scheme(cfg, records, dur)
}

/// One simulation job for [`run_jobs`]: a config, its trace records and
/// the simulated window.
#[derive(Debug, Clone)]
pub struct RunJob {
    /// Simulation configuration (scheme, geometry, seed).
    pub cfg: SimConfig,
    /// Trace records to replay.
    pub records: Vec<TraceRecord>,
    /// Simulated duration.
    pub duration: Duration,
}

/// Runs independent simulation jobs in parallel via [`parallel_map`],
/// preserving input order. Reports are bit-identical to running each job
/// serially with [`run_records`] — the simulator shares no mutable state
/// across jobs (the determinism test suite locks this down).
pub fn run_jobs(jobs: Vec<RunJob>) -> Vec<SimReport> {
    parallel_map(jobs, |job| {
        rolo_core::run_scheme(&job.cfg, job.records, job.duration)
    })
}

/// Runs a set of independent jobs in parallel with crossbeam scoped
/// threads, preserving input order.
pub fn parallel_map<T, R, F>(jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = jobs.len();
    let mut slots: Vec<parking_lot::Mutex<Option<R>>> = Vec::with_capacity(n);
    slots.resize_with(n, || parking_lot::Mutex::new(None));
    let jobs: Vec<parking_lot::Mutex<Option<T>>> = jobs
        .into_iter()
        .map(|j| parking_lot::Mutex::new(Some(j)))
        .collect();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().take().expect("job taken once");
                let r = f(job);
                *slots[i].lock() = Some(r);
            });
        }
    })
    .expect("worker panicked");
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("job completed"))
        .collect()
}

/// Writes `value` to `results/<name>.json` (pretty-printed), creating
/// the directory if needed. Prints the path on success.
pub fn write_results<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => match std::fs::write(&path, json) {
            Ok(()) => println!("\nresults written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        },
        Err(e) => eprintln!("warning: cannot serialise results: {e}"),
    }
}

/// The results directory: `$ROLO_RESULTS_DIR` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var("ROLO_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Formats joules as megajoules with sensible precision.
pub fn mj(j: f64) -> String {
    format!("{:.2} MJ", j / 1e6)
}

/// FNV-1a (64-bit) offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a (64-bit) state `hash`; start from
/// [`FNV_OFFSET`]. Stable and dependency-free, so digests can be
/// committed and compared across builds.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Asserts a report drained consistently, with a labelled panic.
pub fn expect_consistent(report: &SimReport, label: &str) {
    if let Err(e) = &report.consistency {
        panic!("{label}: consistency audit failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..50).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn week_scale_default_is_one() {
        if std::env::var("ROLO_WEEK_SECS").is_err() {
            assert!((week_scale() - 1.0).abs() < 1e-12);
        }
    }
}
