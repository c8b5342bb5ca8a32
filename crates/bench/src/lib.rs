//! Experiment harness: every table and figure of the paper as a
//! library function, and the two binaries that drive them.
//!
//! Each experiment in [`paper`] builds its configs, runs the simulator
//! (in parallel across a sweep), prints the rows/series the paper
//! reports and returns them; DESIGN.md §4 is the index. The `paper`
//! binary runs one experiment per subcommand and writes its rows to
//! `results/<name>.json` for EXPERIMENTS.md. The observability tools
//! are the other binary, `inspect`; both parse their command lines in
//! [`cli`].

pub mod cli;
pub mod paper;

use rolo_core::{SimConfig, SimReport};
use rolo_sim::Duration;
use rolo_trace::{TraceProfile, TraceRecord};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Mutex;

/// The simulated "week" of the trace-driven experiments: the window
/// the MSR traces cover and the profiles' long-run rates are
/// calibrated per. It is their default replay window; `paper
/// --week-secs` trades fidelity for speed.
pub const WEEK: Duration = Duration::from_secs(7 * 24 * 3600);

/// `window` as a fraction of [`WEEK`], to scale per-week volume
/// expectations to a shorter run (Table I-style counts).
pub fn week_scale(window: Duration) -> f64 {
    window.as_secs_f64() / WEEK.as_secs_f64()
}

/// `window` in whole hours, as the studies' headings print it.
pub fn whole_hours(window: Duration) -> u64 {
    window.as_micros() / 3_600_000_000
}

/// Runs one scheme over a profile-generated trace for `window`.
pub fn run_profile(
    cfg: &SimConfig,
    profile: &TraceProfile,
    seed: u64,
    window: Duration,
) -> SimReport {
    rolo_core::run_scheme(cfg, profile.generator(window, seed), window)
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

/// Runs independent jobs on scoped threads, at most one per available
/// core, and returns their results in input order. A job that panics
/// panics the caller with its own payload, once every worker stops.
pub fn parallel_map<T, R, F>(jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(jobs.len().max(1));
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let worker = || {
        let mut done = Vec::new();
        loop {
            // The lock is released before the job runs.
            let next = queue.lock().expect("no job runs under the lock").next();
            let Some((i, job)) = next else { return done };
            done.push((i, f(job)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Writes `value` to `results/<name>.json` (pretty-printed), creating
/// the directory if needed, and prints the path. Returns whether the
/// file was written; when it was not, prints why instead.
pub fn write_results<T: Serialize>(name: &str, value: &T) -> bool {
    let dir = results_dir();
    let path = dir.join(format!("{name}.json"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(value).map_err(std::io::Error::other)?,
        )
    });
    match &written {
        Ok(()) => println!("\nresults written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    written.is_ok()
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
    #[should_panic(expected = "job 7 failed")]
    fn a_panicking_job_panics_the_caller() {
        parallel_map((0..20).collect(), |x: i32| {
            assert!(x != 7, "job {x} failed");
            x
        });
    }

    #[test]
    fn week_scale_is_the_fraction_of_a_week() {
        assert_eq!(week_scale(WEEK), 1.0);
        assert_eq!(week_scale(Duration::from_secs(3600)), 1.0 / 168.0);
        assert_eq!(whole_hours(Duration::from_secs(3600 * 24 + 3599)), 24);
    }
}
