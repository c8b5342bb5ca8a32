//! Host-speed probe.
//!
//! The host this benchmark was built on is shared: other tenants' load
//! slows every program on it, by up to 2x for minutes at a time, which
//! would swamp a 10% change. So a fixed kernel that uses only the
//! standard library — sorting 16 Ki pseudo-random words — is timed every
//! 50 ms during each replay and once before each set-up, and its time is
//! excluded from the replay's. End-to-end host times are then reported
//! scaled to [`PROBE_REF_S`]: as they would read on a host that runs the
//! probe in that time.
//!
//! The kernel does not depend on the simulator, so a faster simulator
//! still reads faster. It refills its words just before sorting them, so
//! its data sits in the core's own cache whatever the simulator left
//! there, and it allocates nothing, so the heap counter never sees it.
//! On the calibration host its time tracked the simulator's under load
//! with a log-log slope of about 1 on every workload.

use rolo_trace::TraceRecord;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's time on the reference host: the 2-core shared box the
/// benchmark was calibrated on, when quiet.
pub const PROBE_REF_S: f64 = 250e-6;

const WORDS: usize = 1 << 14;
const EVERY: Duration = Duration::from_millis(50);
/// Samples kept per replay; later ones are not taken, so that sampling
/// never allocates inside a measured section.
const MAX_SAMPLES: usize = 4096;

/// The kernel's buffer and the samples it has taken.
#[derive(Debug)]
pub struct Probe {
    words: Vec<u64>,
    samples: Vec<f64>,
    /// Host seconds spent probing inside a replay.
    spent_s: f64,
    next_at: Option<Instant>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            words: vec![0; WORDS],
            samples: Vec::with_capacity(MAX_SAMPLES),
            spent_s: 0.0,
            next_at: None,
        }
    }
}

impl Probe {
    /// Runs the kernel once, keeps its time and returns it.
    pub fn sample(&mut self) -> f64 {
        let mut x: u64 = 0x5eed;
        for w in &mut self.words {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        let t = Instant::now();
        self.words.sort_unstable();
        black_box(&self.words);
        let s = t.elapsed().as_secs_f64();
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(s);
        }
        s
    }

    /// Mean time of the samples taken so far. A replay's time sums the
    /// host's slowdown over the replay, and so does the mean of samples
    /// taken at a fixed interval; their medians tracked each other less
    /// closely.
    ///
    /// # Panics
    ///
    /// Panics if no sample was taken.
    pub fn mean_s(&self) -> f64 {
        assert!(!self.samples.is_empty(), "no probe sample taken");
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Host seconds spent in samples taken by [`Probed`].
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }
}

/// A record iterator that probes the host every 50 ms of replay.
pub struct Probed<'a> {
    /// The records.
    pub inner: std::vec::IntoIter<TraceRecord>,
    /// Where the samples go.
    pub probe: &'a mut Probe,
}

impl Iterator for Probed<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        // Reading the clock every 64 records keeps the check's cost far
        // below the simulator's per-record work.
        if self.inner.len().is_multiple_of(64) {
            let p = &mut *self.probe;
            let now = Instant::now();
            let due = *p.next_at.get_or_insert(now + EVERY);
            if now >= due {
                p.sample();
                let after = Instant::now();
                p.spent_s += after.duration_since(now).as_secs_f64();
                p.next_at = Some(after + EVERY);
            }
        }
        self.inner.next()
    }
}
