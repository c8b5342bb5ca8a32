//! Untraced repetitions: set up, replay under the clock, the heap
//! counter and the host-speed probe, check, and collect the end-to-end
//! samples.

use crate::alloc::{HeapUse, Mark};
use crate::layers::{trace_layers, Metric, Untraced};
use crate::probe::{Probe, Probed, PROBE_REF_S};
use crate::stats::{fnv1a, hash_records, Summary};
use crate::workload::{Input, PolicySource, PolicyUser, Workload};
use rolo_core::{run_trace_observed, Policy, RunObservations, SimReport};
use rolo_obs::TraceSink;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// End-to-end metric names and units, in report order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("sim_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// One successful untraced repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Reference-host seconds to generate the records and build the
    /// config.
    pub setup_s: f64,
    /// Host seconds of the replay call, probes excluded.
    pub run_s: f64,
    /// Mean probe time before and during the repetition.
    pub probe_s: f64,
    /// Simulated user requests replayed.
    pub requests: u64,
    /// Heap use of the replay call above its starting live bytes.
    pub heap: HeapUse,
    /// FNV-1a of the report's `deterministic_json`.
    pub digest: u64,
    /// FNV-1a of the generated records.
    pub record_hash: u64,
    /// Bytes held by the generated records.
    pub records_bytes: u64,
}

impl Rep {
    /// How much slower than the reference host the host ran.
    fn slowdown(&self) -> f64 {
        self.probe_s / PROBE_REF_S
    }

    /// Simulated user requests per reference-host second of the replay.
    pub fn req_per_s(&self) -> f64 {
        self.host_req_per_s() * self.slowdown()
    }

    /// Simulated user requests per host second of the replay, as the
    /// clock read it.
    pub fn host_req_per_s(&self) -> f64 {
        self.requests as f64 / self.run_s
    }

    /// Reference-host seconds of the replay.
    pub fn ref_run_s(&self) -> f64 {
        self.run_s / self.slowdown()
    }
}

/// Replays `input` with the controller a [`PolicySource`] builds.
struct Replay<'a> {
    input: &'a Input,
    records: Probed<'a>,
    sink: Box<dyn TraceSink>,
    spans: bool,
}

impl PolicyUser for Replay<'_> {
    type Out = (SimReport, RunObservations);

    fn using<P: Policy>(self, policy: P) -> Self::Out {
        let (report, _, obs) = run_trace_observed(
            &self.input.cfg,
            self.records,
            policy,
            self.input.duration,
            self.sink,
            self.spans,
        );
        (report, obs)
    }
}

/// The checks every replay must pass, traced or not.
pub(crate) fn check_report(report: &SimReport, requests: u64) -> Result<u64, String> {
    if let Err(e) = &report.consistency {
        return Err(format!("consistency audit failed: {e}"));
    }
    if report.user_requests != requests {
        return Err(format!(
            "{} user requests completed of {requests} generated",
            report.user_requests
        ));
    }
    if report.policy.replay_divergence != 0 {
        return Err(format!(
            "journal replay diverged {} times",
            report.policy.replay_divergence
        ));
    }
    let per_disk = report
        .energy_by_disk
        .iter()
        .fold(0.0, |sum, d| sum + d.total_joules);
    if per_disk != report.total_energy_j {
        return Err(format!(
            "per-disk energy {per_disk} J != total {} J",
            report.total_energy_j
        ));
    }
    Ok(fnv1a(report.deterministic_json().as_bytes()))
}

/// Turns a panic inside `f` into an error.
pub(crate) fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// Sets `w` up and returns its input and the set-up's reference-host
/// seconds: host seconds scaled by the mean of a probe sample taken just
/// before and one just after, which bracket it more closely than the
/// replay's samples.
fn timed_setup(w: Workload, seed: u64, quick: bool, probe: &mut Probe) -> (Input, f64) {
    let before = probe.sample();
    let t = Instant::now();
    let input = w.setup(seed, quick);
    let host_s = t.elapsed().as_secs_f64();
    let after = probe.sample();
    (input, host_s * 2.0 * PROBE_REF_S / (before + after))
}

fn untraced_rep<S: PolicySource>(
    w: Workload,
    seed: u64,
    quick: bool,
    source: &S,
) -> Result<Rep, String> {
    guarded(|| {
        let mut probe = Probe::default();
        let (mut input, setup_s) = timed_setup(w, seed, quick, &mut probe);
        let record_hash = hash_records(&input.records);
        let requests = input.records.len() as u64;
        let records_bytes = std::mem::size_of_val(input.records.as_slice()) as u64;
        let records = std::mem::take(&mut input.records);
        let (sink, spans) = w.observers();
        let replay = Replay {
            input: &input,
            records: Probed {
                inner: records.into_iter(),
                probe: &mut probe,
            },
            sink,
            spans,
        };
        let mark = Mark::now();
        let t = Instant::now();
        let (report, obs) = source.build(&input.cfg, replay);
        let run_s = t.elapsed().as_secs_f64() - probe.spent_s();
        let heap = mark.finish();
        drop(obs);
        let digest = check_report(&report, requests)?;
        Ok(Rep {
            setup_s,
            run_s,
            probe_s: probe.mean_s(),
            requests,
            heap,
            digest,
            record_hash,
            records_bytes,
        })
    })
}

/// The repetitions of one workload, with every failure counted.
#[derive(Debug)]
pub struct Series {
    /// The workload measured.
    pub workload: Workload,
    /// Successful untraced repetitions, in run order.
    pub reps: Vec<Rep>,
    /// One message per failed repetition, traced or not.
    pub failures: Vec<String>,
    /// Reference-host seconds of set-ups run without a replay.
    pub extra_setup_s: Vec<f64>,
    successes: usize,
}

impl Series {
    /// An empty series.
    pub fn new(workload: Workload) -> Series {
        Series {
            workload,
            reps: Vec::new(),
            failures: Vec::new(),
            extra_setup_s: Vec::new(),
            successes: 0,
        }
    }

    /// Repetitions attempted, traced or not.
    pub fn attempted(&self) -> usize {
        self.successes + self.failures.len()
    }

    /// Counts the outcome of a repetition, traced or not.
    fn note(&mut self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.successes += 1,
            Err(e) => self.failures.push(e),
        }
    }

    /// The first repetition's digest, once one succeeded.
    pub fn digest(&self) -> Option<u64> {
        self.reps.first().map(|r| r.digest)
    }

    /// Runs one untraced repetition and returns it if it succeeded. It
    /// fails when it panics, fails a report check, or when its record
    /// hash or digest differs from the first repetition's; `reference`
    /// is a digest it must also equal.
    pub fn rep<S: PolicySource>(
        &mut self,
        seed: u64,
        quick: bool,
        source: &S,
        reference: Option<u64>,
    ) -> Option<&Rep> {
        let first = self.reps.first().map(|r| (r.record_hash, r.digest));
        let outcome = untraced_rep(self.workload, seed, quick, source).and_then(|rep| {
            match (first, reference) {
                (Some((hash, _)), _) if hash != rep.record_hash => {
                    Err("records differ from the first repetition's".to_owned())
                }
                (Some((_, digest)), _) if digest != rep.digest => {
                    Err("digest differs from the first repetition's".to_owned())
                }
                (_, Some(digest)) if digest != rep.digest => {
                    Err("digest differs from the reference run's".to_owned())
                }
                _ => Ok(rep),
            }
        });
        let name = self.workload.name();
        let ok = outcome.is_ok();
        let outcome = outcome.map(|rep| self.reps.push(rep));
        self.note(outcome.map_err(|e| format!("{name}: {e}")));
        ok.then(|| self.reps.last()).flatten()
    }

    /// Times one more set-up without replaying it.
    pub fn setup_only(&mut self, seed: u64, quick: bool) {
        let (_, setup_s) = timed_setup(self.workload, seed, quick, &mut Probe::default());
        self.extra_setup_s.push(setup_s);
    }

    /// Set-ups timed, with or without a replay.
    pub fn setups(&self) -> usize {
        self.reps.len() + self.extra_setup_s.len()
    }

    /// Samples of every [`END_TO_END`] metric, in that order.
    pub fn end_to_end(&self) -> [Vec<f64>; 3] {
        let setups = self.reps.iter().map(|r| r.setup_s);
        [
            self.reps.iter().map(Rep::req_per_s).collect(),
            setups.chain(self.extra_setup_s.iter().copied()).collect(),
            self.reps.iter().map(|r| r.heap.peak_mb()).collect(),
        ]
    }

    fn median(&self, f: impl Fn(&Rep) -> f64) -> Option<f64> {
        let v: Vec<f64> = self.reps.iter().map(f).collect();
        (!v.is_empty()).then(|| Summary::of(&v).median)
    }

    /// Median reference-host seconds of the replay call, once a
    /// repetition succeeded.
    pub fn median_ref_run_s(&self) -> Option<f64> {
        self.median(Rep::ref_run_s)
    }

    /// Runs the traced repetition and returns its per-layer metrics. It
    /// needs a successful untraced repetition, and fails unless its
    /// digest equals the untraced one. `tax_base_s` is `hm1_roloe`'s
    /// [`Series::median_ref_run_s`], for the observed workload.
    pub fn trace<S: PolicySource>(
        &mut self,
        seed: u64,
        quick: bool,
        source: &S,
        tax_base_s: Option<f64>,
    ) -> Option<Vec<Metric>> {
        let first = *self.reps.first()?;
        let base = Untraced {
            run_s: self.median(|r| r.run_s)?,
            ref_run_s: self.median(Rep::ref_run_s)?,
            setup_s: self.median(|r| r.setup_s)?,
            probe_s: self.median(|r| r.probe_s)?,
            host_req_per_s: self.median(Rep::host_req_per_s)?,
            allocs_per_req: first.heap.allocs as f64 / first.requests as f64,
            records_mb: first.records_bytes as f64 / 1e6,
            tax_base_s,
        };
        let outcome = trace_layers(self.workload, seed, quick, source, &base).and_then(
            |(metrics, digest)| {
                if digest == first.digest {
                    Ok(metrics)
                } else {
                    Err("traced digest differs from the untraced digest".to_owned())
                }
            },
        );
        let name = self.workload.name();
        match outcome {
            Ok(metrics) => {
                self.note(Ok(()));
                Some(metrics)
            }
            Err(e) => {
                self.note(Err(format!("{name} (traced): {e}")));
                None
            }
        }
    }
}
