//! `rolo-benchmark`: replays the four workloads and reports every
//! end-to-end and per-layer metric by name and unit.
//!
//! ```text
//! rolo-benchmark [--seed N] [--out FILE] [--trace-layers] [--quick]
//! rolo-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! rolo-benchmark compare A.json B.json
//! ```
//!
//! The first form is the full run: five interleaved rounds, each
//! `proj0_rolop` ×1, `hm1_roloe` ×3, `dense_raid10` ×1 and
//! `hm1_roloe_observed` ×2, so slow periods of a shared host spread over
//! every workload; `--trace-layers` adds one traced replay per workload.
//! It writes JSON to `--out` (default `results/benchmark.json`).
//!
//! The second form measures one workload for about `--seconds` and
//! prints, as its last line, `{"correct", "attempted", "failed",
//! "metrics"}` with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`).
//!
//! `--quick` divides every simulated duration by 100, for tests.

use rolo_benchmark::report::{self, object};
use rolo_benchmark::{compare, Metric, SchemePolicy, Series, Summary, Workload, DEFAULT_SEED};
use serde_json::{Number, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Repetitions of each workload in one round of the full run.
const ROUND: [(Workload, usize); 4] = [
    (Workload::Proj0RoloP, 1),
    (Workload::Hm1RoloE, 3),
    (Workload::DenseRaid10, 1),
    (Workload::Hm1RoloEObserved, 2),
];
const ROUNDS: usize = 5;
/// Set-ups timed per workload and round of the full run at the least:
/// one set-up is short and noisy, and `compare` judges their spread.
const SETUPS_PER_ROUND: usize = 3;

/// Set-ups timed per single-workload run at the least, so `setup_s` is
/// a median even when few replays fit in the time.
const MIN_SETUPS: usize = 5;
/// Cap on replays per single-workload run.
const MAX_REPS: usize = 200;

struct Args {
    seed: u64,
    out: PathBuf,
    trace_layers: bool,
    quick: bool,
    workload: Option<Workload>,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        out: PathBuf::from("results/benchmark.json"),
        trace_layers: false,
        quick: false,
        workload: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = PathBuf::from(value()?),
            "--trace-layers" => args.trace_layers = true,
            "--quick" => args.quick = true,
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
                args.workload = Some(w);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = argv.skip(1).collect();
        let [a, b] = files.as_slice() else {
            eprintln!("usage: rolo-benchmark compare A.json B.json");
            return ExitCode::from(2);
        };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(a).and_then(|a| read(b).and_then(|b| compare::compare(&a, &b))) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rolo-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => single(w, &args),
        None => full(&args),
    }
}

fn series_of(all: &mut [Series], w: Workload) -> &mut Series {
    all.iter_mut()
        .find(|s| s.workload == w)
        .expect("one series per workload")
}

/// The full run: interleaved rounds, optional traced replays, JSON out.
fn full(args: &Args) -> ExitCode {
    let mut all: Vec<Series> = Workload::ALL.into_iter().map(Series::new).collect();
    let start = Instant::now();
    for round in 1..=ROUNDS {
        for (w, reps) in ROUND {
            for _ in 0..reps {
                let reference = if w.observed() {
                    series_of(&mut all, Workload::Hm1RoloE).digest()
                } else {
                    None
                };
                let s = series_of(&mut all, w);
                let n = s.attempted() + 1;
                if let Some(rep) = s.rep(args.seed, args.quick, &SchemePolicy, reference) {
                    report::print_rep(w.name(), n, rep);
                }
            }
            let s = series_of(&mut all, w);
            while s.setups() < round * SETUPS_PER_ROUND {
                s.setup_only(args.seed, args.quick);
            }
        }
        eprintln!(
            "round {round}/{ROUNDS} done at {:.1} s",
            start.elapsed().as_secs_f64()
        );
    }
    let mut layers: Vec<Option<Vec<Metric>>> = vec![None; all.len()];
    if args.trace_layers {
        let tax_base = series_of(&mut all, Workload::Hm1RoloE).median_ref_run_s();
        for (s, slot) in all.iter_mut().zip(&mut layers) {
            let base = tax_base.filter(|_| s.workload.observed());
            *slot = s.trace(args.seed, args.quick, &SchemePolicy, base);
        }
        eprintln!(
            "traced replays done at {:.1} s",
            start.elapsed().as_secs_f64()
        );
    }
    for (s, l) in all.iter().zip(&layers) {
        report::print_end_to_end(s);
        if let Some(l) = l {
            report::print_layers(s.workload.name(), l);
        }
    }
    let workloads = all
        .iter()
        .zip(&layers)
        .map(|(s, l)| (s.workload.name(), report::series_json(s, l.as_deref())));
    let doc = object([
        ("seed", Value::Number(Number::from_u64(args.seed))),
        ("quick", Value::Bool(args.quick)),
        ("workloads", object(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("a JSON value serializes");
    if let Some(dir) = args.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("rolo-benchmark: {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&args.out, text + "\n") {
        eprintln!("rolo-benchmark: {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", args.out.display());
    if all.iter().any(|s| !s.failures.is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One workload for about `--seconds`: replays until the next one would
/// overrun the time (at least one), then the traced replay with
/// `--trace 1`.
fn single(w: Workload, args: &Args) -> ExitCode {
    let start = Instant::now();
    // The observed workload must reproduce `hm1_roloe`'s digest, whose
    // replay time is also the observability tax's base.
    let mut reference = w.observed().then(|| Series::new(Workload::Hm1RoloE));
    if let Some(r) = &mut reference {
        r.rep(args.seed, args.quick, &SchemePolicy, None);
    }
    let ref_digest = reference.as_ref().and_then(Series::digest);
    let mut s = Series::new(w);
    let mut rep_s = Vec::new();
    loop {
        let t = Instant::now();
        if let Some(rep) = s.rep(args.seed, args.quick, &SchemePolicy, ref_digest) {
            report::print_rep(w.name(), rep_s.len() + 1, rep);
        }
        rep_s.push(t.elapsed().as_secs_f64());
        // The traced replay takes about one more repetition's time.
        let next = Summary::of(&rep_s).median * if args.trace { 2.5 } else { 1.0 };
        let done = rep_s.len() >= MAX_REPS
            || start.elapsed().as_secs_f64() + next > args.seconds
            || !s.failures.is_empty();
        if done {
            break;
        }
    }
    let metrics = if args.trace {
        let tax_base = reference.as_ref().and_then(Series::median_ref_run_s);
        s.trace(args.seed, args.quick, &SchemePolicy, tax_base)
            .unwrap_or_default()
    } else {
        while s.setups() < MIN_SETUPS {
            s.setup_only(args.seed, args.quick);
        }
        report::end_to_end(&s)
            .iter()
            .map(report::EndToEnd::reported)
            .collect()
    };
    report::print_end_to_end(&s);
    if args.trace {
        report::print_layers(w.name(), &metrics);
    }
    let (mut attempted, mut failed) = (s.attempted(), s.failures.len());
    if let Some(r) = &reference {
        report::print_end_to_end(r);
        attempted += r.attempted();
        failed += r.failures.len();
    }
    println!("{}", report::result_line(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
