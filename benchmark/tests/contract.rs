//! The benchmark's output contract, checked on `--quick` runs: the
//! metric names and units of `BENCHMARK.json`, no failed replays, and
//! replays that are the computation the simulator's public entry point
//! performs.

use rolo_benchmark::stats::fnv1a;
use rolo_benchmark::{SchemePolicy, Series, Workload, BENCHMARK_JSON};
use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rolo-benchmark");

fn spec() -> Value {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    spec()[key]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m[k].as_str().expect("a string").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric in a report object.
fn reported(metrics: &Value) -> Vec<(String, String)> {
    metrics
        .as_object()
        .expect("a metrics object")
        .iter()
        .map(|(k, v)| (k.clone(), v["unit"].as_str().expect("a unit").to_owned()))
        .collect()
}

fn full_quick_run(seed: u64, extra: &[&str]) -> Value {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{seed}.json"));
    let status = Command::new(BIN)
        .args(["--quick", "--seed", &seed.to_string(), "--out"])
        .arg(&out)
        .args(extra)
        .status()
        .expect("the benchmark starts");
    assert!(status.success(), "full run failed: {status}");
    let text = std::fs::read_to_string(&out).expect("the run wrote its JSON");
    serde_json::from_str(&text).expect("the output JSON parses")
}

fn last_line(args: &[&str]) -> Value {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    serde_json::from_str(stdout.lines().last().expect("some output")).expect("a JSON last line")
}

#[test]
fn full_run_reports_exactly_the_listed_metrics() {
    let run = full_quick_run(11, &["--trace-layers"]);
    let workloads = run["workloads"].as_object().expect("workloads");
    let names: Vec<&str> = workloads.keys().map(String::as_str).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    let spec_names: Vec<String> = spec()["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("a name").to_owned())
        .collect();
    assert_eq!(spec_names, expected);
    for (name, w) in workloads.iter() {
        assert_eq!(w["failed"].as_u64(), Some(0), "{name}: {}", w["failures"]);
        assert!(w["attempted"].as_u64() > Some(0), "{name}");
        let heap = w["end_to_end"]["peak_heap_mb"]["values"]
            .as_array()
            .expect("heap samples");
        assert!(
            heap.windows(2).all(|p| p[0] == p[1]),
            "{name}: peak heap differs between replays: {heap:?}"
        );
        assert_eq!(reported(&w["end_to_end"]), listed("end_to_end"), "{name}");
        assert_eq!(reported(&w["per_layer"]), listed("per_layer"), "{name}");
        let share = |k: &str| w["per_layer"][k]["value"].as_f64().expect("a share");
        let total: f64 = [
            "policy.user_request.share",
            "policy.io_complete.share",
            "policy.timer.share",
            "policy.power.share",
            "driver.share",
            "trace.pull_share",
            "obs.sink.share",
        ]
        .into_iter()
        .map(share)
        .sum();
        assert!((total - 100.0).abs() < 0.5, "{name}: shares sum to {total}");
    }
    assert_eq!(
        run["workloads"]["hm1_roloe"]["digest"], run["workloads"]["hm1_roloe_observed"]["digest"],
        "observability changed the simulation"
    );
}

#[test]
fn seeds_change_the_records() {
    let a = full_quick_run(1, &[]);
    let b = full_quick_run(2, &[]);
    for w in Workload::ALL {
        let hash = |run: &Value| run["workloads"][w.name()]["record_hash"].clone();
        assert!(hash(&a).as_str().is_some(), "{}", w.name());
        assert_ne!(hash(&a), hash(&b), "{}", w.name());
    }
}

#[test]
fn single_workload_runs_print_the_result_line() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args = [
            "--quick",
            "--workload",
            "hm1_roloe_observed",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ];
        let line = last_line(&args);
        let keys: Vec<&String> = line.as_object().expect("an object").keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line["correct"].as_bool(), Some(true), "{line}");
        assert_eq!(line["failed"].as_u64(), Some(0));
        assert_eq!(reported(&line["metrics"]), listed(list));
    }
}

#[test]
fn unknown_arguments_are_refused() {
    let status = Command::new(BIN)
        .args(["--workload", "nope"])
        .status()
        .expect("the benchmark starts");
    assert!(!status.success());
}

#[test]
fn replays_match_the_public_entry_point() {
    for w in Workload::ALL {
        let mut s = Series::new(w);
        s.rep(3, true, &SchemePolicy, None);
        assert!(s.failures.is_empty(), "{:?}", s.failures);
        let input = w.setup(3, true);
        let (sink, spans) = w.observers();
        let (report, _) =
            rolo_core::run_scheme_observed(&input.cfg, input.records, input.duration, sink, spans);
        let digest = fnv1a(report.deterministic_json().as_bytes());
        assert_eq!(s.digest(), Some(digest), "{}", w.name());
    }
}

#[test]
fn comparing_a_run_with_itself_finds_nothing_worse() {
    let run = full_quick_run(4, &[]);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick-4.json");
    assert!(run["workloads"].as_object().is_some());
    let out = Command::new(BIN)
        .arg("compare")
        .args([&path, &path])
        .output()
        .expect("the benchmark starts");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains(" worse"), "{text}");
}
