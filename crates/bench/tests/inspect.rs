//! Drives the `inspect` binary end to end on short windows: the gates CI
//! relies on pass on good runs, the strengthened `diff --check` catches
//! a same-inputs divergence, and malformed arguments exit 2.

use serde_json::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// An empty directory for one test, under Cargo's per-target
/// temporary directory.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("inspect_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test directory");
    dir
}

/// Runs `inspect` with `args`, writing default artifacts under `dir`.
fn inspect(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inspect"))
        .args(args)
        .env("ROLO_RESULTS_DIR", dir)
        .output()
        .expect("run inspect")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exited normally")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Exports `rolo-e hm_1 1 --pairs 10 --seed 1` (the CI export run) into
/// `dir` and returns the path of its JSON document.
fn export(dir: &Path) -> PathBuf {
    let out_dir = dir.to_str().expect("utf-8 path");
    let out = inspect(
        dir,
        &[
            "export",
            "rolo-e",
            "hm_1",
            "1",
            "--pairs",
            "10",
            "--seed",
            "1",
            "--tag",
            "a",
            "--out-dir",
            out_dir,
        ],
    );
    assert_eq!(code(&out), 0, "export failed: {}", stderr(&out));
    dir.join("a.json")
}

/// `doc` with the value at `path` replaced by `edit(old)`. Path steps
/// are object keys, or array indices for arrays.
fn edited(doc: &Value, path: &[&str], edit: &dyn Fn(&Value) -> Value) -> Value {
    let Some((step, rest)) = path.split_first() else {
        return edit(doc);
    };
    match doc {
        Value::Object(map) => {
            let mut out = Map::new();
            for (k, v) in map.iter() {
                let v = if k == *step {
                    edited(v, rest, edit)
                } else {
                    v.clone()
                };
                out.insert(k.clone(), v);
            }
            Value::Object(out)
        }
        Value::Array(items) => {
            let i: usize = step.parse().expect("array index");
            let items = items.iter().enumerate();
            Value::Array(
                items
                    .map(|(j, v)| {
                        if j == i {
                            edited(v, rest, edit)
                        } else {
                            v.clone()
                        }
                    })
                    .collect(),
            )
        }
        _ => panic!("path step {step} into a scalar"),
    }
}

/// Index of the first element of `doc[key]` for which `pick` holds.
fn position(doc: &Value, key: &str, pick: impl Fn(&Value) -> bool) -> String {
    let items = doc[key].as_array().expect("array");
    items
        .iter()
        .position(pick)
        .expect("element present")
        .to_string()
}

#[test]
fn dump_check_passes_on_a_clean_stream() {
    let dir = fresh_dir("dump");
    let jsonl = dir.join("dump.jsonl");
    let out = inspect(
        &dir,
        &[
            "dump",
            "rolo-p",
            "src2_2",
            "0.25",
            "--check",
            "--out",
            jsonl.to_str().unwrap(),
        ],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("JSONL lines parse cleanly"), "{stdout}");
    assert!(jsonl.exists());
}

#[test]
fn diff_self_compare_passes_and_a_same_inputs_divergence_fails() {
    let dir = fresh_dir("diff");
    let a = export(&dir);
    let a_path = a.to_str().unwrap();
    let out = inspect(&dir, &["diff", a_path, a_path, "--check"]);
    assert_eq!(code(&out), 0, "self-compare: {}", stderr(&out));

    // Same run inputs, but window 30's event checksum loses one bit and
    // its mean power rises 2 %: the mean response does not move, so
    // only the same-inputs rule can catch it.
    let doc = serde_json::from_str(&std::fs::read_to_string(&a).unwrap()).unwrap();
    let w30 = |v: &Value| v["window"].as_u64() == Some(30);
    let checksum = position(&doc, "event_checksums", w30);
    let fnv = ["event_checksums", &checksum, "fnv"];
    let doc = edited(&doc, &fnv, &|v| {
        Value::Number(serde_json::Number::from_u64(v.as_u64().unwrap() ^ 1))
    });
    let power = position(&doc["telemetry"], "series", |s| {
        s["name"].as_str() == Some("sim.power_w")
    });
    let window = position(
        &doc["telemetry"]["series"][power.parse::<usize>().unwrap()],
        "windows",
        w30,
    );
    let mean = [
        "telemetry",
        "series",
        &power,
        "windows",
        &window,
        "value",
        "Gauge",
        "mean",
    ];
    let doc = edited(&doc, &mean, &|v| {
        Value::Number(serde_json::Number::from_f64(v.as_f64().unwrap() * 1.02))
    });
    let b = dir.join("b.json");
    std::fs::write(&b, doc.to_string()).unwrap();

    let out = inspect(&dir, &["diff", a_path, b.to_str().unwrap(), "--check"]);
    let err = stderr(&out);
    assert_eq!(code(&out), 1, "tampered export passed: {err}");
    assert!(err.contains("event streams diverge at window 30"), "{err}");
    assert!(err.contains("sim.power_w"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mean_line = stdout
        .lines()
        .find(|l| l.contains("mean response (ms)"))
        .expect("mean response delta printed");
    assert!(mean_line.ends_with("(   +0.00%)"), "{mean_line}");
}

/// `inspect spans proj_0 2 --top 5` prints, and writes to
/// `span_report.json`, exactly the bytes committed under
/// `baselines/inspect/`: the attribution table, PARAID's delayed-leg
/// line and each scheme's five slowest requests.
#[test]
fn spans_top_reproduces_its_committed_table_and_report() {
    let dir = fresh_dir("spans");
    // A relative results directory keeps the printed path fixed.
    let out = Command::new(env!("CARGO_BIN_EXE_inspect"))
        .args(["spans", "proj_0", "2", "--top", "5"])
        .current_dir(&dir)
        .env("ROLO_RESULTS_DIR", "results")
        .output()
        .expect("run inspect");
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/inspect");
    let read = |p: PathBuf| std::fs::read(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    assert!(
        out.stdout == read(committed.join("spans_proj_0_2h_top5.txt")),
        "stdout drifted:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        read(dir.join("results/span_report.json"))
            == read(committed.join("span_report_proj_0_2h.json")),
        "span_report.json drifted"
    );
}

#[test]
fn rca_expect_clean_passes_on_rolo_p() {
    let dir = fresh_dir("rca");
    let out = inspect(
        &dir,
        &[
            "rca",
            "rolo-p",
            "hm_1",
            "0.5",
            "--pairs",
            "10",
            "--check",
            "--expect-clean",
        ],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(dir.join("rca_rolo-p_hm_1.json").exists());
}

#[test]
fn malformed_arguments_exit_2_with_a_message() {
    let dir = fresh_dir("args");
    for args in [
        &["dump", "--bogus"][..],
        &["spans", "src2_2", "1h"],
        &["dump", "rolo-p", "src2_2", "1", "--seed", "x"],
        &["spans", "src2_2", "1", "--top"],
        &["spans", "nosuch", "1"],
        &["dump", "rolo-p", "src2_2", "-1"],
        &["rca", "--exemplars", "8"],
        &["diff", "a.json"],
        &[],
    ] {
        let out = inspect(&dir, args);
        assert_eq!(code(&out), 2, "{args:?}");
        assert!(stderr(&out).starts_with("inspect: "), "{args:?}");
    }
    let help = inspect(&dir, &["--help"]);
    assert_eq!(code(&help), 0);
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage: inspect"));
}
