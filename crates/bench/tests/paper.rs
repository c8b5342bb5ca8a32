//! Drives the `paper` binary: a malformed subcommand or study flag
//! exits 2 with a message naming the argument before anything runs
//! (`run`'s and `log_recovery`'s own flags are in `smoke.rs` and
//! `log_recovery.rs`), a study that cannot write its results exits 1,
//! the two studies whose committed results the simulator still
//! reproduces regenerate them byte for byte, and two runs of one `run
//! --json` invocation write the same bytes.

mod common;

use std::path::PathBuf;
use std::process::Command;

#[test]
fn malformed_invocations_exit_2_naming_the_argument() {
    common::assert_malformed(&[
        ("nosuch", "unknown subcommand `nosuch`"),
        ("fig9 --seeds 3", "takes no flag --seeds"),
        ("fig10 --week-secs 0", "--week-secs: `0`"),
        ("all --week-secs 1h", "--week-secs: `1h`"),
        ("scrub_study --seeds 0", "--seeds: `0`"),
    ]);
}

#[test]
fn a_study_that_cannot_write_its_results_exits_1() {
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("paper_results_is_a_file");
    std::fs::write(&file, "").expect("scratch file");
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["table1", "--week-secs", "60"])
        .env("ROLO_RESULTS_DIR", file.join("results"))
        .output()
        .expect("run paper");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
}

#[test]
fn fig9_and_recovery_study_regenerate_their_committed_results() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("paper_results");
    let _ = std::fs::remove_dir_all(&dir);
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for study in ["fig9", "recovery_study"] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .arg(study)
            .env("ROLO_RESULTS_DIR", &dir)
            .output()
            .expect("run paper");
        assert!(out.status.success(), "{study}: {out:?}");
        let file = format!("{study}.json");
        let fresh = std::fs::read(dir.join(&file)).expect("the study wrote its rows");
        let kept = std::fs::read(committed.join(&file)).expect("committed results");
        assert!(fresh == kept, "{study} no longer reproduces results/{file}");
    }
}

#[test]
fn run_json_is_byte_identical_across_runs() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let files = ["paper_run_a.json", "paper_run_b.json"].map(|f| dir.join(f));
    for file in &files {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(["run", "rolo-p", "src2_2", "0.05", "--pairs", "2", "--json"])
            .arg(file)
            .output()
            .expect("run paper");
        assert!(out.status.success(), "{out:?}");
    }
    let [a, b] = files.map(|f| std::fs::read(f).expect("the run wrote its report"));
    assert!(
        !a.is_empty() && a == b,
        "`run --json` differs between two runs"
    );
}
