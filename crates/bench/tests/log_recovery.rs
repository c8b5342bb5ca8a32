//! Drives `paper log_recovery`: bad arguments each exit 2 with a
//! message naming the argument, before any crash cell runs, and the
//! 42-cell table it prints is pinned to `baselines/paper/`.

mod common;

use std::path::PathBuf;
use std::process::Command;

#[test]
fn bad_arguments_exit_2_naming_the_argument() {
    common::assert_malformed(&[
        ("log_recovery --pairs abc", "--pairs: `abc`"),
        ("log_recovery --pairs 0", "--pairs: `0`"),
        ("log_recovery --secs 1.5", "--secs: `1.5`"),
        ("log_recovery --secs 100", "--secs: `100`"),
        ("log_recovery --secs 240", "--secs: `240`"),
        ("log_recovery --iops -5", "--iops: `-5`"),
        ("log_recovery --iops 0", "--iops: `0`"),
        ("log_recovery --iops inf", "--iops: `inf`"),
        ("log_recovery --iops NaN", "--iops: `NaN`"),
        ("log_recovery --pairs", "missing value for --pairs"),
        ("log_recovery --seed 1", "takes no flag --seed"),
    ]);
}

/// `paper log_recovery` prints exactly `baselines/paper/log_recovery.txt`:
/// every cell is seeded and the cells print in job order. A deliberate
/// change re-blesses the file with `ROLO_BLESS_GOLDEN=1`. Its 42 crash
/// cells take several seconds in a debug build, so it runs in release:
/// `cargo test --release -p rolo-bench -- --ignored`.
#[test]
#[ignore = "42 crash cells; run in release with --ignored"]
fn log_recovery_prints_its_committed_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("log_recovery")
        .env(
            "ROLO_RESULTS_DIR",
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("log_recovery"),
        )
        .output()
        .expect("run paper");
    assert!(out.status.success(), "{out:?}");
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/paper/log_recovery.txt");
    if std::env::var("ROLO_BLESS_GOLDEN").is_ok() {
        std::fs::write(&golden, &out.stdout).expect("write the baseline");
        return;
    }
    let kept = std::fs::read(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
    assert!(
        out.stdout == kept,
        "log_recovery drifted from {}:\n{}",
        golden.display(),
        String::from_utf8_lossy(&out.stdout)
    );
}
