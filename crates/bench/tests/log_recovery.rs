//! Drives the `log_recovery` binary with bad arguments: each exits 2
//! with a message naming the argument, before any crash cell runs.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_naming_the_argument() {
    for (args, named) in [
        (&["--pairs", "abc"][..], "--pairs: `abc`"),
        (&["--pairs", "0"][..], "--pairs: `0`"),
        (&["--secs", "1.5"][..], "--secs: `1.5`"),
        (&["--secs", "100"][..], "--secs: `100`"),
        (&["--secs", "240"][..], "--secs: `240`"),
        (&["--iops", "-5"][..], "--iops: `-5`"),
        (&["--iops", "0"][..], "--iops: `0`"),
        (&["--iops", "inf"][..], "--iops: `inf`"),
        (&["--iops", "NaN"][..], "--iops: `NaN`"),
        (&["--pairs"][..], "--pairs: missing value"),
        (&["--seed", "1"][..], "`--seed`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_log_recovery"))
            .args(args)
            .output()
            .expect("run log_recovery");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("log_recovery: ") && stderr.contains(named),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
