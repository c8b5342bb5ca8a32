//! The check shared by the suites that drive the `paper` binary with
//! malformed arguments.

use std::process::Command;

/// Runs `paper` on each whitespace-split `line` and asserts that it
/// exits 2 before anything runs: nothing on stdout, and an error line
/// that starts `paper <subcommand>: ` and contains `named`. Only that
/// first line is searched, because the usage text printed after it
/// names every flag.
pub fn assert_malformed(cases: &[(&str, &str)]) {
    for &(line, named) in cases {
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(&args)
            .output()
            .expect("run paper");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.starts_with(&format!("paper {}: ", args[0])) && error.contains(named),
            "{line}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{line} ran anyway");
    }
}
