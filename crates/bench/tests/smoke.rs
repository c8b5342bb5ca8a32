//! Drives the `smoke` binary with malformed arguments: each exits 2 with
//! a message naming the bad argument instead of running a default.

use std::process::Command;

#[test]
fn malformed_arguments_exit_2_naming_the_argument() {
    for (args, env, named) in [
        (&["rolo-x"][..], None, "`rolo-x`"),
        (&["rolo-e", "hm_1", "1h"], None, "hours: `1h`"),
        (&["rolo-e", "nosuch"], None, "trace: `nosuch`"),
        (&["rolo-e", "hm_1", "1", "extra"], None, "`extra`"),
        (
            &["rolo-e", "hm_1", "1"],
            Some("abc"),
            "ROLO_E_SPINDOWN_SECS: `abc`",
        ),
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_smoke"));
        cmd.args(args).env_remove("ROLO_E_SPINDOWN_SECS");
        if let Some(secs) = env {
            cmd.env("ROLO_E_SPINDOWN_SECS", secs);
        }
        let out = cmd.output().expect("run smoke");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("smoke: ") && stderr.contains(named),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
