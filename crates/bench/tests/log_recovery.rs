//! Drives `paper log_recovery` with bad arguments: each exits 2 with a
//! message naming the argument, before any crash cell runs.

mod common;

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
