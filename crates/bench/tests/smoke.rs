//! Drives `paper run` with malformed arguments: each exits 2 with a
//! message naming the bad argument instead of running a default.

mod common;

#[test]
fn malformed_arguments_exit_2_naming_the_argument() {
    common::assert_malformed(&[
        ("run rolo-x", "`rolo-x`"),
        ("run rolo-e hm_1 1h", "hours: `1h`"),
        ("run rolo-e nosuch", "trace: `nosuch`"),
        ("run rolo-e hm_1 1 extra", "`extra`"),
        ("run --pairs x", "--pairs: `x`"),
        ("run --hours abc", "takes no flag --hours"),
    ]);
}
