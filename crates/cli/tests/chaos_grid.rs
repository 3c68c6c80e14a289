//! The cells of the `cascade chaos` axis × mode grid that have no driver
//! are usage errors (exit 2) naming the combination and the reason — not
//! an `unknown option` for a flag every other cell accepts.

use cascade_cli::{run, ErrorKind};

fn assert_rejected(args: &[&str], why: &str) {
    let err = run(["chaos"].iter().chain(args).copied()).expect_err("no such cell");
    assert_eq!(
        (err.kind(), err.exit_code()),
        (ErrorKind::Usage, 2),
        "{err}"
    );
    let cell = format!(
        "{} cannot be combined with {}",
        args[0],
        args[1..].join(" ")
    );
    assert!(err.message().contains(&cell), "{err}");
    assert!(err.message().contains(why), "{err}");
}

#[test]
fn corrupt_storm_rejects_plan_mode() {
    assert_rejected(&["--corrupt", "--mode", "plan"], "no verify protocol");
}

#[test]
fn corrupt_storm_rejects_the_ladder_modifiers() {
    assert_rejected(&["--corrupt", "--cancel"], "before its planned flips fire");
    assert_rejected(&["--corrupt", "--mid-mutation"], "ladder axis");
}

#[test]
fn kill_storm_rejects_plan_mode_and_the_ladder_modifiers() {
    assert_rejected(&["--kill", "--mode", "plan"], "no checkpoints to resume");
    assert_rejected(&["--kill", "--cancel"], "nothing is left to cancel");
    assert_rejected(&["--kill", "--mid-mutation"], "only fault");
}

#[test]
fn kill_storm_rejects_corrupt() {
    assert_rejected(&["--kill", "--corrupt"], "no verify policy");
}

#[test]
fn an_unknown_mode_is_a_usage_error() {
    let err = run(["chaos", "--mode", "warp"]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Usage, "{err}");
    assert!(err.message().contains("cascade|plan"), "{err}");
}
