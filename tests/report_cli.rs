//! Command-line contract of the `report` binary. `ci/check.sh` diffs a full
//! run against `perfbench/expected/paper/`; these are the cheap checks.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("failed to spawn report")
}

#[test]
fn machines_section_matches_the_pinned_text() {
    // The only section that runs no simulation, so it is fast in debug.
    let out = report(&["machines"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("../perfbench/expected/paper/machines.txt")
    );
}

#[test]
fn unknown_section_exits_one_and_lists_the_valid_ones() {
    let out = report(&["bogus"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "valid: machines, fig3, table2, fig9, fig10, fig11, fig12, table3, table4, fig13, \
             predictors, ablations"
        ),
        "{stderr}"
    );
}

#[test]
fn help_exits_zero() {
    assert_eq!(report(&["--help"]).status.code(), Some(0));
}
