//! `tierscape-cli` argument handling: a malformed number, a repeated flag
//! and a flag with no value are usage errors, never a silent fall-back to
//! one occurrence or to the flag's default.

use std::process::Command;

/// Run `tierscape-cli run` on a tiny scenario plus `extra`; returns the
/// exit code and stderr.
fn run_cli(extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tierscape-cli"))
        .args(["run", "--scale-div", "4096", "--accesses", "1000"])
        .args(extra)
        .output()
        .expect("tierscape-cli runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_fault_rate_exits_two() {
    let (code, stderr) = run_cli(&["--windows", "1", "--fault-rate", "0,1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--fault-rate") && stderr.contains("0,1"),
        "{stderr}"
    );
}

#[test]
fn malformed_window_count_exits_two() {
    let (code, stderr) = run_cli(&["--windows", "6x"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--windows"), "{stderr}");
}

#[test]
fn well_formed_numbers_run() {
    let (code, stderr) = run_cli(&["--windows", "1", "--fault-rate", "0.1"]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn repeated_flag_exits_two() {
    let (code, stderr) = run_cli(&["--windows", "1", "--windows", "6x"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--windows"), "{stderr}");
}

#[test]
fn flag_without_a_value_exits_two() {
    for args in [
        &["--windows", "1", "--seed"][..],
        &["--seed", "--windows", "1"][..],
    ] {
        let (code, stderr) = run_cli(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--seed"), "{args:?}: {stderr}");
    }
}
