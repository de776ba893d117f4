//! Integration tests for ts-lint: fixture coverage (each rule fires exactly
//! once on its fixture tree), the workspace self-check, and the binary's
//! exit codes and JSON report.

use std::path::{Path, PathBuf};
use std::process::Command;

use ts_lint::{scan_root, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

/// Scan a fixture tree and return (live, suppressed) findings.
fn scan_fixture(name: &str) -> (Vec<ts_lint::Finding>, Vec<ts_lint::Finding>) {
    let findings = scan_root(&fixture(name)).expect("fixture tree scans");
    findings.into_iter().partition(|f| !f.suppressed)
}

#[test]
fn each_rule_fixture_triggers_exactly_once() {
    let cases = [
        ("wall_clock", Rule::NoWallClock),
        ("unordered_iter", Rule::NoUnorderedIter),
        ("bare_unwrap", Rule::NoBareUnwrap),
        ("float_ordering", Rule::FloatOrdering),
        ("thread_hygiene", Rule::ThreadHygiene),
        ("bad_allow", Rule::BadAllow),
    ];
    for (name, rule) in cases {
        let (live, _) = scan_fixture(name);
        assert_eq!(live.len(), 1, "{name}: expected one finding, got {live:?}");
        assert_eq!(live[0].rule, rule, "{name}");
    }
}

#[test]
fn clean_fixture_has_no_live_findings_and_one_suppression() {
    let (live, suppressed) = scan_fixture("clean");
    assert!(live.is_empty(), "clean fixture must be clean: {live:?}");
    assert_eq!(suppressed.len(), 1, "{suppressed:?}");
    assert_eq!(suppressed[0].rule, Rule::NoWallClock);
    assert!(suppressed[0].reason.is_some());
}

#[test]
fn workspace_has_no_live_findings() {
    let findings = scan_root(&workspace_root()).expect("workspace scans");
    let live: Vec<_> = findings.iter().filter(|f| !f.suppressed).collect();
    assert!(live.is_empty(), "workspace has live findings: {live:?}");
    // Every suppression must carry a reason (the scanner only suppresses
    // with one, so this is a sanity check on the invariant).
    for f in findings.iter().filter(|f| f.suppressed) {
        assert!(f.reason.is_some(), "suppressed without reason: {f:?}");
    }
}

// --- binary-level checks -------------------------------------------------

fn ts_lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ts-lint"))
}

#[test]
fn binary_exits_zero_on_workspace() {
    let out = ts_lint()
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("ts-lint runs");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binary_exits_nonzero_on_each_rule_fixture() {
    for name in [
        "wall_clock",
        "unordered_iter",
        "bare_unwrap",
        "float_ordering",
        "thread_hygiene",
        "bad_allow",
    ] {
        let out = ts_lint()
            .arg("--root")
            .arg(fixture(name))
            .output()
            .expect("ts-lint runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_exits_zero_on_clean_fixture() {
    let out = ts_lint()
        .arg("--root")
        .arg(fixture("clean"))
        .output()
        .expect("ts-lint runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn binary_json_report_parses_and_flags_fixture() {
    let out = ts_lint()
        .arg("--root")
        .arg(fixture("float_ordering"))
        .arg("--format")
        .arg("json")
        .output()
        .expect("ts-lint runs");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value = serde_json::from_str(&json).expect("JSON output parses");
    let top = v.as_object().expect("top level is an object");
    assert_eq!(top["ok"].as_bool(), Some(false));
    let live = top["rules"]
        .as_object()
        .and_then(|r| r["float-ordering"].as_object());
    assert_eq!(live.and_then(|r| r["live"].as_u64()), Some(1));
    let findings = top["findings"].as_array().expect("findings is an array");
    assert_eq!(findings.len(), 1);
    let rule = findings[0].as_object().and_then(|f| f["rule"].as_str());
    assert_eq!(rule, Some("float-ordering"));
}

#[test]
fn binary_usage_error_is_exit_two() {
    let out = ts_lint().arg("--bogus").output().expect("ts-lint runs");
    assert_eq!(out.status.code(), Some(2));
}
