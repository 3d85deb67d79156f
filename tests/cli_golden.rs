//! Golden-output tests for the `rtclean` binary.
//!
//! Each case runs the real executable in a scratch directory holding copies
//! of the fixtures under `tests/golden/` (so every path the CLI echoes is a
//! short relative one) and compares its stdout, byte for byte, with the
//! committed `tests/golden/<case>.stdout`. A refactor of the front end must
//! leave all of them untouched; an intended output change regenerates the
//! file by running the case's command from a copy of `tests/golden/`.
//!
//! Hospital's full spectrum takes minutes in a debug build, so hospital is
//! pinned at one relative trust only.

use std::path::{Path, PathBuf};
use std::process::Command;

const FIXTURES: [&str; 2] = ["employees.csv", "mutations.json"];
const FDS: [&str; 4] = ["--fd", "Surname,GivenName->Income", "--fd", "Zip->City"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// A fresh scratch directory for one case, seeded with the fixtures.
fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtclean_golden_{}_{case}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for name in FIXTURES {
        std::fs::copy(golden_dir().join(name), dir.join(name)).unwrap();
    }
    dir
}

/// Runs `rtclean` in `dir`; the run must succeed. Returns its stdout.
fn rtclean(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rtclean"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "rtclean {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn assert_golden(file: &str, actual: &str) {
    let path = golden_dir().join(file);
    let expected = std::fs::read_to_string(&path).unwrap();
    assert!(
        expected == actual,
        "stdout differs from {}\n--- expected\n{expected}--- actual\n{actual}",
        path.display()
    );
}

/// Runs one single-command case in its own scratch directory.
fn golden_case(case: &str, args: &[&str]) {
    let dir = scratch(case);
    assert_golden(&format!("{case}.stdout"), &rtclean(&dir, args));
    std::fs::remove_dir_all(&dir).ok();
}

fn with_fds<'a>(head: &[&'a str], tail: &[&'a str]) -> Vec<&'a str> {
    let mut args = head.to_vec();
    args.extend_from_slice(&FDS);
    args.extend_from_slice(tail);
    args
}

#[test]
fn scenario_list() {
    golden_case("scenario_list", &["scenario", "list"]);
}

#[test]
fn scenario_warehouse_spectrum() {
    golden_case(
        "scenario_warehouse_spectrum",
        &["scenario", "warehouse", "--rows", "10000"],
    );
}

#[test]
fn scenario_warehouse_tau_r() {
    golden_case(
        "scenario_warehouse_tau_r",
        &["scenario", "warehouse", "--rows", "10000", "--tau-r", "0.5"],
    );
}

#[test]
fn scenario_hospital_tau_r() {
    golden_case(
        "scenario_hospital_tau_r",
        &["scenario", "hospital", "--tau-r", "0.5"],
    );
}

#[test]
fn main_form_tau_with_output() {
    let dir = scratch("main_tau_output");
    let stdout = rtclean(
        &dir,
        &with_fds(&["employees.csv"], &["--tau", "1", "--output", "out.csv"]),
    );
    assert_golden("main_tau_output.stdout", &stdout);
    // The τ = 1 repair relaxes the FDs only, so the written instance is
    // the input, byte for byte.
    assert_eq!(
        std::fs::read_to_string(dir.join("out.csv")).unwrap(),
        std::fs::read_to_string(golden_dir().join("employees.csv")).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn apply_verify_per_op() {
    golden_case(
        "apply_verify_per_op",
        &with_fds(
            &["apply", "employees.csv"],
            &["--log", "mutations.json", "--per-op", "--verify"],
        ),
    );
}

#[test]
fn apply_verify_batch() {
    golden_case(
        "apply_verify_batch",
        &with_fds(
            &["apply", "employees.csv"],
            &["--log", "mutations.json", "--batch", "--verify"],
        ),
    );
}

#[test]
fn snapshot_then_restore() {
    let dir = scratch("snapshot_restore");
    let snapshot = rtclean(
        &dir,
        &with_fds(&["snapshot", "employees.csv"], &["--output", "emp.snap"]),
    );
    assert_golden("snapshot.stdout", &snapshot);
    let restored = rtclean(&dir, &["restore", "emp.snap", "--tau", "1"]);
    assert_golden("restore_tau.stdout", &restored);
    std::fs::remove_dir_all(&dir).ok();
}
