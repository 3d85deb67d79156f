//! Argument handling of the `exp` binary: every bad command line is a
//! usage error with a non-zero exit, before any experiment runs.

use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn bad_command_lines_are_usage_errors() {
    let cases: [(&[&str], &str); 7] = [
        (
            &["quality_vs_trust", "--scale", "huge"],
            "unknown --scale `huge`",
        ),
        (&["par_speedup", "--threads", "many"], "--threads"),
        (
            &["par_speedup", "--threads"],
            "missing value after `--threads`",
        ),
        (&["figure99"], "unknown experiment `figure99`"),
        (&[], "missing experiment name"),
        (&["scal_fds", "--threads", "2"], "par_speedup only"),
        (&["scal_fds", "--bogus"], "unknown option `--bogus`"),
    ];
    for (line, expected) in cases {
        let out = exp(line);
        assert_eq!(out.status.code(), Some(2), "exp {line:?}");
        assert!(out.stdout.is_empty(), "exp {line:?} ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "exp {line:?} said {stderr:?}");
        assert!(
            stderr.contains("usage: exp"),
            "exp {line:?} said {stderr:?}"
        );
    }
}

#[test]
fn help_lists_every_experiment_and_exits_zero() {
    let out = exp(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "quality_vs_trust",
        "vs_unified_cost",
        "scal_tuples",
        "scal_attrs",
        "scal_fds",
        "effect_tau",
        "multi_repairs",
        "par_speedup",
    ] {
        assert!(stdout.contains(name), "help lacks {name}: {stdout}");
    }
}
