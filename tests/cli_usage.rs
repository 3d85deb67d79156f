//! Command-line contract of the `rtclean` binary: `--help` goes to stdout
//! and succeeds, usage errors go to stderr and fail, `--output` is refused
//! where there is no single repair to write, and a clean input is repaired
//! (and written) like any other.

use std::path::PathBuf;
use std::process::{Command, Output};

fn rtclean(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtclean"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtclean_usage_{}_{case}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let dir = scratch("help");
    let lines: [&[&str]; 9] = [
        &["--help"],
        &["-h"],
        &["data.csv", "--fd", "A->B", "--help"],
        &["apply", "--help"],
        &["scenario", "--help"],
        &["snapshot", "-h"],
        &["restore", "--help"],
        &["serve", "--help"],
        &["connect", "--help"],
    ];
    for line in lines {
        let out = rtclean(&dir, line);
        assert_eq!(out.status.code(), Some(0), "rtclean {line:?}");
        assert!(
            text(&out.stdout).starts_with("usage: rtclean"),
            "rtclean {line:?} printed {:?}",
            text(&out.stdout)
        );
        assert!(
            out.stderr.is_empty(),
            "rtclean {line:?}: {}",
            text(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_go_to_stderr_and_exit_one() {
    let dir = scratch("errors");
    let cases: [(&[&str], &str); 5] = [
        (&[], "usage: rtclean"),
        (
            &["data.csv", "--fd", "A->B", "--bogus"],
            "unknown option `--bogus`",
        ),
        (
            &["restore", "s.snap", "--seed", "3"],
            "unknown option `--seed`",
        ),
        (&["serve", "--bogus"], "unknown serve option `--bogus`"),
        (&["connect", "a:1", "b:2"], "usage: rtclean connect"),
    ];
    for (line, expected) in cases {
        let out = rtclean(&dir, line);
        assert_eq!(out.status.code(), Some(1), "rtclean {line:?}");
        assert!(
            out.stdout.is_empty(),
            "rtclean {line:?}: {}",
            text(&out.stdout)
        );
        assert!(
            text(&out.stderr).contains(expected),
            "rtclean {line:?} said {:?}",
            text(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn output_without_a_single_repair_is_a_usage_error() {
    let dir = scratch("output_spectrum");
    std::fs::write(dir.join("in.csv"), "A,B\n1,1\n1,2\n").unwrap();
    let lines: [&[&str]; 4] = [
        &["in.csv", "--fd", "A->B", "--output", "out.csv"],
        &[
            "in.csv",
            "--fd",
            "A->B",
            "--tau",
            "1",
            "--spectrum",
            "--output",
            "out.csv",
        ],
        &["scenario", "hospital", "--output", "out.csv"],
        &["restore", "in.snap", "--output", "out.csv"],
    ];
    for line in lines {
        let out = rtclean(&dir, line);
        assert_eq!(out.status.code(), Some(1), "rtclean {line:?}");
        let stderr = text(&out.stderr);
        assert!(
            stderr.contains("--tau ") && stderr.contains("--tau-r"),
            "rtclean {line:?} said {stderr:?}"
        );
        assert!(!dir.join("out.csv").exists(), "rtclean {line:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_input_is_repaired_and_written() {
    let dir = scratch("clean");
    let input = "A,B,C\n1,10,x\n1,10,y\n2,20,z\n";
    std::fs::write(dir.join("clean.csv"), input).unwrap();
    let out = rtclean(
        &dir,
        &[
            "clean.csv",
            "--fd",
            "A->B",
            "--tau",
            "0",
            "--output",
            "out.csv",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("0 conflicting tuple pairs"), "{stdout}");
    assert!(stdout.contains("cell changes : 0"), "{stdout}");
    assert_eq!(std::fs::read_to_string(dir.join("out.csv")).unwrap(), input);
    std::fs::remove_dir_all(&dir).ok();
}
