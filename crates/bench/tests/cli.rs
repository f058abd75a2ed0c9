//! End-to-end tests of the `repro` binary's error paths: malformed
//! targets and unwritable output paths must produce structured messages
//! and nonzero exits, never panics.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn stderr_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_target_is_a_usage_error() {
    let out = repro()
        .arg("NotAnExperiment")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("unknown experiment or workload 'NotAnExperiment'"),
        "stderr must name the bad target:\n{err}"
    );
    assert!(!err.contains("panicked"), "no panic on bad input:\n{err}");
}

#[test]
fn unwritable_metrics_out_fails_with_context() {
    let out = repro()
        .args(["CallIn", "--metrics-out", "/nonexistent-dir/m.summary"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(
        err.contains("cannot write metrics to /nonexistent-dir/m.summary"),
        "stderr must name the unwritable path:\n{err}"
    );
    assert!(!err.contains("panicked"), "no panic on bad path:\n{err}");
}

#[test]
fn unwritable_trace_out_fails_with_context() {
    let out = repro()
        .args(["CallIn", "--trace-out", "/nonexistent-dir/t.json"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(
        err.contains("cannot write trace to /nonexistent-dir/t.json"),
        "stderr must name the unwritable path:\n{err}"
    );
    assert!(!err.contains("panicked"), "no panic on bad path:\n{err}");
}

/// `/dev/full` accepts the open and fails every write, so the events
/// the stream buffered are lost at the final flush.
#[test]
#[cfg(target_os = "linux")]
fn jsonl_out_write_errors_fail_the_run() {
    let out = repro()
        .args(["Email", "--jsonl-out", "/dev/full"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(
        err.contains("cannot write events to /dev/full"),
        "stderr must name the unwritable path:\n{err}"
    );
    assert!(!err.contains("panicked"), "no panic on a full disk:\n{err}");
}

#[test]
fn diff_of_missing_files_is_a_usage_error() {
    let out = repro()
        .args(["diff", "/nonexistent/a.summary", "/nonexistent/b.summary"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("cannot read /nonexistent/a.summary"));
}

#[test]
fn malformed_flag_values_are_usage_errors() {
    for args in [
        ["--jobs", "zero"].as_slice(),
        ["--scale", "0"].as_slice(),
        ["--tolerance", "-1"].as_slice(),
        ["--scheme", "16PS"].as_slice(),
    ] {
        let out = repro().args(args).output().expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(!stderr_of(&out).contains("panicked"), "args {args:?}");
    }
}

#[test]
#[expect(
    clippy::let_underscore_must_use,
    reason = "best-effort removal of a scratch directory that may not exist"
)]
fn a_bad_target_anywhere_in_the_list_runs_nothing() {
    for (i, args) in [
        ["fig3", "Bogus"].as_slice(),
        ["table4", "fig3", "--scale", "2"].as_slice(),
        ["fig8", "--scale", "2"].as_slice(),
    ]
    .into_iter()
    .enumerate()
    {
        let out_dir = std::env::temp_dir().join(format!("repro-cli-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out_dir);
        let out = repro()
            .args(args)
            .arg("--out")
            .arg(&out_dir)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?} printed output");
        let wrote = std::fs::read_dir(&out_dir).is_ok_and(|mut d| d.next().is_some());
        let _ = std::fs::remove_dir_all(&out_dir);
        assert!(!wrote, "args {args:?} wrote under --out");
    }
}
