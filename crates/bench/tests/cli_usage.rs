//! `repro` rejects numeric flags it cannot run with a usage error: exit 2
//! and a message naming the flag, before any simulation starts — never a
//! panic, a silently empty run, or a run that cannot end.

use std::process::Command;

/// Run `repro` with `args`; return its exit code and standard error.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

fn assert_usage_error(args: &[&str], flag: &str) {
    let (code, stderr) = repro(args);
    assert_eq!(code, Some(2), "repro {args:?}: {stderr}");
    assert!(
        stderr.contains(flag),
        "repro {args:?} must name {flag}: {stderr}"
    );
}

#[test]
fn stream_rejects_horizons_it_cannot_run() {
    for until in ["NaN", "-5", "0", "inf", "1e300", "soon"] {
        assert_usage_error(
            &["stream", "--synthetic", "poisson", "--until", until],
            "--until",
        );
    }
}

#[test]
fn stream_and_trace_reject_rates_they_cannot_sample() {
    for rate in ["0", "NaN", "-1", "inf"] {
        assert_usage_error(
            &[
                "stream",
                "--synthetic",
                "poisson",
                "--until",
                "60",
                "--rate",
                rate,
            ],
            "--rate",
        );
        assert_usage_error(
            &["trace", "--synthetic", "poisson", "--rate", rate],
            "--rate",
        );
    }
}

#[test]
fn trace_rejects_compressions_and_thinnings_out_of_range() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../../traces/paper_fixed.csv");
    for factor in ["0", "NaN", "-2", "inf"] {
        assert_usage_error(
            &["trace", "--file", file, "--compress", factor],
            "--compress",
        );
    }
    for keep in ["0", "NaN", "-1", "1.5"] {
        assert_usage_error(&["trace", "--file", file, "--thin", keep], "--thin");
    }
}

#[test]
fn trace_rejects_zero_counts() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../../traces/paper_fixed.csv");
    assert_usage_error(
        &["trace", "--synthetic", "poisson", "--workers", "0"],
        "--workers",
    );
    assert_usage_error(&["trace", "--file", file, "--workers", "0"], "--workers");
    assert_usage_error(
        &["trace", "--synthetic", "poisson", "--jobs", "0"],
        "--jobs",
    );
}

#[test]
fn in_range_values_still_run() {
    let (code, stderr) = repro(&[
        "stream",
        "--synthetic",
        "poisson",
        "--until",
        "60",
        "--rate",
        "0.05",
        "--workers",
        "2",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
}
