//! `repro` rejects flags it cannot run with a usage error: exit 2 and a
//! message naming the flag, before any simulation starts — never a panic,
//! a silently empty run, a run that cannot end, or a run of the defaults.

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
    // Past 250000 jobs/s the bursty preset would burst faster than one
    // arrival per 1 us tick, which the sampler refuses with a panic.
    for rate in ["0", "NaN", "-1", "inf", "1e308", "1e12", "250001"] {
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
fn frontier_rejects_ladders_past_the_clock() {
    for rates in ["1,2e6", "1e308", "0.5,1e12"] {
        assert_usage_error(&["frontier", "--rates", rates], "--rates");
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
fn a_repeated_flag_is_rejected() {
    assert_usage_error(
        &["cluster", "--workers", "4", "--workers", "8"],
        "--workers",
    );
}

#[test]
fn fidelity_rejects_core_counts_past_u32() {
    assert_usage_error(
        &["fidelity", "--workers", "4294967297", "--jobs", "2"],
        "--workers",
    );
}

#[test]
fn compare_still_checks_the_policy() {
    for cmd in ["sched", "frontier"] {
        assert_usage_error(&[cmd, "--compare", "--policy", "bogus"], "--policy");
    }
}

#[test]
fn rejected_names_name_their_flag() {
    assert_usage_error(&["fidelity", "--chaos", "bogus"], "--chaos");
}

/// Each subcommand's count flags, after the arguments that make the rest
/// of its command line valid.
const COUNT_FLAGS: [(&[&str], &[&str]); 8] = [
    (&["cluster"], &["--workers", "--jobs"]),
    (&["profile"], &["--workers", "--jobs"]),
    (
        &["trace", "--synthetic", "poisson"],
        &["--workers", "--jobs"],
    ),
    (
        &["stream", "--synthetic", "poisson", "--until", "60"],
        &["--workers", "--jobs"],
    ),
    (&["sched"], &["--workers", "--jobs", "--slots"]),
    (&["frontier"], &["--workers", "--jobs", "--slots"]),
    (
        &["timeline"],
        &["--workers", "--jobs", "--slots", "--capacity"],
    ),
    (&["fidelity"], &["--workers", "--jobs"]),
];

#[test]
fn every_count_flag_rejects_zero_garbage_and_a_missing_value() {
    for (base, flags) in COUNT_FLAGS {
        for &flag in flags {
            for value in [&["0"][..], &["x"], &[]] {
                let args: Vec<&str> = base.iter().chain([&flag]).chain(value).copied().collect();
                assert_usage_error(&args, flag);
            }
        }
    }
}

#[test]
fn the_fastest_preset_rate_still_runs() {
    for preset in ["poisson", "bursty", "diurnal"] {
        let (code, stderr) = repro(&[
            "trace",
            "--synthetic",
            preset,
            "--rate",
            "250000",
            "--jobs",
            "8",
        ]);
        assert_eq!(code, Some(0), "{preset}: {stderr}");
    }
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
