//! Hostile or mistaken command lines exit 2 with a message and run nothing.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flowcon-benchmark"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_command_lines_exit_2_with_a_message() {
    for (args, needle) in [
        (
            &["run", "--workload", "headless_2m", "--seed", "1"][..],
            "unknown workload `headless_2m`",
        ),
        (
            &["trace", "--workload", "open_loop", "--sed", "1"][..],
            "unknown flag `--sed`",
        ),
        (
            &["run", "--workload", "open_loop", "--seed", "one"][..],
            "--seed wants a non-negative integer",
        ),
        (&["bench"][..], "unknown command `bench`"),
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed a result: {stdout}");
    }
}

#[test]
fn compare_reports_an_unreadable_file() {
    let (code, stdout, stderr) = run(&["compare", "no/such/a.jsonl", "no/such/b.jsonl"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("cannot read no/such/a.jsonl"), "{stderr}");
    assert!(stdout.is_empty());
}
