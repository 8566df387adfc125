//! CLI contract of `trace_tool` (and the flag check it shares with the
//! experiment binaries): undeclared flags exit 2 naming the flag, and
//! count-valued flags reject `0` with a typed usage error naming the flag,
//! on every subcommand that accepts them. Both used to be silently
//! accepted — `--polcy s-resume` ran the default policy, `--chunk-size 0`
//! made the loader produce no chunks (a replay over zero jobs) and
//! `--workers 0` built a runner no worker ever drained — so each case here
//! is a regression test against reverting to the permissive parse.
//!
//! The happy-path case pins what a shell check used to: `serve-replay`
//! over the checked-in converted Google-2011 trace prints the pinned
//! deterministic decision count and digest.

use std::process::{Command, Output};

const TRACE_TOOL: &str = env!("CARGO_BIN_EXE_trace_tool");
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/google2011_converted.trace"
);

fn run(args: &[&str]) -> Output {
    Command::new(TRACE_TOOL)
        .args(args)
        .output()
        .expect("trace_tool spawns")
}

/// Asserts the invocation fails with the typed zero-value usage error
/// naming exactly `flag`.
fn assert_rejects_zero(args: &[&str], flag: &str) {
    let output = run(args);
    assert!(
        !output.status.success(),
        "{args:?} should fail, stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let expected = format!("{flag}: must be at least 1, got 0");
    assert!(
        stderr.contains(&expected),
        "{args:?} stderr should name {flag}: {stderr}"
    );
}

#[test]
fn replay_rejects_zero_workers_and_zero_chunk_size() {
    for flag in ["--workers", "--chunk-size"] {
        assert_rejects_zero(&["replay", "--trace", GOLDEN, flag, "0"], flag);
    }
}

#[test]
fn serve_replay_rejects_zero_count_flags() {
    for flag in ["--workers", "--queue-capacity", "--chunk-size"] {
        assert_rejects_zero(&["serve-replay", "--trace", GOLDEN, flag, "0"], flag);
    }
}

#[test]
fn generate_convert_and_stats_reject_zero_chunk_size() {
    // generate validates --chunk-size before touching --out, so no file is
    // ever created at this placeholder path.
    assert_rejects_zero(
        &[
            "generate",
            "--jobs",
            "4",
            "--seed",
            "1",
            "--out",
            "unused.csv",
            "--chunk-size",
            "0",
        ],
        "--chunk-size",
    );
    assert_rejects_zero(
        &[
            "convert",
            "--format",
            "google-2011",
            "--chunk-size",
            "0",
            "in.csv",
            "out.csv",
        ],
        "--chunk-size",
    );
    assert_rejects_zero(
        &["stats", "--trace", GOLDEN, "--chunk-size", "0"],
        "--chunk-size",
    );
}

#[test]
fn serve_replay_prints_the_pinned_decision_count_and_digest() {
    let output = run(&["serve-replay", "--trace", GOLDEN, "--workers", "8"]);
    assert!(
        output.status.success(),
        "serve-replay failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The CLI twin of tests/serve_replay.rs, which pins the same digest
    // literal at 1 and 8 workers.
    assert!(
        stdout.contains("planned 7 jobs at 8 workers (7 feasible)"),
        "unexpected serve-replay output: {stdout}"
    );
    assert!(
        stdout.contains("decisions digest: 3969606c572cc471"),
        "unexpected serve-replay digest: {stdout}"
    );
}

#[test]
fn undeclared_flags_exit_2_naming_the_flag() {
    // `--polcy s-resume` once silently replayed the default hadoop-ns. In
    // each case the last flag is the unknown one; the replay must also
    // leave no report at its `--out` path.
    let scratch = std::env::temp_dir().join(format!("trace_tool_cli_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    let report = scratch.join("typo.json");
    for case in [
        "trace_tool replay --trace GOLDEN --out REPORT --polcy s-resume",
        "trace_tool serve-replay --trace GOLDEN --policy clone",
        "trace_tool stats --trace GOLDEN --quick",
        "trace_tool generate --jobs 4 --seed 1 --out unused.csv -v",
        "trace_tool convert in.csv out.csv --format google-2011 --force",
        "fig2 --quik",
        "fig3 --trace GOLDEN --seed 3",
        "all_experiments --quick --verbose",
    ] {
        let mut words = case.split(' ');
        let program = match words.next() {
            Some("trace_tool") => TRACE_TOOL,
            Some("fig2") => env!("CARGO_BIN_EXE_fig2"),
            Some("fig3") => env!("CARGO_BIN_EXE_fig3"),
            _ => env!("CARGO_BIN_EXE_all_experiments"),
        };
        let args: Vec<&str> = words
            .map(|w| match w {
                "GOLDEN" => GOLDEN,
                "REPORT" => report.to_str().expect("UTF-8 temp path"),
                _ => w,
            })
            .collect();
        let output = Command::new(program).args(&args).output().expect("spawns");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{case}: {stderr}");
        let flag = args.iter().rev().find(|arg| arg.starts_with('-')).unwrap();
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{case}: {stderr}"
        );
    }
    let written = report.exists();
    std::fs::remove_dir_all(&scratch).expect("scratch directory removed");
    assert!(!written, "a report was written despite an unknown flag");
}
