//! The benchmark's own checks, at tiny scale: every declared metric comes out
//! with its unit, the output checks pass, traced and untraced runs agree on
//! the deterministic outputs, and a second seed runs clean.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["replay-sort", "replay-google-budget", "serve-recurring"];

/// Jobs per trace, or profiles for the serve workload: three Sort chunks,
/// one budget round, and enough profiles (three plan keys each) to overflow
/// the serve worker's 1,024-entry memo.
fn tiny_jobs(workload: &str) -> &'static str {
    match workload {
        "replay-sort" => "1200",
        "replay-google-budget" => "48",
        _ => "400",
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> BTreeMap<String, String> {
    let spec = benchmark_json();
    let Some(Value::Array(metrics)) = spec.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    metrics
        .iter()
        .map(|metric| {
            let text = |key: &str| match metric.get(key) {
                Some(Value::Str(text)) => text.clone(),
                other => panic!("{section} entry without a string {key}: {other:?}"),
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

/// A finished run: its provenance line and its result line.
struct Run {
    provenance: Value,
    result: Value,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        match self.result.get("metrics").and_then(|m| m.get(name)) {
            Some(metric) => match metric.get("value") {
                Some(Value::Number(number)) => number.as_f64(),
                other => panic!("{name} has no numeric value: {other:?}"),
            },
            None => panic!("{name} is missing"),
        }
    }

    fn note(&self, key: &str) -> Option<String> {
        match self.provenance.get(key) {
            Some(Value::Str(text)) => Some(text.clone()),
            Some(Value::Number(number)) => Some(number.as_f64().to_string()),
            _ => None,
        }
    }

    fn count(&self, key: &str) -> f64 {
        match self.result.get(key) {
            Some(Value::Number(number)) => number.as_f64(),
            other => panic!("result has no numeric {key}: {other:?}"),
        }
    }

    fn units(&self) -> BTreeMap<String, String> {
        let Some(Value::Object(metrics)) = self.result.get("metrics") else {
            panic!("result has no metrics object");
        };
        metrics
            .iter()
            .map(|(name, metric)| match metric.get("unit") {
                Some(Value::Str(unit)) => (name.clone(), unit.clone()),
                other => panic!("{name} has no unit: {other:?}"),
            })
            .collect()
    }
}

fn measure(workload: &str, seed: u64, trace: bool) -> Run {
    let seed = seed.to_string();
    let output = run(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "0.3",
        "--trace",
        if trace { "1" } else { "0" },
        "--jobs",
        tiny_jobs(workload),
    ]);
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert!(
        output.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = serde_json::parse_value(lines.next().expect("a result line"))
        .expect("the result line is JSON");
    let provenance = serde_json::parse_value(lines.next().expect("a provenance line"))
        .expect("the provenance line is JSON")
        .get("provenance")
        .cloned()
        .expect("the provenance object");
    let run = Run { provenance, result };
    assert_eq!(
        run.result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload} seed {seed} trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(run.count("failed"), 0.0);
    assert!(run.count("attempted") >= 1.0);
    run
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit_and_the_checks_pass() {
    for workload in WORKLOADS {
        let untraced = measure(workload, 1, false);
        assert_eq!(untraced.units(), declared("end_to_end"), "{workload}");
        assert_eq!(untraced.metric("ok_frac"), 1.0, "{workload}");
        for name in ["jobs_per_s", "latency_p50_us", "latency_p99_us", "pocd"] {
            assert!(untraced.metric(name) > 0.0, "{workload}: {name} is 0");
        }

        let traced = measure(workload, 1, true);
        assert_eq!(traced.units(), declared("per_layer"), "{workload}");
        // The deterministic outputs repeat between the two processes (each
        // run already compares its traced and untraced replays in-process).
        for key in ["report_digest", "events_dispatched", "allocation_digest"] {
            assert_eq!(untraced.note(key), traced.note(key), "{workload}: {key}");
        }
    }
}

#[test]
fn each_workload_reaches_the_layers_it_is_meant_to_measure() {
    let sort = measure("replay-sort", 1, true);
    for name in [
        "trace.parse_s",
        "trace.allocs",
        "policy.hook_calls",
        "sim.self_s",
        "sim.events_dispatched",
        "sim.shards",
        "sim.allocs",
        "proc.cpu_s",
    ] {
        assert!(sort.metric(name) > 0.0, "replay-sort: {name} is 0");
    }
    assert_eq!(sort.metric("trace.jobs"), 1200.0);
    assert_eq!(sort.metric("plan.solves"), 1.0, "one profile, one solve");
    assert_eq!(sort.metric("budget.rounds"), 0.0, "unbudgeted");
    assert_eq!(sort.metric("serve.requests"), 0.0);

    let google = measure("replay-google-budget", 1, true);
    assert_eq!(google.metric("plan.solves"), 48.0, "a profile per job");
    assert_eq!(google.metric("budget.rounds"), 1.0, "one chunk, one round");
    assert!(google.metric("budget.copies_requested") > 0.0);
    assert!(google.metric("policy.batch_s") > 0.0);

    let serve = measure("serve-recurring", 1, true);
    for name in [
        "serve.requests",
        "serve.wait_s",
        "serve.server_p50_us",
        "serve.memo_miss_frac",
        "serve.cpu_us_per_request",
    ] {
        assert!(serve.metric(name) > 0.0, "serve-recurring: {name} is 0");
    }
    assert_eq!(serve.metric("serve.rejected"), 0.0);
    assert_eq!(serve.metric("sim.events_dispatched"), 0.0);
}

#[test]
fn a_second_seed_runs_clean_on_other_inputs() {
    for workload in WORKLOADS {
        let first = measure(workload, 1, false);
        let second = measure(workload, 2, false);
        assert_eq!(second.metric("ok_frac"), 1.0, "{workload}");
        let differs = first.note("report_digest") != second.note("report_digest")
            || first.metric("cost_per_job") != second.metric("cost_per_job");
        assert!(differs, "{workload}: seed 2 replayed the seed-1 inputs");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "replay-sort",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "replay-sort", "--seed", "1", "--seconds", "1"],
        &[
            "--workload",
            "replay-sort",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--extra",
            "1",
        ],
    ] {
        let output = run(args);
        assert!(!output.status.success(), "{args:?} succeeded");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
