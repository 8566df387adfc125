//! The observability determinism gate: replaying the checked-in converted
//! Google-2011 trace with the decision recorder on must produce — at any
//! worker count — the identical decision log, the identical FNV-1a trace
//! digest, and the identical Prometheus metrics snapshot, byte for byte.
//! The `trace_tool replay --decision-log` file streamed by the command
//! line equals the in-process log byte for byte (CI's `obs-smoke` check
//! also repeats the pin across worker counts).
//!
//! If an intentional policy/optimizer/engine change shifts the events,
//! regenerate the pins with
//! `trace_tool replay --trace crates/chronos-bench/tests/golden/google2011_converted.trace \
//!  --policy s-resume --metrics-out crates/chronos-bench/tests/golden/google2011_obs.prom --decision-log /dev/stdout`
//! and update [`GOLDEN_TRACE_DIGEST`] plus the golden `.prom` file.

use chronos_plan::PlanCache;
use chronos_sim::prelude::*;
use chronos_strategies::prelude::*;
use chronos_trace::prelude::TraceLoader;
use std::sync::Arc;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/google2011_converted.trace"
);

const GOLDEN_PROM: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/google2011_obs.prom"
);

/// The decision-trace digest of the golden replay under `trace_tool`'s
/// replay configuration with `--policy s-resume`.
const GOLDEN_TRACE_DIGEST: &str = "e2bd738e8d41c8f4";

/// Mirrors `trace_tool`'s fixed replay configuration (same cluster, seed
/// and sharding), so the snapshot pinned here is the one the CLI writes.
fn replay_config(workers: u32) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(1_000, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::HadoopDefault,
        progress_report_interval_secs: 1.0,
        seed: 47,
        max_events: 0,
        sharding: ShardSpec::new(1, workers),
    }
}

fn observed_replay(workers: u32) -> (SimulationReport, DecisionTrace, String) {
    let kind: PolicyKind = "s-resume".parse().expect("known policy");
    let config = ChronosPolicyConfig::testbed().with_timing(StrategyTiming::trace_default());
    let builder = PolicyBuilder::new(config);
    let runner = ShardedRunner::new(replay_config(workers)).expect("valid config");
    let cache = PlanCache::shared();
    let stream = TraceLoader::open(GOLDEN)
        .expect("golden trace exists")
        .stream(512)
        .expect("golden trace parses");
    let options = RunOptions {
        cache: Some(&cache),
        trace: Some(None),
    };
    let output = runner
        .run(stream, options, |_shard| {
            builder
                .clone()
                .cached(Arc::clone(&cache))
                .build(kind)
                .expect("buildable policy")
        })
        .expect("golden replay succeeds");
    let mut registry = MetricsRegistry::new();
    output.report.export_metrics(&mut registry);
    output.cache_stats.unwrap().export_metrics(&mut registry);
    let trace = output.trace.unwrap();
    (output.report, trace, registry.render_prometheus())
}

#[test]
fn golden_observed_replay_is_worker_count_invariant_and_pinned() {
    let (report_1, trace_1, prom_1) = observed_replay(1);
    let (report_8, trace_8, prom_8) = observed_replay(8);

    // Reports stay bit-identical with the recorder on (and across worker
    // counts, as the unobserved replay-smoke job already pins).
    assert_eq!(report_1, report_8);

    // The decision log and its digest are worker-count invariant…
    assert_eq!(trace_1.render_log(), trace_8.render_log());
    assert_eq!(trace_1.digest(), trace_8.digest());
    // …and pinned: an unintentional engine or policy change must not move
    // a single recorded event.
    assert_eq!(trace_1.digest(), GOLDEN_TRACE_DIGEST);

    // The Prometheus snapshot matches the checked-in golden byte for byte.
    let golden = std::fs::read_to_string(GOLDEN_PROM).expect("golden snapshot exists");
    assert_eq!(prom_1, golden);
    assert_eq!(prom_8, golden);
}

#[test]
fn trace_tool_decision_log_file_is_the_in_process_log() {
    let scratch = std::env::temp_dir().join(format!("obs_snapshot_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    let log = scratch.join("decisions.log");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(["replay", "--trace", GOLDEN, "--policy", "s-resume", "--out"])
        .arg(scratch.join("report.json"))
        .arg("--decision-log")
        .arg(&log)
        .output()
        .expect("trace_tool spawns");
    let written = std::fs::read(&log);
    std::fs::remove_dir_all(&scratch).expect("scratch directory removed");
    assert!(
        output.status.success(),
        "trace_tool replay failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let (_, trace, _) = observed_replay(1);
    assert_eq!(
        String::from_utf8(written.expect("decision log written")).expect("UTF-8 log"),
        trace.render_log()
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains(&format!("decision trace digest: {GOLDEN_TRACE_DIGEST}")),
        "{stdout}"
    );
}
