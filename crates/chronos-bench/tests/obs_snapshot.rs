//! The observability determinism gate: replaying the checked-in converted
//! Google-2011 trace with the decision recorder on must produce — at any
//! worker count — the identical decision log, the identical FNV-1a trace
//! digest, and the identical Prometheus metrics snapshot, byte for byte.
//! The `trace_tool replay --decision-log` file streamed by the command
//! line equals the in-process log byte for byte (CI's `obs-smoke` check
//! also repeats the pin across worker counts). The s-restart replay under
//! deadline-aware placement is pinned the same way, with its
//! `PlacementDecision` records in the log (CI's `placement-smoke` check
//! repeats it through the command line).
//!
//! If an intentional policy/optimizer/engine change shifts the events,
//! regenerate the pins with
//! `trace_tool replay --trace crates/chronos-bench/tests/golden/google2011_converted.trace \
//!  --policy s-resume --metrics-out crates/chronos-bench/tests/golden/google2011_obs.prom --decision-log /dev/stdout`
//! and update [`GOLDEN_TRACE_DIGEST`] plus the golden `.prom` file. The
//! same command with `--policy s-restart --placement deadline-aware` prints
//! [`GOLDEN_PLACEMENT_DIGEST`] (also the literal in `ci/cli_smoke.sh`).

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

/// The decision-trace digest of the golden replay with `--policy s-restart
/// --placement deadline-aware`.
const GOLDEN_PLACEMENT_DIGEST: &str = "bb33ff08919fbd80";

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

/// Replays the golden trace with the recorder on, as `trace_tool replay
/// --policy <kind> --placement <placement> --workers <workers>` does.
fn observed_replay(
    kind: PolicyKind,
    placement: PlacementPolicy,
    workers: u32,
) -> (SimulationReport, DecisionTrace, String) {
    let config = ChronosPolicyConfig::testbed().with_timing(StrategyTiming::trace_default());
    let builder = PolicyBuilder::new(config).with_placement(placement);
    let runner =
        ShardedRunner::new(replay_config(workers).with_placement(placement)).expect("valid config");
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

/// The default-placement s-resume replay the obs pins describe.
fn resume_replay(workers: u32) -> (SimulationReport, DecisionTrace, String) {
    observed_replay(
        PolicyKind::SpeculativeResume,
        PlacementPolicy::MostFree,
        workers,
    )
}

#[test]
fn golden_observed_replay_is_worker_count_invariant_and_pinned() {
    let (report_1, trace_1, prom_1) = resume_replay(1);
    let (report_8, trace_8, prom_8) = resume_replay(8);

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
fn golden_placement_replay_is_worker_count_invariant_and_pinned() {
    let replay = |workers| {
        observed_replay(
            PolicyKind::SpeculativeRestart,
            PlacementPolicy::DeadlineAware,
            workers,
        )
    };
    let (report_1, trace_1, _) = replay(1);
    let (report_8, trace_8, _) = replay(8);

    assert_eq!(report_1, report_8);
    let log = trace_1.render_log();
    assert_eq!(log, trace_8.render_log());
    // An empty log on both sides would compare equal and gate nothing.
    assert!(log.contains("placement node="));
    assert_eq!(trace_1.digest(), GOLDEN_PLACEMENT_DIGEST);
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
    let (_, trace, _) = resume_replay(1);
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
