//! The foreign-trace ingestion gate (acceptance test of the
//! `chronos_trace::convert` subsystem): the checked-in 2011
//! Google-cluster-trace `task_events` fixture must convert to a v1 trace
//! that (a) byte-matches its checked-in golden, (b) round-trips bit-exactly
//! through `TraceWriter`/`TraceLoader`, and (c) replays through the
//! planner-backed `ShardedRunner::run` bit-identically at
//! 1 and 8 workers. CI's `trace-convert-smoke` check repeats (a) and (c)
//! through the `trace_tool convert`/`replay` command line.
//!
//! The fixture is a hand-trimmed excerpt in the real `task_events` shape
//! (13 columns, no header, interleaved by timestamp): eight jobs covering
//! an eviction + reschedule, a failed attempt, a fully killed job (which
//! must be skipped), a task killed mid-job, tied submission instants, and
//! single-task/zero-spread jobs that exercise the degenerate-β fallback.
//! Regenerate the golden with
//! `trace_tool convert <fixture> <golden> --format google-2011` after any
//! intentional converter change, and eyeball the diff.

use chronos_core::prelude::{JobProfile, Optimizer, StrategyParams};
use chronos_sim::prelude::*;
use chronos_strategies::prelude::*;
use chronos_trace::prelude::*;
use std::sync::Arc;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/google2011_task_events.csv"
);
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/google2011_converted.trace"
);

/// Converts the checked-in fixture in memory.
fn convert_fixture() -> (Vec<u8>, ConvertSummary) {
    let raw = std::fs::read_to_string(FIXTURE).expect("fixture exists");
    let mut out = Vec::new();
    let summary = GoogleClusterTraceConverter::new()
        .convert(&mut raw.as_bytes(), &mut out)
        .expect("fixture converts cleanly");
    (out, summary)
}

/// The replay configuration shared by every worker count below (shape of
/// `trace_tool replay`, scaled to the fixture).
fn config(workers: u32) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(50, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::HadoopDefault,
        progress_report_interval_secs: 1.0,
        seed: 47,
        max_events: 0,
        sharding: ShardSpec::new(1, workers),
    }
}

#[test]
fn converted_fixture_matches_the_golden_byte_for_byte() {
    let (converted, summary) = convert_fixture();
    assert_eq!(
        (
            summary.jobs,
            summary.tasks,
            summary.skipped_jobs,
            summary.events
        ),
        (7, 17, 1, 63)
    );
    assert_eq!(summary.span_secs, 150.0);
    let golden = std::fs::read(GOLDEN).expect("golden exists");
    assert_eq!(
        converted, golden,
        "converted fixture drifted from the golden; see the module docs to regenerate"
    );
}

#[test]
fn converted_trace_round_trips_bit_exactly() {
    let (converted, _) = convert_fixture();
    let jobs = TraceLoader::from_reader(converted.as_slice())
        .expect("valid header")
        .load()
        .expect("valid rows");
    assert_eq!(jobs.len(), 7);
    // Unique ids, sorted submits, first submit rebased to zero.
    assert_eq!(jobs[0].submit_time, SimTime::ZERO);
    let ids: std::collections::HashSet<u64> = jobs.iter().map(|job| job.id.raw()).collect();
    assert_eq!(ids.len(), jobs.len());

    // Write -> load must reproduce both the bytes and the specs exactly.
    let mut rewritten = Vec::new();
    let mut writer = TraceWriter::new(&mut rewritten, Some(jobs.len() as u64)).unwrap();
    writer.write_all(&jobs).unwrap();
    writer.finish().unwrap();
    assert_eq!(rewritten, converted);
    let reloaded = TraceLoader::from_reader(rewritten.as_slice())
        .unwrap()
        .load()
        .unwrap();
    assert_eq!(reloaded, jobs);
}

#[test]
fn converted_trace_replays_bit_identically_at_1_and_8_workers() {
    let (converted, _) = convert_fixture();
    let chronos_config =
        ChronosPolicyConfig::testbed().with_timing(StrategyTiming::trace_default());
    let mut reports = Vec::new();
    for workers in [1u32, 8] {
        let runner = ShardedRunner::new(config(workers)).expect("valid config");
        let cache = PlanCache::shared();
        let stream = TraceLoader::from_reader(converted.as_slice())
            .expect("valid header")
            .stream(2)
            .expect("valid chunk size");
        let options = RunOptions {
            cache: Some(&cache),
            trace: None,
        };
        let output = runner
            .run(stream, options, |_| {
                PolicyBuilder::new(chronos_config)
                    .cached(Arc::clone(&cache))
                    .build(PolicyKind::SpeculativeResume)
                    .expect("unbudgeted builds are infallible")
            })
            .expect("replay succeeds");
        let (report, stats) = (output.report, output.cache_stats.unwrap());
        assert_eq!(report.job_count(), 7);
        // One solve per distinct profile, at any worker count.
        assert_eq!(stats.misses, 7);
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1]);
    // Byte-level identity of the serialized reports, the form CI compares.
    let json_1 = serde_json::to_string_pretty(&reports[0]).unwrap();
    let json_8 = serde_json::to_string_pretty(&reports[1]).unwrap();
    assert_eq!(json_1, json_8);
}

/// Algorithm 1 plans S-Restart at the exhaustive optimum on every converted
/// profile. Four of them push `t_min^(βr)` past `f64::MAX` inside `r_max`,
/// which used to turn the Theorem 4 cost into NaN there. On three (β 6/8/8
/// at t_min 25/50/16) the continuous tail search Algorithm 1 used then
/// walked off to `r_max`, and the optimizer returned r = 0 where the
/// exhaustive search returns 2.
#[test]
fn converted_profiles_plan_s_restart_at_the_exhaustive_optimum() {
    let (converted, _) = convert_fixture();
    let jobs = TraceLoader::from_reader(converted.as_slice())
        .expect("valid header")
        .load()
        .expect("valid rows");
    let config = ChronosPolicyConfig::testbed().with_timing(StrategyTiming::trace_default());
    let optimizer = Optimizer::with_config(config.objective, config.optimizer).unwrap();
    let mut overflowing = 0;
    for spec in &jobs {
        let job = JobProfile::builder()
            .tasks(spec.task_count() as u32)
            .t_min(spec.profile.t_min())
            .beta(spec.profile.beta())
            .deadline(spec.deadline_secs)
            .price(spec.price)
            .build()
            .expect("converted profile is valid");
        let (tau_est, tau_kill) = config.timing.resolve(job.t_min());
        let params = StrategyParams::restart(tau_est, tau_kill).unwrap();
        let hybrid = optimizer.optimize(&job, &params).unwrap();
        let exhaustive = optimizer.optimize_exhaustive(&job, &params).unwrap();
        assert_eq!(hybrid.r, exhaustive.r, "job {}", spec.id.raw());
        assert_eq!(hybrid.utility, exhaustive.utility, "job {}", spec.id.raw());
        let max_power = job.beta() * f64::from(optimizer.config().r_max) * job.t_min().log10();
        if max_power > f64::MAX_10_EXP.into() {
            overflowing += 1;
        }
    }
    assert_eq!(overflowing, 4, "the fixture keeps its overflow cases");
}

#[test]
fn empty_foreign_input_produces_a_replayable_header_only_trace() {
    let mut out = Vec::new();
    let summary = GoogleClusterTraceConverter::new()
        .convert(&mut "".as_bytes(), &mut out)
        .expect("empty input is a valid (zero-job) trace");
    assert_eq!((summary.jobs, summary.skipped_jobs), (0, 0));

    // The header-only trace loads to zero jobs...
    let jobs = TraceLoader::from_reader(out.as_slice())
        .expect("valid header")
        .load()
        .expect("valid (empty) body");
    assert!(jobs.is_empty());

    // ...its census is finite everywhere (`trace_tool stats` prints these)...
    let mut census = ProfileCensus::new();
    census.observe_all(&jobs);
    let stats = census.summary();
    assert_eq!(stats.jobs, 0);
    assert_eq!(stats.max_hit_rate, 0.0);
    assert!(stats.max_hit_rate.is_finite());
    assert_eq!(stats.largest_class, 0);

    // ...and it round-trips bit-exactly like any other trace.
    let mut rewritten = Vec::new();
    let mut writer = TraceWriter::new(&mut rewritten, Some(0)).unwrap();
    writer.write_all(&jobs).unwrap();
    writer.finish().unwrap();
    assert_eq!(rewritten, out);
}
