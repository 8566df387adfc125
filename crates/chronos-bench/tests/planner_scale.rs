//! The planner-path scale gate (acceptance test of the `chronos-plan`
//! subsystem): a 100,000-job repeated-profile trace replayed through the
//! planner-backed `ShardedRunner` paths must produce a report
//! **bit-identical** to the uncached per-job optimization path, at 1 and 8
//! workers, from memory and from a trace file — while paying exactly one
//! optimizer solve per distinct job profile instead of one per job.

use chronos_bench::load_trace_jobs;
use chronos_core::StrategyKind;
use chronos_sim::prelude::*;
use chronos_strategies::prelude::*;
use chronos_trace::prelude::*;
use std::convert::Infallible;
use std::sync::Arc;

const JOBS_PER_BENCHMARK: u32 = 25_000;
const CHUNK_SIZE: usize = 2_048;

/// A 100,000-job workload drawn from exactly four job classes (one per
/// testbed benchmark), interleaved by submit time — the repeated-profile
/// shape real traces have and the planner exploits.
fn repeated_profile_jobs() -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = Vec::new();
    for (index, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let mut workload = TestbedWorkload::paper_setup(benchmark, 71 + index as u64)
            .with_jobs(JOBS_PER_BENCHMARK);
        workload.tasks_per_job = 2;
        workload.mean_interarrival_secs = 1.0;
        let first_id = u64::from(JOBS_PER_BENCHMARK) * index as u64;
        jobs.extend(workload.generate_from(first_id).expect("valid workload"));
    }
    // The trace format (and a realistic replay) wants arrival order; the
    // sort interleaves the four classes throughout the trace.
    jobs.sort_by(|a, b| {
        (a.submit_time, a.id)
            .partial_cmp(&(b.submit_time, b.id))
            .expect("submit times are finite")
    });
    jobs
}

/// The chunk (= shard) structure every run below must share.
fn chunks_of(jobs: &[JobSpec]) -> Vec<Result<Vec<JobSpec>, Infallible>> {
    jobs.chunks(CHUNK_SIZE)
        .map(|chunk| Ok(chunk.to_vec()))
        .collect()
}

fn config(workers: u32) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(200, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::ChronosJvmAware,
        progress_report_interval_secs: 1.0,
        seed: 61,
        max_events: 0,
        sharding: ShardSpec::new(1, workers),
    }
}

#[test]
fn planner_backed_replay_is_bit_identical_to_the_uncached_path_at_scale() {
    let jobs = repeated_profile_jobs();
    assert_eq!(jobs.len(), 100_000);
    let chunks = chunks_of(&jobs);
    let chronos = ChronosPolicyConfig::testbed();

    // Reference: the uncached path — every job pays its own optimizer run.
    let uncached = ShardedRunner::new(config(8))
        .expect("valid config")
        .run(chunks.clone(), RunOptions::default(), |_| {
            Box::new(ChronosPolicy::uncached(
                StrategyKind::SpeculativeResume,
                chronos,
            ))
        })
        .expect("uncached replay completes")
        .report;
    assert_eq!(uncached.job_count(), 100_000);

    // Planner-backed in-memory replay at 1 and 8 workers: bit-identical
    // reports, four optimizer solves total, scheduling-independent
    // counters.
    for workers in [1u32, 8] {
        let cache = PlanCache::shared();
        let options = RunOptions {
            cache: Some(&cache),
            trace: None,
        };
        let output = ShardedRunner::new(config(workers))
            .expect("valid config")
            .run(chunks.clone(), options, |_| {
                Box::new(ChronosPolicy::with_cache(
                    StrategyKind::SpeculativeResume,
                    chronos,
                    Arc::clone(&cache),
                ))
            })
            .expect("planned replay completes");
        let (planned, stats) = (output.report, output.cache_stats.unwrap());
        assert_eq!(
            planned, uncached,
            "planner-backed replay diverged from the uncached path at {workers} workers"
        );
        assert_eq!(stats.misses, 4, "one solve per distinct profile");
        // Every arrival looks its plan up once, whatever the worker count.
        assert_eq!(stats.lookups(), 100_000, "workers = {workers}");
        assert_eq!(cache.stats().entries, 4);
    }

    // The same trace from disk, through the fallible planned path: the
    // write → parse → plan → shard → merge pipeline reproduces the
    // uncached in-memory report bit for bit.
    let dir = std::env::temp_dir().join(format!("chronos-planner-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("repeated_profiles.trace");
    write_trace(&path, &jobs).expect("trace writes");
    let loaded = load_trace_jobs(&path).expect("trace loads");
    assert_eq!(loaded, jobs, "trace round trip must be bit-exact");

    let cache = PlanCache::shared();
    let stream = TraceLoader::open(&path)
        .expect("trace opens")
        .stream(CHUNK_SIZE as u32)
        .expect("non-zero chunk size");
    let options = RunOptions {
        cache: Some(&cache),
        trace: None,
    };
    let output = ShardedRunner::new(config(8))
        .expect("valid config")
        .run(stream, options, |_| {
            Box::new(ChronosPolicy::with_cache(
                StrategyKind::SpeculativeResume,
                chronos,
                Arc::clone(&cache),
            ))
        })
        .expect("file replay completes");
    let (replayed, stats) = (output.report, output.cache_stats.unwrap());
    assert_eq!(
        replayed, uncached,
        "planner-backed file replay diverged from the uncached in-memory path"
    );
    assert_eq!(stats.misses, 4);
    let _ = std::fs::remove_dir_all(dir);
}
