//! Scale test for the trace-ingestion path: a **100,000-job** synthetic
//! Google-style trace is written to disk by `TraceWriter` (streamed, never
//! materialized), loaded back by the `chronos-trace` loader, and replayed
//! through `ShardedRunner::run` at 1 and 8 workers — both
//! file replays and the in-memory replay of the same generator stream must
//! merge to **bit-identical** reports.
//!
//! This is the ISSUE 3 acceptance gate in test form (CI's
//! `trace-replay-smoke` check runs the same pipeline at a smaller scale via
//! `trace_tool`): it proves the on-disk round trip preserves every job spec
//! exactly *and* that the file-backed chunk stream reproduces the in-memory
//! chunk structure, so "bring your own trace file" replays inherit the
//! sharded runner's full determinism contract. Jobs are kept lean (a
//! handful of tasks each) so the test measures ingestion + merge
//! determinism at full job-count scale without an unreasonable test-suite
//! budget, mirroring `tests/sharded_scale.rs`.

use chronos::prelude::*;

const JOBS: u32 = 100_000;
const SHARDS: u32 = 64;

/// A lean 100k-job Google-style configuration: spot prices and per-job
/// log-normal profiles keep every on-disk column meaningful, while small
/// task counts keep the replay cheap.
fn trace_config() -> GoogleTraceConfig {
    let mut config = GoogleTraceConfig::scaled(JOBS, 4242);
    config.median_tasks_per_job = 2;
    config.max_tasks_per_job = 8;
    config
}

fn chunk_size() -> u32 {
    JOBS.div_ceil(SHARDS)
}

fn sim_config(workers: u32) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(50, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::ChronosJvmAware,
        progress_report_interval_secs: 1.0,
        seed: 4242,
        max_events: 0,
        sharding: ShardSpec::new(SHARDS, workers),
    }
}

fn replay_from_file(path: &std::path::Path, workers: u32) -> SimulationReport {
    let stream = TraceLoader::open(path)
        .expect("trace opens")
        .stream(chunk_size())
        .expect("non-zero chunk size");
    ShardedRunner::new(sim_config(workers))
        .expect("valid config")
        .run(stream, RunOptions::default(), |_| {
            Box::new(HadoopNoSpec::default())
        })
        .expect("file replay completes")
        .report
}

#[test]
fn hundred_thousand_job_trace_replays_bit_identically_from_disk() {
    let dir = std::env::temp_dir().join(format!("chronos-replay-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("scale.trace");

    // Write the trace chunk by chunk: the full spec list never exists in
    // memory on the producer side either.
    let mut writer = TraceWriter::create(&path, Some(u64::from(JOBS))).expect("create trace");
    for chunk in trace_config().stream(chunk_size()).expect("valid config") {
        writer.write_all(&chunk).expect("write chunk");
    }
    writer.finish().expect("finish trace");

    // In-memory reference replay: the generator stream fed straight to the
    // sharded runner with the same chunk structure.
    let stream = trace_config().stream(chunk_size()).expect("valid config");
    let in_memory = ShardedRunner::new(sim_config(8))
        .expect("valid config")
        .run(
            stream.map(Ok::<_, std::convert::Infallible>),
            RunOptions::default(),
            |_| Box::new(HadoopNoSpec::default()),
        )
        .expect("in-memory replay completes")
        .report;

    let from_file_1 = replay_from_file(&path, 1);
    let from_file_8 = replay_from_file(&path, 8);
    let _ = std::fs::remove_dir_all(dir);

    assert_eq!(in_memory.job_count(), JOBS as usize);
    // Worker-count invariance across the file-backed path...
    assert_eq!(from_file_1, from_file_8);
    // ...and bit-exact agreement between disk and memory: every float in
    // every metric, every histogram bucket, every job id.
    assert_eq!(from_file_8, in_memory);
}
