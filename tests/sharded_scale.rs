//! Scale test for the sharded runner: a **1,000,000-job** synthetic
//! workload, streamed in chunks so the full spec list never exists in
//! memory, completes on 8 workers and merges to a report **bit-identical**
//! to the single-worker run.
//!
//! This is the ROADMAP's "multi-million-job traces" north-star item made
//! checkable: worker threads may interleave shards arbitrarily, yet every
//! metric — down to the f64 machine-time sums and the latency histogram
//! counts — must match the serial execution exactly. The workload is kept
//! lean (one task per job) so the test measures the runner's merge
//! determinism at full scale without an unreasonable test-suite budget; the
//! simulation-hot crates are compiled with `opt-level = 2` even under the
//! dev profile (see the workspace `Cargo.toml`) for the same reason.

use chronos::prelude::*;

const MILLION: u32 = 1_000_000;
const SHARDS: u32 = 64;

/// One-task jobs arriving once a second: two simulation events per job,
/// which keeps a million jobs inside a few seconds of (optimized) test
/// runtime while still exercising arrival ordering, container assignment
/// and per-shard RNG draws.
fn million_job_stream() -> WorkloadStream {
    let mut workload = TestbedWorkload::paper_setup(Benchmark::Sort, 77).with_jobs(MILLION);
    workload.tasks_per_job = 1;
    workload.mean_interarrival_secs = 1.0;
    workload
        .stream(MILLION.div_ceil(SHARDS))
        .expect("valid workload")
}

fn config(workers: u32) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(50, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::ChronosJvmAware,
        progress_report_interval_secs: 1.0,
        seed: 77,
        max_events: 0,
        sharding: ShardSpec::new(SHARDS, workers),
    }
}

#[test]
fn million_jobs_on_eight_workers_bit_identical_to_single_worker() {
    let run = |workers: u32| {
        ShardedRunner::new(config(workers))
            .expect("valid config")
            .run(
                million_job_stream().map(Ok::<_, std::convert::Infallible>),
                RunOptions::default(),
                |_| Box::new(HadoopNoSpec::default()),
            )
            .expect("simulation completes")
            .report
    };

    let single = run(1);
    assert_eq!(single.job_count(), MILLION as usize);
    assert_eq!(single.latency.total(), u64::from(MILLION));
    assert!(single.unfinished_fraction() < 1e-12);

    let eight = run(8);
    // Bit-identical, not approximately equal: the PartialEq derive compares
    // every f64 machine-time/cost sum, every histogram bucket and every
    // per-job record exactly.
    assert_eq!(single, eight);
}

#[test]
fn streamed_chunks_never_hold_the_whole_trace() {
    // The stream yields ⌈1e6 / 64⌉-job chunks: peak resident specs per pull
    // are bounded by the chunk size, not the trace size. (A cheap sanity
    // check on the chunk geometry rather than an allocator probe.)
    let mut stream = million_job_stream();
    assert_eq!(stream.len(), SHARDS as usize);
    let first = stream.next().expect("non-empty stream");
    assert_eq!(first.len(), MILLION.div_ceil(SHARDS) as usize);
    assert_eq!(stream.remaining_jobs(), MILLION - MILLION.div_ceil(SHARDS));
}
