//! Criterion bench for the sharded runner: end-to-end workload throughput
//! (generation-to-merged-report) at 1, 2 and 4 worker threads, plus the
//! single-threaded `Simulation` as the unsharded reference point, plus the
//! trace-replay path (file-parse-to-merged-report) at 1 and 4 workers.
//!
//! Setting `CHRONOS_BENCH_SMOKE=1` shrinks the workload and takes a single
//! sample — the CI `bench-smoke` job uses this to catch panics and API rot
//! without paying (or trusting) real measurement time on shared runners.

use chronos_bench::{
    replay_sharded_bench_trace, run_policy, sharded_bench_config, sharded_bench_stream,
    write_sharded_bench_trace,
};
use chronos_sim::prelude::*;
use chronos_strategies::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::convert::Infallible;
use std::time::Duration;

fn smoke() -> bool {
    std::env::var_os("CHRONOS_BENCH_SMOKE").is_some()
}

/// The bench workload as an (infallible) chunk source for the runner.
fn stream(jobs: u32) -> impl Iterator<Item = Result<Vec<JobSpec>, Infallible>> + Send {
    sharded_bench_stream(jobs).map(Ok)
}

fn bench_sharded_throughput(c: &mut Criterion) {
    let jobs: u32 = if smoke() { 500 } else { 10_000 };
    let mut group = c.benchmark_group(format!("sharded-throughput-{jobs}-jobs"));
    if smoke() {
        group.sample_size(1);
        group.measurement_time(Duration::from_millis(1));
    }
    for workers in [1u32, 2, 4] {
        let runner = ShardedRunner::new(sharded_bench_config(workers)).expect("valid config");
        group.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| {
                runner
                    .run(stream(jobs), RunOptions::default(), |_| {
                        Box::new(HadoopNoSpec::default())
                    })
                    .expect("simulation")
            })
        });
    }
    // Unsharded single-Simulation reference: what the runner's 1-worker
    // overhead (partitioning + merge) costs relative to a plain run.
    group.bench_function(BenchmarkId::new("unsharded", "reference"), |b| {
        let jobs_vec: Vec<JobSpec> = sharded_bench_stream(jobs).flatten().collect();
        let config = sharded_bench_config(1);
        b.iter(|| {
            run_policy(&config, Box::new(HadoopNoSpec::default()), jobs_vec.clone())
                .expect("simulation")
        })
    });
    group.finish();
}

/// Replay-path throughput: the same workload parsed back from a
/// `chronos-trace` v1 file and replayed through `ShardedRunner::run`.
/// The measured iteration includes the file parse — that is what a loaded
/// trace costs — so comparing against `sharded-throughput/workers` isolates
/// the ingestion overhead. The file is written once, outside the timer.
fn bench_replay_throughput(c: &mut Criterion) {
    let jobs: u32 = if smoke() { 500 } else { 10_000 };
    let dir = std::env::temp_dir().join(format!("chronos-bench-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create replay scratch dir");
    let path = dir.join("throughput.trace");
    write_sharded_bench_trace(&path, jobs).expect("write bench trace");

    let mut group = c.benchmark_group(format!("replay-throughput-{jobs}-jobs"));
    if smoke() {
        group.sample_size(1);
        group.measurement_time(Duration::from_millis(1));
    }
    for workers in [1u32, 4] {
        group.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| replay_sharded_bench_trace(&path, jobs, workers))
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(dir);
}

/// The observability tax: the identical sharded workload with the decision
/// recorder off (`RunOptions::default()`, the default everywhere) vs on
/// (`RunOptions::trace`). The disabled path is a single never-taken
/// branch per emission site, so `recorder-off` must track
/// `sharded-throughput/workers/4` — a drift here means recording stopped
/// being zero-cost when disabled. `recorder-on` prices what `--decision-log`
/// actually costs.
fn bench_observability_overhead(c: &mut Criterion) {
    let jobs: u32 = if smoke() { 500 } else { 10_000 };
    let mut group = c.benchmark_group(format!("observability-overhead-{jobs}-jobs"));
    if smoke() {
        group.sample_size(1);
        group.measurement_time(Duration::from_millis(1));
    }
    let runner = ShardedRunner::new(sharded_bench_config(4)).expect("valid config");
    group.bench_function(BenchmarkId::new("recorder", "off"), |b| {
        b.iter(|| {
            runner
                .run(stream(jobs), RunOptions::default(), |_| {
                    Box::new(HadoopNoSpec::default())
                })
                .expect("simulation")
        })
    });
    group.bench_function(BenchmarkId::new("recorder", "on"), |b| {
        let options = RunOptions {
            cache: None,
            trace: Some(None),
        };
        b.iter(|| {
            runner
                .run(stream(jobs), options, |_| Box::new(HadoopNoSpec::default()))
                .expect("simulation")
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(if std::env::var_os("CHRONOS_BENCH_SMOKE").is_some() { 1 } else { 500 }))
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    targets = bench_sharded_throughput, bench_replay_throughput, bench_observability_overhead
);
criterion_main!(benches);
