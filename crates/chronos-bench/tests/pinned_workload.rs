//! The sharded benchmark workload's pinned counters and digests.
//!
//! One fixed workload — [`sharded_bench_stream`] at 20,000 Sort jobs under
//! [`sharded_bench_config`] — is replayed through every execution path:
//! plain sharded runs at 1 and 4 workers, a trace-file replay, a shared plan
//! cache, the admission server and a budget-capped allocator. Each test
//! pins the path's deterministic output (event and attempt counts, PoCD,
//! cache counters, digests, ledger totals), runs the path [`RUNS`] times
//! asserting every run is identical to the first, and checks the
//! cross-path identities: worker count, on-disk round trip and plan cache
//! never change a report.
//!
//! The event counters are the denominator of every events/s figure and
//! the unit of the `max_events` budget; the decisions and allocation
//! digests hash integers only. A change to any literal below is a change
//! of behaviour: review it, never re-pin it to make a run pass.

use chronos_bench::{
    replay_sharded_bench_trace, report_digest, sharded_bench_config, sharded_bench_stream,
    write_sharded_bench_trace,
};
use chronos_core::StrategyKind;
use chronos_serve::prelude::*;
use chronos_sim::prelude::*;
use chronos_strategies::prelude::*;
use std::convert::Infallible;
use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

/// Jobs in the workload.
const JOBS: u32 = 20_000;

/// Runs of each configuration; all must be identical.
const RUNS: u32 = 7;

/// The per-planning-round copy cap of the budgeted replay: low enough to
/// constrain the workload (each of the 16 chunks requests far more), high
/// enough that speculation still happens.
const BUDGET_TOKENS: u64 = 256;

/// Runs `run` [`RUNS`] times, asserting every run equals the first, and
/// returns that output.
fn repeated<T: PartialEq + Debug>(what: &str, run: impl Fn() -> T) -> T {
    let first = run();
    for _ in 1..RUNS {
        assert_eq!(first, run(), "run-to-run determinism violated for {what}");
    }
    first
}

fn bench_stream() -> impl Iterator<Item = Result<Vec<JobSpec>, Infallible>> + Send {
    sharded_bench_stream(JOBS).map(Ok)
}

fn sharded_run(
    workers: u32,
    options: RunOptions<'_>,
    build: impl Fn(u64) -> Box<dyn SpeculationPolicy> + Sync,
) -> RunOutput {
    ShardedRunner::new(sharded_bench_config(workers))
        .expect("valid config")
        .run(bench_stream(), options, build)
        .expect("simulation completes")
}

fn hadoop_ns(workers: u32) -> SimulationReport {
    repeated(&format!("hadoop-ns/workers-{workers}"), || {
        sharded_run(workers, RunOptions::default(), |_| {
            Box::new(HadoopNoSpec::default())
        })
        .report
    })
}

/// The 4-worker Hadoop-NS report, shared by the tests that compare against it.
fn hadoop_ns_4() -> &'static SimulationReport {
    static REPORT: OnceLock<SimulationReport> = OnceLock::new();
    REPORT.get_or_init(|| hadoop_ns(4))
}

/// The uncached 4-worker s-resume report, shared like [`hadoop_ns_4`].
fn s_resume_4() -> &'static SimulationReport {
    static REPORT: OnceLock<SimulationReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        repeated("s-resume/workers-4", || {
            sharded_run(4, RunOptions::default(), |_| {
                Box::new(ChronosPolicy::uncached(
                    StrategyKind::SpeculativeResume,
                    ChronosPolicyConfig::testbed(),
                ))
            })
            .report
        })
    })
}

/// `(jobs, events_dispatched, events_stale, total_attempts, pocd)`.
fn counters(report: &SimulationReport) -> (usize, u64, u64, u64, f64) {
    (
        report.job_count(),
        report.events_dispatched,
        report.events_stale,
        report.total_attempts(),
        report.pocd(),
    )
}

#[test]
fn hadoop_ns_counters_are_pinned_and_worker_count_invariant() {
    let one = hadoop_ns(1);
    let four = hadoop_ns_4();
    assert_eq!(counters(&one), (20_000, 100_000, 0, 80_000, 0.68145));
    assert_eq!(
        &one, four,
        "sharding determinism violated: 1-worker and 4-worker reports differ"
    );
}

#[test]
fn uncached_s_resume_counters_are_pinned() {
    assert_eq!(
        counters(s_resume_4()),
        (20_000, 140_000, 22_401, 102_401, 0.9991)
    );
}

#[test]
fn file_replay_equals_the_in_memory_run() {
    let dir = std::env::temp_dir().join(format!("chronos-pinned-workload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create replay scratch dir");
    let path = dir.join("bench.trace");
    write_sharded_bench_trace(&path, JOBS).expect("write bench trace");
    let replayed = repeated("replay/workers-4", || {
        replay_sharded_bench_trace(&path, JOBS, 4)
    });
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(
        (replayed.events_dispatched, replayed.events_stale),
        (100_000, 0)
    );
    assert_eq!(
        &replayed,
        hadoop_ns_4(),
        "trace round-trip determinism violated: file replay differs from the in-memory run"
    );
}

#[test]
fn plan_cache_replay_equals_the_uncached_run() {
    // A fresh cache per run: a warm cache would turn the one solve into a
    // hit and change the miss count.
    let (report, hits, misses) = repeated("plan-cache/workers-4", || {
        let cache = PlanCache::shared();
        let options = RunOptions {
            cache: Some(&cache),
            trace: None,
        };
        let output = sharded_run(4, options, |_| {
            Box::new(ChronosPolicy::with_cache(
                StrategyKind::SpeculativeResume,
                ChronosPolicyConfig::testbed(),
                Arc::clone(&cache),
            ))
        });
        let stats = output.cache_stats.expect("cache stats requested");
        (output.report, stats.hits, stats.misses)
    });
    assert_eq!(
        &report,
        s_resume_4(),
        "planner determinism violated: the planner-backed replay differs from the uncached run"
    );
    // Every job shares one analytical profile and looks it up once: one
    // solve, the rest hits.
    assert_eq!((misses, hits), (1, 19_999));
    assert_eq!(report_digest(&report), "ec9bf951dfb01a11");
}

#[test]
fn serve_decisions_are_pinned() {
    const WORKERS: u32 = 8;
    const QUEUE: usize = 64;
    let requests: Vec<ServeRequest> = sharded_bench_stream(JOBS)
        .flatten()
        .zip(0..)
        .map(|(job, request_id)| ServeRequest { request_id, job })
        .collect();
    let (answered, digest, feasible) = repeated("serve/workers-8", || {
        let server = PlanServer::start(ServeConfig::new(WORKERS, QUEUE)).expect("valid config");
        let mut tickets = Vec::new();
        // Batches of half the queue, retried on backpressure.
        for chunk in requests.chunks(QUEUE / 2) {
            let mut batch = chunk.to_vec();
            loop {
                match server.submit(batch) {
                    Ok(ticket) => break tickets.push(ticket),
                    Err(rejected) => {
                        batch = rejected.requests;
                        std::thread::yield_now();
                    }
                }
            }
        }
        let responses: Vec<ServeResponse> = tickets.into_iter().flat_map(Ticket::wait).collect();
        let _ = server.shutdown();
        let feasible = responses.iter().filter(|r| r.decision.feasible).count();
        (responses.len(), decisions_digest(&responses), feasible)
    });
    assert_eq!(answered, JOBS as usize);
    assert_eq!(digest, "a5bf4274f7558b25");
    assert_eq!(feasible, JOBS as usize);
}

/// The budget-capped s-restart replay at `workers`: one plan cache and one
/// allocation ledger shared by every shard, fresh for each run (a reused
/// ledger would double-count the grants).
fn budgeted(workers: u32) -> (SimulationReport, String, LedgerSummary) {
    repeated(&format!("budget/workers-{workers}"), || {
        let cache = PlanCache::shared();
        let ledger = AllocationLedger::shared();
        let builder = PolicyBuilder::new(ChronosPolicyConfig::testbed())
            .budgeted(SpeculationBudget::Limited(BUDGET_TOKENS))
            .with_ledger(Arc::clone(&ledger));
        let report = sharded_run(workers, RunOptions::default(), |_| {
            builder
                .clone()
                .cached(Arc::clone(&cache))
                .build(PolicyKind::SpeculativeRestart)
                .expect("s-restart accepts a budget")
        })
        .report;
        (report, ledger.digest(), ledger.summary())
    })
}

#[test]
fn budget_allocation_is_pinned_and_worker_count_invariant() {
    let four = budgeted(4);
    let (report, digest, summary) = &four;
    assert_eq!(digest, "04beac0b505e8865");
    assert_eq!(
        (summary.requested, summary.spent, summary.batches),
        (60_000, 4_096, 16)
    );
    assert!(
        summary.spent < summary.requested,
        "a budget of {BUDGET_TOKENS}/round must constrain the workload"
    );
    assert!(
        summary.spent <= BUDGET_TOKENS * summary.batches,
        "allocator overspent: {} copies over {} rounds of {BUDGET_TOKENS}",
        summary.spent,
        summary.batches
    );
    assert_eq!(
        (report.job_count(), report.pocd(), report.total_attempts()),
        (20_000, 0.732, 81_524)
    );
    // The allocation depends on the chunk structure, never the schedule.
    assert_eq!(
        budgeted(1),
        four,
        "budget determinism violated: 1-worker and 4-worker runs differ"
    );
}
