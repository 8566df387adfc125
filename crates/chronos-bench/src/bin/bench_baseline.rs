//! Records (or checks) the simulator's performance baseline:
//! `bench_baseline.json` under `crates/chronos-bench/baselines/`.
//!
//! The ROADMAP requires a checked-in perf baseline before optimisation PRs
//! so speedups are measurable. This binary runs a fixed sharded workload
//! and writes one entry per configuration with two kinds of fields:
//!
//! * **deterministic** fields (job/event/attempt counts, PoCD) — identical
//!   across re-runs and worker counts on one host; snapshot drift is
//!   reported loudly (same-host drift = behaviour change, re-record and
//!   review) but tolerated, because a checker host with a different libm
//!   can shift them legitimately. The event counters
//!   (`events_dispatched` / `events_stale`) are the exception: they are
//!   the denominator of every events/sec figure and the unit of the
//!   `max_events` budget, so drift there is a **hard failure** in check
//!   mode;
//! * **timing** fields (wall milliseconds, events/second) — machine- and
//!   load-dependent; check mode only prints the drift, it never fails on
//!   timing (CI runners are far too noisy for that).
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_baseline            # record / refresh
//! cargo run --release --bin bench_baseline -- --check # verify against it
//! ```
//!
//! What check mode **does** fail on: panics anywhere in the run, a
//! violated in-process sharding determinism invariant (`measure` asserts
//! 1-worker and 4-worker reports are bit-identical), a violated on-disk
//! round-trip invariant (the `replay/*` entry re-runs the same workload
//! from a `chronos-trace` file and must merge to the identical report), and
//! a missing, unparseable or schema/workload-mismatched snapshot — the
//! signals CI's `bench-smoke` step exists to catch.
//!
//! Schema v4 adds the required `serve` field: a [`ServeEntry`] for the
//! `chronos-serve` admission-control server driving the same workload as
//! an arrival stream (`serve/workers-8`, queue capacity 64). Its request
//! count and decisions digest are integer-deterministic (the digest hashes
//! no floats) and drift there is a **hard failure**; the feasible count is
//! float-derived and loud-tolerated like PoCD; throughput and the latency
//! quantiles (p50/p99/p999 in microseconds, against the recorded
//! `p99_target_us` SLO of 100 µs) are informational timing.
//!
//! Schema v5 adds the required `budget` field: a [`BudgetEntry`] for the
//! same workload replayed through a budget-capped `s-restart` policy
//! (`budget/workers-4`, 256 copies per planning round). Its allocation
//! digest and ledger totals are integer-deterministic and hard-checked;
//! `measure` additionally asserts the 1-worker and 4-worker budgeted
//! replays produce a bit-identical report *and* allocation digest — the
//! water-filling allocator must depend on the chunk structure, never the
//! thread schedule.

use chronos_bench::{
    replay_sharded_bench_trace, report_digest, sharded_bench_config, sharded_bench_stream,
    write_sharded_bench_trace, SHARDED_BENCH_SEED, SHARDED_BENCH_SHARDS,
    SHARDED_BENCH_TASKS_PER_JOB,
};
use chronos_serve::prelude::*;
use chronos_sim::prelude::*;
use chronos_strategies::prelude::*;
use chronos_trace::prelude::*;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Job count: chosen to finish in about a second in release mode while
/// still queueing on containers and launching speculative attempts. The
/// workload shape itself is the shared `sharded_bench_*` definition, so
/// these numbers stay comparable to the `throughput` Criterion bench.
const JOBS: u32 = 20_000;

/// Timing samples per configuration. The recorded wall clock is the
/// *minimum* across samples — on a shared host the least-interrupted run
/// is the best estimate of the code's intrinsic cost — while the
/// deterministic output of every sample is asserted bit-identical, so the
/// repetition tightens the determinism gate instead of loosening the
/// numbers.
const TIMING_SAMPLES: u32 = 7;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WorkloadMeta {
    benchmark: String,
    jobs: u32,
    tasks_per_job: u32,
    shards: u32,
    seed: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct BaselineEntry {
    /// Configuration label, e.g. `hadoop-ns/workers-4`.
    name: String,
    workers: u32,
    // -- deterministic fields --
    jobs: usize,
    /// Events dispatched to a handler: the engine's unit of work and the
    /// denominator of `events_per_sec`. Drift is a hard check failure.
    events_dispatched: u64,
    /// Lazily-deleted stale pops (killed attempts' orphaned completions).
    /// Excluded from throughput and budget; drift is a hard check failure.
    events_stale: u64,
    total_attempts: u64,
    pocd: f64,
    // -- timing fields (informational) --
    wall_ms: f64,
    events_per_sec: f64,
}

/// The planner-path entry: the same workload replayed through
/// `ShardedRunner::run` with a shared plan cache. Its
/// deterministic fields are the cache counters (single-flight solving makes
/// hit/miss counts scheduling-independent) and a digest of the merged
/// report, which `measure` additionally asserts bit-identical to the
/// uncached `s-resume` run.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PlanCacheEntry {
    /// Configuration label, `plan-cache/workers-4`.
    name: String,
    workers: u32,
    // -- deterministic fields --
    jobs: usize,
    distinct_profiles: u64,
    hits: u64,
    misses: u64,
    hit_rate: f64,
    report_digest: String,
    // -- timing fields (informational) --
    wall_ms: f64,
    events_per_sec: f64,
}

/// The serving-path entry: the same workload driven through the
/// `chronos-serve` admission-control server as an arrival stream. Its
/// deterministic fields are the request count and the decisions digest
/// (FNV over the integer-only decision fields — request ids, feasibility
/// bits, strategy indices, copy counts — so it is safe to hard-check
/// across hosts, unlike the float-carrying report digests). The latency
/// quantiles come from the merged per-worker [`LatencyHistogram`]s of the
/// fastest sample and are informational, tracked against the recorded
/// `p99_target_us` SLO.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeEntry {
    /// Configuration label, `serve/workers-8`.
    name: String,
    workers: u32,
    queue_capacity: usize,
    // -- deterministic fields (hard-checked) --
    requests: u64,
    decisions_digest: String,
    // -- deterministic on one host, float-derived (loud-tolerated) --
    feasible: u64,
    // -- timing fields (informational) --
    /// Submissions bounced by backpressure before eventually being
    /// accepted; purely load-dependent.
    rejected: u64,
    wall_ms: f64,
    requests_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    /// Whether any decision landed in the histogram overflow bucket
    /// (≥ 2^38 µs) — the quantiles above are clamped if so.
    saturated: bool,
    /// The serving SLO this entry tracks: p99 decision latency, µs.
    p99_target_us: f64,
}

/// The budgeted-replay entry: the same workload replayed through the
/// `PolicyBuilder`-built budget-capped `s-restart` policy, every shard
/// sharing one plan cache and one [`AllocationLedger`]. Its deterministic
/// fields are the ledger totals and the allocation digest (FNV over the
/// integer-only `(job, copies)` grants — float-free, so safe to hard-check
/// across hosts). `measure` asserts the 1-worker replay is bit-identical,
/// report and digest both.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BudgetEntry {
    /// Configuration label, `budget/workers-4`.
    name: String,
    workers: u32,
    /// The per-planning-round copy cap the replay ran under.
    budget: u64,
    // -- deterministic fields (hard-checked) --
    jobs: usize,
    allocation_digest: String,
    /// Summed unconstrained optima across all rounds (`Σ r*`).
    requested: u64,
    /// Copies actually granted under the cap.
    spent: u64,
    /// Planning rounds the ledger recorded (the chunk structure).
    batches: u64,
    // -- deterministic on one host, float-derived (loud-tolerated) --
    pocd: f64,
    total_attempts: u64,
    // -- timing fields (informational) --
    wall_ms: f64,
    events_per_sec: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Baseline {
    schema_version: u32,
    workload: WorkloadMeta,
    entries: Vec<BaselineEntry>,
    plan_cache: PlanCacheEntry,
    serve: ServeEntry,
    budget: BudgetEntry,
}

const SCHEMA_VERSION: u32 = 5;

/// The per-planning-round copy cap of the `budget/*` entry: low enough to
/// genuinely constrain the workload (each of the 16 chunks requests far
/// more), high enough that speculation still visibly happens.
const BUDGET_TOKENS: u64 = 256;

fn workload_meta() -> WorkloadMeta {
    WorkloadMeta {
        benchmark: Benchmark::Sort.label().to_string(),
        jobs: JOBS,
        tasks_per_job: SHARDED_BENCH_TASKS_PER_JOB,
        shards: SHARDED_BENCH_SHARDS,
        seed: SHARDED_BENCH_SEED,
    }
}

/// Runs `sample` `TIMING_SAMPLES` times, keeping the fastest wall clock
/// and asserting every sample's report is bit-identical to the first
/// (run-to-run determinism on one host is part of the contract).
fn best_of(
    what: &str,
    sample: impl Fn() -> (Duration, SimulationReport),
) -> (Duration, SimulationReport) {
    let (mut best_wall, report) = sample();
    for _ in 1..TIMING_SAMPLES {
        let (wall, rerun) = sample();
        assert_eq!(report, rerun, "run-to-run determinism violated for {what}");
        best_wall = best_wall.min(wall);
    }
    (best_wall, report)
}

/// The `JOBS`-job bench workload as an (infallible) chunk source.
fn bench_stream() -> impl Iterator<Item = Result<Vec<JobSpec>, Infallible>> + Send {
    sharded_bench_stream(JOBS).map(Ok)
}

fn run_config(
    label: &str,
    workers: u32,
    build: &(dyn Fn() -> Box<dyn SpeculationPolicy> + Sync),
) -> (BaselineEntry, SimulationReport) {
    let (wall, report) = best_of(&format!("{label}/workers-{workers}"), || {
        let runner = ShardedRunner::new(sharded_bench_config(workers)).expect("valid config");
        let start = Instant::now();
        let report = runner
            .run(bench_stream(), RunOptions::default(), |_| build())
            .expect("simulation completes")
            .report;
        (start.elapsed(), report)
    });
    let wall_ms = wall.as_secs_f64() * 1_000.0;
    let entry = BaselineEntry {
        name: format!("{label}/workers-{workers}"),
        workers,
        jobs: report.job_count(),
        events_dispatched: report.events_dispatched,
        events_stale: report.events_stale,
        total_attempts: report.total_attempts(),
        pocd: report.pocd(),
        wall_ms,
        events_per_sec: report.events_dispatched as f64 / wall.as_secs_f64().max(1e-9),
    };
    (entry, report)
}

/// Times the trace-replay path: the same workload written to disk once,
/// then parsed + replayed through `ShardedRunner::run`. The wall clock
/// deliberately includes the file parse — that *is* the replay path a
/// loaded trace pays — and the report is asserted bit-identical to the
/// in-memory run, extending the determinism gate across the on-disk round
/// trip.
fn run_replay_config(workers: u32) -> (BaselineEntry, SimulationReport) {
    let dir = std::env::temp_dir().join(format!("chronos-bench-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create replay scratch dir");
    let path = dir.join("bench_baseline.trace");
    write_sharded_bench_trace(&path, JOBS).expect("write bench trace");
    let (wall, report) = best_of(&format!("replay/workers-{workers}"), || {
        let start = Instant::now();
        let report = replay_sharded_bench_trace(&path, JOBS, workers);
        (start.elapsed(), report)
    });
    let _ = std::fs::remove_dir_all(dir);
    let entry = BaselineEntry {
        name: format!("replay/workers-{workers}"),
        workers,
        jobs: report.job_count(),
        events_dispatched: report.events_dispatched,
        events_stale: report.events_stale,
        total_attempts: report.total_attempts(),
        pocd: report.pocd(),
        wall_ms: wall.as_secs_f64() * 1_000.0,
        events_per_sec: report.events_dispatched as f64 / wall.as_secs_f64().max(1e-9),
    };
    (entry, report)
}

/// Times the planner-backed path: the `s-resume` workload replayed through
/// `ShardedRunner::run` with one plan cache shared by every shard. All
/// jobs of the benchmark workload share a single analytical profile, so
/// the cache must collapse the per-job optimizations to one solve; the
/// merged report must be bit-identical to the uncached `reference` run.
fn run_plan_cache_config(workers: u32, reference: &SimulationReport) -> PlanCacheEntry {
    // A fresh cache per sample: re-running against a warm cache would turn
    // every solve into a hit and corrupt the recorded miss count.
    let sample = || {
        let cache = PlanCache::shared();
        let runner = ShardedRunner::new(sharded_bench_config(workers)).expect("valid config");
        let start = Instant::now();
        let options = RunOptions {
            cache: Some(&cache),
            trace: None,
        };
        let output = runner
            .run(bench_stream(), options, |_| {
                Box::new(ResumePolicy::with_cache(
                    ChronosPolicyConfig::testbed(),
                    Arc::clone(&cache),
                ))
            })
            .expect("simulation completes");
        let stats = output.cache_stats.expect("cache stats requested");
        (start.elapsed(), output.report, stats)
    };
    let (mut wall, report, stats) = sample();
    for _ in 1..TIMING_SAMPLES {
        let (rerun_wall, rerun_report, rerun_stats) = sample();
        assert_eq!(
            report, rerun_report,
            "run-to-run determinism violated for plan-cache/workers-{workers}"
        );
        assert_eq!(
            (stats.hits, stats.misses),
            (rerun_stats.hits, rerun_stats.misses),
            "run-to-run cache-counter drift for plan-cache/workers-{workers}"
        );
        wall = wall.min(rerun_wall);
    }
    assert_eq!(
        &report, reference,
        "planner determinism violated: the planner-backed replay differs from the uncached run"
    );
    assert!(
        stats.misses as usize <= report.job_count(),
        "plan cache solved more profiles than jobs exist"
    );
    PlanCacheEntry {
        name: format!("plan-cache/workers-{workers}"),
        workers,
        jobs: report.job_count(),
        distinct_profiles: stats.misses,
        hits: stats.hits,
        misses: stats.misses,
        hit_rate: stats.hit_rate(),
        report_digest: report_digest(&report),
        wall_ms: wall.as_secs_f64() * 1_000.0,
        events_per_sec: report.events_dispatched as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// Times the budgeted-replay path: the plan-cache workload with
/// every shard's `s-restart` policy wrapped by the budget-capped
/// water-filling allocator, one plan cache and one [`AllocationLedger`]
/// shared across shards. Each sample asserts the merged report *and* the
/// ledger agree with the first run; `measure` additionally asserts the
/// 1-worker replay is bit-identical to the 4-worker one — the allocation
/// must be a function of the chunk structure, never the thread schedule.
fn run_budget_config(workers: u32) -> (BudgetEntry, SimulationReport, String) {
    // Fresh cache and ledger per sample: a warm cache would corrupt the
    // timing, a reused ledger would double-count the grants.
    let sample = || {
        let cache = PlanCache::shared();
        let ledger = AllocationLedger::shared();
        let builder = PolicyBuilder::new(ChronosPolicyConfig::testbed())
            .budgeted(SpeculationBudget::Limited(BUDGET_TOKENS))
            .with_ledger(Arc::clone(&ledger));
        let runner = ShardedRunner::new(sharded_bench_config(workers)).expect("valid config");
        let start = Instant::now();
        let report = runner
            .run(bench_stream(), RunOptions::default(), move |_| {
                builder
                    .clone()
                    .cached(Arc::clone(&cache))
                    .build(PolicyKind::SpeculativeRestart)
                    .expect("s-restart accepts a budget")
            })
            .expect("simulation completes")
            .report;
        (start.elapsed(), report, ledger.digest(), ledger.summary())
    };
    let (mut wall, report, digest, summary) = sample();
    for _ in 1..TIMING_SAMPLES {
        let (rerun_wall, rerun_report, rerun_digest, rerun_summary) = sample();
        assert_eq!(
            report, rerun_report,
            "run-to-run determinism violated for budget/workers-{workers}"
        );
        assert_eq!(
            (digest.as_str(), summary),
            (rerun_digest.as_str(), rerun_summary),
            "run-to-run allocation drift for budget/workers-{workers}"
        );
        wall = wall.min(rerun_wall);
    }
    assert!(
        summary.spent < summary.requested,
        "budget of {BUDGET_TOKENS}/round does not constrain the workload \
         (granted {} of {} requested copies) — the entry would measure nothing",
        summary.spent,
        summary.requested,
    );
    assert!(
        summary.spent <= BUDGET_TOKENS * summary.batches,
        "allocator overspent its budget: {} copies across {} rounds of {BUDGET_TOKENS}",
        summary.spent,
        summary.batches,
    );
    let entry = BudgetEntry {
        name: format!("budget/workers-{workers}"),
        workers,
        budget: BUDGET_TOKENS,
        jobs: report.job_count(),
        allocation_digest: digest.clone(),
        requested: summary.requested,
        spent: summary.spent,
        batches: summary.batches,
        pocd: report.pocd(),
        total_attempts: report.total_attempts(),
        wall_ms: wall.as_secs_f64() * 1_000.0,
        events_per_sec: report.events_dispatched as f64 / wall.as_secs_f64().max(1e-9),
    };
    (entry, report, digest)
}

/// Times the serving path: the benchmark workload's jobs submitted to a
/// live `PlanServer` as an arrival stream (batched to half the queue,
/// retrying on backpressure), every decision awaited, the server drained.
/// Every sample's decisions digest is asserted identical — the server's
/// worker pool must not make the admission decisions scheduling-dependent
/// — and the recorded timing/latency figures come from the fastest sample.
fn run_serve_config(workers: u32, queue_capacity: usize) -> ServeEntry {
    let jobs: Vec<JobSpec> = sharded_bench_stream(JOBS).flatten().collect();
    let submit_batch = (queue_capacity / 2).max(1);
    let sample = || {
        let server = PlanServer::start(ServeConfig::new(workers, queue_capacity))
            .expect("valid serve config");
        let start = Instant::now();
        let mut tickets = Vec::with_capacity(jobs.len() / submit_batch + 1);
        let mut next_id = 0u64;
        for chunk in jobs.chunks(submit_batch) {
            let mut batch: Vec<ServeRequest> = chunk
                .iter()
                .map(|job| {
                    let request = ServeRequest {
                        request_id: next_id,
                        job: job.clone(),
                    };
                    next_id += 1;
                    request
                })
                .collect();
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
        let mut responses: Vec<ServeResponse> = tickets
            .into_iter()
            .flat_map(|ticket| ticket.wait())
            .collect();
        let wall = start.elapsed();
        let stats = server.shutdown();
        responses.sort_unstable_by_key(|response| response.request_id);
        (wall, responses, stats)
    };
    let (mut wall, responses, mut stats) = sample();
    let digest = decisions_digest(&responses);
    for _ in 1..TIMING_SAMPLES {
        let (rerun_wall, rerun_responses, rerun_stats) = sample();
        assert_eq!(
            digest,
            decisions_digest(&rerun_responses),
            "serve determinism violated: decisions drifted across samples at {workers} workers"
        );
        if rerun_wall < wall {
            wall = rerun_wall;
            stats = rerun_stats;
        }
    }
    let feasible = responses
        .iter()
        .filter(|response| response.decision.feasible)
        .count() as u64;
    let quantile = |q: f64| stats.latency.quantile_upper_bound(q).unwrap_or(0.0);
    ServeEntry {
        name: format!("serve/workers-{workers}"),
        workers,
        queue_capacity,
        requests: responses.len() as u64,
        decisions_digest: digest,
        feasible,
        rejected: stats.rejected,
        wall_ms: wall.as_secs_f64() * 1_000.0,
        requests_per_sec: responses.len() as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
        p999_us: quantile(0.999),
        saturated: stats.latency.saturated(),
        p99_target_us: 100.0,
    }
}

/// Runs every baseline configuration, asserting the worker-count,
/// on-disk round-trip and planner determinism invariants along the way (a
/// panic here is a regression the CI smoke step must catch).
fn measure() -> Baseline {
    let ns: &(dyn Fn() -> Box<dyn SpeculationPolicy> + Sync) =
        &|| Box::new(HadoopNoSpec::default());
    let resume: &(dyn Fn() -> Box<dyn SpeculationPolicy> + Sync) =
        &|| Box::new(ResumePolicy::uncached(ChronosPolicyConfig::testbed()));

    let (ns_1, ns_1_report) = run_config("hadoop-ns", 1, ns);
    let (ns_4, ns_4_report) = run_config("hadoop-ns", 4, ns);
    assert_eq!(
        ns_1_report, ns_4_report,
        "sharding determinism violated: 1-worker and 4-worker reports differ"
    );
    let (resume_4, resume_4_report) = run_config("s-resume", 4, resume);
    let (replay_4, replay_4_report) = run_replay_config(4);
    assert_eq!(
        ns_4_report, replay_4_report,
        "trace round-trip determinism violated: file replay differs from the in-memory run"
    );
    let plan_cache = run_plan_cache_config(4, &resume_4_report);
    let serve = run_serve_config(8, 64);
    let (budget, budget_4_report, budget_4_digest) = run_budget_config(4);
    let (_, budget_1_report, budget_1_digest) = run_budget_config(1);
    assert_eq!(
        budget_4_report, budget_1_report,
        "budget sharding determinism violated: 1-worker and 4-worker budgeted reports differ"
    );
    assert_eq!(
        budget_4_digest, budget_1_digest,
        "budget allocation determinism violated: the allocation digest depends on the worker count"
    );

    Baseline {
        schema_version: SCHEMA_VERSION,
        workload: workload_meta(),
        entries: vec![ns_1, ns_4, resume_4, replay_4],
        plan_cache,
        serve,
        budget,
    }
}

/// Where the snapshot lives: next to this crate's manifest so the file is
/// version-controlled with the code it measures. Overridable for tests.
fn baseline_path() -> PathBuf {
    std::env::var_os("CHRONOS_BASELINE_PATH")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines/bench_baseline.json")
        })
}

fn record(current: &Baseline) {
    let path = baseline_path();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create baselines directory");
    }
    let json = serde_json::to_string_pretty(current).expect("serialize baseline");
    std::fs::write(&path, json + "\n").expect("write baseline");
    println!("recorded baseline -> {}", path.display());
    for entry in &current.entries {
        println!(
            "  {:<24} {:>10.1} ms  {:>12.0} events/s",
            entry.name, entry.wall_ms, entry.events_per_sec
        );
    }
    let plan = &current.plan_cache;
    println!(
        "  {:<24} {:>10.1} ms  {:>12.0} events/s  ({} solves for {} jobs, {:.2}% hit rate)",
        plan.name,
        plan.wall_ms,
        plan.events_per_sec,
        plan.distinct_profiles,
        plan.jobs,
        100.0 * plan.hit_rate,
    );
    let serve = &current.serve;
    println!(
        "  {:<24} {:>10.1} ms  {:>12.0} req/s     (p50 {:.0} us, p99 {:.0} us vs {:.0} us target, digest {})",
        serve.name,
        serve.wall_ms,
        serve.requests_per_sec,
        serve.p50_us,
        serve.p99_us,
        serve.p99_target_us,
        serve.decisions_digest,
    );
    let budget = &current.budget;
    println!(
        "  {:<24} {:>10.1} ms  {:>12.0} events/s  (granted {}/{} copies over {} rounds at {}/round, digest {})",
        budget.name,
        budget.wall_ms,
        budget.events_per_sec,
        budget.spent,
        budget.requested,
        budget.batches,
        budget.budget,
        budget.allocation_digest,
    );
}

/// Compares `current` against the stored snapshot. Deterministic drift is
/// an error (exit 1); timing drift is reported but tolerated.
fn check(current: &Baseline) -> Result<(), String> {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path).map_err(|err| {
        format!(
            "no baseline at {} ({err}); record one with `cargo run --release --bin bench_baseline`",
            path.display()
        )
    })?;
    // Probe the schema version before the full parse: an older snapshot
    // (e.g. schema v1, which predates the required `plan_cache` field)
    // must produce the "re-record" guidance, not a missing-field serde
    // error.
    #[derive(Deserialize)]
    struct SchemaProbe {
        schema_version: u32,
    }
    let probe: SchemaProbe =
        serde_json::from_str(&text).map_err(|err| format!("unreadable baseline: {err}"))?;
    if probe.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "baseline schema v{} does not match binary schema v{SCHEMA_VERSION}; re-record",
            probe.schema_version
        ));
    }
    let stored: Baseline =
        serde_json::from_str(&text).map_err(|err| format!("unreadable baseline: {err}"))?;
    if stored.workload != current.workload {
        return Err(format!(
            "baseline workload {:?} does not match binary workload {:?}; re-record",
            stored.workload, current.workload
        ));
    }
    if stored.entries.len() != current.entries.len() {
        return Err(format!(
            "baseline has {} entries, binary produced {}; re-record",
            stored.entries.len(),
            current.entries.len()
        ));
    }
    let mut drifted = 0usize;
    for (stored, current) in stored.entries.iter().zip(&current.entries) {
        if stored.name != current.name {
            return Err(format!(
                "entry order changed: stored {} vs current {}; re-record",
                stored.name, current.name
            ));
        }
        // Snapshot drift is reported loudly but does NOT fail the check:
        // the simulation is bit-deterministic on one host (the in-process
        // 1-vs-4-worker assert in `measure` enforces that, and a violation
        // panics — the blocking signal), but task durations flow through
        // platform libm (ln/powf), so a checker host whose libm rounds one
        // sample differently than the recorder's can legitimately shift
        // these fields without any code change. Gating CI on a cross-host
        // float comparison would make the job flaky, not safer.
        // The event counters are the exception to the tolerate-drift rule:
        // they are the denominator of every events/sec figure and the unit
        // of the `max_events` budget, so silently shifting them would make
        // every future perf comparison lie. Drift here fails the check.
        if stored.events_dispatched != current.events_dispatched
            || stored.events_stale != current.events_stale
        {
            return Err(format!(
                "{}: event accounting drifted: stored dispatched={} stale={}, \
                 current dispatched={} stale={}; the engine's event accounting \
                 changed — review the change, then re-record",
                stored.name,
                stored.events_dispatched,
                stored.events_stale,
                current.events_dispatched,
                current.events_stale,
            ));
        }
        let deterministic_match = stored.jobs == current.jobs
            && stored.total_attempts == current.total_attempts
            && stored.pocd.to_bits() == current.pocd.to_bits();
        if !deterministic_match {
            drifted += 1;
            println!(
                "  {}: snapshot drift\n    stored:  jobs={} attempts={} pocd={}\n    current: jobs={} attempts={} pocd={}\n    same-host drift means behaviour changed — re-record the baseline and\n    review the diff; cross-host drift (different libm) is expected noise.",
                stored.name,
                stored.jobs,
                stored.total_attempts,
                stored.pocd,
                current.jobs,
                current.total_attempts,
                current.pocd,
            );
        }
        // Timing: informational only — CI runners are too noisy to gate on.
        let ratio = current.wall_ms / stored.wall_ms.max(1e-9);
        println!(
            "  {:<24} {:>10.1} ms (baseline {:>10.1} ms, x{:.2})",
            current.name, current.wall_ms, stored.wall_ms, ratio
        );
        if !(0.5..=2.0).contains(&ratio) {
            println!("    note: timing drifted by more than 2x; not a failure, but worth a look");
        }
    }
    // The plan-cache entry follows the same policy: its deterministic
    // fields (profile/hit/miss counts, the report digest) are compared
    // loudly but tolerated across hosts — the *blocking* planner invariant
    // is the in-process `measure` assertion that the planner-backed report
    // is bit-identical to the uncached run.
    let (stored_plan, current_plan) = (&stored.plan_cache, &current.plan_cache);
    if stored_plan.name != current_plan.name {
        return Err(format!(
            "plan-cache entry changed: stored {} vs current {}; re-record",
            stored_plan.name, current_plan.name
        ));
    }
    let plan_match = stored_plan.jobs == current_plan.jobs
        && stored_plan.distinct_profiles == current_plan.distinct_profiles
        && stored_plan.hits == current_plan.hits
        && stored_plan.misses == current_plan.misses
        && stored_plan.hit_rate.to_bits() == current_plan.hit_rate.to_bits()
        && stored_plan.report_digest == current_plan.report_digest;
    if !plan_match {
        drifted += 1;
        println!(
            "  {}: snapshot drift\n    stored:  jobs={} distinct={} hits={} misses={} hit_rate={} digest={}\n    current: jobs={} distinct={} hits={} misses={} hit_rate={} digest={}\n    same-host drift means planner behaviour changed — re-record and review.",
            stored_plan.name,
            stored_plan.jobs,
            stored_plan.distinct_profiles,
            stored_plan.hits,
            stored_plan.misses,
            stored_plan.hit_rate,
            stored_plan.report_digest,
            current_plan.jobs,
            current_plan.distinct_profiles,
            current_plan.hits,
            current_plan.misses,
            current_plan.hit_rate,
            current_plan.report_digest,
        );
    }
    let plan_ratio = current_plan.wall_ms / stored_plan.wall_ms.max(1e-9);
    println!(
        "  {:<24} {:>10.1} ms (baseline {:>10.1} ms, x{:.2})",
        current_plan.name, current_plan.wall_ms, stored_plan.wall_ms, plan_ratio
    );

    // The serve entry: its integer-deterministic fields carry no floats
    // (the decisions digest hashes request ids, feasibility bits, strategy
    // indices and copy counts only), so unlike the report-level fields they
    // are safe to hard-check across hosts — drift means the admission
    // decisions themselves changed. The feasible count *is* float-derived
    // (a utility comparison decides it), so it follows the loud-tolerate
    // rule; latency and throughput are informational like all timing.
    let (stored_serve, current_serve) = (&stored.serve, &current.serve);
    if stored_serve.name != current_serve.name {
        return Err(format!(
            "serve entry changed: stored {} vs current {}; re-record",
            stored_serve.name, current_serve.name
        ));
    }
    if stored_serve.requests != current_serve.requests
        || stored_serve.decisions_digest != current_serve.decisions_digest
    {
        return Err(format!(
            "{}: admission decisions drifted: stored {} requests digest {}, \
             current {} requests digest {}; the serving path's decisions \
             changed — review the change, then re-record",
            stored_serve.name,
            stored_serve.requests,
            stored_serve.decisions_digest,
            current_serve.requests,
            current_serve.decisions_digest,
        ));
    }
    if stored_serve.feasible != current_serve.feasible {
        drifted += 1;
        println!(
            "  {}: snapshot drift\n    stored:  feasible={}\n    current: feasible={}\n    same-host drift means admission feasibility changed — re-record and\n    review; cross-host drift (different libm) is expected noise.",
            stored_serve.name, stored_serve.feasible, current_serve.feasible,
        );
    }
    let serve_ratio = current_serve.wall_ms / stored_serve.wall_ms.max(1e-9);
    println!(
        "  {:<24} {:>10.1} ms (baseline {:>10.1} ms, x{:.2})  p99 {:.0} us (target {:.0} us)",
        current_serve.name,
        current_serve.wall_ms,
        stored_serve.wall_ms,
        serve_ratio,
        current_serve.p99_us,
        current_serve.p99_target_us,
    );
    if current_serve.p99_us > current_serve.p99_target_us {
        println!("    note: p99 above the recorded SLO target; not a failure, but worth a look");
    }

    // The budget entry mirrors the serve policy: the allocation digest and
    // the ledger totals are integer-only (copy counts, job ids, round
    // counts — floats never enter them), so drift is a hard failure: the
    // allocator granted different copies to different jobs. PoCD and the
    // attempt count are downstream of float-driven simulation and follow
    // the loud-tolerate rule.
    let (stored_budget, current_budget) = (&stored.budget, &current.budget);
    if stored_budget.name != current_budget.name {
        return Err(format!(
            "budget entry changed: stored {} vs current {}; re-record",
            stored_budget.name, current_budget.name
        ));
    }
    if stored_budget.budget != current_budget.budget
        || stored_budget.jobs != current_budget.jobs
        || stored_budget.allocation_digest != current_budget.allocation_digest
        || stored_budget.requested != current_budget.requested
        || stored_budget.spent != current_budget.spent
        || stored_budget.batches != current_budget.batches
    {
        return Err(format!(
            "{}: allocation drifted: stored cap={} jobs={} requested={} spent={} \
             batches={} digest={}, current cap={} jobs={} requested={} spent={} \
             batches={} digest={}; the budget allocator's grants changed — \
             review the change, then re-record",
            stored_budget.name,
            stored_budget.budget,
            stored_budget.jobs,
            stored_budget.requested,
            stored_budget.spent,
            stored_budget.batches,
            stored_budget.allocation_digest,
            current_budget.budget,
            current_budget.jobs,
            current_budget.requested,
            current_budget.spent,
            current_budget.batches,
            current_budget.allocation_digest,
        ));
    }
    if stored_budget.pocd.to_bits() != current_budget.pocd.to_bits()
        || stored_budget.total_attempts != current_budget.total_attempts
    {
        drifted += 1;
        println!(
            "  {}: snapshot drift\n    stored:  attempts={} pocd={}\n    current: attempts={} pocd={}\n    same-host drift means budgeted behaviour changed — re-record and\n    review; cross-host drift (different libm) is expected noise.",
            stored_budget.name,
            stored_budget.total_attempts,
            stored_budget.pocd,
            current_budget.total_attempts,
            current_budget.pocd,
        );
    }
    let budget_ratio = current_budget.wall_ms / stored_budget.wall_ms.max(1e-9);
    println!(
        "  {:<24} {:>10.1} ms (baseline {:>10.1} ms, x{:.2})",
        current_budget.name, current_budget.wall_ms, stored_budget.wall_ms, budget_ratio
    );

    if drifted > 0 {
        println!(
            "baseline check OK with {drifted} drifted entr{} (see above; in-process determinism held)",
            if drifted == 1 { "y" } else { "ies" }
        );
    } else {
        println!(
            "baseline check OK ({} entries + plan-cache/serve/budget, deterministic fields stable)",
            current.entries.len()
        );
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(err) = chronos_bench::check_flags(&args, "--check", "") {
        eprintln!("bench_baseline: {err} (accepted: --check)");
        std::process::exit(2);
    }
    let check_mode = args.iter().any(|a| a == "--check");
    let current = measure();
    if check_mode {
        if let Err(message) = check(&current) {
            eprintln!("baseline check FAILED: {message}");
            std::process::exit(1);
        }
    } else {
        record(&current);
    }
}
