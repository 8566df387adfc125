//! Budget sweep: deadline-miss rate versus the cluster-wide speculation
//! budget, for the three optimizing Chronos strategies over the converted
//! 2011 Google cluster-trace fixture.
//!
//! Every cell runs the same trace with the same simulator seed; the only
//! thing that varies is the per-round copy budget the water-filling
//! allocator may spend (`chronos_plan::budget`). `B = 0` suppresses all
//! speculation (Hadoop-NS behaviour), `B = unlimited` bypasses the
//! allocator entirely and reproduces the classic per-job optima
//! bit-for-bit, and the points in between show how gracefully each
//! strategy's miss rate degrades as copies become scarce.
//!
//! `--trace <path>` swaps the fixture for any `chronos-trace` v1 file.
//! `--quick`/`--paper` are accepted for harness uniformity, but the sweep
//! is trace-driven: its size is the trace's, not the scale's, so the
//! artifact is identical at every scale (which is what lets CI pin the
//! `--quick` output against a golden).

use chronos_bench::{
    load_trace_jobs_or_exit, measure, print_table, run_policy, trace_path_from_args, write_json,
    Row, Scale, UtilitySpec,
};
use chronos_sim::prelude::{
    ClusterSpec, EstimatorKind, JobId, JobSpec, JvmModel, PlanCache, ShardSpec, SimConfig, SimTime,
};
use chronos_strategies::prelude::*;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// The converted 2011 Google cluster-trace fixture (the output CI's
/// `trace-convert-smoke` check byte-pins), used when `--trace` is absent.
const GOLDEN_TRACE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/google2011_converted.trace"
);

/// One fixed simulation seed for every cell, so miss-rate differences are
/// attributable to the budget, never to seed drift between sweep points.
const SIM_SEED: u64 = 61;

/// A deliberately tight container pool. The datacenter-scale pool of the
/// other trace figures (1000 × 8) never queues, and with queueing absent
/// every budget point meets every deadline — the sweep would be flat. A
/// budget is interesting exactly when speculative copies compete with
/// first attempts for slots, so this figure runs the trace on a pool a
/// couple of jobs can saturate.
fn budget_sim_config(seed: u64) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(2, 4),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::HadoopDefault,
        progress_report_interval_secs: 1.0,
        seed,
        max_events: 0,
        sharding: ShardSpec::default(),
    }
}

/// The swept per-round budgets, ascending, with the unbudgeted reference
/// last.
const BUDGETS: [SpeculationBudget; 7] = [
    SpeculationBudget::Limited(0),
    SpeculationBudget::Limited(1),
    SpeculationBudget::Limited(2),
    SpeculationBudget::Limited(4),
    SpeculationBudget::Limited(8),
    SpeculationBudget::Limited(16),
    SpeculationBudget::Unlimited,
];

/// How many times the trace is tiled along the time axis. Seven jobs
/// would quantize the miss rate to steps of 1/7; tiling keeps the trace's
/// arrival pattern and profile mix while giving the sweep statistical
/// resolution — and enough concurrent jobs that speculative copies
/// actually compete for the tight pool.
const TILES: u64 = 24;

/// Seconds between tile starts. The trace's own arrivals span ~150 s, so
/// adjacent tiles overlap and the pool stays contended throughout.
const TILE_PERIOD_SECS: f64 = 100.0;

/// Replicates the trace `TILES` times, each replica re-identified and
/// shifted by one [`TILE_PERIOD_SECS`] stride along the time axis.
fn tile_trace(jobs: &[JobSpec]) -> Vec<JobSpec> {
    let stride = jobs.iter().map(|job| job.id.raw()).max().unwrap_or(0) + 1;
    (0..TILES)
        .flat_map(|tile| {
            jobs.iter().map(move |job| {
                let mut spec = job.clone();
                spec.id = JobId::new(tile * stride + job.id.raw());
                spec.submit_time =
                    SimTime::from_secs(job.submit_time.as_secs() + tile as f64 * TILE_PERIOD_SECS);
                spec
            })
        })
        .collect()
}

#[derive(Debug, Serialize)]
struct BudgetCell {
    /// The swept budget, or `None` for the unbudgeted reference point.
    budget: Option<u64>,
    /// Sweep-point label: `"0"`, `"1"`, …, `"unlimited"`.
    sweep: String,
    policy: String,
    /// Fraction of jobs missing their deadline (`1 − PoCD`).
    miss_rate: f64,
    pocd: f64,
    /// Mean machine time per job, VM-seconds.
    cost: f64,
    utility: f64,
    /// Allocator ledger totals: summed unconstrained optima and copies
    /// actually granted. Both are `0` for the unbudgeted reference, which
    /// never runs the allocator.
    requested: u64,
    spent: u64,
    /// Integer-only FNV-1a digest of the `(job, copies)` grants — safe to
    /// hard-check across hosts, unlike the float-valued columns.
    allocation_digest: String,
}

fn main() {
    // Accepted for harness uniformity; the sweep size is the trace's.
    let _ = Scale::from_args();
    let theta = 1e-4;
    let chronos_config = ChronosPolicyConfig::with_theta(theta)
        .expect("theta is valid")
        .with_timing(StrategyTiming::trace_default());

    let trace = trace_path_from_args().unwrap_or_else(|| PathBuf::from(GOLDEN_TRACE));
    let jobs = tile_trace(&load_trace_jobs_or_exit(&trace));

    let kinds = [
        PolicyKind::Clone,
        PolicyKind::SpeculativeRestart,
        PolicyKind::SpeculativeResume,
    ];

    // One plan cache across the whole sweep: the allocator's batch solves
    // and the policies' own optimizations dedupe to one solve per
    // (profile, strategy), and budgets never change what a plan *is* —
    // only how much of it is granted — so sweep points cannot collide.
    let cache = PlanCache::shared();

    let mut cells: Vec<BudgetCell> = Vec::new();
    for budget in BUDGETS {
        for kind in kinds {
            let ledger = AllocationLedger::shared();
            let policy = PolicyBuilder::new(chronos_config)
                .cached(Arc::clone(&cache))
                .budgeted(budget)
                .with_ledger(Arc::clone(&ledger))
                .build(kind)
                .expect("the optimizing strategies are budgetable");
            let report =
                run_policy(&budget_sim_config(SIM_SEED), policy, jobs.clone()).expect("simulation");
            let m = measure(&report, UtilitySpec::new(theta, 0.0));
            let summary = ledger.summary();
            cells.push(BudgetCell {
                budget: budget.limit(),
                sweep: budget.to_string(),
                policy: kind.label().to_string(),
                miss_rate: 1.0 - m.pocd,
                pocd: m.pocd,
                cost: m.mean_machine_time,
                utility: m.utility,
                requested: summary.requested,
                spent: summary.spent,
                allocation_digest: ledger.digest(),
            });
        }
    }

    let policies = ["clone", "s-restart", "s-resume"];
    let rows: Vec<Row> = BUDGETS
        .iter()
        .map(|budget| {
            let label = budget.to_string();
            let values = policies
                .iter()
                .map(|policy| {
                    cells
                        .iter()
                        .find(|c| c.policy == *policy && c.sweep == label)
                        .map(|c| c.miss_rate)
                        .unwrap_or(f64::NAN)
                })
                .collect();
            Row::new(format!("B = {label}"), values)
        })
        .collect();

    print_table(
        "Budget sweep: deadline-miss rate vs per-round speculation budget",
        &policies,
        &rows,
    );

    println!("\nplan cache: {}", cache.stats());

    match write_json("fig_budget.json", &cells) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("could not write results: {err}"),
    }
}
