//! Placement sweep: deadline-miss rate versus the cluster placement
//! policy, for the three optimizing Chronos strategies over the converted
//! 2011 Google cluster-trace fixture on a deliberately tight pool.
//!
//! The paper's experiments assume a pool that absorbs every speculative
//! copy, so *where* an attempt lands never matters. This figure measures
//! what happens when it does: the same tiled trace, the same simulator
//! seed, the same strategies — only the `PlacementPolicy` varies.
//! `most-free` is the historical scheduler (bit-identical to the
//! pre-placement engine), `bin-pack` packs the busiest node first, and
//! `deadline-aware` scores nodes by their remaining attempt window versus
//! the incoming attempt's expected duration (SNIPPETS exemplar scoring,
//! integer sim-time only).
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
    ClusterSpec, EstimatorKind, JobId, JobSpec, JvmModel, PlacementPolicy, PlanCache, ShardSpec,
    SimConfig, SimTime,
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
/// attributable to the placement, never to seed drift between sweep
/// points.
const SIM_SEED: u64 = 61;

/// Execution slowdown of the pool's straggler node — the machine-level
/// heterogeneity the ROADMAP's machine-aware-placement item asks about.
const SLOW_NODE_FACTOR: f64 = 2.5;

/// The same deliberately tight container pool as `fig_budget` — but
/// heterogeneous: node 1 runs everything [`SLOW_NODE_FACTOR`]× slower.
/// Placement only matters when attempts queue *and* nodes differ; on a
/// homogeneous pool every slot is interchangeable, any placement yields
/// the same completion times, and the sweep is provably flat.
fn placement_sim_config(seed: u64, placement: PlacementPolicy) -> SimConfig {
    let mut cluster = ClusterSpec::homogeneous(2, 4).with_placement(placement);
    cluster.slowdowns = vec![1.0, SLOW_NODE_FACTOR];
    SimConfig {
        cluster,
        jvm: JvmModel::default(),
        estimator: EstimatorKind::HadoopDefault,
        progress_report_interval_secs: 1.0,
        seed,
        max_events: 0,
        sharding: ShardSpec::default(),
    }
}

/// How many times the trace is tiled along the time axis (see
/// `fig_budget`): keeps the trace's arrival pattern and profile mix while
/// giving the miss rate statistical resolution on the tight pool.
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
struct PlacementCell {
    /// Sweep-point label: the placement's kebab-case name.
    placement: String,
    policy: String,
    /// Fraction of jobs missing their deadline (`1 − PoCD`).
    miss_rate: f64,
    pocd: f64,
    /// Mean machine time per job, VM-seconds.
    cost: f64,
    utility: f64,
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

    // One plan cache across the whole sweep: placement changes where
    // attempts land, never what a plan *is*, so sweep points cannot
    // collide and every (profile, strategy) pair is solved exactly once.
    let cache = PlanCache::shared();

    let mut cells: Vec<PlacementCell> = Vec::new();
    for placement in PlacementPolicy::ALL {
        for kind in kinds {
            let policy = PolicyBuilder::new(chronos_config)
                .cached(Arc::clone(&cache))
                .with_placement(placement)
                .build(kind)
                .expect("unbudgeted builds cannot fail for optimizing kinds");
            let report = run_policy(
                &placement_sim_config(SIM_SEED, placement),
                policy,
                jobs.clone(),
            )
            .expect("simulation");
            let m = measure(&report, UtilitySpec::new(theta, 0.0));
            cells.push(PlacementCell {
                placement: placement.label().to_string(),
                policy: kind.label().to_string(),
                miss_rate: 1.0 - m.pocd,
                pocd: m.pocd,
                cost: m.mean_machine_time,
                utility: m.utility,
            });
        }
    }

    let policies = ["clone", "s-restart", "s-resume"];
    let rows: Vec<Row> = PlacementPolicy::ALL
        .iter()
        .map(|placement| {
            let label = placement.label();
            let values = policies
                .iter()
                .map(|policy| {
                    cells
                        .iter()
                        .find(|c| c.policy == *policy && c.placement == label)
                        .map(|c| c.miss_rate)
                        .unwrap_or(f64::NAN)
                })
                .collect();
            Row::new(label, values)
        })
        .collect();

    print_table(
        "Placement sweep: deadline-miss rate vs cluster placement policy",
        &policies,
        &rows,
    );

    println!("\nplan cache: {}", cache.stats());

    match write_json("fig_placement.json", &cells) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("could not write results: {err}"),
    }
}
