//! The headline acceptance property of the budgeted batch-planning
//! redesign: an infinite speculation budget reproduces today's unbudgeted
//! simulations **bit for bit** — both through the unlimited builder path
//! (which does not wrap at all) and through a finite-but-ample
//! `Limited(u64::MAX)` budget, which exercises the whole override
//! machinery (batch allocation, `BatchPlan` overrides applied at arrival in
//! place of the per-job submit) and must still change nothing. A budgeted
//! round also plans each job exactly once: the allocator's lookups are the
//! only plan-cache traffic of a budgeted batch.

use chronos_core::Pareto;
use chronos_sim::prelude::{
    ClusterSpec, EstimatorKind, JobId, JobSpec, JvmModel, PlanCache, ShardSpec, SimConfig, SimTime,
    Simulation, SimulationReport, SpeculationPolicy,
};
use chronos_strategies::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Deadlines comfortably beyond the testbed `τ_est = 40 s`, so every job is
/// feasible for all three strategies (infeasible jobs are *meant* to differ
/// under a finite budget: the wrapper grants them zero where the unbudgeted
/// policies fall back to `fallback_r`).
const DEADLINES: [f64; 4] = [90.0, 120.0, 180.0, 260.0];
const BETAS: [f64; 2] = [1.3, 1.7];

fn workload(seed: u64, jobs: usize) -> Vec<JobSpec> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..jobs)
        .map(|index| {
            let pick = next();
            let deadline = DEADLINES[(pick % 4) as usize];
            let tasks = 3 + (pick >> 3) % 5;
            let mut spec = JobSpec::new(
                JobId::new(index as u64),
                SimTime::from_secs(index as f64 * ((pick >> 8) % 7) as f64),
                deadline,
                tasks as usize,
            );
            spec.profile = Pareto::new(20.0, BETAS[((pick >> 6) % 2) as usize]).unwrap();
            spec.price = 1.0;
            spec
        })
        .collect()
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(20, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::ChronosJvmAware,
        progress_report_interval_secs: 1.0,
        seed,
        max_events: 0,
        sharding: ShardSpec::default(),
    }
}

fn run(policy: Box<dyn SpeculationPolicy>, sim_seed: u64, jobs: Vec<JobSpec>) -> SimulationReport {
    let mut sim = Simulation::new(sim_config(sim_seed), policy).unwrap();
    sim.submit_all(jobs).unwrap();
    sim.run().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn infinite_budgets_are_bit_identical_to_unbudgeted_runs(
        seed in 0u64..1_000_000,
        sim_seed in 0u64..1_000,
        jobs in 2usize..10,
        kind_index in 0usize..3,
    ) {
        let kind = [
            PolicyKind::Clone,
            PolicyKind::SpeculativeRestart,
            PolicyKind::SpeculativeResume,
        ][kind_index];
        let config = ChronosPolicyConfig::testbed();
        let baseline = run(kind.build(config), sim_seed, workload(seed, jobs));

        // Unlimited: the builder returns the unwrapped policy.
        let unlimited = PolicyBuilder::new(config)
            .budgeted(SpeculationBudget::Unlimited)
            .build(kind)
            .expect("unlimited builds are infallible");
        prop_assert_eq!(&run(unlimited, sim_seed, workload(seed, jobs)), &baseline);

        // Ample finite budget: the full override path runs — allocation,
        // BatchPlan overrides applied at arrival — and must be inert.
        let ample = PolicyBuilder::new(config)
            .budgeted(SpeculationBudget::Limited(u64::MAX))
            .build(kind)
            .expect("optimizing strategies are budgetable");
        prop_assert_eq!(&run(ample, sim_seed, workload(seed, jobs)), &baseline);
    }
}

#[test]
fn a_budgeted_round_looks_each_job_up_once() {
    // Nine jobs over three profiles (the deadline differs), one batch,
    // s-restart under a budget that cuts some of the jobs.
    let jobs: Vec<JobSpec> = (0..9u64)
        .map(|index| {
            let mut spec = JobSpec::new(
                JobId::new(index),
                SimTime::from_secs(index as f64 * 3.0),
                DEADLINES[(index % 3) as usize],
                4,
            );
            spec.profile = Pareto::new(20.0, 1.5).unwrap();
            spec
        })
        .collect();
    let cache = PlanCache::shared();
    let policy = PolicyBuilder::new(ChronosPolicyConfig::testbed())
        .cached(Arc::clone(&cache))
        .budgeted(SpeculationBudget::Limited(4))
        .build(PolicyKind::SpeculativeRestart)
        .expect("optimizing strategies are budgetable");
    let report = run(policy, 7, jobs);
    assert_eq!(report.job_count(), 9);
    // The allocator plans each job once; every arrival is overridden and
    // never reaches the planner again.
    let stats = cache.stats();
    assert_eq!(
        (stats.lookups(), stats.misses, stats.hits),
        (9, 3, 6),
        "{stats:?}"
    );
}
