//! Integration tests: the discrete-event simulator reproduces the closed
//! forms of Theorems 1–6 when run in the regime the analysis models (no JVM
//! overhead, an uncontended container pool, `τ_kill ≤ t_min` so no attempt
//! can finish before the pruning point).

use chronos::prelude::*;
use chronos_strategies::expected_straggler_progress;

const T_MIN: f64 = 20.0;
const BETA: f64 = 1.5;
const DEADLINE: f64 = 100.0;
const TASKS: usize = 10;
const JOBS: u32 = 400;

/// Absolute tolerance for simulated PoCD vs the closed forms: 400 jobs give
/// a Monte-Carlo standard error of at most `0.5 / sqrt(400) = 0.025`, so
/// 0.05 is two standard errors.
const POCD_TOLERANCE: f64 = 0.05;
/// Relative tolerance for mean machine time on the Clone strategy, whose
/// per-task time is the min of `r + 1` attempts (light-tailed).
const CLONE_COST_RTOL: f64 = 0.06;
/// Relative tolerance for the reactive strategies' mean machine time: the
/// straggler branch is rare (~9 % of tasks) and heavy-tailed, so the
/// Monte-Carlo mean needs a wider band than the PoCD comparisons.
const REACTIVE_COST_RTOL: f64 = 0.12;

// Every simulation in this file is seeded explicitly through
// `SimConfig::analysis_validation(seed)` and every direct RNG through
// `StdRng::seed_from_u64`; the vendored `rand` intentionally has no
// entropy-based constructor, so these comparisons are exactly reproducible
// run to run (see `identical_seeds_reproduce_reports_exactly`).

fn validation_jobs(seed_offset: u64) -> Vec<JobSpec> {
    let profile = chronos_core::Pareto::new(T_MIN, BETA).unwrap();
    (0..JOBS)
        .map(|i| {
            JobSpec::new(
                JobId::new(u64::from(i) + seed_offset * 10_000),
                SimTime::from_secs(f64::from(i) * 0.25),
                DEADLINE,
                TASKS,
            )
            .with_profile(profile)
        })
        .collect()
}

fn run_fixed_r(kind: chronos_core::StrategyKind, r: u32, seed: u64) -> SimulationReport {
    let config = ChronosPolicyConfig::testbed()
        .with_timing(StrategyTiming::of_tmin(0.3, 0.6))
        .with_fixed_r(r);
    let policy = Box::new(ChronosPolicy::new(kind, config));
    let mut sim = Simulation::new(SimConfig::analysis_validation(seed), policy).unwrap();
    sim.submit_all(validation_jobs(seed)).unwrap();
    sim.run().unwrap()
}

fn analytic_models(
    kind: chronos_core::StrategyKind,
) -> (chronos_core::PocdModel, chronos_core::CostModel) {
    let job = JobProfile::builder()
        .tasks(TASKS as u32)
        .t_min(T_MIN)
        .beta(BETA)
        .deadline(DEADLINE)
        .build()
        .unwrap();
    let (tau_est, tau_kill) = (0.3 * T_MIN, 0.6 * T_MIN);
    let params = match kind {
        chronos_core::StrategyKind::Clone => StrategyParams::clone_strategy(tau_kill),
        chronos_core::StrategyKind::SpeculativeRestart => {
            StrategyParams::restart(tau_est, tau_kill).unwrap()
        }
        chronos_core::StrategyKind::SpeculativeResume => StrategyParams::resume(
            tau_est,
            tau_kill,
            expected_straggler_progress(tau_est, DEADLINE, BETA),
        )
        .unwrap(),
    };
    (
        chronos_core::PocdModel::new(job, params).unwrap(),
        chronos_core::CostModel::new(job, params).unwrap(),
    )
}

#[test]
fn theorem1_and_2_clone_matches_simulation() {
    let (pocd, cost) = analytic_models(chronos_core::StrategyKind::Clone);
    for r in 1..=2u32 {
        let report = run_fixed_r(chronos_core::StrategyKind::Clone, r, 100 + u64::from(r));
        let theory_pocd = pocd.pocd(r);
        let theory_cost = cost.expected_job_machine_time(r).unwrap();
        assert!(
            (report.pocd() - theory_pocd).abs() < POCD_TOLERANCE,
            "Clone r={r}: simulated PoCD {} vs theory {theory_pocd}",
            report.pocd()
        );
        assert!(
            (report.mean_machine_time() - theory_cost).abs() / theory_cost < CLONE_COST_RTOL,
            "Clone r={r}: simulated cost {} vs theory {theory_cost}",
            report.mean_machine_time()
        );
    }
}

#[test]
fn theorem3_restart_pocd_matches_simulation() {
    let (pocd, _) = analytic_models(chronos_core::StrategyKind::SpeculativeRestart);
    for r in 1..=2u32 {
        let report = run_fixed_r(
            chronos_core::StrategyKind::SpeculativeRestart,
            r,
            200 + u64::from(r),
        );
        let theory = pocd.pocd(r);
        assert!(
            (report.pocd() - theory).abs() < POCD_TOLERANCE,
            "S-Restart r={r}: simulated {} vs theory {theory}",
            report.pocd()
        );
    }
}

#[test]
fn theorem4_restart_cost_matches_simulation() {
    let (_, cost) = analytic_models(chronos_core::StrategyKind::SpeculativeRestart);
    let r = 2u32;
    let report = run_fixed_r(chronos_core::StrategyKind::SpeculativeRestart, r, 321);
    let theory = cost.expected_job_machine_time(r).unwrap();
    assert!(
        (report.mean_machine_time() - theory).abs() / theory < REACTIVE_COST_RTOL,
        "S-Restart r={r}: simulated {} vs theory {theory}",
        report.mean_machine_time()
    );
}

#[test]
fn theorem5_and_6_resume_matches_simulation() {
    let (pocd, cost) = analytic_models(chronos_core::StrategyKind::SpeculativeResume);
    let r = 1u32;
    let report = run_fixed_r(chronos_core::StrategyKind::SpeculativeResume, r, 400);
    let theory_pocd = pocd.pocd(r);
    let theory_cost = cost.expected_job_machine_time(r).unwrap();
    assert!(
        (report.pocd() - theory_pocd).abs() < POCD_TOLERANCE,
        "S-Resume r={r}: simulated PoCD {} vs theory {theory_pocd}",
        report.pocd()
    );
    assert!(
        (report.mean_machine_time() - theory_cost).abs() / theory_cost < REACTIVE_COST_RTOL,
        "S-Resume r={r}: simulated cost {} vs theory {theory_cost}",
        report.mean_machine_time()
    );
}

#[test]
fn identical_seeds_reproduce_reports_exactly() {
    // The whole file relies on fixed seeds; this guards the property the
    // comparisons stand on: same seed, same report — bit for bit.
    for kind in [
        chronos_core::StrategyKind::Clone,
        chronos_core::StrategyKind::SpeculativeRestart,
        chronos_core::StrategyKind::SpeculativeResume,
    ] {
        let first = run_fixed_r(kind, 1, 777);
        let second = run_fixed_r(kind, 1, 777);
        assert_eq!(first, second, "{kind:?} report is not reproducible");
        let other_seed = run_fixed_r(kind, 1, 778);
        assert!(
            (first.pocd() - other_seed.pocd()).abs() < 2.0 * POCD_TOLERANCE,
            "{kind:?} seeds 777/778 disagree beyond Monte-Carlo noise"
        );
    }
}

#[test]
fn speculation_beats_no_speculation_in_simulation() {
    // The r = 0 baseline (no speculation at all for Clone/S-Restart) has the
    // lowest PoCD; adding attempts pushes it towards the closed-form value.
    let baseline = run_fixed_r(chronos_core::StrategyKind::Clone, 0, 55);
    let speculated = run_fixed_r(chronos_core::StrategyKind::Clone, 2, 55);
    assert!(speculated.pocd() > baseline.pocd() + 0.3);
}

#[test]
fn jvm_aware_estimator_beats_hadoop_default() {
    use chronos_sim::prelude::{estimation_error_secs, Attempt, AttemptId, NodeId, TaskId};
    let profile = chronos_core::Pareto::new(T_MIN, BETA).unwrap();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    let mut hadoop = 0.0;
    let mut chronos_err = 0.0;
    let samples = 2_000;
    for i in 0..samples {
        use rand::Rng;
        let mut attempt = Attempt::pending(
            AttemptId::new(i),
            TaskId::new(0),
            JobId::new(0),
            SimTime::ZERO,
            0.0,
        );
        let jvm = rng.gen_range(1.0..3.0);
        let work = profile.sample(&mut rng);
        attempt.start(NodeId::new(0), SimTime::ZERO, jvm, work);
        let at = SimTime::from_secs(jvm + work * 0.4);
        hadoop += estimation_error_secs(EstimatorKind::HadoopDefault, &attempt, at, 1.0).unwrap();
        chronos_err +=
            estimation_error_secs(EstimatorKind::ChronosJvmAware, &attempt, at, 1.0).unwrap();
    }
    assert!(
        chronos_err < 0.5 * hadoop,
        "Eq. 30 estimator ({chronos_err}) should at least halve Hadoop's error ({hadoop})"
    );
}
