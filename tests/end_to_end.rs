//! End-to-end integration tests across all crates: workloads from
//! `chronos-trace`, policies from `chronos-strategies`, simulated on
//! `chronos-sim`, reproducing the orderings the paper's evaluation reports.

use chronos::prelude::*;

fn run(
    policy: Box<dyn SpeculationPolicy>,
    jobs: Vec<JobSpec>,
    config: &SimConfig,
) -> SimulationReport {
    let mut sim = Simulation::new(config.clone(), policy).unwrap();
    sim.submit_all(jobs).unwrap();
    sim.run().unwrap()
}

fn testbed_config(seed: u64) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(40, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::ChronosJvmAware,
        progress_report_interval_secs: 1.0,
        seed,
        max_events: 0,
        sharding: ShardSpec::default(),
    }
}

#[test]
fn figure2_ordering_chronos_beats_baselines() {
    // 40 Sort jobs on the 40×8 testbed: every Chronos strategy must beat
    // Hadoop-NS on PoCD, and S-Resume must not cost more than Clone.
    let jobs = TestbedWorkload::paper_setup(Benchmark::Sort, 77)
        .with_jobs(40)
        .generate()
        .unwrap();
    let chronos_config = ChronosPolicyConfig::testbed();
    let config = testbed_config(3);

    let hadoop_ns = run(Box::new(HadoopNoSpec::default()), jobs.clone(), &config);
    let hadoop_s = run(Box::new(HadoopSpeculate::default()), jobs.clone(), &config);
    let clone = run(
        Box::new(ChronosPolicy::new(StrategyKind::Clone, chronos_config)),
        jobs.clone(),
        &config,
    );
    let restart = run(
        Box::new(ChronosPolicy::new(
            StrategyKind::SpeculativeRestart,
            chronos_config,
        )),
        jobs.clone(),
        &config,
    );
    let resume = run(
        Box::new(ChronosPolicy::new(
            StrategyKind::SpeculativeResume,
            chronos_config,
        )),
        jobs,
        &config,
    );

    // PoCD ordering (Figure 2a): Hadoop-NS is the floor.
    for (name, report) in [
        ("hadoop-s", &hadoop_s),
        ("clone", &clone),
        ("s-restart", &restart),
        ("s-resume", &resume),
    ] {
        assert!(
            report.pocd() > hadoop_ns.pocd(),
            "{name} PoCD {} should beat Hadoop-NS {}",
            report.pocd(),
            hadoop_ns.pocd()
        );
    }
    // The reactive Chronos strategies reach high absolute PoCD.
    assert!(restart.pocd() >= 0.9, "s-restart PoCD {}", restart.pocd());
    assert!(resume.pocd() >= 0.9, "s-resume PoCD {}", resume.pocd());
    // Cost ordering (Figure 2b): Clone is the most expensive strategy and
    // S-Resume stays cheaper than Clone.
    assert!(clone.mean_machine_time() > resume.mean_machine_time());
    assert!(clone.mean_machine_time() > restart.mean_machine_time());
    // Utility (Figure 2c): with R_min set to the Hadoop-NS PoCD, Hadoop-NS
    // itself is -inf and the Chronos strategies are finite and better.
    let r_min = hadoop_ns.pocd();
    assert_eq!(hadoop_ns.net_utility(1e-4, r_min), f64::NEG_INFINITY);
    assert!(resume.net_utility(1e-4, r_min) > hadoop_s.net_utility(1e-4, r_min));
}

#[test]
fn figure3_mantri_is_expensive() {
    // On the trace workload Mantri achieves high PoCD but burns considerably
    // more machine time than S-Resume (the paper reports up to 88 % more).
    let jobs = GoogleTraceConfig::scaled(120, 5)
        .generate()
        .unwrap()
        .into_jobs();
    let config = SimConfig {
        cluster: ClusterSpec::homogeneous(1_000, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::HadoopDefault,
        progress_report_interval_secs: 1.0,
        seed: 9,
        max_events: 0,
        sharding: ShardSpec::default(),
    };
    let chronos_config = ChronosPolicyConfig::with_theta(1e-4)
        .unwrap()
        .with_timing(StrategyTiming::trace_default());

    let mantri = run(Box::new(MantriPolicy::default()), jobs.clone(), &config);
    let resume = run(
        Box::new(ChronosPolicy::new(
            StrategyKind::SpeculativeResume,
            chronos_config,
        )),
        jobs,
        &config,
    );

    assert!(mantri.pocd() >= 0.9);
    assert!(
        mantri.mean_machine_time() > 1.3 * resume.mean_machine_time(),
        "Mantri {} should cost well over S-Resume {}",
        mantri.mean_machine_time(),
        resume.mean_machine_time()
    );
    assert!(resume.net_utility(1e-4, 0.0) > mantri.net_utility(1e-4, 0.0));
}

#[test]
fn figure5_histogram_shifts_down_with_theta() {
    // The per-job optimal r decreases (weakly) when θ grows by 10×.
    let jobs = GoogleTraceConfig::scaled(80, 13)
        .generate()
        .unwrap()
        .into_jobs();
    let config = SimConfig {
        cluster: ClusterSpec::homogeneous(1_000, 8),
        jvm: JvmModel::disabled(),
        estimator: EstimatorKind::ChronosJvmAware,
        progress_report_interval_secs: 1.0,
        seed: 2,
        max_events: 0,
        sharding: ShardSpec::default(),
    };
    let mean_r = |report: &SimulationReport| {
        let histogram = report.chosen_r_histogram();
        let total: usize = histogram.values().sum();
        histogram
            .iter()
            .map(|(r, count)| f64::from(*r) * *count as f64)
            .sum::<f64>()
            / total as f64
    };
    let timing = StrategyTiming::trace_default();
    let cheap = run(
        Box::new(ChronosPolicy::new(
            StrategyKind::SpeculativeResume,
            ChronosPolicyConfig::with_theta(1e-5)
                .unwrap()
                .with_timing(timing),
        )),
        jobs.clone(),
        &config,
    );
    let pricey = run(
        Box::new(ChronosPolicy::new(
            StrategyKind::SpeculativeResume,
            ChronosPolicyConfig::with_theta(1e-3)
                .unwrap()
                .with_timing(timing),
        )),
        jobs,
        &config,
    );
    assert!(
        mean_r(&pricey) < mean_r(&cheap),
        "mean chosen r should fall as theta grows: {} vs {}",
        mean_r(&pricey),
        mean_r(&cheap)
    );
}

#[test]
fn figure4_heavier_tails_cost_more() {
    // β = 1.2 produces longer tasks (and more stragglers) than β = 1.8, so
    // the same policy spends more machine time per job.
    let config = SimConfig {
        cluster: ClusterSpec::homogeneous(1_000, 8),
        jvm: JvmModel::disabled(),
        estimator: EstimatorKind::ChronosJvmAware,
        progress_report_interval_secs: 1.0,
        seed: 4,
        max_events: 0,
        sharding: ShardSpec::default(),
    };
    let chronos_config =
        ChronosPolicyConfig::testbed().with_timing(StrategyTiming::trace_default());
    let heavy_jobs = GoogleTraceConfig::scaled(80, 21)
        .with_beta(1.2)
        .generate()
        .unwrap()
        .into_jobs();
    let light_jobs = GoogleTraceConfig::scaled(80, 21)
        .with_beta(1.8)
        .generate()
        .unwrap()
        .into_jobs();
    let heavy = run(
        Box::new(ChronosPolicy::new(
            StrategyKind::SpeculativeResume,
            chronos_config,
        )),
        heavy_jobs,
        &config,
    );
    let light = run(
        Box::new(ChronosPolicy::new(
            StrategyKind::SpeculativeResume,
            chronos_config,
        )),
        light_jobs,
        &config,
    );
    assert!(heavy.mean_machine_time() > light.mean_machine_time());
    // Chronos keeps PoCD high in both regimes.
    assert!(heavy.pocd() >= 0.85);
    assert!(light.pocd() >= 0.9);
}

#[test]
fn simulation_reports_are_reproducible() {
    let jobs = TestbedWorkload::paper_setup(Benchmark::TeraSort, 3)
        .with_jobs(15)
        .generate()
        .unwrap();
    let config = testbed_config(8);
    let chronos_config = ChronosPolicyConfig::testbed();
    let a = run(
        Box::new(ChronosPolicy::new(StrategyKind::Clone, chronos_config)),
        jobs.clone(),
        &config,
    );
    let b = run(
        Box::new(ChronosPolicy::new(StrategyKind::Clone, chronos_config)),
        jobs,
        &config,
    );
    assert_eq!(a, b);
}

#[test]
fn all_six_strategies_run_and_report_feasible_outcomes() {
    // Every policy of the paper's evaluation — Hadoop-NS, Hadoop-S, Mantri,
    // Clone, Speculative-Restart and Speculative-Resume — built through the
    // facade prelude's `PolicyKind`, must take the same workload end to end
    // and produce a feasible report: every job measured, PoCD a probability,
    // positive machine time, and at least one attempt per task.
    let jobs = TestbedWorkload::paper_setup(Benchmark::Sort, 19)
        .with_jobs(12)
        .generate()
        .unwrap();
    let task_count: usize = jobs.iter().map(|job| job.tasks.len()).sum();
    let config = testbed_config(6);
    let chronos_config = ChronosPolicyConfig::testbed();

    for kind in PolicyKind::ALL {
        let report = run(kind.build(chronos_config), jobs.clone(), &config);
        assert_eq!(report.policy, kind.label(), "policy label mismatch");
        assert_eq!(report.job_count(), 12, "{} lost jobs", kind.label());
        assert!(
            (0.0..=1.0).contains(&report.pocd()),
            "{} PoCD {} is not a probability",
            kind.label(),
            report.pocd()
        );
        assert!(
            report.mean_machine_time() > 0.0,
            "{} reported non-positive machine time",
            kind.label()
        );
        assert!(
            report.total_attempts() >= task_count as u64,
            "{} launched {} attempts for {task_count} tasks",
            kind.label(),
            report.total_attempts()
        );
        // The optimizing Chronos strategies must report the per-job r their
        // optimizer chose (the Figure 5 histogram); baselines must not.
        let optimizes = matches!(
            kind,
            PolicyKind::Clone | PolicyKind::SpeculativeRestart | PolicyKind::SpeculativeResume
        );
        assert_eq!(
            !report.chosen_r_histogram().is_empty(),
            optimizes,
            "{} r-histogram presence is wrong",
            kind.label()
        );
    }

    // The same six strategies map onto the analytical layer: each of the
    // three closed-form strategy families yields a feasible optimum.
    let job = JobProfile::builder()
        .tasks(20)
        .t_min(20.0)
        .beta(1.5)
        .deadline(100.0)
        .build()
        .unwrap();
    let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
    for params in [
        StrategyParams::clone_strategy(12.0),
        StrategyParams::restart(6.0, 12.0).unwrap(),
        StrategyParams::resume(6.0, 12.0, 0.3).unwrap(),
    ] {
        let outcome = optimizer.optimize(&job, &params).unwrap();
        assert!(
            (0.0..=1.0).contains(&outcome.pocd),
            "{:?} optimal PoCD {} infeasible",
            outcome.strategy,
            outcome.pocd
        );
        assert!(outcome.utility.is_finite());
        assert!(outcome.machine_time > 0.0);
    }
}

#[test]
fn workspace_layers_compose_through_the_prelude() {
    // A compact version of the quickstart example, exercising the analytical
    // path end to end through the facade crate.
    let job = JobProfile::builder()
        .tasks(25)
        .t_min(15.0)
        .beta(1.3)
        .deadline(90.0)
        .build()
        .unwrap();
    let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
    let ranked = optimizer
        .rank_strategies(
            &job,
            &[
                StrategyParams::clone_strategy(9.0),
                StrategyParams::restart(4.5, 9.0).unwrap(),
                StrategyParams::resume(4.5, 9.0, 0.1).unwrap(),
            ],
        )
        .unwrap();
    assert_eq!(ranked.len(), 3);
    assert!(ranked[0].utility >= ranked[2].utility);
    assert!(ranked.iter().all(|o| o.pocd > 0.5));
}
