//! Property-based tests (proptest) for the analytical core: the closed forms
//! must respect their structural invariants over the whole parameter domain,
//! not just at the hand-picked values of the unit tests.

use chronos_core::prelude::*;
use proptest::prelude::*;

/// Strategy-space generator: valid job and timing parameters for which every
/// closed form is defined.
fn job_and_timing() -> impl Strategy<Value = (JobProfile, f64, f64, f64)> {
    (
        2u32..200,     // tasks
        5.0f64..60.0,  // t_min
        1.05f64..1.95, // beta
        1.5f64..8.0,   // deadline as multiple of t_min
        0.05f64..0.45, // tau_est as fraction of deadline
        0.1f64..0.9,   // phi_est
    )
        .prop_map(|(tasks, t_min, beta, d_factor, est_frac, phi)| {
            let deadline = d_factor * t_min;
            let job = JobProfile::builder()
                .tasks(tasks)
                .t_min(t_min)
                .beta(beta)
                .deadline(deadline)
                .build()
                .expect("generated job parameters are valid");
            let tau_est = est_frac * deadline;
            let tau_kill = tau_est + 0.4 * t_min;
            (job, tau_est, tau_kill, phi)
        })
        .prop_filter(
            "reactive window must exceed t_min",
            |(job, tau_est, _, _)| job.deadline() - tau_est > job.t_min() + 1e-6,
        )
}

/// Trace-like generator: the heavy tails and large scales the Google
/// converter produces (β up to 8, t_min up to 500 s) and estimation points
/// up to 95% of the deadline, where the Theorem 4 tail series needs the most
/// terms. `slack` is the reactive window `D − τ_est` in units of `t_min`.
fn trace_like_job_and_timing() -> impl Strategy<Value = (JobProfile, f64, f64)> {
    (
        1u32..200,     // tasks
        1.0f64..500.0, // t_min
        1.05f64..8.0,  // beta
        0.0f64..0.95,  // tau_est as fraction of deadline
        1.01f64..4.0,  // slack
    )
        .prop_map(|(tasks, t_min, beta, est_frac, slack)| {
            let window = slack * t_min;
            let deadline = window / (1.0 - est_frac);
            let job = JobProfile::builder()
                .tasks(tasks)
                .t_min(t_min)
                .beta(beta)
                .deadline(deadline)
                .build()
                .expect("generated job parameters are valid");
            let tau_est = deadline - window;
            (job, tau_est, tau_est + 0.3 * t_min)
        })
}

/// Edge-of-domain generator: tails barely lighter than infinite-mean
/// (β ∈ (1, 1.01]), deadlines barely past t_min (D/t_min ∈ (1, 1.01]), up
/// to 10^7 tasks and prices in [0, 1e-9]. The task count and both margins
/// are drawn log-uniformly so every decade is covered.
fn edge_job_and_timing() -> impl Strategy<Value = (JobProfile, f64, f64, f64)> {
    (
        (
            0.0f64..=7.0,   // log10 tasks
            1.0f64..500.0,  // t_min
            -9.0f64..=-2.0, // log10(β − 1)
            -9.0f64..=-2.0, // log10(D/t_min − 1)
            0.0f64..=1e-9,  // price
        ),
        (
            0.0f64..0.95,  // tau_est as fraction of D − t_min
            0.05f64..0.95, // tau_kill as fraction of D − tau_est
            0.1f64..0.9,   // phi_est
        ),
    )
        .prop_map(
            |((tasks_exp, t_min, beta_exp, slack_exp, price), (est_frac, kill_frac, phi))| {
                let deadline = t_min * (1.0 + 10f64.powf(slack_exp));
                let job = JobProfile::builder()
                    .tasks(10f64.powf(tasks_exp).round() as u32)
                    .t_min(t_min)
                    .beta(1.0 + 10f64.powf(beta_exp))
                    .deadline(deadline)
                    .price(price)
                    .build()
                    .expect("generated job parameters are valid");
                // A reactive copy launched at τ_est can still finish by D.
                let tau_est = est_frac * (deadline - t_min);
                (
                    job,
                    tau_est,
                    tau_est + kill_frac * (deadline - tau_est),
                    phi,
                )
            },
        )
}

fn all_strategies(tau_est: f64, tau_kill: f64, phi: f64) -> Vec<StrategyParams> {
    vec![
        StrategyParams::clone_strategy(tau_kill),
        StrategyParams::restart(tau_est, tau_kill).expect("valid restart timing"),
        StrategyParams::resume(tau_est, tau_kill, phi).expect("valid resume timing"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pareto CDF and survival are complementary and the quantile inverts
    /// the CDF everywhere.
    #[test]
    fn pareto_cdf_quantile_inverse(
        t_min in 0.5f64..100.0,
        beta in 0.2f64..5.0,
        p in 0.0f64..0.999,
    ) {
        let dist = Pareto::new(t_min, beta).unwrap();
        let q = dist.quantile(p).unwrap();
        prop_assert!((dist.cdf(q) - p).abs() < 1e-9);
        prop_assert!((dist.cdf(q) + dist.survival(q) - 1.0).abs() < 1e-12);
    }

    /// Lemma 1: the closed-form expectation of the minimum equals the mean
    /// of the min-distribution (Pareto with tail n·β).
    #[test]
    fn lemma1_consistent_with_min_distribution(
        t_min in 1.0f64..50.0,
        beta in 0.6f64..3.0,
        n in 1u32..12,
    ) {
        let dist = Pareto::new(t_min, beta).unwrap();
        let nb = f64::from(n) * beta;
        if nb > 1.0 {
            let lemma = dist.expected_min_of(n).unwrap();
            let via_min = dist.min_of(n).unwrap().mean().unwrap();
            prop_assert!((lemma - via_min).abs() < 1e-9 * lemma.max(1.0));
        } else {
            prop_assert!(dist.expected_min_of(n).is_err());
        }
    }

    /// PoCD is a probability, non-decreasing in r, and non-decreasing in the
    /// deadline, for every strategy.
    #[test]
    fn pocd_monotonicity((job, tau_est, tau_kill, phi) in job_and_timing()) {
        for params in all_strategies(tau_est, tau_kill, phi) {
            let model = PocdModel::new(job, params).unwrap();
            let mut previous = 0.0;
            for r in 0..8u32 {
                let value = model.pocd(r).unwrap();
                prop_assert!((0.0..=1.0).contains(&value));
                prop_assert!(value + 1e-12 >= previous, "PoCD decreased in r");
                previous = value;
            }
            let looser = job.with_deadline(job.deadline() * 1.5).unwrap();
            let looser_model = PocdModel::new(looser, params).unwrap();
            prop_assert!(looser_model.pocd(2).unwrap() + 1e-12 >= model.pocd(2).unwrap());
        }
    }

    /// Theorem 7 parts 1 and 2: with identical r and timing, Clone and
    /// S-Resume never do worse than S-Restart.
    #[test]
    fn theorem7_dominance((job, tau_est, tau_kill, phi) in job_and_timing()) {
        let clone = PocdModel::new(job, StrategyParams::clone_strategy(tau_kill)).unwrap();
        let restart =
            PocdModel::new(job, StrategyParams::restart(tau_est, tau_kill).unwrap()).unwrap();
        let resume =
            PocdModel::new(job, StrategyParams::resume(tau_est, tau_kill, phi).unwrap()).unwrap();
        for r in 1..6u32 {
            prop_assert!(clone.pocd(r).unwrap() + 1e-12 >= restart.pocd(r).unwrap());
            prop_assert!(resume.pocd(r).unwrap() + 1e-12 >= restart.pocd(r).unwrap());
        }
    }

    /// The concavity threshold Γ marks exactly where the per-task failure
    /// probability crosses 1/N (the condition behind Theorem 8).
    #[test]
    fn gamma_marks_failure_probability_crossing((job, tau_est, tau_kill, phi) in job_and_timing()) {
        for params in all_strategies(tau_est, tau_kill, phi) {
            let model = PocdModel::new(job, params).unwrap();
            if let Some(gamma) = model.concavity_threshold() {
                let n = f64::from(job.tasks());
                let above = model.task_failure_probability_continuous(gamma.max(0.0) + 1e-6);
                prop_assert!(above <= 1.0 / n + 1e-9);
            }
        }
    }

    /// Expected machine time is finite, positive, and Clone's is always the
    /// largest at the same r ≥ 1 (it pays for clones on every task).
    #[test]
    fn cost_positivity_and_clone_premium((job, tau_est, tau_kill, phi) in job_and_timing()) {
        let clone = CostModel::new(job, StrategyParams::clone_strategy(tau_kill)).unwrap();
        let restart =
            CostModel::new(job, StrategyParams::restart(tau_est, tau_kill).unwrap()).unwrap();
        let resume =
            CostModel::new(job, StrategyParams::resume(tau_est, tau_kill, phi).unwrap()).unwrap();
        for r in 1..5u32 {
            let rf = f64::from(r);
            let c = clone.expected_job_machine_time(rf).unwrap();
            let s = restart.expected_job_machine_time(rf).unwrap();
            let re = resume.expected_job_machine_time(rf).unwrap();
            prop_assert!(c.is_finite() && c > 0.0);
            prop_assert!(s.is_finite() && s > 0.0);
            prop_assert!(re.is_finite() && re > 0.0);
            prop_assert!(c + 1e-9 >= s, "clone {c} should cost at least s-restart {s}");
            prop_assert!(c + 1e-9 >= re, "clone {c} should cost at least s-resume {re}");
        }
    }

    /// Theorem 9: the hybrid optimizer (Algorithm 1) returns the same
    /// optimum as exhaustive search, for every strategy, a range of θ and a
    /// PoCD floor that is either off or anywhere in [0.5, 0.99]. A floor can
    /// leave every r ≤ r_max infeasible; then both searches must say so.
    #[test]
    fn algorithm1_is_globally_optimal(
        (job, tau_est, tau_kill, phi) in job_and_timing(),
        theta_exp in -6.0f64..-2.0,
        r_min in (0u8..4, 0.5f64..=0.99)
            .prop_map(|(pick, floor)| if pick == 0 { 0.0 } else { floor }),
    ) {
        let theta = 10f64.powf(theta_exp);
        let optimizer = Optimizer::new(UtilityModel::new(theta, r_min).unwrap());
        for params in all_strategies(tau_est, tau_kill, phi) {
            match (optimizer.optimize(&job, &params), optimizer.optimize_exhaustive(&job, &params)) {
                // Ties on utility can legitimately resolve to different r.
                (Ok(hybrid), Ok(exhaustive)) => prop_assert!(
                    (hybrid.utility - exhaustive.utility).abs() < 1e-9,
                    "{:?} r_min {}: hybrid r={} u={} vs exhaustive r={} u={}",
                    params.kind(), r_min, hybrid.r, hybrid.utility, exhaustive.r,
                    exhaustive.utility
                ),
                (Err(ChronosError::Infeasible { .. }), Err(ChronosError::Infeasible { .. })) => {}
                (hybrid, exhaustive) => prop_assert!(
                    false,
                    "{:?} r_min {}: hybrid {:?} vs exhaustive {:?}",
                    params.kind(), r_min, hybrid, exhaustive
                ),
            }
        }
    }

    /// On trace-like profiles the S-Restart machine time is finite at every
    /// r the optimizer may visit, and Algorithm 1 still finds the exhaustive
    /// optimum (large βr used to overflow segment 1 of Theorem 4 to NaN,
    /// which sent the continuous tail search Algorithm 1 used then to
    /// r_max).
    #[test]
    fn algorithm1_is_globally_optimal_on_trace_like_profiles(
        (job, tau_est, tau_kill) in trace_like_job_and_timing(),
        theta_exp in -6.0f64..-2.0,
    ) {
        let params = StrategyParams::restart(tau_est, tau_kill).unwrap();
        let cost = CostModel::new(job, params).unwrap();
        let optimizer = Optimizer::new(UtilityModel::new(10f64.powf(theta_exp), 0.0).unwrap());
        for r in 0..=optimizer.config().r_max {
            let time = cost.expected_job_machine_time(f64::from(r)).unwrap();
            prop_assert!(time.is_finite() && time > 0.0, "r={}: {}", r, time);
        }
        let hybrid = optimizer.optimize(&job, &params);
        let exhaustive = optimizer.optimize_exhaustive(&job, &params);
        match (hybrid, exhaustive) {
            (Ok(hybrid), Ok(exhaustive)) => {
                prop_assert!(hybrid.machine_time.is_finite());
                prop_assert!(
                    (hybrid.utility - exhaustive.utility).abs() < 1e-9,
                    "hybrid r={} u={} vs exhaustive r={} u={}",
                    hybrid.r, hybrid.utility, exhaustive.r, exhaustive.utility
                );
            }
            (Err(ChronosError::Infeasible { .. }), Err(ChronosError::Infeasible { .. })) => {}
            (hybrid, exhaustive) => {
                prop_assert!(false, "hybrid {:?} vs exhaustive {:?}", hybrid, exhaustive);
            }
        }
    }

    /// At the edge of the parameter space (see [`edge_job_and_timing`]) with
    /// θ = 0, Algorithm 1 returns either an outcome whose every field is
    /// finite or a typed error, and it agrees with the exhaustive search:
    /// same utility, or the same error. Optimality beyond about 10^7 tasks
    /// is not asserted: there `(1−q)^N` becomes an f64 staircase in `r`,
    /// flat stretches and jumps that break Theorem 8's concavity, and both
    /// the integer walk and the continuous search it replaced then miss the
    /// exhaustive optimum.
    #[test]
    fn algorithm1_survives_the_edge_of_the_domain(
        (job, tau_est, tau_kill, phi) in edge_job_and_timing(),
    ) {
        let optimizer = Optimizer::new(UtilityModel::new(0.0, 0.0).unwrap());
        for params in all_strategies(tau_est, tau_kill, phi) {
            match (optimizer.optimize(&job, &params), optimizer.optimize_exhaustive(&job, &params)) {
                (Ok(walk), Ok(exhaustive)) => {
                    prop_assert!(
                        [walk.utility, walk.pocd, walk.machine_time, walk.dollar_cost]
                            .iter()
                            .all(|v| v.is_finite()),
                        "{:?} on {:?}: {:?}", params.kind(), job, walk
                    );
                    prop_assert!(
                        (walk.utility - exhaustive.utility).abs() < 1e-9,
                        "{:?} on {:?}: walk r={} u={} vs exhaustive r={} u={}",
                        params.kind(), job, walk.r, walk.utility, exhaustive.r,
                        exhaustive.utility
                    );
                }
                (Err(walk), Err(exhaustive)) => prop_assert!(
                    std::mem::discriminant(&walk) == std::mem::discriminant(&exhaustive),
                    "{:?} on {:?}: walk {:?} vs exhaustive {:?}",
                    params.kind(), job, walk, exhaustive
                ),
                (walk, exhaustive) => prop_assert!(
                    false,
                    "{:?} on {:?}: walk {:?} vs exhaustive {:?}",
                    params.kind(), job, walk, exhaustive
                ),
            }
        }
    }

    /// Frontier sweeps are internally consistent with the underlying models.
    #[test]
    fn frontier_matches_models((job, tau_est, tau_kill, phi) in job_and_timing()) {
        let params = StrategyParams::resume(tau_est, tau_kill, phi).unwrap();
        let frontier = Frontier::sweep(&job, &params, 5).unwrap();
        let pocd = PocdModel::new(job, params).unwrap();
        let cost = CostModel::new(job, params).unwrap();
        for point in frontier.iter() {
            prop_assert!((point.pocd - pocd.pocd(point.r).unwrap()).abs() < 1e-12);
            let expected = cost.expected_job_machine_time(f64::from(point.r)).unwrap();
            prop_assert!((point.machine_time - expected).abs() < 1e-9);
        }
    }

    /// Sampling respects the support and the empirical mean converges to the
    /// analytical mean when it exists.
    #[test]
    fn sampling_matches_support(t_min in 1.0f64..40.0, beta in 1.2f64..3.0, seed in 0u64..1_000) {
        use rand::SeedableRng;
        let dist = Pareto::new(t_min, beta).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let samples = dist.sample_n(&mut rng, 2_000);
        prop_assert!(samples.iter().all(|s| *s >= t_min));
        let median_sample = {
            let mut sorted = samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sorted[sorted.len() / 2]
        };
        // The sample median is a robust statistic even for heavy tails.
        prop_assert!((median_sample - dist.median()).abs() / dist.median() < 0.2);
    }
}
