//! Monte-Carlo validation of the analysis: simulated PoCD and machine time
//! versus the closed forms of Theorems 1–6 at fixed `r`, plus the
//! completion-time-estimator ablation that motivates Eq. 30.
//!
//! The validation workload is a fleet of identical jobs (10 tasks,
//! `t_min = 20 s`, `β = 1.5`, `D = 100 s`) on an uncontended, effectively
//! infinite cluster with no JVM overhead, and timings `τ_est = 0.3·t_min`,
//! `τ_kill = 0.6·t_min` — the regime where the closed-form accounting and
//! the simulated process coincide (no attempt can finish before `τ_kill`).

use chronos_bench::{print_table, run_policy, write_json, Row, Scale};
use chronos_core::prelude::*;
use chronos_sim::prelude::*;
use chronos_strategies::prelude::*;
use rand::{Rng, SeedableRng};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ValidationRow {
    strategy: String,
    r: u32,
    pocd_analytic: f64,
    pocd_simulated: f64,
    cost_analytic: f64,
    cost_simulated: f64,
}

const T_MIN: f64 = 20.0;
const BETA: f64 = 1.5;
const DEADLINE: f64 = 100.0;
const TASKS: u32 = 10;

fn validation_jobs(count: u32, seed_offset: u64) -> Vec<JobSpec> {
    let profile = chronos_core::Pareto::new(T_MIN, BETA).expect("valid profile");
    (0..count)
        .map(|i| {
            JobSpec::new(
                JobId::new(u64::from(i) + seed_offset * 1_000_000),
                SimTime::from_secs(f64::from(i) * 0.5),
                DEADLINE,
                TASKS as usize,
            )
            .with_profile(profile)
        })
        .collect()
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig::analysis_validation(seed)
}

fn analytic(kind: StrategyKind, r: u32) -> (f64, f64) {
    let job = JobProfile::builder()
        .tasks(TASKS)
        .t_min(T_MIN)
        .beta(BETA)
        .deadline(DEADLINE)
        .build()
        .expect("valid job profile");
    let (tau_est, tau_kill) = (0.3 * T_MIN, 0.6 * T_MIN);
    let params = match kind {
        StrategyKind::Clone => StrategyParams::clone_strategy(tau_kill),
        StrategyKind::SpeculativeRestart => {
            StrategyParams::restart(tau_est, tau_kill).expect("valid timing")
        }
        StrategyKind::SpeculativeResume => {
            let phi = expected_straggler_progress(tau_est, DEADLINE, BETA);
            StrategyParams::resume(tau_est, tau_kill, phi).expect("valid timing")
        }
    };
    let pocd = PocdModel::new(job, params).expect("valid model");
    let cost = CostModel::new(job, params).expect("valid model");
    (
        pocd.pocd(r),
        cost.expected_job_machine_time(r).expect("closed form"),
    )
}

fn simulated(kind: StrategyKind, r: u32, jobs: u32) -> (f64, f64) {
    let config = ChronosPolicyConfig::testbed()
        .with_timing(StrategyTiming::of_tmin(0.3, 0.6))
        .with_fixed_r(r);
    let report = run_policy(
        &sim_config(97 + u64::from(r)),
        Box::new(ChronosPolicy::new(kind, config)),
        validation_jobs(jobs, u64::from(r)),
    )
    .expect("simulation");
    (report.pocd(), report.mean_machine_time())
}

fn estimator_ablation(samples: usize) -> (f64, f64) {
    // Mean absolute completion-time estimation error (seconds) of Hadoop's
    // default estimator versus the Chronos estimator of Eq. 30, measured a
    // third of the way into attempts that carry a JVM launch delay.
    let mut hadoop_total = 0.0;
    let mut chronos_total = 0.0;
    let profile = chronos_core::Pareto::new(T_MIN, BETA).expect("valid profile");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for i in 0..samples {
        let mut attempt = Attempt::pending(
            AttemptId::new(i as u64),
            TaskId::new(0),
            JobId::new(0),
            SimTime::ZERO,
            0.0,
        );
        let jvm = rng.gen_range(1.0..3.0);
        let work = profile.sample(&mut rng);
        attempt.start(NodeId::new(0), SimTime::ZERO, jvm, work);
        let observe_at = SimTime::from_secs(jvm + work / 3.0);
        if let Some(err) =
            estimation_error_secs(EstimatorKind::HadoopDefault, &attempt, observe_at, 1.0)
        {
            hadoop_total += err;
        }
        if let Some(err) =
            estimation_error_secs(EstimatorKind::ChronosJvmAware, &attempt, observe_at, 1.0)
        {
            chronos_total += err;
        }
    }
    (
        hadoop_total / samples as f64,
        chronos_total / samples as f64,
    )
}

fn main() {
    let scale = Scale::from_args();
    let jobs = match scale {
        Scale::Quick => 200,
        Scale::Standard => 1_000,
        Scale::Paper => 4_000,
    };

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for kind in StrategyKind::ALL {
        for r in 0..=3u32 {
            let (pocd_a, cost_a) = analytic(kind, r);
            let (pocd_s, cost_s) = simulated(kind, r, jobs);
            rows.push(Row::new(
                format!("{} r={r}", kind.label()),
                vec![pocd_a, pocd_s, cost_a, cost_s],
            ));
            records.push(ValidationRow {
                strategy: kind.label().to_string(),
                r,
                pocd_analytic: pocd_a,
                pocd_simulated: pocd_s,
                cost_analytic: cost_a,
                cost_simulated: cost_s,
            });
        }
    }

    print_table(
        "Analysis validation: Theorems 1-6 vs simulation",
        &["PoCD (theory)", "PoCD (sim)", "Cost (theory)", "Cost (sim)"],
        &rows,
    );

    let (hadoop_err, chronos_err) = estimator_ablation(20_000);
    print_table(
        "Estimator ablation (Eq. 30): mean |estimate - actual| in seconds",
        &["Hadoop default", "Chronos (Eq. 30)"],
        &[Row::new(
            "completion-time error",
            vec![hadoop_err, chronos_err],
        )],
    );

    match write_json("validate_analysis.json", &records) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("could not write results: {err}"),
    }
}
