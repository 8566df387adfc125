//! Table II: performance of Clone, S-Restart and S-Resume when `τ_kill`
//! varies with `τ_est` fixed (0 for Clone, `0.3·t_min` for the reactive
//! strategies).
//!
//! Same trace-driven setup as Table I.

use chronos_bench::{
    measure, print_table, run_policy, trace_sim_config, write_json, Row, Scale, UtilitySpec,
};
use chronos_core::StrategyKind;
use chronos_strategies::prelude::*;
use chronos_trace::prelude::*;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct TableRow {
    strategy: String,
    tau_est_of_tmin: f64,
    tau_kill_of_tmin: f64,
    pocd: f64,
    cost: f64,
    utility: f64,
}

fn run_strategy(
    kind: StrategyKind,
    timing: StrategyTiming,
    jobs: &[chronos_sim::prelude::JobSpec],
    theta: f64,
) -> (f64, f64, f64) {
    let config = ChronosPolicyConfig::with_theta(theta)
        .expect("theta is valid")
        .with_timing(timing);
    let report = run_policy(
        &trace_sim_config(13),
        Box::new(ChronosPolicy::new(kind, config)),
        jobs.to_vec(),
    )
    .expect("simulation");
    let m = measure(&report, UtilitySpec::new(theta, 0.0));
    (m.pocd, m.mean_machine_time, m.utility)
}

fn main() {
    let scale = Scale::from_args();
    let theta = 1e-4;
    let trace = GoogleTraceConfig::scaled(scale.trace_jobs(), 17)
        .generate()
        .expect("trace generation");
    let jobs = trace.into_jobs();

    let mut rows = Vec::new();
    let mut records = Vec::new();

    for (label, kind, est) in [
        ("Clone", StrategyKind::Clone, 0.0),
        ("S-Restart", StrategyKind::SpeculativeRestart, 0.3),
        ("S-Resume", StrategyKind::SpeculativeResume, 0.3),
    ] {
        for kill in [0.4, 0.6, 0.8] {
            let (pocd, cost, utility) =
                run_strategy(kind, StrategyTiming::of_tmin(est, kill), &jobs, theta);
            rows.push(Row::new(
                format!("{label}  ({est:.1}·tmin, {kill:.1}·tmin)"),
                vec![pocd, cost, utility],
            ));
            records.push(TableRow {
                strategy: label.to_lowercase(),
                tau_est_of_tmin: est,
                tau_kill_of_tmin: kill,
                pocd,
                cost,
                utility,
            });
        }
    }

    print_table(
        "Table II: varying tau_kill, fixed tau_est",
        &["PoCD", "Cost", "Utility"],
        &rows,
    );

    match write_json("table2.json", &records) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("could not write results: {err}"),
    }
}
