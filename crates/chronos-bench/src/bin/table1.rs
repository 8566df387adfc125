//! Table I: performance of Clone, S-Restart and S-Resume when `τ_est` varies
//! with the speculation window fixed at `τ_kill − τ_est = 0.5·t_min`.
//!
//! Trace-driven setup (Section VII.B): jobs come from the synthetic
//! Google-style trace, `θ = 1e-4`, and the paper reports PoCD, Cost and
//! Utility for `τ_est ∈ {0.1, 0.3, 0.5}·t_min` (Clone has a single row at
//! `τ_est = 0`).

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
        &trace_sim_config(7),
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
    let trace = GoogleTraceConfig::scaled(scale.trace_jobs(), 11)
        .generate()
        .expect("trace generation");
    let jobs = trace.into_jobs();

    let mut rows = Vec::new();
    let mut records = Vec::new();

    // Clone: τ_est is always 0; the window 0.5·t_min sets τ_kill.
    let (pocd, cost, utility) = run_strategy(
        StrategyKind::Clone,
        StrategyTiming::of_tmin(0.0, 0.5),
        &jobs,
        theta,
    );
    rows.push(Row::new("Clone  (0, 0.5·tmin)", vec![pocd, cost, utility]));
    records.push(TableRow {
        strategy: "clone".into(),
        tau_est_of_tmin: 0.0,
        tau_kill_of_tmin: 0.5,
        pocd,
        cost,
        utility,
    });

    for (label, kind) in [
        ("S-Restart", StrategyKind::SpeculativeRestart),
        ("S-Resume", StrategyKind::SpeculativeResume),
    ] {
        for est in [0.1, 0.3, 0.5] {
            let kill = est + 0.5;
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
        "Table I: varying tau_est, fixed tau_kill - tau_est = 0.5 t_min",
        &["PoCD", "Cost", "Utility"],
        &rows,
    );

    match write_json("table1.json", &records) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("could not write results: {err}"),
    }
}
