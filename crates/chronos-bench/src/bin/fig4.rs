//! Figure 4(a–c): PoCD, Cost and Utility of Hadoop-NS, Hadoop-S, Clone,
//! S-Restart and S-Resume as the Pareto tail index β sweeps 1.1 … 1.9.
//!
//! Trace-driven setup (Section VII.B): deadlines are twice the mean task
//! execution time; a smaller β means a heavier tail, longer tasks and higher
//! cost.
//!
//! `--trace <path>` swaps the synthetic source for a `chronos-trace` v1
//! file (see `chronos_trace::loader` for the format). A loaded file carries
//! its own per-job tail indices, so the β sweep collapses to a single sweep
//! point labelled `trace` (its `beta` is `null` in the JSON artifact).

use chronos_bench::{
    figure2_lineup, load_trace_jobs_or_exit, measure, print_table, run_policy,
    trace_path_from_args, trace_sim_config, write_json, Row, Scale, UtilitySpec,
};
use chronos_sim::prelude::{JobSpec, PlanCache};
use chronos_strategies::prelude::*;
use chronos_trace::prelude::*;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Fig4Cell {
    /// The swept tail index, or `None` when the jobs came from a trace file
    /// (whose per-job profiles carry their own β).
    beta: Option<f64>,
    /// Sweep-point label: `"1.1"` … `"1.9"`, or `"trace"`.
    sweep: String,
    policy: String,
    pocd: f64,
    cost: f64,
    utility: f64,
}

fn main() {
    let scale = Scale::from_args();
    let theta = 1e-4;
    let betas = [1.1, 1.3, 1.5, 1.7, 1.9];

    let chronos_config = ChronosPolicyConfig::with_theta(theta)
        .expect("theta is valid")
        .with_timing(StrategyTiming::trace_default());

    // Each sweep point: a label, the β it swept (if any), and its workload.
    let sweep: Vec<(String, Option<f64>, Vec<JobSpec>)> = match trace_path_from_args() {
        Some(path) => vec![("trace".to_string(), None, load_trace_jobs_or_exit(&path))],
        None => betas
            .iter()
            .map(|beta| {
                let jobs = GoogleTraceConfig::scaled(scale.trace_jobs(), 31)
                    .with_beta(*beta)
                    .with_deadline_factor(2.0)
                    .generate()
                    .expect("trace generation")
                    .into_jobs();
                (format!("{beta:.1}"), Some(*beta), jobs)
            })
            .collect(),
    };

    // One plan cache across the whole β sweep (β is part of each job's
    // profile key, so sweep points cannot collide); repeated job profiles
    // are optimized once per strategy instead of once per job, with
    // bit-identical measurements.
    let cache = PlanCache::shared();

    let mut cells: Vec<Fig4Cell> = Vec::new();
    for (index, (label, beta, jobs)) in sweep.iter().enumerate() {
        for (kind, policy) in figure2_lineup(chronos_config, &cache) {
            let report = run_policy(&trace_sim_config(37 + index as u64), policy, jobs.clone())
                .expect("simulation");
            let m = measure(&report, UtilitySpec::new(theta, 0.0));
            cells.push(Fig4Cell {
                beta: *beta,
                sweep: label.clone(),
                policy: kind.label().to_string(),
                pocd: m.pocd,
                cost: m.mean_machine_time,
                utility: m.utility,
            });
        }
    }

    let policies = ["hadoop-ns", "hadoop-s", "clone", "s-restart", "s-resume"];
    let table_for = |metric: &dyn Fn(&Fig4Cell) -> f64| -> Vec<Row> {
        sweep
            .iter()
            .map(|(label, _, _)| {
                let values = policies
                    .iter()
                    .map(|policy| {
                        cells
                            .iter()
                            .find(|c| c.policy == *policy && c.sweep == *label)
                            .map(metric)
                            .unwrap_or(f64::NAN)
                    })
                    .collect();
                Row::new(format!("beta = {label}"), values)
            })
            .collect()
    };

    print_table(
        "Figure 4(a): PoCD vs beta",
        &policies,
        &table_for(&|c| c.pocd),
    );
    print_table(
        "Figure 4(b): Cost vs beta (VM-seconds per job)",
        &policies,
        &table_for(&|c| c.cost),
    );
    print_table(
        "Figure 4(c): Utility vs beta",
        &policies,
        &table_for(&|c| c.utility),
    );

    println!("\nplan cache: {}", cache.stats());

    match write_json("fig4.json", &cells) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("could not write results: {err}"),
    }
}
