//! Figure 5: histogram of the optimal `r` chosen by the Chronos optimizer
//! for Clone and S-Resume at θ = 1e-5 and θ = 1e-4.
//!
//! In the paper the modal `r` drops from 2 to 1 for Clone and from 4 to 3
//! for S-Resume as θ grows by a factor of ten; this binary reports the full
//! per-job histogram measured on the synthetic Google-style trace.
//!
//! `--trace <path>` swaps the synthetic source for a `chronos-trace` v1
//! file (see `chronos_trace::loader` for the format).

use chronos_bench::{
    load_trace_jobs_or_exit, measure, print_table, run_policy, trace_path_from_args,
    trace_sim_config, write_json, Row, Scale, UtilitySpec,
};
use chronos_core::StrategyKind;
use chronos_sim::prelude::PlanCache;
use chronos_strategies::prelude::*;
use chronos_trace::prelude::*;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Serialize)]
struct Fig5Series {
    policy: String,
    theta: f64,
    histogram: BTreeMap<u32, usize>,
    modal_r: Option<u32>,
}

fn main() {
    let scale = Scale::from_args();
    let jobs = match trace_path_from_args() {
        Some(path) => load_trace_jobs_or_exit(&path),
        None => GoogleTraceConfig::scaled(scale.trace_jobs(), 41)
            .generate()
            .expect("trace generation")
            .into_jobs(),
    };

    // One plan cache across both θ values and both strategies (each is
    // part of the key): repeated job profiles in the trace are optimized
    // once per (strategy, θ), with bit-identical histograms.
    let cache = PlanCache::shared();

    let mut series = Vec::new();
    for theta in [1e-5, 1e-4] {
        let config = ChronosPolicyConfig::with_theta(theta)
            .expect("theta is valid")
            .with_timing(StrategyTiming::trace_default());
        for kind in [StrategyKind::Clone, StrategyKind::SpeculativeResume] {
            let policy = ChronosPolicy::with_cache(kind, config, Arc::clone(&cache));
            let report = run_policy(&trace_sim_config(43), Box::new(policy), jobs.clone())
                .expect("simulation");
            let m = measure(&report, UtilitySpec::new(theta, 0.0));
            let modal_r = m
                .r_histogram
                .iter()
                .max_by_key(|(_, count)| **count)
                .map(|(r, _)| *r);
            series.push(Fig5Series {
                policy: kind.label().to_string(),
                theta,
                histogram: m.r_histogram,
                modal_r,
            });
        }
    }

    // Print one table: rows are r values, columns are the four series.
    let max_r = series
        .iter()
        .flat_map(|s| s.histogram.keys().copied())
        .max()
        .unwrap_or(0);
    let columns: Vec<String> = series
        .iter()
        .map(|s| format!("{} {:.0e}", s.policy, s.theta))
        .collect();
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let rows: Vec<Row> = (0..=max_r)
        .map(|r| {
            let values = series
                .iter()
                .map(|s| *s.histogram.get(&r).unwrap_or(&0) as f64)
                .collect();
            Row::new(format!("r = {r}"), values)
        })
        .collect();
    print_table(
        "Figure 5: histogram of the optimal r (job counts)",
        &column_refs,
        &rows,
    );
    for s in &series {
        println!(
            "modal r for {} at theta {:.0e}: {:?}",
            s.policy, s.theta, s.modal_r
        );
    }

    println!("\nplan cache: {}", cache.stats());

    match write_json("fig5.json", &series) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("could not write results: {err}"),
    }
}
