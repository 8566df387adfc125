//! Cluster simulation: replay a synthetic Google-style trace through the
//! discrete-event MapReduce simulator under three different speculation
//! policies and compare PoCD, cost and net utility — a miniature version of
//! the paper's Figure 3 experiment.
//!
//! Run with `cargo run --release --example cluster_simulation`.

use chronos::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down 30-hour Google-style trace: 200 jobs, heavy-tailed task
    // counts, deadlines at twice the mean task time, EC2-like spot prices.
    let trace = GoogleTraceConfig::scaled(200, 7).generate()?;
    println!(
        "trace: {} jobs, {} tasks over {:.1} h",
        trace.job_count(),
        trace.task_count(),
        trace.span_hours()
    );
    let jobs = trace.into_jobs();

    // A 1000-node cluster with 10% persistently slow machines.
    let contention = ContentionModel::new(ContentionLevel::Moderate, 99);
    let mut cluster = ClusterSpec::homogeneous(1_000, 8);
    cluster.slowdowns = contention.node_slowdowns(1_000)?;
    let sim_config = SimConfig {
        cluster,
        jvm: JvmModel::default(),
        estimator: EstimatorKind::ChronosJvmAware,
        progress_report_interval_secs: 1.0,
        seed: 11,
        max_events: 0,
        sharding: ShardSpec::default(),
    };

    let theta = 1e-4;
    let chronos_config =
        ChronosPolicyConfig::with_theta(theta)?.with_timing(StrategyTiming::trace_default());

    let policies: Vec<Box<dyn SpeculationPolicy>> = vec![
        Box::new(HadoopNoSpec::default()),
        Box::new(MantriPolicy::default()),
        Box::new(ChronosPolicy::new(
            StrategyKind::SpeculativeResume,
            chronos_config,
        )),
    ];

    println!(
        "\n{:<14}{:>8}{:>16}{:>12}{:>12}",
        "policy", "PoCD", "cost (VM-s)", "utility", "attempts"
    );
    for policy in policies {
        let name = policy.name().to_string();
        let mut sim = Simulation::new(sim_config.clone(), policy)?;
        sim.submit_all(jobs.clone())?;
        let report = sim.run()?;
        println!(
            "{:<14}{:>8.3}{:>16.1}{:>12.4}{:>12}",
            name,
            report.pocd(),
            report.mean_machine_time(),
            report.net_utility(theta, 0.0),
            report.total_attempts()
        );
    }
    Ok(())
}
