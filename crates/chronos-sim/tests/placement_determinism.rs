//! Placement determinism: the worker-count-invariance contract of the
//! pluggable placement layer.
//!
//! 1. every [`PlacementPolicy`] produces a bit-identical merged report and
//!    a bit-identical `PlacementDecision` trace (log bytes and digest)
//!    across 1 vs 8 worker threads,
//! 2. the default `MostFree` placement is indistinguishable from a config
//!    that never mentions placement at all — and records no
//!    `PlacementDecision` events, so pre-placement trace digests survive
//!    the refactor untouched,
//! 3. the non-default placements actually decide something on a contended
//!    heterogeneous pool (the trace carries `placement` records).

use chronos_sim::prelude::*;
use proptest::prelude::*;

/// A contended, heterogeneous pool: two fast nodes, a straggler and a
/// middling node, two slots each. Placement only matters when attempts
/// queue and nodes differ, so the invariance tests run where the policies
/// genuinely diverge.
fn placement_config(seed: u64, placement: PlacementPolicy, workers: u32) -> SimConfig {
    let mut cluster = ClusterSpec::homogeneous(4, 2).with_placement(placement);
    cluster.slowdowns = vec![1.0, 3.0, 1.0, 2.0];
    SimConfig {
        cluster,
        jvm: JvmModel::default(),
        estimator: EstimatorKind::HadoopDefault,
        progress_report_interval_secs: 1.0,
        seed,
        max_events: 0,
        sharding: ShardSpec::new(4, workers),
    }
}

/// Staggered arrivals, two tasks per job: enough concurrency that the
/// tight pool queues and every placement policy is exercised.
fn workload(job_count: u64) -> Vec<JobSpec> {
    (0..job_count)
        .map(|i| JobSpec::new(JobId::new(i), SimTime::from_secs(i as f64 * 3.0), 120.0, 2))
        .collect()
}

/// Runs `jobs` in chunks of 8 with an unbounded decision trace.
fn traced_run(config: SimConfig, jobs: &[JobSpec]) -> (SimulationReport, DecisionTrace) {
    let chunks = jobs
        .chunks(8)
        .map(|chunk| Ok::<_, std::convert::Infallible>(chunk.to_vec()));
    let options = RunOptions {
        cache: None,
        trace: Some(None),
    };
    let output = ShardedRunner::new(config)
        .expect("valid config")
        .run(chunks, options, |_| Box::new(NoSpeculation))
        .expect("simulation succeeds");
    (output.report, output.trace.expect("trace requested"))
}

fn observed_run(
    seed: u64,
    placement: PlacementPolicy,
    workers: u32,
    jobs: &[JobSpec],
) -> (SimulationReport, DecisionTrace) {
    traced_run(placement_config(seed, placement, workers), jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole's determinism pin: for every placement policy the
    /// merged report, the rendered decision log and the FNV-1a digest are
    /// bit-identical at 1 and 8 workers.
    #[test]
    fn every_placement_is_worker_count_invariant(
        placement_index in 0usize..3,
        seed in 0u64..1_000,
        job_count in 24u64..48,
    ) {
        let placement = PlacementPolicy::ALL[placement_index];
        let jobs = workload(job_count);
        let (report_1, trace_1) = observed_run(seed, placement, 1, &jobs);
        let (report_8, trace_8) = observed_run(seed, placement, 8, &jobs);
        prop_assert_eq!(report_1, report_8);
        prop_assert_eq!(trace_1.render_log(), trace_8.render_log());
        prop_assert_eq!(trace_1.digest(), trace_8.digest());
    }
}

#[test]
fn most_free_matches_a_placement_free_config_and_records_nothing() {
    let jobs = workload(32);
    let (explicit_report, explicit_trace) = observed_run(7, PlacementPolicy::MostFree, 4, &jobs);

    // A config that never mentions placement: same pool, default policy.
    let mut cluster = ClusterSpec::homogeneous(4, 2);
    cluster.slowdowns = vec![1.0, 3.0, 1.0, 2.0];
    let config = SimConfig {
        cluster,
        jvm: JvmModel::default(),
        estimator: EstimatorKind::HadoopDefault,
        progress_report_interval_secs: 1.0,
        seed: 7,
        max_events: 0,
        sharding: ShardSpec::new(4, 4),
    };
    let (default_report, default_trace) = traced_run(config, &jobs);

    assert_eq!(explicit_report, default_report);
    assert_eq!(explicit_trace.digest(), default_trace.digest());
    // The default policy must leave pre-placement digests untouched, so it
    // never records a placement event.
    assert!(
        !explicit_trace.render_log().contains("placement "),
        "MostFree must not record PlacementDecision events"
    );
}

#[test]
fn non_default_placements_record_decisions_and_diverge() {
    let jobs = workload(32);
    let (most_free_report, _) = observed_run(7, PlacementPolicy::MostFree, 4, &jobs);
    let (bin_pack_report, bin_pack_trace) = observed_run(7, PlacementPolicy::BinPack, 4, &jobs);
    let (deadline_report, deadline_trace) =
        observed_run(7, PlacementPolicy::DeadlineAware, 4, &jobs);

    for (label, trace) in [
        ("bin-pack", &bin_pack_trace),
        ("deadline-aware", &deadline_trace),
    ] {
        assert!(
            trace.render_log().contains("placement node="),
            "{label} must record PlacementDecision events on a contended pool"
        );
    }
    // On a heterogeneous contended pool the policies genuinely place
    // differently; identical reports would mean the policy is not wired
    // through to the engine at all.
    assert_ne!(most_free_report, bin_pack_report);
    assert_ne!(most_free_report, deadline_report);
    assert_ne!(bin_pack_trace.digest(), deadline_trace.digest());
}
