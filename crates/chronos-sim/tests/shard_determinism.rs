//! Property tests for the sharded runner's determinism contract (the
//! foreground guarantee of the sharding subsystem):
//!
//! 1. the merged report of a fixed `(workload, seed, shard count)` is
//!    bit-identical for 1, 2 and 8 worker threads,
//! 2. `SimulationReport::merge` is associative and commutative (with the
//!    default report as identity), which is what makes (1) possible,
//! 3. the splitmix64 shard-seed derivation never collides across shard
//!    indices for a fixed base seed.

use chronos_sim::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Workload / report generators
// ---------------------------------------------------------------------------

/// A small but non-trivial workload: staggered arrivals, a couple of tasks
/// per job, deterministic in its parameters.
fn workload(job_count: u64, tasks_per_job: usize, arrival_gap: f64) -> Vec<JobSpec> {
    (0..job_count)
        .map(|i| {
            JobSpec::new(
                JobId::new(i),
                SimTime::from_secs(i as f64 * arrival_gap),
                300.0,
                tasks_per_job,
            )
        })
        .collect()
}

/// Round-robins `jobs` over the configured shards and runs them under
/// [`NoSpeculation`].
fn run_sharded(config: SimConfig, jobs: Vec<JobSpec>) -> SimulationReport {
    let runner = ShardedRunner::new(config).expect("valid config");
    let chunks = runner
        .round_robin(jobs)
        .into_iter()
        .map(Ok::<_, std::convert::Infallible>);
    runner
        .run(chunks, RunOptions::default(), |_| Box::new(NoSpeculation))
        .expect("simulation succeeds")
        .report
}

fn sim_config(seed: u64, shards: u32, workers: u32) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(6, 2),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::ChronosJvmAware,
        progress_report_interval_secs: 1.0,
        seed,
        max_events: 0,
        sharding: ShardSpec::new(shards, workers),
    }
}

/// Deterministically expands compact generated parameters into a report
/// whose job ids start at `id_base` (keeping different reports disjoint, the
/// precondition of a conflict-free merge).
fn synthetic_report(id_base: u64, job_count: u64, policy: &str, salt: u64) -> SimulationReport {
    let mut report = SimulationReport {
        policy: policy.to_string(),
        events_dispatched: salt % 10_000,
        events_stale: salt % 97,
        ended_at: SimTime::from_micros(salt.wrapping_mul(31) % 1_000_000_000),
        ..SimulationReport::default()
    };
    for offset in 0..job_count {
        let id = JobId::new(id_base + offset);
        let mixed = splitmix64(salt.wrapping_add(offset));
        let completed = mixed % 4 != 0; // ~75% completion rate
        let completion_secs = 1.0 + (mixed % 100_000) as f64 / 100.0;
        let submitted_at = SimTime::from_secs((mixed % 977) as f64);
        let completed_at =
            completed.then(|| submitted_at + SimDuration::from_secs(completion_secs));
        let metrics = JobMetrics {
            job: id,
            submitted_at,
            deadline_secs: 120.0,
            completed_at,
            met_deadline: completed && completion_secs <= 120.0,
            machine_time_secs: completion_secs * 2.0,
            cost: completion_secs * 2.5,
            attempts_launched: (mixed % 7) as u32 + 1,
            attempts_killed: (mixed % 3) as u32,
            chosen_r: (mixed % 2 == 0).then_some((mixed % 5) as u32),
        };
        match metrics.completion_secs() {
            Some(secs) => report.latency.record_secs(secs),
            None => report.latency.record_unfinished(),
        }
        report.jobs.insert(id, metrics);
    }
    report
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Worker count is invisible: 1, 2 and 8 workers produce identical
    /// merged reports for the same seed and shard count.
    #[test]
    fn merged_report_is_worker_count_invariant(
        seed in 0u64..1_000_000,
        shards in 1u32..9,
        job_count in 0u64..40,
        tasks in 1usize..4,
    ) {
        let run = |workers: u32| {
            run_sharded(sim_config(seed, shards, workers), workload(job_count, tasks, 3.0))
        };
        let one = run(1);
        let two = run(2);
        let eight = run(8);
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(&one, &eight);
        prop_assert_eq!(one.job_count() as u64, job_count);
    }

    /// (b) Report merging is commutative and associative, with the default
    /// report as the identity element.
    #[test]
    fn report_merge_is_associative_and_commutative(
        count_a in 0u64..6,
        count_b in 0u64..6,
        count_c in 0u64..6,
        salt_a in 0u64..u64::MAX,
        salt_b in 0u64..u64::MAX,
        salt_c in 0u64..u64::MAX,
    ) {
        // Disjoint id ranges: merge is only defined for disjoint reports.
        let a = synthetic_report(0, count_a, "s-resume", salt_a);
        let b = synthetic_report(1_000, count_b, "clone", salt_b);
        let c = synthetic_report(2_000, count_c, "s-resume", salt_c);

        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = a.clone();
        ab.merge(b.clone()).expect("disjoint");
        let mut ba = b.clone();
        ba.merge(a.clone()).expect("disjoint");
        prop_assert_eq!(&ab, &ba);

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = ab.clone();
        ab_c.merge(c.clone()).expect("disjoint");
        let mut bc = b.clone();
        bc.merge(c.clone()).expect("disjoint");
        let mut a_bc = a.clone();
        a_bc.merge(bc).expect("disjoint");
        prop_assert_eq!(&ab_c, &a_bc);

        // Identity: default ⊕ a == a ⊕ default == a.
        let mut left = SimulationReport::default();
        left.merge(a.clone()).expect("disjoint");
        prop_assert_eq!(&left, &a);
        let mut right = a.clone();
        right.merge(SimulationReport::default()).expect("disjoint");
        prop_assert_eq!(&right, &a);
    }

    /// (c) Shard-seed derivation is collision-free over 0..10_000 shard
    /// indices for arbitrary base seeds, and never reproduces the base.
    #[test]
    fn shard_seeds_never_collide(base in 0u64..u64::MAX) {
        let mut seen = HashSet::with_capacity(10_000);
        for shard in 0..10_000u64 {
            let seed = shard_seed(base, shard);
            prop_assert!(seen.insert(seed), "collision at shard {}", shard);
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic (non-property) companions
// ---------------------------------------------------------------------------

/// The (a) property again at a fixed, documented seed — a cheap canary that
/// fails with a readable diff if the contract ever regresses.
#[test]
fn fixed_seed_worker_sweep_is_bit_identical() {
    let reports: Vec<SimulationReport> = [1u32, 2, 8]
        .iter()
        .map(|&workers| run_sharded(sim_config(20_260_729, 8, workers), workload(64, 3, 2.0)))
        .collect();
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], reports[2]);
    assert_eq!(reports[0].job_count(), 64);
}

/// Exhaustive collision check at the default base seed, covering the exact
/// range the issue names.
#[test]
fn shard_seed_collision_free_for_default_base() {
    let seeds: HashSet<u64> = (0..10_000).map(|shard| shard_seed(1, shard)).collect();
    assert_eq!(seeds.len(), 10_000);
}
