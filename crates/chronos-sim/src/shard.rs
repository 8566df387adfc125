//! Sharded multi-threaded execution of independent-job workloads.
//!
//! The Chronos evaluation validates its closed forms against trace-driven
//! simulations; pushing those to multi-million-job traces needs more than
//! one core, but must not give up the bit-for-bit reproducibility the test
//! pyramid is built on. This module threads that needle by making the
//! *partitioning* part of the experiment definition and the *thread pool* a
//! pure wall-clock optimization:
//!
//! # The determinism contract
//!
//! 1. **Shards are the unit of randomness.** A workload is split into
//!    shards, one per chunk of the job source
//!    ([`ShardedRunner::round_robin`] cuts a job list into
//!    `SimConfig::sharding.resolved_shards()` chunks). Shard `i` runs an
//!    ordinary [`Simulation`] whose seed is [`shard_seed`]`(config.seed,
//!    i)` — a splitmix64 mix of the base seed and the shard index. Because the mix's finalizer is a
//!    bijection on `u64`, distinct shard indices can never collide for a
//!    fixed base seed, so shards draw from provably disjoint deterministic
//!    RNG streams.
//! 2. **Workers are invisible.** Worker threads pull shard indices from a
//!    shared queue, so which thread runs which shard (and in what order) is
//!    scheduling-dependent — but shard inputs, seeds and simulations do not
//!    depend on the worker, and per-shard reports are merged **in shard
//!    index order**: each shard's report (and decision trace) is folded as
//!    soon as every lower-index shard has been, and a shard that finishes
//!    early waits, parked, for its turn. Together with
//!    [`SimulationReport::merge`] being associative and commutative, the
//!    merged report is bit-identical for 1, 2 or 64 workers. The fold keeps
//!    per-job metrics in one id-sorted run and builds the report's job map
//!    once at the end, so it is linear in the job count; finished reports
//!    do not pile up until the last shard is done.
//! 3. **Changing the shard count is a different experiment.** Re-sharding
//!    re-partitions jobs over different RNG streams, so reports for
//!    different shard counts legitimately differ — exactly like changing
//!    the seed. Reproducibility is per `(workload, seed, shard count)`.
//!
//! # Example
//!
//! ```
//! use chronos_sim::prelude::*;
//! use std::convert::Infallible;
//!
//! # fn main() -> Result<(), ReplayError<Infallible>> {
//! let config = SimConfig::default().with_sharding(ShardSpec::new(4, 2));
//! let runner = ShardedRunner::new(config).map_err(ReplayError::Sim)?;
//! let jobs: Vec<JobSpec> = (0..100)
//!     .map(|i| JobSpec::new(JobId::new(i), SimTime::from_secs(i as f64), 300.0, 4))
//!     .collect();
//! let chunks = runner.round_robin(jobs).into_iter().map(Ok);
//! let output = runner.run(chunks, RunOptions::default(), |_shard| Box::new(NoSpeculation))?;
//! assert_eq!(output.report.job_count(), 100);
//! assert!(output.cache_stats.is_none() && output.trace.is_none());
//! # Ok(())
//! # }
//! ```

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::error::SimError;
use crate::job::JobSpec;
use crate::metrics::{ReportFold, SimulationReport};
use crate::policy::SpeculationPolicy;
use chronos_obs::{DecisionTrace, TraceEvent};
use chronos_plan::{CacheStats, PlanCache};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The splitmix64 output mix (Steele, Lea & Flood; the same finalizer the
/// reference `SplitMix64` generator applies to its counter). A bijection on
/// `u64` with strong avalanche behaviour, which is what makes the per-shard
/// seed derivation collision-free.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed of shard `shard` from the workload's base seed.
///
/// Defined as `splitmix64(base ^ splitmix64(shard))`: the inner mix spreads
/// consecutive shard indices across the whole `u64` space before they touch
/// the base seed, and the outer mix decorrelates the result from `base`.
/// For a fixed `base` the map `shard ↦ seed` is injective (both mixes are
/// bijections and XOR by a constant is a bijection), so two shards of one
/// run can never share a seed.
#[must_use]
pub fn shard_seed(base: u64, shard: u64) -> u64 {
    splitmix64(base ^ splitmix64(shard))
}

/// Error of a [`ShardedRunner::run`]: either the chunk *source* failed (a
/// trace file stopped parsing, a generator hit an invalid configuration)
/// or the *simulation* of a shard did. Source errors take precedence —
/// once the source fails, any report assembled from the prefix is
/// discarded, so a truncated trace can never masquerade as a completed
/// replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError<E> {
    /// The chunk source yielded an error instead of a chunk.
    Source(E),
    /// A shard simulation (or the report merge) failed.
    Sim(SimError),
}

impl<E: std::fmt::Display> std::fmt::Display for ReplayError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Source(err) => write!(f, "chunk source error: {err}"),
            ReplayError::Sim(err) => write!(f, "{err}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for ReplayError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Source(err) => Some(err),
            ReplayError::Sim(err) => Some(err),
        }
    }
}

/// Builds the policy instance for one shard. Each shard needs its own
/// instance because policies are stateful (`&mut self` callbacks); the
/// factory receives the shard index so heterogeneous-per-shard setups are
/// possible, though most callers ignore it.
pub type PolicyFactory<'a> = dyn Fn(u64) -> Box<dyn SpeculationPolicy> + Sync + 'a;

/// What a [`ShardedRunner::run`] reports besides the merged report.
/// `RunOptions::default()` records nothing extra.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// The plan cache the shard policies share (the factory captures its
    /// own handle). When set, the output carries the [`CacheStats`] delta
    /// this run accumulated. Memoization only changes where the time goes,
    /// never a decision, so the report is bit-identical either way.
    pub cache: Option<&'a Arc<PlanCache>>,
    /// `None` leaves decision tracing off (the engine's zero-cost
    /// default); `Some(capacity)` records a [`DecisionTrace`] per shard,
    /// bounded to `capacity` records (`None` = unbounded), merged in
    /// shard-index order.
    pub trace: Option<Option<usize>>,
}

/// Result of a [`ShardedRunner::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The per-shard reports merged in shard-index order.
    pub report: SimulationReport,
    /// The plan-cache stats delta of this run; `Some` exactly when
    /// [`RunOptions::cache`] was set.
    pub cache_stats: Option<CacheStats>,
    /// The merged decision trace; `Some` exactly when
    /// [`RunOptions::trace`] was set. With a cache it ends in one
    /// aggregate [`TraceEvent::PlanCacheReport`].
    pub trace: Option<DecisionTrace>,
}

/// Runs a workload of independent jobs as per-shard [`Simulation`]s across a
/// fixed pool of worker threads, merging the per-shard reports into one
/// aggregate [`SimulationReport`].
///
/// See the [module docs](self) for the determinism contract. The worker
/// count comes from [`SimConfig::sharding`].
#[derive(Debug, Clone)]
pub struct ShardedRunner {
    config: SimConfig,
}

impl ShardedRunner {
    /// Creates a runner for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(ShardedRunner { config })
    }

    /// The configuration shards run under (per-shard seeds are derived from
    /// its `seed`; its `sharding` decides the layout).
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Partitions `jobs` round-robin into the configured shard count of
    /// chunks (job `i` goes to chunk `i % shards`), ready for
    /// [`ShardedRunner::run`]. Round-robin keeps arrival-time ordering
    /// roughly balanced across shards for arrival-sorted workloads, and the
    /// partition depends only on the job order and the shard count.
    #[must_use]
    pub fn round_robin(&self, jobs: Vec<JobSpec>) -> Vec<Vec<JobSpec>> {
        let mut chunks = vec![Vec::new(); self.config.sharding.resolved_shards() as usize];
        let shards = chunks.len();
        for (index, job) in jobs.into_iter().enumerate() {
            chunks[index % shards].push(job);
        }
        chunks
    }

    /// Runs a workload delivered as chunks, one shard per chunk.
    ///
    /// The source is pulled lazily under a lock, so chunk `k` is always the
    /// source's `k`-th yield no matter which worker pulls it; generators
    /// like `chronos-trace`'s chunked streams therefore never materialize
    /// the whole spec list. The chunk structure *is* the shard structure;
    /// the configured shard count only matters to
    /// [`ShardedRunner::round_robin`]. The worker count is
    /// [`crate::config::ShardSpec::requested_workers`], clamped to the
    /// source's `size_hint` upper bound when it reports one. Infallible
    /// sources pass `.map(Ok::<_, Infallible>)`.
    ///
    /// When the source yields `Err`, the stream ends there: workers stop
    /// pulling, shards already running finish, and the partial report of
    /// the prefix is discarded. Likewise, once a shard fails no further
    /// chunk is pulled.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Source`] with the source's first error (it takes
    /// precedence over any simulation error), else [`ReplayError::Sim`]
    /// with the first per-shard error in shard-index order (deterministic
    /// even when several shards fail), or a [`SimError::MergeConflict`]
    /// when two shards report the same job id.
    pub fn run<I, E, F>(
        &self,
        chunks: I,
        options: RunOptions<'_>,
        build_policy: F,
    ) -> Result<RunOutput, ReplayError<E>>
    where
        I: IntoIterator<Item = Result<Vec<JobSpec>, E>>,
        I::IntoIter: Send,
        E: Send,
        F: Fn(u64) -> Box<dyn SpeculationPolicy> + Sync,
    {
        let chunks = chunks.into_iter();
        let mut workers = self.config.sharding.requested_workers() as usize;
        if let Some(upper) = chunks.size_hint().1 {
            workers = workers.min(upper).max(1);
        }
        let before = options.cache.map(|cache| (cache, cache.stats()));
        let source_error: Mutex<Option<E>> = Mutex::new(None);
        let adapter = FallibleChunks {
            inner: chunks,
            slot: &source_error,
            done: false,
        };
        let outcome = self.run_shards(workers, adapter, &build_policy, options.trace);
        // Invariant: a worker panic re-raises in `run_shards`, so nothing poisoned this.
        #[allow(clippy::expect_used)]
        let source_error = source_error
            .into_inner()
            .expect("source error lock poisoned");
        if let Some(err) = source_error {
            return Err(ReplayError::Source(err));
        }
        let (report, mut trace) = outcome.map_err(ReplayError::Sim)?;
        let cache_stats = before.map(|(cache, before)| cache.stats().since(&before));
        // Per-access cache events would be scheduling-dependent (whichever
        // shard reaches a profile first takes the miss); the single-flight
        // cache's totals are not, so one aggregate report keeps the digest
        // worker-count-invariant.
        if let (Some(trace), Some(stats)) = (trace.as_mut(), cache_stats) {
            trace.record(
                report.ended_at.as_micros(),
                TraceEvent::PlanCacheReport {
                    hits: stats.hits,
                    misses: stats.misses,
                    evictions: stats.evictions,
                    entries: stats.entries,
                },
            );
        }
        Ok(RunOutput {
            report,
            cache_stats,
            trace,
        })
    }

    /// [`ShardedRunner::run`] with a shared plan cache and no trace,
    /// returning the report and the cache-stats delta. Kept with this exact
    /// signature because the standalone `perfbench` benchmark calls it and
    /// builds against this crate unchanged; new code calls `run`.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedRunner::run`].
    pub fn run_chunked_fallible_planned<I, E, F>(
        &self,
        cache: &Arc<PlanCache>,
        chunks: I,
        build_policy: F,
    ) -> Result<(SimulationReport, CacheStats), ReplayError<E>>
    where
        I: IntoIterator<Item = Result<Vec<JobSpec>, E>>,
        I::IntoIter: Send,
        E: Send,
        F: Fn(u64, Arc<PlanCache>) -> Box<dyn SpeculationPolicy> + Sync,
    {
        let options = RunOptions {
            cache: Some(cache),
            trace: None,
        };
        let output = self.run(chunks, options, |shard| {
            build_policy(shard, Arc::clone(cache))
        })?;
        Ok((output.report, output.cache_stats.unwrap_or_default()))
    }

    /// The worker-pool core of [`ShardedRunner::run`]. `trace` is `None` to
    /// leave recording off or `Some(capacity)` to record with the given
    /// per-shard ring bound.
    ///
    /// The fold is eager: a finished shard is folded, report and trace, as
    /// soon as every lower-index shard has been, and a shard that finishes
    /// early is parked until its turn. Folding in shard-index order gives
    /// the merged report and trace their worker-count invariance, and only
    /// the out-of-order finishers are held in memory at once.
    fn run_shards<I>(
        &self,
        workers: usize,
        chunks: I,
        build_policy: &PolicyFactory<'_>,
        trace: Option<Option<usize>>,
    ) -> Result<(SimulationReport, Option<DecisionTrace>), SimError>
    where
        I: Iterator<Item = Vec<JobSpec>> + Send,
    {
        let queue = Mutex::new(chunks.enumerate());
        let fold = Mutex::new(ShardFold::new(trace));
        // Once any shard fails, stop pulling new chunks: a million-job run
        // should not simulate 63 healthy shards to report shard 0's invalid
        // spec. Shards already running finish normally, which keeps error
        // selection deterministic (see `ShardFold`).
        let abort = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while !abort.load(Ordering::Relaxed) {
                        // Hold the queue lock only for the pull: chunk k is
                        // the iterator's k-th yield regardless of the
                        // pulling worker.
                        // Invariant: only a source panic poisons this; the scope re-raises it.
                        #[allow(clippy::expect_used)]
                        let next = queue.lock().expect("queue lock poisoned").next();
                        let Some((index, jobs)) = next else {
                            break;
                        };
                        let outcome = self.run_shard(index as u64, jobs, build_policy, trace);
                        let failed = outcome.is_err();
                        // Invariant: only a panicking fold poisons this; the scope re-raises it.
                        #[allow(clippy::expect_used)]
                        let mut fold = fold.lock().expect("fold lock poisoned");
                        fold.offer(index, outcome);
                        if failed || fold.failed() {
                            abort.store(true, Ordering::Relaxed);
                        }
                    }
                });
            }
        });

        // Invariant: the scope returned, so no worker panicked while holding the fold.
        #[allow(clippy::expect_used)]
        let fold = fold.into_inner().expect("fold lock poisoned");
        fold.finish()
    }

    /// Runs one shard: an ordinary simulation under the shared config with
    /// the shard's derived seed, optionally recording a decision trace.
    fn run_shard(
        &self,
        shard: u64,
        jobs: Vec<JobSpec>,
        build_policy: &PolicyFactory<'_>,
        trace: Option<Option<usize>>,
    ) -> Result<(SimulationReport, Option<DecisionTrace>), SimError> {
        let mut config = self.config.clone();
        config.seed = shard_seed(self.config.seed, shard);
        let mut sim = Simulation::new(config, build_policy(shard))?;
        if let Some(capacity) = trace {
            sim.enable_decision_trace(capacity);
        }
        sim.submit_all(jobs)?;
        let report = sim.run()?;
        Ok((report, sim.take_decision_trace()))
    }
}

/// One shard's simulation result.
type ShardOutcome = Result<(SimulationReport, Option<DecisionTrace>), SimError>;

/// The in-order fold behind [`ShardedRunner::run_shards`]: shard outcomes
/// arrive in any order and are folded strictly by shard index.
///
/// Error selection is deterministic even with the abort flag: chunks are
/// pulled in index order, so every shard with an index below the first
/// failure was already pulled and runs to completion. The fold therefore
/// reaches every lower-index shard, and the first error it meets (a failed
/// shard, or a report that shares a job id with an earlier one) is the
/// lowest-index error, just as a fold after all workers joined would find.
struct ShardFold {
    /// Index of the next shard to fold.
    next: usize,
    /// Shards that finished before their turn, by index.
    parked: BTreeMap<usize, ShardOutcome>,
    report: ReportFold,
    trace: Option<DecisionTrace>,
    /// The first error in shard-index order; nothing is folded after it.
    error: Option<SimError>,
}

impl ShardFold {
    fn new(trace: Option<Option<usize>>) -> Self {
        ShardFold {
            next: 0,
            parked: BTreeMap::new(),
            report: ReportFold::default(),
            trace: trace.map(|capacity| match capacity {
                Some(capacity) => DecisionTrace::bounded(capacity),
                None => DecisionTrace::new(),
            }),
            error: None,
        }
    }

    fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// Accepts shard `index`'s outcome and folds every shard whose turn
    /// has come.
    fn offer(&mut self, index: usize, outcome: ShardOutcome) {
        if self.failed() {
            return;
        }
        self.parked.insert(index, outcome);
        while let Some(outcome) = self.parked.remove(&self.next) {
            let index = self.next;
            self.next += 1;
            if let Err(err) = self.fold(index, outcome) {
                self.error = Some(err);
                self.parked.clear();
                return;
            }
        }
    }

    fn fold(&mut self, index: usize, outcome: ShardOutcome) -> Result<(), SimError> {
        let (report, shard_trace) =
            outcome.map_err(|err| err.with_context(format_args!("shard {index}")))?;
        self.report
            .push(report)
            .map_err(|err| err.with_context(format_args!("merging shard {index}")))?;
        if let (Some(merged), Some(shard_trace)) = (self.trace.as_mut(), shard_trace) {
            merged.merge(shard_trace);
        }
        Ok(())
    }

    fn finish(self) -> Result<(SimulationReport, Option<DecisionTrace>), SimError> {
        match self.error {
            Some(err) => Err(err),
            None => Ok((self.report.finish(), self.trace)),
        }
    }
}

/// Adapter that feeds a fallible chunk source into the infallible
/// worker-pool core: the first `Err` ends the stream (workers see a plain
/// end-of-queue, stop pulling, and drain) and is parked in `slot` for
/// [`ShardedRunner::run`] to surface once the pool joins.
struct FallibleChunks<'a, I, E> {
    inner: I,
    slot: &'a Mutex<Option<E>>,
    /// Set on the first `Err` so a non-fused source is never polled again.
    done: bool,
}

impl<I, E> Iterator for FallibleChunks<'_, I, E>
where
    I: Iterator<Item = Result<Vec<JobSpec>, E>>,
{
    type Item = Vec<JobSpec>;

    fn next(&mut self) -> Option<Vec<JobSpec>> {
        if self.done {
            return None;
        }
        match self.inner.next() {
            Some(Ok(chunk)) => Some(chunk),
            Some(Err(err)) => {
                self.done = true;
                // Invariant: nothing can panic while this lock is held, here or after the join.
                #[allow(clippy::expect_used)]
                let mut slot = self.slot.lock().expect("source error lock poisoned");
                // Keep the first error: the queue lock serializes pulls, so
                // this branch runs at most once anyway, but belt and braces.
                slot.get_or_insert(err);
                None
            }
            None => {
                self.done = true;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterSpec, EstimatorKind, JvmModel, ShardSpec};
    use crate::ids::JobId;
    use crate::policy::NoSpeculation;
    use crate::time::SimTime;
    use chronos_core::Pareto;
    use std::collections::BTreeMap;
    use std::convert::Infallible;
    use std::sync::atomic::AtomicUsize;

    fn config(seed: u64, shards: u32, workers: u32) -> SimConfig {
        SimConfig {
            cluster: ClusterSpec::homogeneous(8, 2),
            jvm: JvmModel::disabled(),
            estimator: EstimatorKind::ChronosJvmAware,
            progress_report_interval_secs: 1.0,
            seed,
            max_events: 0,
            sharding: ShardSpec::new(shards, workers),
        }
    }

    fn jobs(count: u64) -> Vec<JobSpec> {
        (0..count)
            .map(|i| {
                JobSpec::new(JobId::new(i), SimTime::from_secs(i as f64 * 2.0), 400.0, 3)
                    .with_profile(Pareto::new(10.0, 1.5).unwrap())
            })
            .collect()
    }

    /// `jobs` dealt round-robin over the runner's shards, as a source.
    fn dealt(
        runner: &ShardedRunner,
        jobs: Vec<JobSpec>,
    ) -> impl Iterator<Item = Result<Vec<JobSpec>, Infallible>> + Send {
        runner.round_robin(jobs).into_iter().map(Ok)
    }

    /// Runs `jobs` dealt round-robin, untraced and unplanned, under
    /// [`NoSpeculation`].
    fn run_plain(runner: &ShardedRunner, jobs: Vec<JobSpec>) -> Result<SimulationReport, SimError> {
        let chunks = dealt(runner, jobs);
        match runner.run(chunks, RunOptions::default(), |_| Box::new(NoSpeculation)) {
            Ok(output) => Ok(output.report),
            Err(ReplayError::Sim(err)) => Err(err),
            Err(ReplayError::Source(never)) => match never {},
        }
    }

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs of the SplitMix64 generator seeded with 0 and
        // 1234567 (first outputs of the Vigna reference implementation).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1_234_567), 0x599E_D017_FB08_FC85);
    }

    #[test]
    fn shard_seeds_differ_from_base_and_each_other() {
        let base = 42;
        let s0 = shard_seed(base, 0);
        let s1 = shard_seed(base, 1);
        assert_ne!(s0, s1);
        assert_ne!(s0, base);
        // Different base seeds move every shard's seed.
        assert_ne!(shard_seed(43, 0), s0);
    }

    #[test]
    fn chunked_and_round_robin_differ_only_in_partitioning() {
        // `round_robin` only partitions: job `i` goes to chunk `i % shards`,
        // and every shard exists even when it gets no job.
        let runner = ShardedRunner::new(config(9, 3, 2)).unwrap();
        let chunks = runner.round_robin(jobs(7));
        let ids = chunks
            .iter()
            .map(|chunk| chunk.iter().map(|job| job.id.raw()));
        let ids: Vec<Vec<u64>> = ids.map(Iterator::collect).collect();
        assert_eq!(ids, [vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
        assert_eq!(runner.round_robin(Vec::new()).len(), 3);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let run = |workers| {
            run_plain(
                &ShardedRunner::new(config(11, 6, workers)).unwrap(),
                jobs(24),
            )
        };
        assert_eq!(run(1).unwrap(), run(6).unwrap());
    }

    #[test]
    fn runner_covers_all_jobs_exactly_once() {
        let runner = ShardedRunner::new(config(7, 4, 2)).unwrap();
        let report = run_plain(&runner, jobs(30)).unwrap();
        assert_eq!(report.job_count(), 30);
        assert_eq!(report.latency.total(), 30);
        let ids: Vec<u64> = report.jobs.keys().map(|id| id.raw()).collect();
        assert_eq!(ids, (0..30).collect::<Vec<u64>>());
        assert!(report.unfinished_fraction() < 1e-12);
    }

    #[test]
    fn shard_count_is_part_of_the_experiment() {
        let run = |shards| {
            run_plain(
                &ShardedRunner::new(config(11, shards, 2)).unwrap(),
                jobs(24),
            )
        };
        // Different shard counts = different RNG streams = different draws.
        assert_ne!(run(2).unwrap(), run(3).unwrap());
    }

    #[test]
    fn single_shard_matches_plain_simulation_with_derived_seed() {
        let runner = ShardedRunner::new(config(5, 1, 1)).unwrap();
        let sharded = run_plain(&runner, jobs(10)).unwrap();

        let mut plain_config = config(5, 1, 1);
        plain_config.seed = shard_seed(5, 0);
        let mut sim = Simulation::new(plain_config, Box::new(NoSpeculation)).unwrap();
        sim.submit_all(jobs(10)).unwrap();
        let plain = sim.run().unwrap();
        assert_eq!(sharded, plain);
    }

    #[test]
    fn shard_errors_are_deterministic_and_contextualized() {
        // Job indices 0 and 1 round-robin onto shards 0 and 1; giving them
        // the same id puts the duplicate in *different* shards, so each
        // shard runs cleanly and the conflict only surfaces at the merge.
        let runner = ShardedRunner::new(config(3, 2, 2)).unwrap();
        let mut workload = jobs(4);
        workload[1].id = JobId::new(0);
        let err = run_plain(&runner, workload).unwrap_err();
        assert!(matches!(err, SimError::MergeConflict { .. }), "{err}");
        assert!(err.to_string().contains("merging shard"), "{err}");

        // An in-shard failure carries the shard index instead.
        let mut workload = jobs(4);
        workload[3].tasks.clear(); // invalid: lands in shard 1
        let err = run_plain(&runner, workload).unwrap_err();
        assert!(err.to_string().contains("shard 1"), "{err}");
    }

    #[test]
    fn event_budget_errors_name_their_shard() {
        // `max_events` applies per shard; the error must say which shard
        // tripped it even though the variant carries no free-form detail.
        let mut cfg = config(3, 2, 1);
        cfg.max_events = 1;
        let runner = ShardedRunner::new(cfg).unwrap();
        let message = run_plain(&runner, jobs(4)).unwrap_err().to_string();
        assert!(message.contains("shard 0"), "{message}");
        assert!(message.contains("event budget"), "{message}");
    }

    #[test]
    fn failing_shard_stops_the_chunk_stream_early() {
        // With one worker the pull order is fully deterministic: chunk 0
        // fails, the abort flag trips, and none of the 99 remaining chunks
        // may even be generated — a million-job stream must not be
        // simulated to the end just to report a shard-0 error.
        let generated = AtomicUsize::new(0);
        let chunks = (0..100u64).map(|index| {
            generated.fetch_add(1, Ordering::Relaxed);
            let mut job = JobSpec::new(JobId::new(index), SimTime::ZERO, 100.0, 1);
            if index == 0 {
                job.tasks.clear(); // invalid: no tasks
            }
            Ok::<_, Infallible>(vec![job])
        });
        let runner = ShardedRunner::new(config(1, 4, 1)).unwrap();
        let err = runner
            .run(chunks, RunOptions::default(), |_| Box::new(NoSpeculation))
            .unwrap_err();
        assert!(err.to_string().contains("shard 0"), "{err}");
        assert_eq!(generated.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn source_error_stops_the_replay_and_takes_precedence() {
        // Chunk 2 is a source error; with one worker the pull order is
        // deterministic, so chunks 3.. must never be generated and the
        // source error must surface even though chunks 0-1 simulated fine.
        let generated = AtomicUsize::new(0);
        let chunks = (0..100u64).map(|index| {
            generated.fetch_add(1, Ordering::Relaxed);
            if index == 2 {
                Err(format!("parse failure at chunk {index}"))
            } else {
                Ok(vec![JobSpec::new(
                    JobId::new(index),
                    SimTime::ZERO,
                    100.0,
                    1,
                )])
            }
        });
        let runner = ShardedRunner::new(config(1, 4, 1)).unwrap();
        let err = runner
            .run(chunks, RunOptions::default(), |_| Box::new(NoSpeculation))
            .unwrap_err();
        assert_eq!(
            err,
            ReplayError::Source("parse failure at chunk 2".to_string())
        );
        assert!(err.to_string().contains("chunk source error"), "{err}");
        assert_eq!(generated.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn fallible_replay_reports_sim_errors() {
        let mut bad = vec![JobSpec::new(JobId::new(0), SimTime::ZERO, 100.0, 1)];
        bad[0].tasks.clear();
        let runner = ShardedRunner::new(config(1, 4, 1)).unwrap();
        let err = runner
            .run([Ok::<_, String>(bad)], RunOptions::default(), |_| {
                Box::new(NoSpeculation)
            })
            .unwrap_err();
        assert!(
            matches!(err, ReplayError::Sim(SimError::InvalidConfig { .. })),
            "{err}"
        );
        assert!(err.to_string().contains("shard 0"), "{err}");
    }

    /// A minimal optimizing policy for the planned-path tests: plans each
    /// batch through a `chronos-plan` planner and clones `r` extra
    /// attempts per task from the memoized plan.
    #[derive(Debug)]
    struct PlanningProbe {
        planner: chronos_plan::Planner,
    }

    impl PlanningProbe {
        fn new(cache: std::sync::Arc<chronos_plan::PlanCache>) -> Self {
            PlanningProbe {
                planner: chronos_plan::Planner::with_cache(
                    chronos_core::Optimizer::new(chronos_core::UtilityModel::default()),
                    cache,
                ),
            }
        }

        fn request_of(view: &crate::policy::JobSubmitView) -> Option<chronos_plan::PlanRequest> {
            let job = chronos_core::JobProfile::builder()
                .tasks(view.task_count.max(1))
                .t_min(view.profile.t_min())
                .beta(view.profile.beta())
                .deadline(view.deadline_secs)
                .price(view.price)
                .build()
                .ok()?;
            Some(chronos_plan::PlanRequest::new(
                job,
                chronos_core::StrategyParams::clone_strategy(0.5 * view.profile.t_min()),
            ))
        }
    }

    impl SpeculationPolicy for PlanningProbe {
        fn name(&self) -> &str {
            "planning-probe"
        }

        fn on_job_batch(
            &mut self,
            jobs: &[crate::policy::JobSubmitView],
        ) -> Result<crate::policy::BatchPlan, SimError> {
            for request in jobs.iter().filter_map(Self::request_of) {
                let _ = self.planner.plan_request(&request);
            }
            Ok(crate::policy::BatchPlan::default())
        }

        fn on_job_submit(
            &mut self,
            job: &crate::policy::JobSubmitView,
        ) -> crate::policy::SubmitDecision {
            let r = Self::request_of(job)
                .and_then(|request| self.planner.plan_request(&request).ok())
                .map_or(0, |plan| plan.outcome.r);
            crate::policy::SubmitDecision {
                extra_clones_per_task: r,
                reported_r: Some(r),
            }
        }

        fn check_schedule(
            &self,
            _job: &crate::policy::JobSubmitView,
        ) -> crate::policy::CheckSchedule {
            crate::policy::CheckSchedule::Never
        }

        fn on_check(&mut self, _view: &crate::policy::JobView) -> Vec<crate::policy::PolicyAction> {
            Vec::new()
        }
    }

    #[test]
    fn run_options_only_change_what_is_recorded() {
        let mut reference: Option<SimulationReport> = None;
        let mut digests = BTreeMap::new();
        for workers in [1u32, 8] {
            let runner = ShardedRunner::new(config(13, 3, workers)).unwrap();
            for (planned, traced) in [(false, false), (true, false), (false, true), (true, true)] {
                let label = format!("workers={workers} cache={planned} trace={traced}");
                let cache = PlanCache::shared();
                let options = RunOptions {
                    cache: planned.then_some(&cache),
                    trace: traced.then_some(None),
                };
                let output = runner
                    .run(dealt(&runner, jobs(30)), options, |_| {
                        // Unplanned, each shard plans into a private cache.
                        let shared = planned.then(|| Arc::clone(&cache));
                        Box::new(PlanningProbe::new(shared.unwrap_or_else(PlanCache::shared)))
                    })
                    .unwrap();
                let reference = reference.get_or_insert_with(|| output.report.clone());
                assert_eq!(&output.report, reference, "{label}");
                assert_eq!(output.cache_stats.is_some(), planned, "{label}");
                assert_eq!(output.trace.is_some(), traced, "{label}");
                if let Some(trace) = &output.trace {
                    let cache_reports = trace.records().filter(|record| {
                        matches!(record.event, TraceEvent::PlanCacheReport { .. })
                    });
                    assert_eq!(cache_reports.count(), usize::from(planned), "{label}");
                    let first = digests.entry((planned, traced)).or_insert(trace.digest());
                    assert_eq!(*first, trace.digest(), "{label}");
                }
            }
        }
    }

    #[test]
    fn planned_replay_is_bit_identical_and_shares_plans_across_shards() {
        // Unplanned reference: each shard plans into its own private cache.
        let runner = ShardedRunner::new(config(13, 3, 2)).unwrap();
        let reference = runner
            .run(dealt(&runner, jobs(30)), RunOptions::default(), |_| {
                Box::new(PlanningProbe::new(PlanCache::shared()))
            })
            .unwrap()
            .report;

        for workers in [1u32, 8] {
            let runner = ShardedRunner::new(config(13, 3, workers)).unwrap();
            let (report, stats) = runner
                .run_chunked_fallible_planned(
                    &PlanCache::shared(),
                    dealt(&runner, jobs(30)),
                    |_, cache| Box::new(PlanningProbe::new(cache)),
                )
                .unwrap();
            assert_eq!(report, reference, "workers = {workers}");
            // All 30 jobs share one profile: one solve for the whole
            // replay, and the counters are worker-count invariant (batch
            // hook + per-submit lookup = 2 lookups per job).
            assert_eq!(stats.misses, 1, "workers = {workers}");
            assert_eq!(stats.lookups(), 60, "workers = {workers}");
        }
    }

    #[test]
    fn planned_observed_replay_appends_one_aggregate_cache_report() {
        let runner = ShardedRunner::new(config(13, 3, 2)).unwrap();
        let cache = PlanCache::shared();
        let options = RunOptions {
            cache: Some(&cache),
            trace: Some(None),
        };
        let output = runner
            .run(dealt(&runner, jobs(30)), options, |_| {
                Box::new(PlanningProbe::new(Arc::clone(&cache)))
            })
            .unwrap();
        assert_eq!(output.report.job_count(), 30);
        let stats = output.cache_stats.unwrap();
        // Per-access cache events would be scheduling-dependent (whichever
        // shard reaches a profile first takes the miss); the trace instead
        // carries exactly one aggregate report with the run's stats delta,
        // closing the trace at the run's end.
        let trace = output.trace.unwrap();
        let cache_reports = trace
            .records()
            .filter(|record| matches!(record.event, TraceEvent::PlanCacheReport { .. }));
        assert_eq!(cache_reports.count(), 1);
        let last = trace.records().last().unwrap();
        assert_eq!(last.at_micros, output.report.ended_at.as_micros());
        match last.event {
            TraceEvent::PlanCacheReport { hits, misses, .. } => {
                assert_eq!(hits, stats.hits);
                assert_eq!(misses, stats.misses);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn planned_fallible_replay_matches_and_reuses_a_warm_cache() {
        let runner = ShardedRunner::new(config(13, 3, 2)).unwrap();
        let cache = PlanCache::shared();
        let options = RunOptions {
            cache: Some(&cache),
            trace: None,
        };
        let replay = || {
            runner
                .run(dealt(&runner, jobs(30)), options, |_| {
                    Box::new(PlanningProbe::new(Arc::clone(&cache)))
                })
                .unwrap()
        };
        let (first, second) = (replay(), replay());
        assert_eq!(first.report, second.report);
        // The second replay over the same cache is all hits, and the stats
        // delta (not the lifetime totals) says so.
        let (first, second) = (first.cache_stats.unwrap(), second.cache_stats.unwrap());
        assert_eq!((first.misses, second.misses, second.hits), (1, 0, 60));
    }

    #[test]
    fn observed_replay_preserves_the_report_and_is_worker_count_invariant() {
        // Tight deadlines: some jobs miss, so the trace carries
        // `DeadlineMissed` events, not just the per-shard phase spans.
        let workload = || {
            (0..24u64)
                .map(|i| {
                    JobSpec::new(JobId::new(i), SimTime::from_secs(i as f64), 12.0, 3)
                        .with_profile(Pareto::new(10.0, 1.5).unwrap())
                })
                .collect::<Vec<JobSpec>>()
        };
        let reference = run_plain(&ShardedRunner::new(config(11, 4, 2)).unwrap(), workload());
        let reference = reference.unwrap();
        let missed = reference.jobs.values().filter(|job| !job.met_deadline);
        let missed = missed.count();
        assert!(missed > 0, "workload must exercise DeadlineMissed events");

        let mut digests = Vec::new();
        for workers in [1u32, 8] {
            let runner = ShardedRunner::new(config(11, 4, workers)).unwrap();
            let options = RunOptions {
                cache: None,
                trace: Some(None),
            };
            let output = runner
                .run(dealt(&runner, workload()), options, |_| {
                    Box::new(NoSpeculation)
                })
                .unwrap();
            // Recording is observation only: the report stays bit-identical
            // to the unobserved replay.
            assert_eq!(output.report, reference, "workers = {workers}");
            // One `simulate` phase span per shard, merged in shard order,
            // and one DeadlineMissed per missed job.
            let trace = output.trace.unwrap();
            let (mut phases, mut deadlines) = (0, 0);
            for record in trace.records() {
                match record.event {
                    TraceEvent::Phase { .. } => phases += 1,
                    TraceEvent::DeadlineMissed { .. } => deadlines += 1,
                    _ => {}
                }
            }
            assert_eq!((phases, deadlines), (4, missed), "workers = {workers}");
            digests.push(trace.digest());
        }
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn empty_workload_yields_identity_report() {
        let runner = ShardedRunner::new(config(1, 4, 4)).unwrap();
        let report = run_plain(&runner, Vec::new()).unwrap();
        assert_eq!(report.job_count(), 0);
        assert_eq!(report.policy, "hadoop-ns");
        assert_eq!(report.events_dispatched, 0);
        assert_eq!(report.events_stale, 0);
    }
}
