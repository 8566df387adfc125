//! Google-cluster-trace-style synthetic workload (Figures 3, 4 and 5).
//!
//! The paper's large-scale evaluation replays 30 hours of the public 2011
//! Google cluster trace — 2 700 MapReduce jobs totalling about one million
//! tasks — and draws each job's task execution times from a Pareto
//! distribution fitted to the per-job duration statistics in the trace.
//! The raw trace is too large to redistribute here, so this module generates
//! a synthetic trace that reproduces its documented shape:
//!
//! * job arrivals form a Poisson process over the trace horizon,
//! * per-job task counts are heavy-tailed (most jobs are small, a few are
//!   very large), drawn from a bounded log-normal,
//! * per-job minimum task times vary across jobs (log-normal around a
//!   configurable median),
//! * deadlines are a configurable multiple of the job's mean task time,
//!   matching the "deadline = 2× average execution time" setting of
//!   Figure 4,
//! * per-job prices come from the spot-price model in [`crate::pricing`].

use crate::pricing::PriceModel;
use chronos_core::{ChronosError, Pareto};
use chronos_sim::prelude::{JobId, JobSpec, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic Google-style trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoogleTraceConfig {
    /// Number of jobs in the trace (the paper replays 2 700; scale down for
    /// quick runs).
    pub jobs: u32,
    /// Trace horizon in hours over which arrivals are spread (30 h in the
    /// paper).
    pub horizon_hours: f64,
    /// Median task count per job.
    pub median_tasks_per_job: u32,
    /// Log-normal sigma of the task-count distribution (heavier = more
    /// skew).
    pub task_count_sigma: f64,
    /// Hard cap on tasks per job (keeps synthetic traces tractable).
    pub max_tasks_per_job: u32,
    /// Median minimum task time `t_min` across jobs, seconds.
    pub median_t_min_secs: f64,
    /// Log-normal sigma of the per-job `t_min`.
    pub t_min_sigma: f64,
    /// Pareto tail index of task times within a job.
    pub beta: f64,
    /// Deadline expressed as a multiple of the job's mean task time.
    pub deadline_factor: f64,
    /// Per-unit-time VM price source.
    pub price: PriceModel,
    /// RNG seed.
    pub seed: u64,
}

impl GoogleTraceConfig {
    /// The paper-scale configuration: 2 700 jobs over 30 hours, roughly one
    /// million tasks in expectation.
    #[must_use]
    pub fn paper_scale(seed: u64) -> Self {
        GoogleTraceConfig {
            jobs: 2_700,
            horizon_hours: 30.0,
            median_tasks_per_job: 150,
            task_count_sigma: 1.2,
            max_tasks_per_job: 5_000,
            median_t_min_secs: 20.0,
            t_min_sigma: 0.4,
            beta: 1.5,
            deadline_factor: 2.0,
            price: PriceModel::ec2_like(1.0, seed ^ 0x5757),
            seed,
        }
    }

    /// A scaled-down configuration suitable for CI and the examples: a few
    /// hundred jobs, same statistical shape.
    #[must_use]
    pub fn scaled(jobs: u32, seed: u64) -> Self {
        GoogleTraceConfig {
            jobs,
            horizon_hours: 30.0 * f64::from(jobs) / 2_700.0,
            median_tasks_per_job: 20,
            max_tasks_per_job: 400,
            ..GoogleTraceConfig::paper_scale(seed)
        }
    }

    /// Replaces the tail index (the Figure 4 sweep variable).
    #[must_use]
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Replaces the deadline factor.
    #[must_use]
    pub fn with_deadline_factor(mut self, factor: f64) -> Self {
        self.deadline_factor = factor;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InvalidParameter`] for out-of-domain values.
    pub fn validate(&self) -> Result<(), ChronosError> {
        if self.jobs == 0 {
            return Err(ChronosError::invalid("jobs", 0.0, "at least one job"));
        }
        if !(self.horizon_hours.is_finite() && self.horizon_hours > 0.0) {
            return Err(ChronosError::invalid(
                "horizon_hours",
                self.horizon_hours,
                "a finite value > 0",
            ));
        }
        if self.median_tasks_per_job == 0 || self.max_tasks_per_job == 0 {
            return Err(ChronosError::invalid(
                "median_tasks_per_job",
                f64::from(self.median_tasks_per_job.min(self.max_tasks_per_job)),
                "at least one task",
            ));
        }
        if !(self.task_count_sigma.is_finite() && self.task_count_sigma >= 0.0) {
            return Err(ChronosError::invalid(
                "task_count_sigma",
                self.task_count_sigma,
                "a finite value >= 0",
            ));
        }
        if !(self.median_t_min_secs.is_finite() && self.median_t_min_secs > 0.0) {
            return Err(ChronosError::invalid(
                "median_t_min_secs",
                self.median_t_min_secs,
                "a finite value > 0",
            ));
        }
        if !(self.t_min_sigma.is_finite() && self.t_min_sigma >= 0.0) {
            return Err(ChronosError::invalid(
                "t_min_sigma",
                self.t_min_sigma,
                "a finite value >= 0",
            ));
        }
        if !(self.beta.is_finite() && self.beta > 1.0) {
            return Err(ChronosError::invalid(
                "beta",
                self.beta,
                "a finite value > 1 (finite mean task time)",
            ));
        }
        if !(self.deadline_factor.is_finite() && self.deadline_factor > 1.0) {
            return Err(ChronosError::invalid(
                "deadline_factor",
                self.deadline_factor,
                "a finite value > 1",
            ));
        }
        self.price.validate()
    }

    /// Generates the synthetic trace.
    ///
    /// Equivalent to draining [`GoogleTraceConfig::stream`] into one vector;
    /// for replays large enough that materializing every spec at once
    /// matters, feed the stream to the sharded runner directly.
    ///
    /// # Errors
    ///
    /// Propagates validation failures and distribution-construction errors.
    pub fn generate(&self) -> Result<SyntheticTrace, ChronosError> {
        Ok(SyntheticTrace {
            jobs: self.stream(self.jobs.max(1))?.flatten().collect(),
        })
    }

    /// Streams the trace as chunks of at most `chunk_size` job specs.
    ///
    /// The stream carries the generator RNG forward from chunk to chunk, so
    /// the concatenation of all chunks is **exactly** the
    /// [`GoogleTraceConfig::generate`] output for any chunk size — only peak
    /// memory changes: the stream holds the arrival instants (8 bytes per
    /// job) and the spot-price path, never the job specs themselves. Chunks
    /// double as shard inputs for
    /// `chronos_sim::shard::ShardedRunner::run`, which is how
    /// million-job Google-style replays reach the simulator without the
    /// trace ever existing as one giant `Vec` — the same shape the
    /// file-backed `crate::loader::TraceStream` produces.
    ///
    /// # Errors
    ///
    /// Propagates validation failures; additionally rejects a zero
    /// `chunk_size`.
    pub fn stream(&self, chunk_size: u32) -> Result<GoogleTraceStream, ChronosError> {
        self.validate()?;
        if chunk_size == 0 {
            return Err(ChronosError::invalid(
                "chunk_size",
                0.0,
                "at least one job per chunk",
            ));
        }
        let horizon_secs = self.horizon_hours * 3_600.0;
        let price_path = self.price.sample_path(horizon_secs)?;
        let mut rng = StdRng::seed_from_u64(self.seed);

        let task_count_dist = LogNormal::new(
            f64::from(self.median_tasks_per_job).ln(),
            self.task_count_sigma.max(1e-9),
        )
        .map_err(|e| ChronosError::numerical(format!("task count distribution: {e}")))?;
        let t_min_dist = LogNormal::new(self.median_t_min_secs.ln(), self.t_min_sigma.max(1e-9))
            .map_err(|e| ChronosError::numerical(format!("t_min distribution: {e}")))?;

        // Poisson arrivals: sort uniform arrival instants over the horizon.
        let mut arrivals: Vec<f64> = (0..self.jobs)
            .map(|_| rng.gen_range(0.0..horizon_secs))
            .collect();
        arrivals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(first) = arrivals.first_mut() {
            *first = 0.0;
        }

        Ok(GoogleTraceStream {
            arrivals,
            price_path,
            rng,
            task_count_dist,
            t_min_dist,
            beta: self.beta,
            deadline_factor: self.deadline_factor,
            max_tasks_per_job: self.max_tasks_per_job,
            next_index: 0,
            chunk_size,
        })
    }
}

impl Default for GoogleTraceConfig {
    fn default() -> Self {
        GoogleTraceConfig::scaled(300, 1)
    }
}

/// Chunked iterator over a [`GoogleTraceConfig`]'s job specifications.
///
/// Yields `Vec<JobSpec>` chunks (each of `chunk_size` jobs, the final one
/// possibly shorter) in submission order. Created by
/// [`GoogleTraceConfig::stream`].
#[derive(Debug, Clone)]
pub struct GoogleTraceStream {
    /// Sorted arrival instants, seconds (first pinned to zero).
    arrivals: Vec<f64>,
    price_path: crate::pricing::PricePath,
    rng: StdRng,
    task_count_dist: LogNormal,
    t_min_dist: LogNormal,
    beta: f64,
    deadline_factor: f64,
    max_tasks_per_job: u32,
    next_index: u32,
    chunk_size: u32,
}

impl GoogleTraceStream {
    /// Number of jobs not yet yielded.
    #[must_use]
    pub fn remaining_jobs(&self) -> u32 {
        self.arrivals.len() as u32 - self.next_index
    }

    /// Generates the next single job spec, advancing the RNG exactly as
    /// [`GoogleTraceConfig::generate`]'s per-job loop would.
    fn next_spec(&mut self) -> JobSpec {
        let index = self.next_index as usize;
        let arrival = self.arrivals[index];
        let tasks = (self.task_count_dist.sample(&mut self.rng).round() as u64)
            .clamp(1, u64::from(self.max_tasks_per_job)) as usize;
        let t_min = self.t_min_dist.sample(&mut self.rng).max(1.0);
        // Invariant: `GoogleTraceConfig::stream` rejects beta <= 1, and t_min is floored at 1.
        #[allow(clippy::expect_used)]
        let profile = Pareto::new(t_min, self.beta)
            .expect("beta was validated and the sampled t_min is >= 1");
        // Invariant: beta > 1, as above.
        #[allow(clippy::expect_used)]
        let mean_task = profile
            .mean()
            .expect("beta > 1 guarantees a finite mean task time");
        let deadline = self.deadline_factor * mean_task;
        let price = self.price_path.price_at(arrival);
        self.next_index += 1;
        JobSpec::new(
            JobId::new(index as u64),
            SimTime::from_secs(arrival),
            deadline,
            tasks,
        )
        .with_profile(profile)
        .with_price(price)
    }
}

impl Iterator for GoogleTraceStream {
    type Item = Vec<JobSpec>;

    fn next(&mut self) -> Option<Vec<JobSpec>> {
        let remaining = self.remaining_jobs();
        if remaining == 0 {
            return None;
        }
        let size = remaining.min(self.chunk_size) as usize;
        let mut chunk = Vec::with_capacity(size);
        for _ in 0..size {
            chunk.push(self.next_spec());
        }
        Some(chunk)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let chunks = self.remaining_jobs().div_ceil(self.chunk_size) as usize;
        (chunks, Some(chunks))
    }
}

impl ExactSizeIterator for GoogleTraceStream {}

/// A generated synthetic trace, plus summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticTrace {
    /// The job specifications, sorted by submission time.
    pub jobs: Vec<JobSpec>,
}

impl SyntheticTrace {
    /// Number of jobs in the trace.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Total number of tasks across all jobs.
    #[must_use]
    pub fn task_count(&self) -> u64 {
        self.jobs.iter().map(|j| j.task_count() as u64).sum()
    }

    /// Trace span in hours (first to last submission).
    #[must_use]
    pub fn span_hours(&self) -> f64 {
        match (self.jobs.first(), self.jobs.last()) {
            (Some(first), Some(last)) => {
                (last.submit_time.saturating_since(first.submit_time)).as_secs() / 3_600.0
            }
            _ => 0.0,
        }
    }

    /// Consumes the trace, yielding the job specifications.
    #[must_use]
    pub fn into_jobs(self) -> Vec<JobSpec> {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_trace_has_expected_shape() {
        let trace = GoogleTraceConfig::scaled(200, 7).generate().unwrap();
        assert_eq!(trace.job_count(), 200);
        assert!(trace.task_count() > 200);
        // Arrivals sorted.
        for pair in trace.jobs.windows(2) {
            assert!(pair[1].submit_time >= pair[0].submit_time);
        }
        // Every job has a valid spec.
        for job in &trace.jobs {
            assert!(job.validate().is_ok());
            assert!(job.deadline_secs > job.profile.t_min());
            assert!(job.price > 0.0);
        }
    }

    #[test]
    fn task_counts_are_heavy_tailed() {
        let trace = GoogleTraceConfig::scaled(400, 11).generate().unwrap();
        let counts: Vec<usize> = trace.jobs.iter().map(|j| j.task_count()).collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        // A heavy-tailed distribution has a maximum far above the mean.
        assert!(max > 3.0 * mean, "max {max}, mean {mean}");
        let min = *counts.iter().min().unwrap();
        assert!(min >= 1);
    }

    #[test]
    fn deadline_scales_with_mean_task_time() {
        let config = GoogleTraceConfig::scaled(50, 3).with_deadline_factor(2.0);
        let trace = config.generate().unwrap();
        for job in &trace.jobs {
            let mean = job.profile.mean().unwrap();
            assert!((job.deadline_secs - 2.0 * mean).abs() < 1e-6);
        }
    }

    #[test]
    fn beta_override_applies_to_every_job() {
        let trace = GoogleTraceConfig::scaled(30, 5)
            .with_beta(1.1)
            .generate()
            .unwrap();
        assert!(trace
            .jobs
            .iter()
            .all(|j| (j.profile.beta() - 1.1).abs() < 1e-12));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = GoogleTraceConfig::scaled(100, 21).generate().unwrap();
        let b = GoogleTraceConfig::scaled(100, 21).generate().unwrap();
        let c = GoogleTraceConfig::scaled(100, 22).generate().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn paper_scale_parameters() {
        let config = GoogleTraceConfig::paper_scale(1);
        assert_eq!(config.jobs, 2_700);
        assert_eq!(config.horizon_hours, 30.0);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut config = GoogleTraceConfig::scaled(10, 0);
        config.jobs = 0;
        assert!(config.validate().is_err());
        let config = GoogleTraceConfig::scaled(10, 0).with_beta(0.9);
        assert!(config.validate().is_err());
        let config = GoogleTraceConfig::scaled(10, 0).with_deadline_factor(0.5);
        assert!(config.validate().is_err());
        let mut config = GoogleTraceConfig::scaled(10, 0);
        config.median_t_min_secs = 0.0;
        assert!(config.validate().is_err());
        let mut config = GoogleTraceConfig::scaled(10, 0);
        config.horizon_hours = -1.0;
        assert!(config.validate().is_err());
    }

    #[test]
    fn stream_concatenation_equals_generate() {
        let config = GoogleTraceConfig::scaled(60, 19);
        let batch = config.generate().unwrap().into_jobs();
        // Any chunk size — including ones that do not divide the job count
        // and a single-chunk stream — reproduces the batch output exactly.
        for chunk_size in [1u32, 7, 13, 60, 1000] {
            let streamed: Vec<JobSpec> = config.stream(chunk_size).unwrap().flatten().collect();
            assert_eq!(streamed, batch, "chunk_size {chunk_size}");
        }
    }

    #[test]
    fn stream_chunk_shapes() {
        let config = GoogleTraceConfig::scaled(10, 19);
        let mut stream = config.stream(4).unwrap();
        assert_eq!(stream.len(), 3);
        assert_eq!(stream.remaining_jobs(), 10);
        let sizes: Vec<usize> = stream.by_ref().map(|chunk| chunk.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(stream.remaining_jobs(), 0);
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_rejects_zero_chunk_size_and_invalid_configs() {
        let config = GoogleTraceConfig::scaled(10, 19);
        assert!(config.stream(0).is_err());
        assert!(config.with_beta(0.5).stream(4).is_err());
    }

    #[test]
    fn span_and_into_jobs() {
        let trace = GoogleTraceConfig::scaled(50, 2).generate().unwrap();
        assert!(trace.span_hours() > 0.0);
        let jobs = trace.into_jobs();
        assert_eq!(jobs.len(), 50);
        assert_eq!(SyntheticTrace { jobs: Vec::new() }.span_hours(), 0.0);
    }
}
