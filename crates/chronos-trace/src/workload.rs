//! Benchmark workload models for the testbed experiments (Figure 2).
//!
//! The paper evaluates the map phases of four classic MapReduce benchmarks
//! on 1.2 GB inputs: **Sort** and **SecondarySort** (I/O bound) and
//! **TeraSort** and **WordCount** (CPU bound in the map phase). Deadlines
//! are 100 s for Sort/TeraSort and 150 s for SecondarySort/WordCount. This
//! module models each benchmark as a per-task service profile (minimum task
//! time and split-size spread) and generates the 100-job, 10-task workload
//! used in Figure 2.

use crate::contention::ContentionModel;
use chronos_core::{ChronosError, Pareto};
use chronos_sim::prelude::{JobId, JobSpec, SimTime, TaskSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The four benchmarks of Section VII.A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// Sort — I/O bound, RandomWriter-generated input.
    Sort,
    /// SecondarySort — I/O bound, random number-pair input.
    SecondarySort,
    /// TeraSort — CPU-bound map phase, TeraGen-generated input.
    TeraSort,
    /// WordCount — CPU bound.
    WordCount,
}

impl Benchmark {
    /// All four benchmarks in the order the paper plots them.
    pub const ALL: [Benchmark; 4] = [
        Benchmark::Sort,
        Benchmark::SecondarySort,
        Benchmark::TeraSort,
        Benchmark::WordCount,
    ];

    /// Short label used in experiment output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Benchmark::Sort => "sort",
            Benchmark::SecondarySort => "secondary-sort",
            Benchmark::TeraSort => "terasort",
            Benchmark::WordCount => "wordcount",
        }
    }

    /// Whether the benchmark's map phase is I/O bound (as opposed to CPU
    /// bound).
    #[must_use]
    pub fn io_bound(&self) -> bool {
        matches!(self, Benchmark::Sort | Benchmark::SecondarySort)
    }

    /// The deadline the paper assigns to this benchmark's jobs (seconds).
    #[must_use]
    pub fn deadline_secs(&self) -> f64 {
        match self {
            Benchmark::Sort | Benchmark::TeraSort => 100.0,
            Benchmark::SecondarySort | Benchmark::WordCount => 150.0,
        }
    }

    /// Minimum map-task execution time (seconds) on an uncontended container
    /// for the 1.2 GB / 10-split configuration. I/O-bound benchmarks stream
    /// their splits faster than the CPU-bound ones; SecondarySort and
    /// WordCount carry more per-record work, which is why the paper gives
    /// them the looser 150 s deadline.
    #[must_use]
    pub fn t_min_secs(&self) -> f64 {
        match self {
            Benchmark::Sort => 20.0,
            Benchmark::TeraSort => 24.0,
            Benchmark::SecondarySort => 32.0,
            Benchmark::WordCount => 36.0,
        }
    }

    /// Relative spread of split sizes (± fraction around the nominal split):
    /// synthetic inputs (RandomWriter/TeraGen) are uniform, text inputs less
    /// so.
    #[must_use]
    pub fn split_spread(&self) -> f64 {
        match self {
            Benchmark::Sort | Benchmark::TeraSort | Benchmark::SecondarySort => 0.02,
            Benchmark::WordCount => 0.10,
        }
    }
}

/// Configuration of the Figure 2 testbed workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestbedWorkload {
    /// The benchmark being run.
    pub benchmark: Benchmark,
    /// Number of jobs (the paper executes 100).
    pub jobs: u32,
    /// Tasks per job (the paper uses 10).
    pub tasks_per_job: u32,
    /// Mean inter-arrival gap between consecutive jobs, seconds.
    pub mean_interarrival_secs: f64,
    /// Per-unit-time VM price.
    pub price: f64,
    /// Background contention model (sets the Pareto tail index).
    pub contention: ContentionModel,
    /// Seed for arrivals and split-size jitter.
    pub seed: u64,
}

impl TestbedWorkload {
    /// The paper's setup for a benchmark: 100 jobs of 10 tasks.
    #[must_use]
    pub fn paper_setup(benchmark: Benchmark, seed: u64) -> Self {
        TestbedWorkload {
            benchmark,
            jobs: 100,
            tasks_per_job: 10,
            mean_interarrival_secs: 30.0,
            price: 1.0,
            contention: ContentionModel::default(),
            seed,
        }
    }

    /// Scales the number of jobs (useful for quick smoke runs).
    #[must_use]
    pub fn with_jobs(mut self, jobs: u32) -> Self {
        self.jobs = jobs;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InvalidParameter`] for empty workloads or
    /// non-positive arrival gaps or prices.
    pub fn validate(&self) -> Result<(), ChronosError> {
        if self.jobs == 0 {
            return Err(ChronosError::invalid("jobs", 0.0, "at least one job"));
        }
        if self.tasks_per_job == 0 {
            return Err(ChronosError::invalid(
                "tasks_per_job",
                0.0,
                "at least one task",
            ));
        }
        if !(self.mean_interarrival_secs.is_finite() && self.mean_interarrival_secs >= 0.0) {
            return Err(ChronosError::invalid(
                "mean_interarrival_secs",
                self.mean_interarrival_secs,
                "a finite value >= 0",
            ));
        }
        if !(self.price.is_finite() && self.price >= 0.0) {
            return Err(ChronosError::invalid(
                "price",
                self.price,
                "a finite value >= 0",
            ));
        }
        self.contention.validate()
    }

    /// Generates the job specifications for this workload, with job ids
    /// starting at `first_job_id`.
    ///
    /// Equivalent to draining [`TestbedWorkload::stream_from`] into one
    /// vector; for workloads large enough that materializing every spec at
    /// once matters (the sharded runner's multi-million-job traces), use
    /// the stream directly.
    ///
    /// # Errors
    ///
    /// Propagates validation and distribution-construction failures.
    pub fn generate_from(&self, first_job_id: u64) -> Result<Vec<JobSpec>, ChronosError> {
        // One chunk covering the whole workload; `jobs == 0` is already
        // rejected by validation inside `stream_from`.
        Ok(self
            .stream_from(first_job_id, self.jobs)?
            .flatten()
            .collect())
    }

    /// Generates the job specifications with ids starting at zero.
    ///
    /// # Errors
    ///
    /// Propagates validation and distribution-construction failures.
    pub fn generate(&self) -> Result<Vec<JobSpec>, ChronosError> {
        self.generate_from(0)
    }

    /// Streams the workload as chunks of at most `chunk_size` job specs,
    /// with ids starting at zero.
    ///
    /// # Errors
    ///
    /// Propagates validation failures; additionally rejects a zero
    /// `chunk_size`.
    pub fn stream(&self, chunk_size: u32) -> Result<WorkloadStream, ChronosError> {
        self.stream_from(0, chunk_size)
    }

    /// Streams the workload as chunks of at most `chunk_size` job specs,
    /// with ids starting at `first_job_id`.
    ///
    /// The stream carries the arrival clock and RNG forward from chunk to
    /// chunk, so the concatenation of all chunks is **exactly** the
    /// [`TestbedWorkload::generate_from`] output for any chunk size — only
    /// peak memory changes. Chunks double as shard inputs for
    /// `chronos_sim::shard::ShardedRunner::run`, which is how
    /// million-job traces reach the simulator without ever existing as one
    /// giant `Vec`.
    ///
    /// # Errors
    ///
    /// Propagates validation failures; additionally rejects a zero
    /// `chunk_size`.
    pub fn stream_from(
        &self,
        first_job_id: u64,
        chunk_size: u32,
    ) -> Result<WorkloadStream, ChronosError> {
        self.validate()?;
        if chunk_size == 0 {
            return Err(ChronosError::invalid(
                "chunk_size",
                0.0,
                "at least one job per chunk",
            ));
        }
        let profile = self
            .contention
            .task_time_distribution(self.benchmark.t_min_secs())?;
        Ok(WorkloadStream {
            workload: *self,
            profile,
            rng: StdRng::seed_from_u64(self.seed),
            arrival: 0.0,
            next_index: 0,
            chunk_size,
            first_job_id,
        })
    }
}

/// Chunked iterator over a [`TestbedWorkload`]'s job specifications.
///
/// Yields `Vec<JobSpec>` chunks (each of `chunk_size` jobs, the final one
/// possibly shorter) in submission order, keeping only one chunk in memory
/// at a time. Created by [`TestbedWorkload::stream`] /
/// [`TestbedWorkload::stream_from`].
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    workload: TestbedWorkload,
    profile: Pareto,
    rng: StdRng,
    arrival: f64,
    next_index: u32,
    chunk_size: u32,
    first_job_id: u64,
}

impl WorkloadStream {
    /// Number of jobs not yet yielded.
    #[must_use]
    pub fn remaining_jobs(&self) -> u32 {
        self.workload.jobs - self.next_index
    }

    /// Generates the next single job spec, advancing the arrival clock and
    /// the RNG exactly as the batch generator would.
    fn next_spec(&mut self) -> JobSpec {
        let workload = &self.workload;
        // Exponential inter-arrivals via inverse CDF keeps the generator
        // dependency-light and deterministic.
        if self.next_index > 0 && workload.mean_interarrival_secs > 0.0 {
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            self.arrival += -workload.mean_interarrival_secs * u.ln();
        }
        let spread = workload.benchmark.split_spread();
        let tasks = (0..workload.tasks_per_job)
            .map(|_| {
                let jitter = if spread > 0.0 {
                    self.rng.gen_range(-spread..=spread)
                } else {
                    0.0
                };
                TaskSpec::sized(1.0 + jitter)
            })
            .collect();
        let spec = JobSpec::new(
            JobId::new(self.first_job_id + u64::from(self.next_index)),
            SimTime::from_secs(self.arrival),
            workload.benchmark.deadline_secs(),
            workload.tasks_per_job as usize,
        )
        .with_profile(self.profile)
        .with_price(workload.price)
        .with_tasks(tasks);
        self.next_index += 1;
        spec
    }
}

impl Iterator for WorkloadStream {
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

impl ExactSizeIterator for WorkloadStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::ContentionLevel;

    #[test]
    fn benchmark_properties_match_paper() {
        assert_eq!(Benchmark::Sort.deadline_secs(), 100.0);
        assert_eq!(Benchmark::TeraSort.deadline_secs(), 100.0);
        assert_eq!(Benchmark::SecondarySort.deadline_secs(), 150.0);
        assert_eq!(Benchmark::WordCount.deadline_secs(), 150.0);
        assert!(Benchmark::Sort.io_bound());
        assert!(Benchmark::SecondarySort.io_bound());
        assert!(!Benchmark::TeraSort.io_bound());
        assert!(!Benchmark::WordCount.io_bound());
        assert_eq!(Benchmark::ALL.len(), 4);
        let labels: std::collections::HashSet<&str> =
            Benchmark::ALL.iter().map(Benchmark::label).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn paper_setup_generates_100_jobs_of_10_tasks() {
        let workload = TestbedWorkload::paper_setup(Benchmark::Sort, 1);
        let specs = workload.generate().unwrap();
        assert_eq!(specs.len(), 100);
        assert!(specs.iter().all(|s| s.task_count() == 10));
        assert!(specs.iter().all(|s| s.deadline_secs == 100.0));
        // Arrivals are sorted and start at zero.
        assert_eq!(specs[0].submit_time, SimTime::ZERO);
        for pair in specs.windows(2) {
            assert!(pair[1].submit_time >= pair[0].submit_time);
        }
    }

    #[test]
    fn job_ids_are_unique_and_offset() {
        let workload = TestbedWorkload::paper_setup(Benchmark::WordCount, 2).with_jobs(10);
        let specs = workload.generate_from(500).unwrap();
        let ids: std::collections::HashSet<u64> = specs.iter().map(|s| s.id.raw()).collect();
        assert_eq!(ids.len(), 10);
        assert!(ids.contains(&500));
        assert!(ids.contains(&509));
    }

    #[test]
    fn contention_sets_tail_index() {
        let mut workload = TestbedWorkload::paper_setup(Benchmark::Sort, 3).with_jobs(1);
        workload.contention = ContentionModel::new(ContentionLevel::Heavy, 0);
        let specs = workload.generate().unwrap();
        assert_eq!(specs[0].profile.beta(), 1.2);
        assert_eq!(specs[0].profile.t_min(), Benchmark::Sort.t_min_secs());
    }

    #[test]
    fn split_jitter_respects_spread() {
        let workload = TestbedWorkload::paper_setup(Benchmark::WordCount, 4).with_jobs(5);
        let specs = workload.generate().unwrap();
        for spec in &specs {
            for task in &spec.tasks {
                assert!(task.size_factor >= 0.9 - 1e-9);
                assert!(task.size_factor <= 1.1 + 1e-9);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TestbedWorkload::paper_setup(Benchmark::TeraSort, 5)
            .generate()
            .unwrap();
        let b = TestbedWorkload::paper_setup(Benchmark::TeraSort, 5)
            .generate()
            .unwrap();
        let c = TestbedWorkload::paper_setup(Benchmark::TeraSort, 6)
            .generate()
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_concatenation_equals_generate() {
        let workload = TestbedWorkload::paper_setup(Benchmark::Sort, 9).with_jobs(25);
        let batch = workload.generate_from(100).unwrap();
        // Any chunk size — including ones that do not divide the job count
        // and a single-chunk stream — reproduces the batch output exactly.
        for chunk_size in [1, 4, 7, 25, 1000] {
            let streamed: Vec<_> = workload
                .stream_from(100, chunk_size)
                .unwrap()
                .flatten()
                .collect();
            assert_eq!(streamed, batch, "chunk_size {chunk_size}");
        }
    }

    #[test]
    fn stream_chunk_shapes() {
        let workload = TestbedWorkload::paper_setup(Benchmark::Sort, 9).with_jobs(10);
        let mut stream = workload.stream(4).unwrap();
        assert_eq!(stream.len(), 3);
        assert_eq!(stream.remaining_jobs(), 10);
        let sizes: Vec<usize> = stream.by_ref().map(|chunk| chunk.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(stream.remaining_jobs(), 0);
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_rejects_zero_chunk_size() {
        let workload = TestbedWorkload::paper_setup(Benchmark::Sort, 9);
        assert!(workload.stream(0).is_err());
        assert!(workload.stream(1).is_ok());
    }

    #[test]
    fn validation_failures() {
        let mut workload = TestbedWorkload::paper_setup(Benchmark::Sort, 0);
        workload.jobs = 0;
        assert!(workload.generate().is_err());
        let mut workload = TestbedWorkload::paper_setup(Benchmark::Sort, 0);
        workload.tasks_per_job = 0;
        assert!(workload.validate().is_err());
        let mut workload = TestbedWorkload::paper_setup(Benchmark::Sort, 0);
        workload.price = -1.0;
        assert!(workload.validate().is_err());
        let mut workload = TestbedWorkload::paper_setup(Benchmark::Sort, 0);
        workload.mean_interarrival_secs = f64::NAN;
        assert!(workload.validate().is_err());
    }
}
