//! Measurement: per-job metrics and the aggregate simulation report.
//!
//! The evaluation section measures three quantities per strategy: **PoCD**
//! (fraction of jobs finishing before their deadline), **cost** (average
//! machine running time priced at the per-unit VM rate) and **net utility**
//! `lg(PoCD − R_min) − θ·Cost`. [`SimulationReport`] computes all three from
//! the raw per-job records.
//!
//! Reports form a **commutative monoid** under [`SimulationReport::merge`]
//! with [`SimulationReport::default`] as the identity: the sharded runner
//! relies on this to combine per-shard reports into an aggregate whose
//! metrics are independent of how shards were scheduled across worker
//! threads. Everything a report accumulates is therefore either keyed
//! (per-job metrics in a [`BTreeMap`]), an order-insensitive reduction
//! (sums, maxima, element-wise histogram addition) or a set union (the
//! policy label). Folding many reports goes through the crate-private
//! `ReportFold`, which keeps the per-job metrics in one id-sorted run, so
//! the fold is linear in the total job count instead of re-building the
//! map per report.
//!
//! A report's serialized form is its derived JSON: the head fields in
//! declaration order, with `jobs` as an object keyed by the decimal job id
//! in ascending order. Report digests hash exactly the compact bytes of
//! that form; `chronos-bench` writes them one [`JobMetrics`] at a time, so
//! no JSON tree or string of a whole report is ever built.

use crate::error::SimError;
use crate::ids::JobId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Metrics of a single job after the simulation finished (or was cut off).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// The job.
    pub job: JobId,
    /// Submission instant.
    pub submitted_at: SimTime,
    /// Deadline in seconds relative to submission.
    pub deadline_secs: f64,
    /// Completion instant, if the job finished within the simulation.
    pub completed_at: Option<SimTime>,
    /// Whether the job finished before its deadline.
    pub met_deadline: bool,
    /// Total machine running time of every attempt of the job (seconds).
    pub machine_time_secs: f64,
    /// Machine time multiplied by the job's per-unit-time price.
    pub cost: f64,
    /// Number of attempts ever launched (original + speculative/clone).
    pub attempts_launched: u32,
    /// Number of attempts killed by the Application Master.
    pub attempts_killed: u32,
    /// The number of extra attempts `r` the policy chose for this job, when
    /// the policy reported one (Chronos strategies do; baselines may not).
    pub chosen_r: Option<u32>,
}

impl JobMetrics {
    /// Job turnaround time in seconds, when the job completed.
    #[must_use]
    pub fn completion_secs(&self) -> Option<f64> {
        self.completed_at
            .map(|done| (done.saturating_since(self.submitted_at)).as_secs())
    }
}

/// Number of log₂ buckets in a [`LatencyHistogram`]. Bucket 0 covers
/// `[0 s, 1 s)`, bucket `i` covers `[2^(i−1), 2^i)` seconds, and the last
/// bucket absorbs everything above `2^38` seconds (≈ 8 700 years — far
/// beyond any simulated horizon).
pub const LATENCY_BUCKETS: usize = 40;

/// A fixed-shape log₂ histogram of job turnaround times.
///
/// Counts are integers and the bucket layout is a compile-time constant, so
/// merging two histograms (element-wise addition) is associative,
/// commutative and bit-exact — the properties the sharded runner's
/// order-insensitive report merge depends on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Per-bucket completion counts; index per the [`LATENCY_BUCKETS`] doc.
    buckets: Vec<u64>,
    /// Jobs that never completed within the simulation.
    unfinished: u64,
}

impl LatencyHistogram {
    /// An empty histogram (the merge identity).
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; LATENCY_BUCKETS],
            unfinished: 0,
        }
    }

    /// The bucket a turnaround of `secs` falls into. NaN and sub-second
    /// (including negative) turnarounds land in bucket 0; `+∞` — like any
    /// value at or beyond the last bucket's lower edge — lands in the
    /// overflow bucket.
    #[must_use]
    pub fn bucket_index(secs: f64) -> usize {
        if secs.is_nan() || secs < 1.0 {
            return 0;
        }
        let index = secs.log2().floor();
        if index >= (LATENCY_BUCKETS - 2) as f64 {
            LATENCY_BUCKETS - 1
        } else {
            index as usize + 1
        }
    }

    /// Restores the fixed bucket count. The only way to violate it is
    /// deserializing a hand-edited report; healing here keeps `record_secs`
    /// panic-free and `merge` lossless on such data. Short vectors are
    /// zero-extended; counts beyond the fixed layout fold into the overflow
    /// bucket (they are by definition beyond its lower edge).
    fn ensure_shape(&mut self) {
        if self.buckets.len() < LATENCY_BUCKETS {
            self.buckets.resize(LATENCY_BUCKETS, 0);
        } else if self.buckets.len() > LATENCY_BUCKETS {
            let excess: u64 = self.buckets.drain(LATENCY_BUCKETS..).sum();
            self.buckets[LATENCY_BUCKETS - 1] += excess;
        }
    }

    /// Records one completed job with the given turnaround.
    pub fn record_secs(&mut self, secs: f64) {
        self.ensure_shape();
        self.buckets[Self::bucket_index(secs)] += 1;
    }

    /// Records one job that did not finish before the simulation ended.
    pub fn record_unfinished(&mut self) {
        self.unfinished += 1;
    }

    /// Adds `other`'s counts into `self` (element-wise, order-insensitive).
    /// Malformed bucket vectors on either side (see `ensure_shape`) are
    /// absorbed losslessly: `other`'s out-of-layout counts fold into the
    /// overflow bucket.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.ensure_shape();
        for (index, count) in other.buckets.iter().enumerate() {
            self.buckets[index.min(LATENCY_BUCKETS - 1)] += count;
        }
        self.unfinished += other.unfinished;
    }

    /// Count in bucket `index` (zero for out-of-range indices).
    #[must_use]
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.buckets.get(index).copied().unwrap_or(0)
    }

    /// The `[low, high)` second range bucket `index` covers. The final
    /// bucket's upper bound is `f64::INFINITY`.
    #[must_use]
    pub fn bucket_bounds(index: usize) -> (f64, f64) {
        if index == 0 {
            (0.0, 1.0)
        } else if index >= LATENCY_BUCKETS - 1 {
            (2f64.powi((LATENCY_BUCKETS - 2) as i32), f64::INFINITY)
        } else {
            (2f64.powi(index as i32 - 1), 2f64.powi(index as i32))
        }
    }

    /// Number of completed jobs recorded.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Number of unfinished jobs recorded.
    #[must_use]
    pub fn unfinished(&self) -> u64 {
        self.unfinished
    }

    /// Total number of jobs recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.completed() + self.unfinished
    }

    /// An upper bound (bucket upper edge) on the `q`-quantile of the
    /// recorded turnarounds, or `None` when nothing completed. `q` is
    /// clamped to `[0, 1]`.
    ///
    /// The returned bound is always **finite**: a quantile landing in the
    /// overflow bucket reports that bucket's lower edge (`2^38`) — the
    /// tightest finite statement the histogram can make — instead of the
    /// bucket's infinite upper edge, which would serialize as `inf` in
    /// reports and defeat any numeric comparison against a latency target.
    /// Use [`LatencyHistogram::saturated`] to detect that the bound was
    /// clamped this way.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<f64> {
        let completed = self.completed();
        if completed == 0 {
            return None;
        }
        let overflow_edge = Self::bucket_bounds(LATENCY_BUCKETS - 1).0;
        let target = (q.clamp(0.0, 1.0) * completed as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                // The overflow bucket (and any out-of-layout index from a
                // deserialized oversized vector) has no finite upper edge;
                // report its lower edge instead.
                return Some(if index >= LATENCY_BUCKETS - 1 {
                    overflow_edge
                } else {
                    Self::bucket_bounds(index).1
                });
            }
        }
        Some(overflow_edge)
    }

    /// Number of completed observations — the Prometheus `_count` of the
    /// histogram. Alias of [`LatencyHistogram::completed`] under the name
    /// metric exporters expect.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.completed()
    }

    /// An upper-bound approximation of the summed turnaround seconds — the
    /// Prometheus `_sum`. The histogram stores only bucket counts (the
    /// serialized report format is golden-pinned, so no exact sum field
    /// can be added), so each observation is charged its bucket's upper
    /// edge; overflow-bucket observations are charged the finite lower
    /// edge `2^38` instead (see [`LatencyHistogram::saturated`]).
    #[must_use]
    pub fn sum(&self) -> f64 {
        let overflow_edge = Self::bucket_bounds(LATENCY_BUCKETS - 1).0;
        self.buckets
            .iter()
            .enumerate()
            .map(|(index, &count)| {
                let edge = if index >= LATENCY_BUCKETS - 1 {
                    overflow_edge
                } else {
                    Self::bucket_bounds(index).1
                };
                count as f64 * edge
            })
            .sum()
    }

    /// Mean turnaround in seconds under the same bucket-upper-edge
    /// approximation as [`LatencyHistogram::sum`], or `None` when nothing
    /// completed.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            None
        } else {
            Some(self.sum() / count as f64)
        }
    }

    /// Iterates every bucket as `((low, high), count)` in index order —
    /// the public bucket-walk the Prometheus renderer (and any external
    /// exporter) needs. The final bucket's `high` is `f64::INFINITY`.
    pub fn iter_buckets(&self) -> impl Iterator<Item = ((f64, f64), u64)> + '_ {
        (0..LATENCY_BUCKETS)
            .map(move |index| (Self::bucket_bounds(index), self.bucket_count(index)))
    }

    /// Snapshots the histogram into the exportable
    /// [`HistogramMetric`](chronos_obs::HistogramMetric) form: finite
    /// bucket upper edges, per-bucket counts with a trailing overflow
    /// bucket, and the derived [`LatencyHistogram::sum`]. Unfinished jobs
    /// are not part of the distribution; export them as their own counter.
    #[must_use]
    pub fn to_metric(&self) -> chronos_obs::HistogramMetric {
        let bounds: Vec<f64> = (0..LATENCY_BUCKETS - 1)
            .map(|index| Self::bucket_bounds(index).1)
            .collect();
        let mut counts: Vec<u64> = (0..LATENCY_BUCKETS).map(|i| self.bucket_count(i)).collect();
        // A deserialized oversized vector keeps out-of-layout counts until
        // healed; fold them into the overflow bucket like `merge` does.
        counts[LATENCY_BUCKETS - 1] += self
            .buckets
            .iter()
            .skip(LATENCY_BUCKETS)
            .copied()
            .sum::<u64>();
        chronos_obs::HistogramMetric::from_parts(bounds, counts, self.sum())
    }

    /// True when any sample landed in the overflow bucket, i.e. some
    /// recorded value was at or beyond the last bucket's lower edge
    /// (`2^38`). When this is set, quantiles that reach the overflow bucket
    /// are clamped to that edge by [`LatencyHistogram::quantile_upper_bound`]
    /// and should be read as "at least this much".
    #[must_use]
    pub fn saturated(&self) -> bool {
        // `skip` rather than indexing: a deserialized oversized vector keeps
        // its out-of-layout counts until the next record/merge heals it, and
        // those counts are overflow counts by definition.
        self.buckets
            .iter()
            .skip(LATENCY_BUCKETS - 1)
            .any(|&count| count > 0)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Aggregate report over all jobs of one simulation run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimulationReport {
    /// The policy that produced this run. After a merge this is the
    /// `+`-joined sorted set of the contributing policy labels.
    pub policy: String,
    /// Per-job metrics keyed by job id.
    pub jobs: BTreeMap<JobId, JobMetrics>,
    /// Number of events that were dispatched to a handler. This is the
    /// engine's unit of work: throughput (events/sec) and the `max_events`
    /// budget are both measured over dispatched events.
    pub events_dispatched: u64,
    /// Number of lazily-deleted events popped and discarded (completions of
    /// attempts that were killed after the event was scheduled). Diagnostic
    /// only — stale pops advance simulated time but do no work and consume
    /// no event budget.
    pub events_stale: u64,
    /// Simulated instant at which the run ended (the latest such instant
    /// across shards after a merge).
    pub ended_at: SimTime,
    /// Log₂ histogram of job turnaround times.
    pub latency: LatencyHistogram,
}

impl SimulationReport {
    /// Number of jobs in the report.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Exports the report's aggregates into a
    /// [`MetricsRegistry`](chronos_obs::MetricsRegistry) under the
    /// `chronos_sim_*` namespace: engine work counters
    /// (`events_dispatched`/`events_stale`), job/deadline/attempt totals
    /// and the turnaround histogram. Only merge-stable integer aggregates
    /// are exported, so exporting a merged sharded report equals merging
    /// the per-shard exports — worker count stays invisible.
    pub fn export_metrics(&self, registry: &mut chronos_obs::MetricsRegistry) {
        registry.counter_add(
            "chronos_sim_events_dispatched_total",
            "Events dispatched to a handler (the engine's unit of work)",
            self.events_dispatched,
        );
        registry.counter_add(
            "chronos_sim_events_stale_total",
            "Lazily-deleted events popped and discarded",
            self.events_stale,
        );
        registry.counter_add(
            "chronos_sim_jobs_total",
            "Jobs simulated",
            self.jobs.len() as u64,
        );
        let met = self.jobs.values().filter(|job| job.met_deadline).count() as u64;
        registry.counter_add(
            "chronos_sim_deadlines_met_total",
            "Jobs that finished before their deadline",
            met,
        );
        registry.counter_add(
            "chronos_sim_deadlines_missed_total",
            "Jobs that missed their deadline (or never finished)",
            self.jobs.len() as u64 - met,
        );
        registry.counter_add(
            "chronos_sim_attempts_total",
            "Attempts ever launched (original + speculative/clone)",
            self.total_attempts(),
        );
        registry.counter_add(
            "chronos_sim_attempts_killed_total",
            "Attempts killed by the Application Master",
            self.total_kills(),
        );
        registry.counter_add(
            "chronos_sim_jobs_unfinished_total",
            "Jobs still running when the simulation ended",
            self.latency.unfinished(),
        );
        registry.histogram_merge(
            "chronos_sim_latency_seconds",
            "Job turnaround time distribution (log2 buckets)",
            self.latency.to_metric(),
        );
    }

    /// Accumulates `other` into `self`.
    ///
    /// The operation is **associative and commutative** (and
    /// [`SimulationReport::default`] is its identity), so any merge order —
    /// and therefore any shard-to-worker schedule — produces bit-identical
    /// aggregates:
    ///
    /// * per-job metrics are unioned into the id-keyed map (job ids must be
    ///   disjoint; this is what makes the union order-insensitive),
    /// * `events_dispatched` and `events_stale` are summed,
    /// * `ended_at` takes the maximum over the exact integer-microsecond
    ///   clock,
    /// * latency histograms add element-wise over integer counts,
    /// * the policy label becomes the `+`-joined sorted set of both sides'
    ///   labels (normally a single label, since shards share a policy).
    ///
    /// Derived metrics (PoCD, mean cost, utility) are computed on demand
    /// from the merged per-job map, so they need no merge rule of their own.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MergeConflict`] when both reports contain the
    /// same job id; `self` is left unchanged in that case.
    pub fn merge(&mut self, other: SimulationReport) -> Result<(), SimError> {
        // Disjoint id *ranges* (the common case: shards own contiguous,
        // ordered job-id blocks) need no per-key duplicate scan.
        let ranges_overlap = match (
            self.jobs.first_key_value(),
            self.jobs.last_key_value(),
            other.jobs.first_key_value(),
            other.jobs.last_key_value(),
        ) {
            (
                Some((self_min, _)),
                Some((self_max, _)),
                Some((other_min, _)),
                Some((other_max, _)),
            ) => other_min <= self_max && self_min <= other_max,
            _ => false,
        };
        if ranges_overlap {
            if let Some(duplicate) = other.jobs.keys().find(|id| self.jobs.contains_key(id)) {
                return Err(SimError::merge_conflict(format!(
                    "both reports contain {duplicate}"
                )));
            }
        }
        self.policy = union_policy_labels(&self.policy, &other.policy);
        // `append` bulk-merges two sorted trees (and degenerates to a plain
        // move while `self` is still empty), where `extend` would pay a
        // full tree descent per job.
        let mut other_jobs = other.jobs;
        self.jobs.append(&mut other_jobs);
        self.events_dispatched += other.events_dispatched;
        self.events_stale += other.events_stale;
        self.ended_at = self.ended_at.max(other.ended_at);
        self.latency.merge(&other.latency);
        Ok(())
    }

    /// Folds any number of reports into one, starting from the identity
    /// (default) report. Equal to merging them pairwise in iteration
    /// order, in time linear in the total job count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MergeConflict`] when two reports share a job id.
    pub fn merged<I>(reports: I) -> Result<SimulationReport, SimError>
    where
        I: IntoIterator<Item = SimulationReport>,
    {
        let mut fold = ReportFold::default();
        for report in reports {
            fold.push(report)?;
        }
        Ok(fold.finish())
    }

    /// PoCD: the fraction of jobs that completed before their deadline.
    #[must_use]
    pub fn pocd(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let met = self.jobs.values().filter(|j| j.met_deadline).count();
        met as f64 / self.jobs.len() as f64
    }

    /// Mean machine running time per job, in seconds.
    #[must_use]
    pub fn mean_machine_time(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.values().map(|j| j.machine_time_secs).sum::<f64>() / self.jobs.len() as f64
    }

    /// Mean priced cost per job (the paper's "Cost" axis).
    #[must_use]
    pub fn mean_cost(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.values().map(|j| j.cost).sum::<f64>() / self.jobs.len() as f64
    }

    /// Total priced cost over all jobs.
    #[must_use]
    pub fn total_cost(&self) -> f64 {
        self.jobs.values().map(|j| j.cost).sum()
    }

    /// Mean job completion (turnaround) time over completed jobs, seconds.
    #[must_use]
    pub fn mean_completion_secs(&self) -> Option<f64> {
        let completed: Vec<f64> = self
            .jobs
            .values()
            .filter_map(JobMetrics::completion_secs)
            .collect();
        if completed.is_empty() {
            None
        } else {
            Some(completed.iter().sum::<f64>() / completed.len() as f64)
        }
    }

    /// Total attempts launched across all jobs.
    #[must_use]
    pub fn total_attempts(&self) -> u64 {
        self.jobs
            .values()
            .map(|j| u64::from(j.attempts_launched))
            .sum()
    }

    /// Total attempts killed across all jobs.
    #[must_use]
    pub fn total_kills(&self) -> u64 {
        self.jobs
            .values()
            .map(|j| u64::from(j.attempts_killed))
            .sum()
    }

    /// Histogram of the `r` values the policy chose (Figure 5). Jobs without
    /// a reported `r` are ignored.
    #[must_use]
    pub fn chosen_r_histogram(&self) -> BTreeMap<u32, usize> {
        let mut histogram = BTreeMap::new();
        for job in self.jobs.values() {
            if let Some(r) = job.chosen_r {
                *histogram.entry(r).or_insert(0) += 1;
            }
        }
        histogram
    }

    /// Net utility `lg(PoCD − r_min) − θ · mean cost`, the paper's "Utility"
    /// axis. Returns `f64::NEG_INFINITY` when the PoCD does not exceed the
    /// floor, matching the analytical convention.
    #[must_use]
    pub fn net_utility(&self, theta: f64, r_min: f64) -> f64 {
        let margin = self.pocd() - r_min;
        if margin <= 0.0 {
            return f64::NEG_INFINITY;
        }
        margin.log10() - theta * self.mean_cost()
    }

    /// Fraction of jobs that did not finish before the simulation ended.
    #[must_use]
    pub fn unfinished_fraction(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let unfinished = self
            .jobs
            .values()
            .filter(|j| j.completed_at.is_none())
            .count();
        unfinished as f64 / self.jobs.len() as f64
    }
}

/// A left fold of reports under [`SimulationReport::merge`] that stays
/// linear in the total job count.
///
/// Pairwise `merge` re-balances the whole id-keyed tree on every call, so
/// folding `k` shards costs O(k · jobs). This fold keeps per-job metrics in
/// one id-sorted `Vec` instead: a report whose first id lies above the
/// running last id (a chunked source's contiguous blocks) is appended in
/// O(its jobs), any other report is sort-merged in, and the `BTreeMap` is
/// built once by [`ReportFold::finish`]. The aggregates go through `merge`
/// itself, so the result equals the pairwise fold bit for bit, errors
/// included.
#[derive(Debug, Default)]
pub(crate) struct ReportFold {
    /// The merged aggregates; its `jobs` map stays empty until `finish`.
    totals: SimulationReport,
    /// Per-job metrics of every pushed report, ascending by id.
    jobs: Vec<(JobId, JobMetrics)>,
}

impl ReportFold {
    /// Merges `report` into the fold.
    ///
    /// # Errors
    ///
    /// [`SimError::MergeConflict`] naming the smallest id `report` shares
    /// with the reports pushed before it, exactly as
    /// [`SimulationReport::merge`] would. The fold is then left unchanged.
    pub(crate) fn push(&mut self, report: SimulationReport) -> Result<(), SimError> {
        let SimulationReport {
            policy,
            jobs,
            events_dispatched,
            events_stale,
            ended_at,
            latency,
        } = report;
        let ascending = match (self.jobs.last(), jobs.first_key_value()) {
            (Some((last, _)), Some((first, _))) => first > last,
            _ => true,
        };
        if ascending {
            self.jobs.extend(jobs);
        } else {
            self.jobs = sort_merge(&self.jobs, jobs.into_iter().collect())?;
        }
        self.totals.merge(SimulationReport {
            policy,
            jobs: BTreeMap::new(),
            events_dispatched,
            events_stale,
            ended_at,
            latency,
        })
    }

    /// The folded report. Builds the job map from the sorted run in one
    /// linear pass.
    pub(crate) fn finish(self) -> SimulationReport {
        SimulationReport {
            jobs: self.jobs.into_iter().collect(),
            ..self.totals
        }
    }
}

/// Merges two id-sorted runs into one, failing on the first (smallest)
/// shared id.
fn sort_merge(
    left: &[(JobId, JobMetrics)],
    right: Vec<(JobId, JobMetrics)>,
) -> Result<Vec<(JobId, JobMetrics)>, SimError> {
    let mut merged = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        match left[i].0.cmp(&right[j].0) {
            std::cmp::Ordering::Less => {
                merged.push(left[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(right[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                return Err(SimError::merge_conflict(format!(
                    "both reports contain {}",
                    right[j].0
                )));
            }
        }
    }
    merged.extend_from_slice(&left[i..]);
    merged.extend_from_slice(&right[j..]);
    Ok(merged)
}

/// The `+`-joined sorted union of two policy-label sets. Treating the label
/// as a set makes the merge commutative and associative even when reports
/// from different policies are combined; the empty label (the identity
/// report's) vanishes.
fn union_policy_labels(a: &str, b: &str) -> String {
    let labels: BTreeSet<&str> = a
        .split('+')
        .chain(b.split('+'))
        .filter(|label| !label.is_empty())
        .collect();
    labels.into_iter().collect::<Vec<_>>().join("+")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(id: u64, met: bool, machine: f64, cost: f64, r: Option<u32>) -> JobMetrics {
        JobMetrics {
            job: JobId::new(id),
            submitted_at: SimTime::from_secs(0.0),
            deadline_secs: 100.0,
            completed_at: Some(SimTime::from_secs(if met { 80.0 } else { 150.0 })),
            met_deadline: met,
            machine_time_secs: machine,
            cost,
            attempts_launched: 3,
            attempts_killed: 1,
            chosen_r: r,
        }
    }

    /// Builds a report whose latency histogram is consistent with its job
    /// map, the way `Simulation::build_report` produces them.
    fn report_of(entries: Vec<JobMetrics>) -> SimulationReport {
        let mut jobs = BTreeMap::new();
        let mut latency = LatencyHistogram::new();
        for entry in entries {
            match entry.completion_secs() {
                Some(secs) => latency.record_secs(secs),
                None => latency.record_unfinished(),
            }
            jobs.insert(entry.job, entry);
        }
        SimulationReport {
            policy: "test".to_string(),
            jobs,
            events_dispatched: 99,
            events_stale: 5,
            ended_at: SimTime::from_secs(500.0),
            latency,
        }
    }

    fn report() -> SimulationReport {
        report_of(vec![
            metrics(0, true, 600.0, 6.0, Some(2)),
            metrics(1, true, 400.0, 4.0, Some(2)),
            metrics(2, false, 800.0, 8.0, Some(3)),
            metrics(3, true, 200.0, 2.0, None),
        ])
    }

    #[test]
    fn pocd_is_met_fraction() {
        assert!((report().pocd() - 0.75).abs() < 1e-12);
        assert_eq!(SimulationReport::default().pocd(), 0.0);
    }

    #[test]
    fn cost_and_machine_time_means() {
        let r = report();
        assert!((r.mean_machine_time() - 500.0).abs() < 1e-9);
        assert!((r.mean_cost() - 5.0).abs() < 1e-9);
        assert!((r.total_cost() - 20.0).abs() < 1e-9);
        assert_eq!(SimulationReport::default().mean_cost(), 0.0);
    }

    #[test]
    fn completion_time_mean() {
        let r = report();
        // Three jobs at 80 s, one at 150 s.
        assert!((r.mean_completion_secs().unwrap() - (3.0 * 80.0 + 150.0) / 4.0).abs() < 1e-9);
        assert!(SimulationReport::default().mean_completion_secs().is_none());
    }

    #[test]
    fn attempt_counters() {
        let r = report();
        assert_eq!(r.total_attempts(), 12);
        assert_eq!(r.total_kills(), 4);
        assert_eq!(r.job_count(), 4);
    }

    #[test]
    fn histogram_of_r() {
        let histogram = report().chosen_r_histogram();
        assert_eq!(histogram.get(&2), Some(&2));
        assert_eq!(histogram.get(&3), Some(&1));
        assert_eq!(histogram.get(&0), None);
    }

    #[test]
    fn net_utility_matches_definition() {
        let r = report();
        let expected = (0.75f64 - 0.1).log10() - 1e-3 * 5.0;
        assert!((r.net_utility(1e-3, 0.1) - expected).abs() < 1e-12);
        assert_eq!(r.net_utility(1e-3, 0.75), f64::NEG_INFINITY);
        assert_eq!(r.net_utility(1e-3, 0.9), f64::NEG_INFINITY);
    }

    #[test]
    fn unfinished_fraction_counts_incomplete_jobs() {
        let mut r = report();
        assert_eq!(r.unfinished_fraction(), 0.0);
        r.jobs.get_mut(&JobId::new(2)).unwrap().completed_at = None;
        assert!((r.unfinished_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(SimulationReport::default().unfinished_fraction(), 0.0);
    }

    #[test]
    fn job_metrics_completion_secs() {
        let m = metrics(0, true, 1.0, 1.0, None);
        assert!((m.completion_secs().unwrap() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_index(0.0), 0);
        assert_eq!(LatencyHistogram::bucket_index(0.5), 0);
        assert_eq!(LatencyHistogram::bucket_index(1.0), 1);
        assert_eq!(LatencyHistogram::bucket_index(1.9), 1);
        assert_eq!(LatencyHistogram::bucket_index(2.0), 2);
        assert_eq!(LatencyHistogram::bucket_index(80.0), 7);
        assert_eq!(LatencyHistogram::bucket_index(150.0), 8);
        assert_eq!(
            LatencyHistogram::bucket_index(f64::MAX),
            LATENCY_BUCKETS - 1
        );
        assert_eq!(
            LatencyHistogram::bucket_index(f64::INFINITY),
            LATENCY_BUCKETS - 1
        );
        assert_eq!(LatencyHistogram::bucket_index(f64::NAN), 0);
        assert_eq!(LatencyHistogram::bucket_index(-3.0), 0);
        let (low, high) = LatencyHistogram::bucket_bounds(7);
        assert_eq!((low, high), (64.0, 128.0));
        assert_eq!(LatencyHistogram::bucket_bounds(0), (0.0, 1.0));
        assert_eq!(
            LatencyHistogram::bucket_bounds(LATENCY_BUCKETS - 1).1,
            f64::INFINITY
        );
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = LatencyHistogram::new();
        a.record_secs(80.0);
        a.record_secs(90.0);
        a.record_unfinished();
        let mut b = LatencyHistogram::new();
        b.record_secs(150.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.completed(), 3);
        assert_eq!(ab.unfinished(), 1);
        assert_eq!(ab.total(), 4);
        assert_eq!(ab.bucket_count(7), 2);
        assert_eq!(ab.bucket_count(8), 1);
        assert_eq!(ab.bucket_count(999), 0);
    }

    #[test]
    fn histogram_heals_malformed_bucket_vectors() {
        // The fixed bucket count is an invariant of the type; the only way
        // around the constructor is deserializing hand-edited JSON. Both
        // record and merge must cope instead of panicking or dropping tail
        // counts.
        let mut short: LatencyHistogram =
            serde_json::from_str(r#"{"buckets": [1, 2], "unfinished": 3}"#).unwrap();
        short.record_secs(f64::INFINITY); // overflow bucket, far past len 2
        assert_eq!(short.bucket_count(LATENCY_BUCKETS - 1), 1);
        assert_eq!(short.completed(), 4);

        let mut tall = LatencyHistogram::new();
        tall.record_secs(f64::MAX);
        let short_again: LatencyHistogram =
            serde_json::from_str(r#"{"buckets": [5], "unfinished": 0}"#).unwrap();
        tall.merge(&short_again);
        assert_eq!(tall.bucket_count(0), 5);
        assert_eq!(tall.completed(), 6);

        let mut receiver: LatencyHistogram =
            serde_json::from_str(r#"{"buckets": [], "unfinished": 1}"#).unwrap();
        receiver.merge(&tall);
        assert_eq!(receiver.completed(), 6);
        assert_eq!(receiver.unfinished(), 1);

        // An oversized vector folds its out-of-layout counts into the
        // overflow bucket instead of dropping them.
        let oversized_json = format!(
            r#"{{"buckets": [{}], "unfinished": 0}}"#,
            vec!["1"; LATENCY_BUCKETS + 2].join(", ")
        );
        let oversized: LatencyHistogram = serde_json::from_str(&oversized_json).unwrap();
        let mut merged = LatencyHistogram::new();
        merged.merge(&oversized);
        assert_eq!(merged.completed(), (LATENCY_BUCKETS + 2) as u64);
        assert_eq!(merged.bucket_count(LATENCY_BUCKETS - 1), 3);
        let mut recorder = oversized;
        recorder.record_secs(0.1);
        assert_eq!(recorder.completed(), (LATENCY_BUCKETS + 3) as u64);
        assert_eq!(recorder.bucket_count(LATENCY_BUCKETS - 1), 3);
    }

    #[test]
    fn histogram_quantile_upper_bound() {
        let mut h = LatencyHistogram::new();
        assert!(h.quantile_upper_bound(0.5).is_none());
        h.record_secs(80.0); // bucket 7: [64, 128)
        h.record_secs(90.0);
        h.record_secs(150.0); // bucket 8: [128, 256)
        assert_eq!(h.quantile_upper_bound(0.5), Some(128.0));
        assert_eq!(h.quantile_upper_bound(1.0), Some(256.0));
        assert_eq!(h.quantile_upper_bound(0.0), Some(128.0));
    }

    #[test]
    fn overflow_quantiles_are_finite_and_flagged() {
        // Regression: a quantile landing in the overflow bucket used to
        // return Some(f64::INFINITY), which serialized as `inf` in reports.
        let mut h = LatencyHistogram::new();
        h.record_secs(80.0); // bucket 7
        h.record_secs(f64::MAX); // overflow bucket
        let overflow_edge = LatencyHistogram::bucket_bounds(LATENCY_BUCKETS - 1).0;
        assert_eq!(h.quantile_upper_bound(1.0), Some(overflow_edge));
        assert!(h.quantile_upper_bound(1.0).unwrap().is_finite());
        // Quantiles below the overflow bucket are untouched.
        assert_eq!(h.quantile_upper_bound(0.5), Some(128.0));
        // The clamp is observable: the histogram reports saturation.
        assert!(h.saturated());

        let mut clean = LatencyHistogram::new();
        clean.record_secs(80.0);
        assert!(!clean.saturated());
        assert!(!LatencyHistogram::new().saturated());

        // Every sample in overflow: every quantile is the finite edge.
        let mut all_over = LatencyHistogram::new();
        all_over.record_secs(f64::INFINITY);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(all_over.quantile_upper_bound(q), Some(overflow_edge));
        }

        // Out-of-layout counts in a deserialized oversized vector are
        // overflow counts too — for the flag and for the clamp.
        let oversized_json = format!(
            r#"{{"buckets": [{}], "unfinished": 0}}"#,
            vec!["0"; LATENCY_BUCKETS]
                .into_iter()
                .chain(["1"])
                .collect::<Vec<_>>()
                .join(", ")
        );
        let oversized: LatencyHistogram = serde_json::from_str(&oversized_json).unwrap();
        assert!(oversized.saturated());
        assert_eq!(oversized.quantile_upper_bound(1.0), Some(overflow_edge));
    }

    #[test]
    fn quantile_zero_is_the_first_non_empty_bucket_edge() {
        // q = 0 makes the raw target 0 samples; the `.max(1.0)` clamp must
        // promote it to "the first recorded sample", i.e. the upper edge of
        // the first non-empty bucket — not bucket 0's edge, and not `None`.
        let mut h = LatencyHistogram::new();
        h.record_secs(150.0); // bucket 8: [128, 256)
        h.record_secs(1000.0); // bucket 10
        assert_eq!(h.quantile_upper_bound(0.0), Some(256.0));
        // Negative q clamps to 0 and behaves identically.
        assert_eq!(h.quantile_upper_bound(-3.0), Some(256.0));
    }

    #[test]
    fn quantile_extremes_on_a_single_sample() {
        // With one sample every quantile is that sample's bucket edge.
        let mut h = LatencyHistogram::new();
        h.record_secs(80.0); // bucket 7: [64, 128)
        for q in [0.0, 0.25, 0.5, 1.0, 2.0] {
            assert_eq!(h.quantile_upper_bound(q), Some(128.0), "q = {q}");
        }
        // Unfinished jobs do not participate in quantiles.
        h.record_unfinished();
        assert_eq!(h.quantile_upper_bound(1.0), Some(128.0));
    }

    #[test]
    fn merged_histogram_quantiles_match_recompute_from_scratch() {
        // Quantiles over a merge of shard histograms must equal quantiles
        // over one histogram fed every sample — the property the sharded
        // runner's report aggregation depends on.
        let samples: [&[f64]; 3] = [&[0.4, 3.0, 900.0], &[70.0, 70.5, 128.0], &[2.0, 40_000.0]];
        let mut merged = LatencyHistogram::new();
        let mut scratch = LatencyHistogram::new();
        for shard_samples in samples {
            let mut shard = LatencyHistogram::new();
            for &secs in shard_samples {
                shard.record_secs(secs);
                scratch.record_secs(secs);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged, scratch);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(
                merged.quantile_upper_bound(q),
                scratch.quantile_upper_bound(q),
                "q = {q}"
            );
        }
    }

    #[test]
    fn report_latency_matches_job_map() {
        let r = report();
        assert_eq!(r.latency.total(), 4);
        assert_eq!(r.latency.completed(), 4);
        // Three jobs complete at 80 s, one at 150 s.
        assert_eq!(r.latency.bucket_count(7), 3);
        assert_eq!(r.latency.bucket_count(8), 1);
    }

    #[test]
    fn merge_accumulates_disjoint_reports() {
        let a = report_of(vec![
            metrics(0, true, 600.0, 6.0, Some(2)),
            metrics(1, false, 400.0, 4.0, None),
        ]);
        let b = report_of(vec![metrics(2, true, 200.0, 2.0, Some(1))]);
        let mut merged = a.clone();
        merged.merge(b.clone()).unwrap();
        assert_eq!(merged.job_count(), 3);
        assert_eq!(merged.events_dispatched, 198);
        assert_eq!(merged.events_stale, 10);
        assert_eq!(merged.ended_at, SimTime::from_secs(500.0));
        assert_eq!(merged.policy, "test");
        assert_eq!(merged.latency.total(), 3);
        assert!((merged.pocd() - 2.0 / 3.0).abs() < 1e-12);

        // Commutative: merging the other way round gives the same report.
        let mut reversed = b;
        reversed.merge(a).unwrap();
        assert_eq!(merged, reversed);
    }

    #[test]
    fn merge_identity_is_default() {
        let r = report();
        let mut left = SimulationReport::default();
        left.merge(r.clone()).unwrap();
        assert_eq!(left, r);
        let mut right = r.clone();
        right.merge(SimulationReport::default()).unwrap();
        assert_eq!(right, r);
    }

    #[test]
    fn merge_rejects_duplicate_job_ids() {
        let a = report_of(vec![metrics(0, true, 600.0, 6.0, None)]);
        let b = report_of(vec![metrics(0, true, 200.0, 2.0, None)]);
        let mut merged = a.clone();
        let err = merged.merge(b).unwrap_err();
        assert!(matches!(err, SimError::MergeConflict { .. }));
        // The failed merge must leave the receiver untouched.
        assert_eq!(merged, a);
    }

    #[test]
    fn merge_unions_policy_labels() {
        let mut a = report_of(vec![metrics(0, true, 1.0, 1.0, None)]);
        let mut b = report_of(vec![metrics(1, true, 1.0, 1.0, None)]);
        a.policy = "s-resume".to_string();
        b.policy = "clone".to_string();
        let mut ab = a.clone();
        ab.merge(b.clone()).unwrap();
        assert_eq!(ab.policy, "clone+s-resume");
        let mut ba = b;
        ba.merge(a).unwrap();
        assert_eq!(ba.policy, "clone+s-resume");
        // Merging the same label twice does not duplicate it.
        let mut c = report_of(vec![metrics(2, true, 1.0, 1.0, None)]);
        c.policy = "clone".to_string();
        ab.merge(c).unwrap();
        assert_eq!(ab.policy, "clone+s-resume");
    }

    #[test]
    fn merged_folds_many_reports() {
        let reports = vec![
            report_of(vec![metrics(0, true, 600.0, 6.0, None)]),
            report_of(vec![metrics(1, false, 400.0, 4.0, None)]),
            report_of(vec![metrics(2, true, 200.0, 2.0, None)]),
        ];
        let merged = SimulationReport::merged(reports).unwrap();
        assert_eq!(merged.job_count(), 3);
        assert_eq!(merged.events_dispatched, 297);
        assert_eq!(merged.events_stale, 15);
        assert_eq!(
            SimulationReport::merged(Vec::new()).unwrap(),
            SimulationReport::default()
        );
    }
}
