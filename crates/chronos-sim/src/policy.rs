//! The speculation-policy interface between the Application Master and the
//! strategies implemented in `chronos-strategies`.
//!
//! The engine owns all runtime state; at the decision points of Section III
//! (job submission, `τ_est`, `τ_kill`, or a periodic scan for the Hadoop /
//! Mantri baselines) it builds an immutable snapshot — [`JobView`] — and asks
//! the policy for [`PolicyAction`]s. Keeping the policy behind snapshots and
//! actions keeps baselines and Chronos strategies interchangeable and makes
//! every policy unit-testable without an engine.
//!
//! # Migration: `on_job_batch` returns a [`BatchPlan`] (PR 8)
//!
//! [`SpeculationPolicy::on_job_batch`] used to be a side-effect-only hook
//! returning `Result<(), SimError>`: policies could warm their planners but
//! had no typed channel to hand batch-level decisions back to the engine.
//! It now returns a [`BatchPlan`] — per-job [`SubmitDecision`] overrides
//! plus allocator diagnostics — which the engine applies *before* the
//! per-job submit calls, so a cluster-level allocator (e.g. the
//! speculation-budget water-filling in `chronos_plan::budget`) can cap the
//! whole batch's copies. Porting an existing policy:
//!
//! * a policy with no batch-level decisions returns
//!   `Ok(BatchPlan::default())` where it returned `Ok(())` — the default
//!   trait impl already does, so policies that never overrode the hook
//!   compile unchanged;
//! * a policy that overrides a job's submission inserts the final
//!   [`SubmitDecision`] via [`BatchPlan::with_override`]; the engine then
//!   skips [`SpeculationPolicy::on_job_submit`] for that job and calls
//!   [`SpeculationPolicy::on_job_submit_replayed`] instead, and the
//!   override's `reported_r` is what [`JobView::chosen_r`] carries at the
//!   job's checks;
//! * every job without an override reaches
//!   [`SpeculationPolicy::on_job_submit`] at its arrival; a policy that
//!   wants repeated profiles planned once plans through a `chronos-plan`
//!   `PlanCache`;
//! * [`SpeculationPolicy::name`] now returns `&str` — it was `String`, an
//!   allocation per call for a value `Simulation::new` caches anyway;
//!   implementations return their literal directly.

use crate::error::SimError;
use crate::ids::{AttemptId, JobId, TaskId};
use crate::time::SimTime;
use chronos_core::Pareto;
use chronos_plan::SpeculationBudget;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Snapshot of a job at submission time, before any task has been created.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSubmitView {
    /// The job being submitted.
    pub job: JobId,
    /// Number of map tasks.
    pub task_count: u32,
    /// Deadline in seconds relative to submission.
    pub deadline_secs: f64,
    /// Per-unit-time VM price of this job.
    pub price: f64,
    /// The believed task-time distribution (used by optimizing policies).
    pub profile: Pareto,
}

/// What the policy decides at submission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SubmitDecision {
    /// Extra attempts to launch immediately alongside each task's original
    /// attempt (the Clone strategy's `r`; zero for reactive strategies).
    pub extra_clones_per_task: u32,
    /// The `r` value the policy's optimizer chose for this job, reported so
    /// the metrics can build the Figure 5 histogram. Baselines without an
    /// optimizer leave this as `None`.
    pub reported_r: Option<u32>,
}

/// Allocator diagnostics attached to a [`BatchPlan`]: what a batch-level
/// planner saw and spent. Purely informational — the engine applies only
/// the overrides — but surfaced so tools can report budget pressure.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BatchDiagnostics {
    /// Jobs in the planned batch.
    pub jobs: u32,
    /// Jobs whose submit decision the plan overrides.
    pub overridden: u32,
    /// The speculation budget the batch was planned under.
    pub budget: SpeculationBudget,
    /// Total copies the jobs' unconstrained optima would take.
    pub requested: u64,
    /// Copies actually granted across the batch.
    pub spent: u64,
}

/// The typed result of a batch-planning round: per-job submit overrides
/// plus [`BatchDiagnostics`]. The engine applies an override *instead of*
/// calling [`SpeculationPolicy::on_job_submit`] for that job (the policy
/// hears about it through [`SpeculationPolicy::on_job_submit_replayed`]);
/// jobs without an override submit exactly as before. An empty plan — the
/// default — leaves every decision to the per-job path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchPlan {
    overrides: BTreeMap<JobId, SubmitDecision>,
    /// Diagnostics of the planning round that produced this plan.
    pub diagnostics: BatchDiagnostics,
}

impl BatchPlan {
    /// An empty plan: no overrides, default diagnostics.
    #[must_use]
    pub fn new() -> Self {
        BatchPlan::default()
    }

    /// Adds (or replaces) the final submit decision for `job`.
    #[must_use]
    pub fn with_override(mut self, job: JobId, decision: SubmitDecision) -> Self {
        self.overrides.insert(job, decision);
        self
    }

    /// The override for `job`, if the plan carries one.
    #[must_use]
    pub fn override_for(&self, job: JobId) -> Option<SubmitDecision> {
        self.overrides.get(&job).copied()
    }

    /// Number of jobs this plan overrides.
    #[must_use]
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// True when the plan carries no overrides (every job of the batch then
    /// reaches [`SpeculationPolicy::on_job_submit`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
    }

    /// Iterates the overrides in ascending job-id order.
    pub fn overrides(&self) -> impl Iterator<Item = (JobId, SubmitDecision)> + '_ {
        self.overrides
            .iter()
            .map(|(&job, &decision)| (job, decision))
    }
}

/// When the policy wants to be called back for a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckSchedule {
    /// Never call back (Hadoop-NS).
    Never,
    /// Call back at fixed offsets (seconds) after submission — Chronos uses
    /// `[τ_est, τ_kill]` (Clone only needs `[τ_kill]`).
    AtOffsets(Vec<f64>),
    /// Call back periodically until the job completes (Hadoop-S, LATE,
    /// Mantri style scanning).
    Periodic {
        /// Seconds after submission of the first check.
        first: f64,
        /// Seconds between subsequent checks.
        period: f64,
    },
}

/// Snapshot of one attempt at a check point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttemptView {
    /// Attempt id.
    pub attempt: AttemptId,
    /// True while the attempt occupies or waits for a container.
    pub active: bool,
    /// True once the attempt has a container and is executing.
    pub running: bool,
    /// When the attempt got its container, if it did.
    pub launched_at: Option<SimTime>,
    /// Progress score in `[0, 1]` at the check instant.
    pub progress: f64,
    /// Estimated completion instant using the estimator configured for the
    /// Application Master (`None` when no estimate is available yet).
    pub estimated_completion: Option<SimTime>,
    /// The split fraction this attempt started from (resume offset).
    pub start_fraction: f64,
    /// The Eq. 31 hand-off offset the Application Master suggests for
    /// attempts that would resume this attempt's work: current progress plus
    /// the progress expected while a replacement JVM launches.
    pub resume_offset_hint: f64,
}

/// Snapshot of one task at a check point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskView {
    /// Task id.
    pub task: TaskId,
    /// True once some attempt finished the task.
    pub completed: bool,
    /// Attempts of this task, in creation order.
    pub attempts: Vec<AttemptView>,
}

impl TaskView {
    /// The active attempt with the best progress, if any.
    #[must_use]
    pub fn best_progress_attempt(&self) -> Option<&AttemptView> {
        self.attempts.iter().filter(|a| a.active).max_by(|a, b| {
            a.progress
                .partial_cmp(&b.progress)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// The active attempt with the earliest estimated completion, if any
    /// estimate exists.
    #[must_use]
    pub fn earliest_estimated_attempt(&self) -> Option<&AttemptView> {
        self.attempts
            .iter()
            .filter(|a| a.active && a.estimated_completion.is_some())
            .min_by_key(|a| a.estimated_completion)
    }

    /// Number of attempts that are still active.
    #[must_use]
    pub fn active_attempts(&self) -> usize {
        self.attempts.iter().filter(|a| a.active).count()
    }
}

/// Snapshot of a job at a check point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    /// The job.
    pub job: JobId,
    /// Submission instant.
    pub submitted_at: SimTime,
    /// Deadline in seconds relative to submission.
    pub deadline_secs: f64,
    /// The check instant.
    pub now: SimTime,
    /// Ordinal of this check for the job (0-based), matching the offsets of
    /// [`CheckSchedule::AtOffsets`].
    pub check_index: u32,
    /// The `r` of the job's final [`SubmitDecision::reported_r`], whichever
    /// path decided it (submit or batch override). The engine
    /// is its only owner, so policies keep no per-job map of their own.
    pub chosen_r: Option<u32>,
    /// Per-task snapshots in job order.
    pub tasks: Vec<TaskView>,
    /// Number of tasks already completed.
    pub completed_tasks: usize,
    /// Mean duration (seconds, from job submission to completion) of the
    /// completed tasks; `None` when no task has finished yet. This is what
    /// Hadoop-S compares estimated completions against.
    pub mean_completed_task_duration: Option<f64>,
    /// Free container slots in the cluster at the check instant.
    pub free_slots: u64,
    /// True when some attempt (of any job) is waiting for a container —
    /// Mantri stops spawning extras when the cluster has waiting work.
    pub cluster_has_waiting_work: bool,
}

impl JobView {
    /// Seconds elapsed since the job was submitted.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        (self.now.saturating_since(self.submitted_at)).as_secs()
    }

    /// The absolute deadline instant.
    #[must_use]
    pub fn absolute_deadline(&self) -> SimTime {
        self.submitted_at + crate::time::SimDuration::from_secs(self.deadline_secs)
    }

    /// Converts an absolute instant into seconds relative to submission.
    #[must_use]
    pub fn relative_secs(&self, at: SimTime) -> f64 {
        (at.saturating_since(self.submitted_at)).as_secs()
    }

    /// Tasks that are not yet complete.
    pub fn incomplete_tasks(&self) -> impl Iterator<Item = &TaskView> {
        self.tasks.iter().filter(|t| !t.completed)
    }
}

/// An action the policy asks the Application Master to perform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyAction {
    /// Launch `count` extra attempts for `task`, starting from split
    /// fraction `start_fraction` (zero restarts from the beginning;
    /// Speculative-Resume passes the Eq. 31 offset).
    LaunchExtra {
        /// Target task.
        task: TaskId,
        /// Number of new attempts.
        count: u32,
        /// Split fraction the new attempts start from.
        start_fraction: f64,
    },
    /// Kill one attempt.
    Kill {
        /// The attempt to kill.
        attempt: AttemptId,
    },
    /// Kill every active attempt of `task` except `keep`.
    KillAllExcept {
        /// Target task.
        task: TaskId,
        /// The attempt allowed to keep running.
        keep: AttemptId,
    },
}

/// A speculation policy: the strategy-specific brain plugged into the
/// Application Master.
pub trait SpeculationPolicy: fmt::Debug + Send {
    /// Human-readable policy name, used in reports and experiment output.
    /// Borrowed: callers that need ownership copy it once (as
    /// `Simulation::new` does for the report).
    fn name(&self) -> &str;

    /// Called once per submitted batch (`Simulation::submit_all`), before
    /// any job of the batch arrives, with the submit-time views of every
    /// job in the batch. Batch-level allocators (the speculation budget's
    /// water-filling) plan the batch jointly here and return per-job
    /// overrides in the [`BatchPlan`] (see the module docs' migration
    /// notes). The default plans nothing and overrides nothing, so every
    /// job reaches [`SpeculationPolicy::on_job_submit`] at its arrival.
    ///
    /// # Errors
    ///
    /// Implementations that fail must identify the offending job by naming
    /// its id in the error via [`SimError::with_context`]; the engine adds
    /// only batch-level context.
    fn on_job_batch(&mut self, jobs: &[JobSubmitView]) -> Result<BatchPlan, SimError> {
        let _ = jobs;
        Ok(BatchPlan::default())
    }

    /// Called once when a job is submitted. The Chronos policies run
    /// Algorithm 1 here; the engine keeps the decision's `reported_r` and
    /// hands it back at every check as [`JobView::chosen_r`].
    fn on_job_submit(&mut self, job: &JobSubmitView) -> SubmitDecision;

    /// Inert: the engine never reads it, and no policy in this workspace
    /// overrides it; repeated profiles are deduplicated by the `PlanCache`
    /// alone. It remains only because the `perfbench` harness's policy
    /// wrapper forwards it, and the next benchmark change deletes it
    /// together with that forward.
    fn submit_is_profile_pure(&self) -> bool {
        false
    }

    /// Called instead of [`SpeculationPolicy::on_job_submit`] when a
    /// [`BatchPlan`] override decides a job's submission. The override's
    /// `reported_r` reaches the job's checks through [`JobView::chosen_r`]
    /// without this hook, so the default does nothing; it exists for
    /// wrappers that observe every decision (for example to count or time
    /// them).
    fn on_job_submit_replayed(&mut self, job: &JobSubmitView, decision: SubmitDecision) {
        let _ = (job, decision);
    }

    /// Which check points the policy wants for this job.
    fn check_schedule(&self, job: &JobSubmitView) -> CheckSchedule;

    /// Called at every check point with a fresh snapshot; returns the
    /// actions the Application Master should apply.
    fn on_check(&mut self, view: &JobView) -> Vec<PolicyAction>;
}

/// A policy that never speculates: the Hadoop-NS baseline and the default
/// placeholder for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoSpeculation;

impl SpeculationPolicy for NoSpeculation {
    fn name(&self) -> &str {
        "hadoop-ns"
    }

    fn on_job_submit(&mut self, _job: &JobSubmitView) -> SubmitDecision {
        SubmitDecision::default()
    }

    fn check_schedule(&self, _job: &JobSubmitView) -> CheckSchedule {
        CheckSchedule::Never
    }

    fn on_check(&mut self, _view: &JobView) -> Vec<PolicyAction> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attempt_view(id: u64, active: bool, progress: f64, est: Option<f64>) -> AttemptView {
        AttemptView {
            attempt: AttemptId::new(id),
            active,
            running: active,
            launched_at: Some(SimTime::ZERO),
            progress,
            estimated_completion: est.map(SimTime::from_secs),
            start_fraction: 0.0,
            resume_offset_hint: progress,
        }
    }

    fn task_view() -> TaskView {
        TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![
                attempt_view(0, true, 0.3, Some(120.0)),
                attempt_view(1, true, 0.6, Some(90.0)),
                attempt_view(2, false, 0.9, Some(50.0)),
            ],
        }
    }

    #[test]
    fn best_progress_ignores_inactive() {
        let t = task_view();
        assert_eq!(
            t.best_progress_attempt().unwrap().attempt,
            AttemptId::new(1)
        );
        assert_eq!(t.active_attempts(), 2);
    }

    #[test]
    fn earliest_estimate_ignores_inactive_and_missing() {
        let mut t = task_view();
        t.attempts[0].estimated_completion = None;
        assert_eq!(
            t.earliest_estimated_attempt().unwrap().attempt,
            AttemptId::new(1)
        );
        // No estimates at all: None.
        t.attempts[1].estimated_completion = None;
        assert!(t.earliest_estimated_attempt().is_none());
    }

    #[test]
    fn job_view_time_helpers() {
        let view = JobView {
            job: JobId::new(0),
            submitted_at: SimTime::from_secs(100.0),
            deadline_secs: 50.0,
            now: SimTime::from_secs(130.0),
            check_index: 0,
            chosen_r: None,
            tasks: vec![task_view()],
            completed_tasks: 0,
            mean_completed_task_duration: None,
            free_slots: 10,
            cluster_has_waiting_work: false,
        };
        assert!((view.elapsed_secs() - 30.0).abs() < 1e-9);
        assert_eq!(view.absolute_deadline(), SimTime::from_secs(150.0));
        assert!((view.relative_secs(SimTime::from_secs(140.0)) - 40.0).abs() < 1e-9);
        assert_eq!(view.incomplete_tasks().count(), 1);
    }

    #[test]
    fn no_speculation_policy_is_inert() {
        let mut p = NoSpeculation;
        let submit = JobSubmitView {
            job: JobId::new(0),
            task_count: 5,
            deadline_secs: 100.0,
            price: 1.0,
            profile: Pareto::default(),
        };
        assert_eq!(p.name(), "hadoop-ns");
        assert_eq!(p.on_job_submit(&submit).extra_clones_per_task, 0);
        assert_eq!(p.check_schedule(&submit), CheckSchedule::Never);
        let view = JobView {
            job: JobId::new(0),
            submitted_at: SimTime::ZERO,
            deadline_secs: 100.0,
            now: SimTime::from_secs(10.0),
            check_index: 0,
            chosen_r: None,
            tasks: Vec::new(),
            completed_tasks: 0,
            mean_completed_task_duration: None,
            free_slots: 0,
            cluster_has_waiting_work: false,
        };
        assert!(p.on_check(&view).is_empty());
    }
}
