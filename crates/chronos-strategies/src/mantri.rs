//! The Mantri baseline (Ananthanarayanan et al., OSDI 2010) as described in
//! Section I of the Chronos paper.
//!
//! The paper characterizes Mantri's behaviour as follows: when a container
//! is available and no task is waiting for one, Mantri keeps launching new
//! attempts for any task whose remaining execution time exceeds the average
//! task execution time by more than 30 seconds, up to 3 extra attempts per
//! task. It also periodically checks the progress of each task's attempts
//! and keeps only the attempt with the best progress running. The result,
//! reproduced here, is a high PoCD bought with a large amount of machine
//! time — exactly the tradeoff Figure 3 illustrates.

use chronos_sim::prelude::{
    CheckSchedule, JobSubmitView, JobView, PolicyAction, SpeculationPolicy, SubmitDecision,
    TaskView,
};
use serde::{Deserialize, Serialize};

/// The Mantri-style resource-aware speculation baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MantriPolicy {
    /// Seconds between speculation scans.
    pub scan_period_secs: f64,
    /// Remaining-time threshold above the average task time (seconds) that
    /// marks a task as an outlier; the paper quotes 30 s.
    pub remaining_threshold_secs: f64,
    /// Maximum number of extra attempts per task; the paper quotes 3.
    pub max_extra_attempts: u32,
    /// Progress ratio (relative to the task's best attempt) below which a
    /// lagging duplicate is killed during the periodic progress check.
    pub prune_progress_ratio: f64,
    /// Progress the task's best attempt must have reached before the
    /// periodic check starts pruning duplicates. Mantri keeps duplicates
    /// racing until one of them is clearly about to win, which is what makes
    /// it expensive in machine time.
    pub prune_only_after_progress: f64,
}

impl MantriPolicy {
    /// Creates the baseline with the parameters quoted in the paper.
    #[must_use]
    pub fn new(scan_period_secs: f64) -> Self {
        MantriPolicy {
            scan_period_secs: scan_period_secs.max(0.1),
            remaining_threshold_secs: 30.0,
            max_extra_attempts: 3,
            prune_progress_ratio: 0.5,
            prune_only_after_progress: 0.75,
        }
    }

    /// Estimated remaining seconds of a task's best attempt, if an estimate
    /// exists.
    fn remaining_secs(task: &TaskView, view: &JobView) -> Option<f64> {
        let best = task.earliest_estimated_attempt()?;
        let est = best.estimated_completion?;
        Some(view.relative_secs(est) - view.elapsed_secs())
    }

    /// Average execution time of the job's tasks: the mean completed-task
    /// duration when available, otherwise the elapsed time (a conservative
    /// stand-in early in the job).
    fn average_task_secs(view: &JobView) -> f64 {
        view.mean_completed_task_duration
            .unwrap_or_else(|| view.elapsed_secs().max(1.0))
    }
}

impl Default for MantriPolicy {
    fn default() -> Self {
        MantriPolicy::new(5.0)
    }
}

impl SpeculationPolicy for MantriPolicy {
    fn name(&self) -> &str {
        "mantri"
    }

    fn on_job_submit(&mut self, _job: &JobSubmitView) -> SubmitDecision {
        SubmitDecision::default()
    }

    fn check_schedule(&self, _job: &JobSubmitView) -> CheckSchedule {
        CheckSchedule::Periodic {
            first: self.scan_period_secs,
            period: self.scan_period_secs,
        }
    }

    fn on_check(&mut self, view: &JobView) -> Vec<PolicyAction> {
        let mut actions = Vec::new();
        let average = Self::average_task_secs(view);

        // Progress check: once one attempt is clearly about to win, keep it
        // and kill the badly lagging duplicates so their containers are
        // reusable. Until then Mantri lets duplicates race, which is where
        // its machine-time overhead comes from.
        for task in view.incomplete_tasks() {
            if task.active_attempts() <= 1 {
                continue;
            }
            let Some(best) = task.best_progress_attempt() else {
                continue;
            };
            if best.progress < self.prune_only_after_progress {
                continue;
            }
            for attempt in task.attempts.iter().filter(|a| a.active) {
                if attempt.attempt != best.attempt
                    && attempt.progress < self.prune_progress_ratio * best.progress
                {
                    actions.push(PolicyAction::Kill {
                        attempt: attempt.attempt,
                    });
                }
            }
        }

        // Outlier mitigation: keep launching new attempts for outlier tasks
        // (up to the per-task cap) while the cluster has free containers and
        // nothing is queued.
        if view.cluster_has_waiting_work || view.free_slots == 0 {
            return actions;
        }
        let mut budget = view.free_slots;
        for task in view.incomplete_tasks() {
            if budget == 0 {
                break;
            }
            let extras_so_far = task.attempts.len().saturating_sub(1) as u32;
            if extras_so_far >= self.max_extra_attempts {
                continue;
            }
            let Some(remaining) = Self::remaining_secs(task, view) else {
                continue;
            };
            if remaining > average + self.remaining_threshold_secs {
                let count = (self.max_extra_attempts - extras_so_far)
                    .min(budget as u32)
                    .max(1);
                actions.push(PolicyAction::LaunchExtra {
                    task: task.task,
                    count,
                    start_fraction: 0.0,
                });
                budget = budget.saturating_sub(u64::from(count));
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::Pareto;
    use chronos_sim::prelude::{AttemptId, AttemptView, JobId, SimTime, TaskId};

    fn attempt(id: u64, est: Option<f64>, progress: f64) -> AttemptView {
        AttemptView {
            attempt: AttemptId::new(id),
            active: true,
            running: true,
            launched_at: Some(SimTime::ZERO),
            progress,
            estimated_completion: est.map(SimTime::from_secs),
            start_fraction: 0.0,
            resume_offset_hint: progress,
        }
    }

    fn task(id: u64, attempts: Vec<AttemptView>) -> TaskView {
        TaskView {
            task: TaskId::new(id),
            completed: false,
            attempts,
        }
    }

    fn view(tasks: Vec<TaskView>, free_slots: u64, waiting: bool) -> JobView {
        JobView {
            job: JobId::new(0),
            submitted_at: SimTime::ZERO,
            deadline_secs: 100.0,
            now: SimTime::from_secs(60.0),
            check_index: 2,
            chosen_r: None,
            tasks,
            completed_tasks: 1,
            mean_completed_task_duration: Some(50.0),
            free_slots,
            cluster_has_waiting_work: waiting,
        }
    }

    #[test]
    fn outliers_get_extra_attempts_when_cluster_is_idle() {
        let mut policy = MantriPolicy::default();
        // Remaining = 200 − 60 = 140 > 50 + 30: Mantri fills the task up to
        // its 3-extra cap in one scan when the cluster is idle.
        let tasks = vec![task(0, vec![attempt(0, Some(200.0), 0.2)])];
        let actions = policy.on_check(&view(tasks, 4, false));
        assert_eq!(
            actions,
            vec![PolicyAction::LaunchExtra {
                task: TaskId::new(0),
                count: 3,
                start_fraction: 0.0,
            }]
        );
    }

    #[test]
    fn respects_waiting_work_and_free_slots() {
        let mut policy = MantriPolicy::default();
        let tasks = vec![task(0, vec![attempt(0, Some(200.0), 0.2)])];
        assert!(policy.on_check(&view(tasks.clone(), 4, true)).is_empty());
        assert!(policy.on_check(&view(tasks, 0, false)).is_empty());
    }

    #[test]
    fn caps_extra_attempts_at_three() {
        let mut policy = MantriPolicy::default();
        let attempts = vec![
            attempt(0, Some(400.0), 0.5),
            attempt(1, Some(390.0), 0.45),
            attempt(2, Some(395.0), 0.43),
            attempt(3, Some(391.0), 0.41),
        ];
        let tasks = vec![task(0, attempts)];
        let actions = policy.on_check(&view(tasks, 8, false));
        assert!(actions
            .iter()
            .all(|a| !matches!(a, PolicyAction::LaunchExtra { .. })));
    }

    #[test]
    fn prunes_badly_lagging_duplicates() {
        let mut policy = MantriPolicy::default();
        let tasks = vec![task(
            0,
            vec![attempt(0, Some(90.0), 0.8), attempt(1, Some(95.0), 0.1)],
        )];
        let actions = policy.on_check(&view(tasks, 0, true));
        assert_eq!(
            actions,
            vec![PolicyAction::Kill {
                attempt: AttemptId::new(1)
            }]
        );
    }

    #[test]
    fn non_outliers_left_alone() {
        let mut policy = MantriPolicy::default();
        // Remaining = 100 − 60 = 40 < 50 + 30.
        let tasks = vec![task(0, vec![attempt(0, Some(100.0), 0.7)])];
        assert!(policy.on_check(&view(tasks, 4, false)).is_empty());
    }

    #[test]
    fn extra_launches_bounded_by_free_slots() {
        let mut policy = MantriPolicy::default();
        let tasks = vec![
            task(0, vec![attempt(0, Some(300.0), 0.2)]),
            task(1, vec![attempt(1, Some(310.0), 0.2)]),
            task(2, vec![attempt(2, Some(320.0), 0.2)]),
        ];
        // Only two free containers: the total number of attempts launched in
        // this scan cannot exceed two.
        let actions = policy.on_check(&view(tasks, 2, false));
        let launched: u32 = actions
            .iter()
            .map(|a| match a {
                PolicyAction::LaunchExtra { count, .. } => *count,
                _ => 0,
            })
            .sum();
        assert_eq!(launched, 2);
    }

    #[test]
    fn pruning_waits_until_a_winner_emerges() {
        let mut policy = MantriPolicy::default();
        // Best attempt only at 40 % progress: duplicates keep racing.
        let racing = vec![task(
            0,
            vec![attempt(0, Some(90.0), 0.4), attempt(1, Some(95.0), 0.05)],
        )];
        let actions = policy.on_check(&view(racing, 0, true));
        assert!(actions.is_empty());
    }

    #[test]
    fn boilerplate() {
        let mut policy = MantriPolicy::new(0.0);
        assert!(policy.scan_period_secs >= 0.1);
        assert_eq!(policy.name(), "mantri");
        let submit = JobSubmitView {
            job: JobId::new(0),
            task_count: 2,
            deadline_secs: 50.0,
            price: 1.0,
            profile: Pareto::default(),
        };
        assert_eq!(policy.on_job_submit(&submit), SubmitDecision::default());
        assert!(matches!(
            policy.check_schedule(&submit),
            CheckSchedule::Periodic { .. }
        ));
    }
}
