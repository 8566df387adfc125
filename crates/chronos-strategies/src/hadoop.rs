//! The default-Hadoop baselines: Hadoop-NS (no speculation) and Hadoop-S
//! (the stock speculation mode described in Section I).
//!
//! Hadoop-S only starts speculating after at least one task of the job has
//! finished. Periodically it compares every running task's estimated
//! completion time with the average completion time of the finished tasks
//! and launches **one** extra attempt for the task with the largest positive
//! gap. It never launches more than one speculative copy per task and it
//! does not consider deadlines at all — the two properties Chronos improves
//! on.

use chronos_sim::prelude::{
    CheckSchedule, JobSubmitView, JobView, NoSpeculation, PolicyAction, SpeculationPolicy,
    SubmitDecision, TaskId,
};
use serde::{Deserialize, Serialize};

/// The Hadoop-NS baseline: default Hadoop with speculation disabled.
///
/// This is a transparent re-export of the simulator's inert policy under the
/// name the paper uses for it.
pub type HadoopNoSpec = NoSpeculation;

/// The Hadoop-S baseline: default Hadoop speculation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HadoopSpeculate {
    /// Seconds between speculation scans (Hadoop's speculator period).
    pub scan_period_secs: f64,
}

impl HadoopSpeculate {
    /// Creates the baseline with the given scan period.
    #[must_use]
    pub fn new(scan_period_secs: f64) -> Self {
        HadoopSpeculate {
            scan_period_secs: scan_period_secs.max(0.1),
        }
    }
}

impl Default for HadoopSpeculate {
    /// Hadoop's speculator wakes up every few seconds; 5 s is a conventional
    /// setting.
    fn default() -> Self {
        HadoopSpeculate::new(5.0)
    }
}

impl SpeculationPolicy for HadoopSpeculate {
    fn name(&self) -> &str {
        "hadoop-s"
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
        // Speculation is enabled only after at least one task has finished.
        let Some(mean_finished) = view.mean_completed_task_duration else {
            return Vec::new();
        };
        // Candidate tasks: incomplete, still on their single original
        // attempt, with an available estimate.
        let mut worst: Option<(TaskId, f64)> = None;
        for task in view.incomplete_tasks() {
            if task.active_attempts() != 1 || task.attempts.len() != 1 {
                continue;
            }
            let Some(best) = task.earliest_estimated_attempt() else {
                continue;
            };
            let Some(est) = best.estimated_completion else {
                continue;
            };
            let gap = view.relative_secs(est) - mean_finished;
            if gap > 0.0 && worst.map(|(_, g)| gap > g).unwrap_or(true) {
                worst = Some((task.task, gap));
            }
        }
        match worst {
            Some((task, _)) => vec![PolicyAction::LaunchExtra {
                task,
                count: 1,
                start_fraction: 0.0,
            }],
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::Pareto;
    use chronos_sim::prelude::{AttemptId, AttemptView, JobId, SimTime, TaskView};

    fn submit_view() -> JobSubmitView {
        JobSubmitView {
            job: JobId::new(0),
            task_count: 4,
            deadline_secs: 100.0,
            price: 1.0,
            profile: Pareto::default(),
        }
    }

    fn attempt(id: u64, est: Option<f64>) -> AttemptView {
        AttemptView {
            attempt: AttemptId::new(id),
            active: true,
            running: true,
            launched_at: Some(SimTime::ZERO),
            progress: 0.3,
            estimated_completion: est.map(SimTime::from_secs),
            start_fraction: 0.0,
            resume_offset_hint: 0.3,
        }
    }

    fn single_attempt_task(task: u64, attempt_id: u64, est: Option<f64>) -> TaskView {
        TaskView {
            task: TaskId::new(task),
            completed: false,
            attempts: vec![attempt(attempt_id, est)],
        }
    }

    fn view(mean_finished: Option<f64>, tasks: Vec<TaskView>) -> JobView {
        JobView {
            job: JobId::new(0),
            submitted_at: SimTime::ZERO,
            deadline_secs: 100.0,
            now: SimTime::from_secs(50.0),
            check_index: 3,
            chosen_r: None,
            tasks,
            completed_tasks: usize::from(mean_finished.is_some()),
            mean_completed_task_duration: mean_finished,
            free_slots: 16,
            cluster_has_waiting_work: false,
        }
    }

    #[test]
    fn no_speculation_before_first_finish() {
        let mut policy = HadoopSpeculate::default();
        let tasks = vec![single_attempt_task(0, 0, Some(400.0))];
        assert!(policy.on_check(&view(None, tasks)).is_empty());
    }

    #[test]
    fn speculates_for_single_worst_task() {
        let mut policy = HadoopSpeculate::default();
        let tasks = vec![
            single_attempt_task(0, 0, Some(90.0)),
            single_attempt_task(1, 1, Some(300.0)),
            single_attempt_task(2, 2, Some(150.0)),
        ];
        let actions = policy.on_check(&view(Some(60.0), tasks));
        assert_eq!(
            actions,
            vec![PolicyAction::LaunchExtra {
                task: TaskId::new(1),
                count: 1,
                start_fraction: 0.0,
            }]
        );
    }

    #[test]
    fn never_double_speculates_a_task() {
        let mut policy = HadoopSpeculate::default();
        let already_speculated = TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![attempt(0, Some(400.0)), attempt(1, Some(380.0))],
        };
        assert!(policy
            .on_check(&view(Some(60.0), vec![already_speculated]))
            .is_empty());
    }

    #[test]
    fn faster_than_average_tasks_left_alone() {
        let mut policy = HadoopSpeculate::default();
        let tasks = vec![single_attempt_task(0, 0, Some(50.0))];
        assert!(policy.on_check(&view(Some(60.0), tasks)).is_empty());
    }

    #[test]
    fn schedule_is_periodic_and_no_clones() {
        let mut policy = HadoopSpeculate::new(3.0);
        assert_eq!(
            policy.on_job_submit(&submit_view()).extra_clones_per_task,
            0
        );
        assert_eq!(policy.on_job_submit(&submit_view()).reported_r, None);
        match policy.check_schedule(&submit_view()) {
            CheckSchedule::Periodic { first, period } => {
                assert_eq!(first, 3.0);
                assert_eq!(period, 3.0);
            }
            other => panic!("unexpected schedule {other:?}"),
        }
        assert_eq!(policy.name(), "hadoop-s");
    }

    #[test]
    fn scan_period_floor() {
        assert!(HadoopSpeculate::new(0.0).scan_period_secs >= 0.1);
    }

    #[test]
    fn hadoop_ns_alias_is_inert() {
        let mut policy: HadoopNoSpec = NoSpeculation;
        assert_eq!(policy.name(), "hadoop-ns");
        assert!(policy.on_check(&view(None, Vec::new())).is_empty());
    }
}
