//! The Speculative-Restart strategy (Section III / VI.B.1): detect
//! stragglers at `τ_est`, launch `r` extra attempts from byte zero, keep the
//! fastest attempt at `τ_kill`.
//!
//! # Examples
//!
//! ```
//! use chronos_core::{Pareto, StrategyKind};
//! use chronos_sim::prelude::{CheckSchedule, JobId, JobSubmitView, SpeculationPolicy};
//! use chronos_strategies::prelude::*;
//!
//! let mut policy = ChronosPolicy::new(
//!     StrategyKind::SpeculativeRestart,
//!     ChronosPolicyConfig::testbed(),
//! );
//! assert_eq!(policy.name(), "s-restart");
//! let job = JobSubmitView {
//!     job: JobId::new(0),
//!     task_count: 10,
//!     deadline_secs: 100.0,
//!     price: 1.0,
//!     profile: Pareto::new(20.0, 1.5).unwrap(),
//! };
//! // Nothing extra launches at submission; the chosen `r` waits for τ_est.
//! let decision = policy.on_job_submit(&job);
//! assert_eq!(decision.extra_clones_per_task, 0);
//! assert!(decision.reported_r.unwrap() >= 1);
//! assert_eq!(
//!     policy.check_schedule(&job),
//!     CheckSchedule::AtOffsets(vec![40.0, 80.0])
//! );
//! ```

use crate::common::is_straggler;
use chronos_sim::prelude::{JobView, PolicyAction};

/// τ_est: launch `r` restarted attempts for every straggling task.
pub(crate) fn detect_and_speculate(view: &JobView, r: u32) -> Vec<PolicyAction> {
    if r == 0 {
        return Vec::new();
    }
    let mut actions = Vec::new();
    for task in view.incomplete_tasks() {
        if is_straggler(task, view) {
            actions.push(PolicyAction::LaunchExtra {
                task: task.task,
                count: r,
                start_fraction: 0.0,
            });
        }
    }
    actions
}

#[cfg(test)]
mod tests {
    use crate::common::ChronosPolicyConfig;
    use crate::policy::ChronosPolicy;
    use chronos_core::{Pareto, StrategyKind};
    use chronos_sim::prelude::{
        AttemptId, AttemptView, CheckSchedule, JobId, JobSubmitView, JobView, PolicyAction,
        SimTime, SpeculationPolicy, TaskId, TaskView,
    };

    fn policy() -> ChronosPolicy {
        ChronosPolicy::new(
            StrategyKind::SpeculativeRestart,
            ChronosPolicyConfig::testbed(),
        )
    }

    fn submit_view() -> JobSubmitView {
        JobSubmitView {
            job: JobId::new(0),
            task_count: 10,
            deadline_secs: 100.0,
            price: 1.0,
            profile: Pareto::new(20.0, 1.5).unwrap(),
        }
    }

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

    /// A check view carrying the job's `r` as the engine hands it back.
    fn view(check_index: u32, chosen_r: Option<u32>, tasks: Vec<TaskView>) -> JobView {
        JobView {
            job: JobId::new(0),
            submitted_at: SimTime::ZERO,
            deadline_secs: 100.0,
            now: SimTime::from_secs(if check_index == 0 { 40.0 } else { 80.0 }),
            check_index,
            chosen_r,
            tasks,
            completed_tasks: 0,
            mean_completed_task_duration: None,
            free_slots: 64,
            cluster_has_waiting_work: false,
        }
    }

    #[test]
    fn submit_launches_no_clones_but_reports_r() {
        let decision = policy().on_job_submit(&submit_view());
        assert_eq!(decision.extra_clones_per_task, 0);
        assert!(decision.reported_r.unwrap() >= 1);
    }

    #[test]
    fn schedule_has_estimate_and_kill_points() {
        match policy().check_schedule(&submit_view()) {
            CheckSchedule::AtOffsets(offsets) => assert_eq!(offsets, vec![40.0, 80.0]),
            other => panic!("unexpected schedule {other:?}"),
        }
    }

    #[test]
    fn stragglers_get_r_restarted_attempts() {
        let mut policy = policy();
        let r = policy.on_job_submit(&submit_view()).reported_r.unwrap();
        let tasks = vec![
            TaskView {
                task: TaskId::new(0),
                completed: false,
                attempts: vec![attempt(0, Some(150.0), 0.2)],
            },
            TaskView {
                task: TaskId::new(1),
                completed: false,
                attempts: vec![attempt(1, Some(70.0), 0.6)],
            },
        ];
        let actions = policy.on_check(&view(0, Some(r), tasks));
        assert_eq!(actions.len(), 1);
        assert_eq!(
            actions[0],
            PolicyAction::LaunchExtra {
                task: TaskId::new(0),
                count: r,
                start_fraction: 0.0,
            }
        );
    }

    #[test]
    fn prune_keeps_earliest_estimate() {
        let mut policy = policy();
        let r = policy.on_job_submit(&submit_view()).reported_r;
        let tasks = vec![TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![
                attempt(0, Some(150.0), 0.5),
                attempt(1, Some(95.0), 0.3),
                attempt(2, Some(120.0), 0.4),
            ],
        }];
        let actions = policy.on_check(&view(1, r, tasks));
        assert_eq!(
            actions,
            vec![PolicyAction::KillAllExcept {
                task: TaskId::new(0),
                keep: AttemptId::new(1),
            }]
        );
    }

    #[test]
    fn single_attempt_tasks_are_left_alone_at_kill() {
        let mut policy = policy();
        let r = policy.on_job_submit(&submit_view()).reported_r;
        let tasks = vec![TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![attempt(0, Some(90.0), 0.8)],
        }];
        assert!(policy.on_check(&view(1, r, tasks)).is_empty());
    }

    #[test]
    fn unknown_job_uses_fallback_r() {
        // A check whose job carries no `r` (its decision reported none)
        // still behaves sensibly: stragglers get `fallback_r` attempts.
        let mut policy = policy();
        assert_eq!(policy.config().fallback_r, 1);
        let tasks = vec![TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![attempt(0, Some(150.0), 0.2)],
        }];
        assert_eq!(
            policy.on_check(&view(0, None, tasks)),
            vec![PolicyAction::LaunchExtra {
                task: TaskId::new(0),
                count: 1,
                start_fraction: 0.0,
            }]
        );
    }
}
