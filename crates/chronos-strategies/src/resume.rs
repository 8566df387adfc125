//! The Speculative-Resume strategy (Section III / VI.B.2): detect stragglers
//! at `τ_est`, kill them, and launch `r + 1` fresh attempts that resume from
//! the Eq. 31 byte offset; keep the fastest attempt at `τ_kill`.
//!
//! # Examples
//!
//! ```
//! use chronos_core::{Pareto, StrategyKind};
//! use chronos_sim::prelude::{
//!     CheckOffsets, CheckSchedule, JobId, JobSubmitView, SpeculationPolicy,
//! };
//! use chronos_strategies::prelude::*;
//!
//! let mut policy = ChronosPolicy::new(
//!     StrategyKind::SpeculativeResume,
//!     ChronosPolicyConfig::testbed(),
//! );
//! assert_eq!(policy.name(), "s-resume");
//! let job = JobSubmitView {
//!     job: JobId::new(0),
//!     task_count: 10,
//!     deadline_secs: 100.0,
//!     price: 1.0,
//!     profile: Pareto::new(20.0, 1.5).unwrap(),
//! };
//! // Nothing extra launches at submission; stragglers are replaced at τ_est.
//! let decision = policy.on_job_submit(&job);
//! assert_eq!(decision.extra_clones_per_task, 0);
//! assert!(decision.reported_r.unwrap() >= 1);
//! assert_eq!(
//!     policy.check_schedule(&job),
//!     CheckSchedule::AtOffsets(CheckOffsets::from([40.0, 80.0]))
//! );
//! ```

use crate::common::is_straggler;
use chronos_sim::prelude::{JobView, PolicyAction, TaskView};

/// τ_est: kill the straggling original and relaunch `r + 1` resumed
/// attempts from the estimated hand-off offset.
pub(crate) fn replace_stragglers(view: &JobView, r: u32) -> Vec<PolicyAction> {
    let mut actions = Vec::new();
    for task in view.incomplete_tasks() {
        if !is_straggler(task, view) {
            continue;
        }
        let offset = resume_offset_for(task);
        for attempt in task.attempts.iter().filter(|a| a.active) {
            actions.push(PolicyAction::Kill {
                attempt: attempt.attempt,
            });
        }
        actions.push(PolicyAction::LaunchExtra {
            task: task.task,
            count: r + 1,
            start_fraction: offset,
        });
    }
    actions
}

/// The Eq. 31 offset for a task: the resume-offset hint of its most advanced
/// active attempt (the straggling original), zero when nothing has started.
fn resume_offset_for(task: &TaskView) -> f64 {
    task.attempts
        .iter()
        .filter(|a| a.active)
        .map(|a| a.resume_offset_hint)
        .fold(0.0, f64::max)
        .clamp(0.0, 0.999)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ChronosPolicyConfig;
    use crate::policy::ChronosPolicy;
    use chronos_core::{Pareto, StrategyKind};
    use chronos_sim::prelude::{
        AttemptId, AttemptView, CheckSchedule, JobId, JobSubmitView, SimTime, SpeculationPolicy,
        TaskId,
    };

    fn policy() -> ChronosPolicy {
        ChronosPolicy::new(
            StrategyKind::SpeculativeResume,
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

    fn attempt(id: u64, est: Option<f64>, progress: f64, hint: f64) -> AttemptView {
        AttemptView {
            attempt: AttemptId::new(id),
            active: true,
            running: true,
            launched_at: Some(SimTime::ZERO),
            progress,
            estimated_completion: est.map(SimTime::from_secs),
            start_fraction: 0.0,
            resume_offset_hint: hint,
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
    fn submit_reports_r_without_clones() {
        let decision = policy().on_job_submit(&submit_view());
        assert_eq!(decision.extra_clones_per_task, 0);
        assert!(decision.reported_r.unwrap() >= 1);
    }

    #[test]
    fn straggler_is_killed_and_replaced_with_resumed_attempts() {
        let mut policy = policy();
        let r = policy.on_job_submit(&submit_view()).reported_r.unwrap();
        let tasks = vec![TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![attempt(0, Some(160.0), 0.25, 0.31)],
        }];
        let actions = policy.on_check(&view(0, Some(r), tasks));
        assert_eq!(actions.len(), 2);
        assert_eq!(
            actions[0],
            PolicyAction::Kill {
                attempt: AttemptId::new(0)
            }
        );
        assert_eq!(
            actions[1],
            PolicyAction::LaunchExtra {
                task: TaskId::new(0),
                count: r + 1,
                start_fraction: 0.31,
            }
        );
    }

    #[test]
    fn healthy_tasks_are_untouched() {
        let mut policy = policy();
        let r = policy.on_job_submit(&submit_view()).reported_r;
        let tasks = vec![TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![attempt(0, Some(90.0), 0.5, 0.55)],
        }];
        assert!(policy.on_check(&view(0, r, tasks)).is_empty());
    }

    #[test]
    fn prune_keeps_earliest_estimated_completion() {
        let mut policy = policy();
        let r = policy.on_job_submit(&submit_view()).reported_r;
        let tasks = vec![TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![
                attempt(0, Some(110.0), 0.6, 0.6),
                attempt(1, Some(95.0), 0.5, 0.5),
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
    fn resume_offset_uses_most_advanced_active_attempt() {
        let task = TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![attempt(0, None, 0.2, 0.25), attempt(1, None, 0.4, 0.47)],
        };
        assert!((resume_offset_for(&task) - 0.47).abs() < 1e-12);
        let empty = TaskView {
            task: TaskId::new(1),
            completed: false,
            attempts: Vec::new(),
        };
        assert_eq!(resume_offset_for(&empty), 0.0);
    }

    #[test]
    fn schedule_matches_timing() {
        let policy = ChronosPolicy::new(
            StrategyKind::SpeculativeResume,
            ChronosPolicyConfig::testbed()
                .with_timing(crate::timing::StrategyTiming::of_tmin(0.3, 0.8)),
        );
        match policy.check_schedule(&submit_view()) {
            CheckSchedule::AtOffsets(offsets) => assert_eq!(offsets.as_slice(), [6.0, 16.0]),
            other => panic!("unexpected schedule {other:?}"),
        }
    }
}
