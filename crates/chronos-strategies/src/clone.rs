//! The Clone strategy (Section III / VI.A): launch `r + 1` attempts of every
//! task at submission, prune to the best-progress attempt at `τ_kill`.
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
//! let mut policy = ChronosPolicy::new(StrategyKind::Clone, ChronosPolicyConfig::testbed());
//! assert_eq!(policy.name(), "clone");
//! let job = JobSubmitView {
//!     job: JobId::new(0),
//!     task_count: 10,
//!     deadline_secs: 100.0,
//!     price: 1.0,
//!     profile: Pareto::new(20.0, 1.5).unwrap(),
//! };
//! // The `r` extra copies of every task launch at submission...
//! let decision = policy.on_job_submit(&job);
//! assert!(decision.extra_clones_per_task >= 1);
//! assert_eq!(decision.reported_r, Some(decision.extra_clones_per_task));
//! // ...and the only check point is τ_kill.
//! assert_eq!(policy.check_schedule(&job), CheckSchedule::AtOffsets(CheckOffsets::from([80.0])));
//! ```

use chronos_sim::prelude::{JobView, PolicyAction};

/// τ_kill: keep the best-progress attempt of every unfinished task and
/// kill the other copies.
pub(crate) fn prune_to_best_progress(view: &JobView) -> Vec<PolicyAction> {
    let mut actions = Vec::new();
    for task in view.incomplete_tasks() {
        if task.active_attempts() <= 1 {
            continue;
        }
        if let Some(best) = task.best_progress_attempt() {
            actions.push(PolicyAction::KillAllExcept {
                task: task.task,
                keep: best.attempt,
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
        ChronosPolicy::new(StrategyKind::Clone, ChronosPolicyConfig::testbed())
    }

    fn submit_view() -> JobSubmitView {
        JobSubmitView {
            job: JobId::new(7),
            task_count: 10,
            deadline_secs: 100.0,
            price: 1.0,
            profile: Pareto::new(20.0, 1.5).unwrap(),
        }
    }

    #[test]
    fn submit_clones_r_extra_attempts() {
        let decision = policy().on_job_submit(&submit_view());
        assert!(decision.extra_clones_per_task >= 1);
        assert_eq!(decision.reported_r, Some(decision.extra_clones_per_task));
    }

    #[test]
    fn schedule_is_single_kill_point() {
        match policy().check_schedule(&submit_view()) {
            CheckSchedule::AtOffsets(offsets) => assert_eq!(offsets.as_slice(), [80.0]),
            other => panic!("unexpected schedule {other:?}"),
        }
    }

    #[test]
    fn check_prunes_to_best_progress() {
        let mut policy = policy();
        let r = policy.on_job_submit(&submit_view()).reported_r;
        let attempts = |values: &[(u64, f64, bool)]| -> Vec<AttemptView> {
            values
                .iter()
                .map(|(id, progress, active)| AttemptView {
                    attempt: AttemptId::new(*id),
                    active: *active,
                    running: *active,
                    launched_at: Some(SimTime::ZERO),
                    progress: *progress,
                    estimated_completion: None,
                    start_fraction: 0.0,
                    resume_offset_hint: *progress,
                })
                .collect()
        };
        let view = JobView {
            job: JobId::new(7),
            submitted_at: SimTime::ZERO,
            deadline_secs: 100.0,
            now: SimTime::from_secs(80.0),
            check_index: 0,
            chosen_r: r,
            tasks: vec![
                TaskView {
                    task: TaskId::new(0),
                    completed: false,
                    attempts: attempts(&[(0, 0.4, true), (1, 0.7, true), (2, 0.1, true)]),
                },
                TaskView {
                    task: TaskId::new(1),
                    completed: true,
                    attempts: attempts(&[(3, 1.0, false)]),
                },
                TaskView {
                    task: TaskId::new(2),
                    completed: false,
                    attempts: attempts(&[(4, 0.5, true)]),
                },
            ],
            completed_tasks: 1,
            mean_completed_task_duration: Some(60.0),
            free_slots: 100,
            cluster_has_waiting_work: false,
        };
        let actions = policy.on_check(&view);
        assert_eq!(actions.len(), 1);
        assert_eq!(
            actions[0],
            PolicyAction::KillAllExcept {
                task: TaskId::new(0),
                keep: AttemptId::new(1),
            }
        );
    }
}
