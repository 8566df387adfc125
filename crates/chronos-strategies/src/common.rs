//! Shared machinery for the Chronos strategies: the configuration and the
//! plan request each job's `r` is optimized from, the straggler test and the
//! reactive strategies' `τ_kill` pruning.

use crate::timing::StrategyTiming;
use chronos_core::prelude::*;
use chronos_plan::{PlanCache, PlanRequest, Planner};
use chronos_sim::prelude::{AttemptView, JobSubmitView, JobView, PolicyAction, TaskView};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration shared by the three Chronos strategies: the net-utility
/// objective, the optimizer settings, the timing of `τ_est`/`τ_kill` and a
/// cap on `r` as a safety valve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChronosPolicyConfig {
    /// The net-utility objective (θ and R_min).
    pub objective: UtilityModel,
    /// Optimizer tuning.
    pub optimizer: OptimizerConfig,
    /// `τ_est` / `τ_kill` specification.
    pub timing: StrategyTiming,
    /// Fallback `r` used when the optimizer reports the problem infeasible
    /// for a job (e.g. a deadline too tight for any speculation to help).
    pub fallback_r: u32,
    /// When set, bypasses the optimizer and uses this `r` for every job.
    /// Used by the analysis-validation harness and the ablation benches to
    /// compare the simulator against the closed forms at a known `r`.
    pub fixed_r: Option<u32>,
}

impl ChronosPolicyConfig {
    /// The testbed configuration of Section VII.A: `θ = 1e-4`,
    /// `R_min = 0`, `τ_est = 40 s`, `τ_kill = 80 s`.
    #[must_use]
    pub fn testbed() -> Self {
        ChronosPolicyConfig {
            objective: UtilityModel::default(),
            optimizer: OptimizerConfig::default(),
            timing: StrategyTiming::testbed(),
            fallback_r: 1,
            fixed_r: None,
        }
    }

    /// Same as [`testbed`](Self::testbed) but with an explicit tradeoff
    /// factor θ — the knob swept in Figure 3.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InvalidParameter`] if `theta` is negative or
    /// not finite.
    pub fn with_theta(theta: f64) -> Result<Self, ChronosError> {
        Ok(ChronosPolicyConfig {
            objective: UtilityModel::new(theta, 0.0)?,
            ..ChronosPolicyConfig::testbed()
        })
    }

    /// Replaces the timing specification.
    #[must_use]
    pub fn with_timing(mut self, timing: StrategyTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Forces every job to use the given `r` instead of running the
    /// optimizer (analysis-validation and ablation runs).
    #[must_use]
    pub fn with_fixed_r(mut self, r: u32) -> Self {
        self.fixed_r = Some(r);
        self
    }

    /// The plan request of a submitted job under strategy `kind`: the
    /// analytical job profile plus the strategy timing resolved against
    /// the job's `t_min`. This is the one place a job view becomes a
    /// [`PlanRequest`].
    ///
    /// # Errors
    ///
    /// Propagates profile construction and strategy validation failures
    /// (e.g. a deadline at or below `t_min`, or a `τ_est` incompatible with
    /// the deadline) — the cases the policies resolve to `fallback_r`.
    pub fn request_for(
        &self,
        job: &JobSubmitView,
        kind: StrategyKind,
    ) -> Result<PlanRequest, ChronosError> {
        let profile = JobProfile::builder()
            .tasks(job.task_count.max(1))
            .t_min(job.profile.t_min())
            .beta(job.profile.beta())
            .deadline(job.deadline_secs)
            .price(job.price)
            .build()?;
        let (tau_est, tau_kill) = self.timing.resolve(job.profile.t_min());
        let params = match kind {
            StrategyKind::Clone => StrategyParams::clone_strategy(tau_kill),
            StrategyKind::SpeculativeRestart => StrategyParams::restart(tau_est, tau_kill)?,
            StrategyKind::SpeculativeResume => {
                let phi =
                    expected_straggler_progress(tau_est, job.deadline_secs, job.profile.beta());
                StrategyParams::resume(tau_est, tau_kill, phi)?
            }
        };
        Ok(PlanRequest::new(profile, params))
    }

    /// A planner over `cache` with this configuration's objective and
    /// optimizer settings.
    ///
    /// # Errors
    ///
    /// The optimizer-validation error of an invalid configuration.
    pub(crate) fn planner(&self, cache: Arc<PlanCache>) -> Result<Planner, ChronosError> {
        let optimizer = Optimizer::with_config(self.objective, self.optimizer)?;
        Ok(Planner::with_cache(optimizer, cache))
    }
}

impl Default for ChronosPolicyConfig {
    fn default() -> Self {
        ChronosPolicyConfig::testbed()
    }
}

/// The expected progress score of a straggling original attempt at `τ_est`:
/// conditioning on the attempt missing the deadline (`T > D`, so `T` is
/// Pareto with scale `D`), `E[τ_est / T] = τ_est·β / ((β + 1)·D)`.
///
/// This is the a-priori `ϕ_est` the Speculative-Resume optimizer uses before
/// any progress has been observed.
#[must_use]
pub fn expected_straggler_progress(tau_est: f64, deadline: f64, beta: f64) -> f64 {
    if deadline <= 0.0 {
        return 0.0;
    }
    (tau_est * beta / ((beta + 1.0) * deadline)).clamp(0.0, 0.999)
}

/// True when the task is straggling at the check instant: its best
/// (earliest) estimated completion still misses the deadline.
///
/// A task whose attempts have produced **no estimate yet** (typically
/// because the JVM is still launching and the progress score is zero) is
/// also flagged: Hadoop's estimator divides elapsed time by zero progress,
/// i.e. it estimates an unbounded completion time, which is exactly the
/// "over-estimation at small `τ_est`" behaviour the paper's Tables I and II
/// describe. Tasks with no active attempts are never flagged.
#[must_use]
pub fn is_straggler(task: &TaskView, view: &JobView) -> bool {
    if task.active_attempts() == 0 {
        return false;
    }
    match task.earliest_estimated_attempt() {
        Some(best) => match best.estimated_completion {
            Some(est) => view.relative_secs(est) > view.deadline_secs,
            None => true,
        },
        None => true,
    }
}

/// The active attempt a pruning pass should keep: the one with the earliest
/// estimated completion, falling back to the best progress score when no
/// estimates exist.
#[must_use]
pub fn best_active_attempt(task: &TaskView) -> Option<&AttemptView> {
    task.earliest_estimated_attempt()
        .or_else(|| task.best_progress_attempt())
}

/// The attempt a `τ_kill` pruning pass should keep for a reactive strategy.
///
/// Normally this is the attempt with the earliest estimated completion. But
/// when that estimate already misses the deadline while some replacement
/// attempt is too young to have an estimate (its JVM is still launching),
/// the replacement is kept instead: a certain miss is never preferable to an
/// unknown. This matters when `τ_kill − τ_est` is small, the regime the
/// bottom rows of Table II explore.
#[must_use]
pub fn prune_keep_candidate<'a>(task: &'a TaskView, view: &JobView) -> Option<&'a AttemptView> {
    let best = best_active_attempt(task)?;
    let best_misses = best
        .estimated_completion
        .map(|est| view.relative_secs(est) > view.deadline_secs)
        .unwrap_or(false);
    if best_misses {
        let freshest_unknown = task
            .attempts
            .iter()
            .filter(|a| a.active && a.estimated_completion.is_none())
            .max_by(|a, b| {
                let ka = (a.start_fraction, a.launched_at);
                let kb = (b.start_fraction, b.launched_at);
                ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
            });
        if let Some(unknown) = freshest_unknown {
            return Some(unknown);
        }
    }
    Some(best)
}

/// τ_kill of the reactive strategies: keep the attempt of every unfinished
/// task chosen by [`prune_keep_candidate`] and kill the others.
pub(crate) fn prune_to_fastest(view: &JobView) -> Vec<PolicyAction> {
    let mut actions = Vec::new();
    for task in view.incomplete_tasks() {
        if task.active_attempts() <= 1 {
            continue;
        }
        if let Some(best) = prune_keep_candidate(task, view) {
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
    use super::*;
    use crate::ChronosPolicy;
    use chronos_core::Pareto;
    use chronos_sim::prelude::{AttemptId, JobId, SimTime, SpeculationPolicy, TaskId};

    fn submit_view(deadline: f64) -> JobSubmitView {
        JobSubmitView {
            job: JobId::new(0),
            task_count: 10,
            deadline_secs: deadline,
            price: 1.0,
            profile: Pareto::new(20.0, 1.5).unwrap(),
        }
    }

    /// The `r` a freshly submitted job is given by `policy`.
    fn submitted_r(policy: &mut ChronosPolicy, deadline: f64) -> u32 {
        policy
            .on_job_submit(&submit_view(deadline))
            .reported_r
            .expect("Chronos policies always report r")
    }

    #[test]
    fn profiles_built_from_submit_view() {
        let cfg = ChronosPolicyConfig::testbed();
        let request = cfg
            .request_for(&submit_view(100.0), StrategyKind::Clone)
            .unwrap();
        assert_eq!(request.job.tasks(), 10);
        assert_eq!(request.job.t_min(), 20.0);
        assert_eq!(request.job.deadline(), 100.0);
        assert!(cfg
            .request_for(&submit_view(10.0), StrategyKind::Clone)
            .is_err());
    }

    #[test]
    fn optimization_returns_positive_r_for_tight_deadlines() {
        let cfg = ChronosPolicyConfig::testbed();
        for kind in StrategyKind::ALL {
            let r = submitted_r(&mut ChronosPolicy::new(kind, cfg), 100.0);
            assert!(r >= 1, "{kind}: {r}");
            assert!(r <= 16, "{kind}: {r}");
        }
    }

    #[test]
    fn infeasible_jobs_fall_back() {
        // Deadline barely above t_min: the reactive timings (τ_est = 40 s)
        // exceed the deadline, so the solve fails and the fallback is used.
        let cfg = ChronosPolicyConfig::testbed();
        let kind = StrategyKind::SpeculativeRestart;
        let request = cfg.request_for(&submit_view(21.0), kind).unwrap();
        let optimizer = Optimizer::with_config(cfg.objective, cfg.optimizer).unwrap();
        assert!(optimizer.optimize(&request.job, &request.params).is_err());
        let r = submitted_r(&mut ChronosPolicy::new(kind, cfg), 21.0);
        assert_eq!(r, cfg.fallback_r);
    }

    #[test]
    fn theta_constructor_validates() {
        assert!(ChronosPolicyConfig::with_theta(1e-3).is_ok());
        assert!(ChronosPolicyConfig::with_theta(-1.0).is_err());
    }

    #[test]
    fn fixed_r_bypasses_the_optimizer() {
        let cfg = ChronosPolicyConfig::testbed().with_fixed_r(7);
        for kind in StrategyKind::ALL {
            assert_eq!(submitted_r(&mut ChronosPolicy::new(kind, cfg), 100.0), 7);
        }
        // Even infeasible jobs use the forced value.
        let mut restart = ChronosPolicy::new(StrategyKind::SpeculativeRestart, cfg);
        assert_eq!(submitted_r(&mut restart, 21.0), 7);
    }

    #[test]
    fn larger_theta_shrinks_r() {
        let small = ChronosPolicyConfig::with_theta(1e-5).unwrap();
        let large = ChronosPolicyConfig::with_theta(1e-3).unwrap();
        for kind in StrategyKind::ALL {
            let r_small = submitted_r(&mut ChronosPolicy::new(kind, small), 100.0);
            let r_large = submitted_r(&mut ChronosPolicy::new(kind, large), 100.0);
            assert!(r_large <= r_small, "{kind}");
        }
    }

    #[test]
    fn expected_straggler_progress_bounds() {
        let phi = expected_straggler_progress(40.0, 100.0, 1.5);
        assert!(phi > 0.0 && phi < 0.4);
        assert_eq!(expected_straggler_progress(40.0, 0.0, 1.5), 0.0);
        // Very large tau_est clamps below 1.
        assert!(expected_straggler_progress(1e6, 10.0, 1.5) < 1.0);
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

    fn view_with(tasks: Vec<TaskView>) -> JobView {
        JobView {
            job: JobId::new(0),
            submitted_at: SimTime::ZERO,
            deadline_secs: 100.0,
            now: SimTime::from_secs(40.0),
            check_index: 0,
            chosen_r: None,
            tasks,
            completed_tasks: 0,
            mean_completed_task_duration: None,
            free_slots: 8,
            cluster_has_waiting_work: false,
        }
    }

    #[test]
    fn straggler_detection_uses_best_estimate() {
        let straggling = TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![attempt(0, Some(150.0), 0.2)],
        };
        let healthy = TaskView {
            task: TaskId::new(1),
            completed: false,
            attempts: vec![attempt(1, Some(80.0), 0.5)],
        };
        let unknown = TaskView {
            task: TaskId::new(2),
            completed: false,
            attempts: vec![attempt(2, None, 0.0)],
        };
        let mut idle = TaskView {
            task: TaskId::new(3),
            completed: false,
            attempts: vec![attempt(3, None, 0.0)],
        };
        idle.attempts[0].active = false;
        let view = view_with(vec![
            straggling.clone(),
            healthy.clone(),
            unknown.clone(),
            idle.clone(),
        ]);
        assert!(is_straggler(&straggling, &view));
        assert!(!is_straggler(&healthy, &view));
        // No estimate yet = unbounded Hadoop estimate = flagged.
        assert!(is_straggler(&unknown, &view));
        // But a task with no active attempts cannot be speculated on.
        assert!(!is_straggler(&idle, &view));
    }

    #[test]
    fn policy_planner_matches_the_legacy_unmemoized_path() {
        // Every construction must agree with a direct, unmemoized
        // Algorithm 1 solve on every job and strategy — memoization is
        // wall-clock only.
        let cfg = ChronosPolicyConfig::testbed();
        let optimizer = Optimizer::with_config(cfg.objective, cfg.optimizer).unwrap();
        let cache = PlanCache::shared();
        for deadline in [21.0, 60.0, 100.0, 300.0] {
            for kind in StrategyKind::ALL {
                let direct = cfg
                    .request_for(&submit_view(deadline), kind)
                    .and_then(|request| optimizer.optimize(&request.job, &request.params))
                    .map_or(cfg.fallback_r, |outcome| outcome.r);
                for mut policy in [
                    ChronosPolicy::new(kind, cfg),
                    ChronosPolicy::with_cache(kind, cfg, Arc::clone(&cache)),
                    ChronosPolicy::uncached(kind, cfg),
                ] {
                    assert_eq!(
                        submitted_r(&mut policy, deadline),
                        direct,
                        "deadline {deadline}, {kind}"
                    );
                }
            }
        }
        // The shared-cache policies actually memoized that sweep.
        let stats = cache.stats();
        assert!(stats.misses > 0);
        assert_eq!(stats.entries, stats.misses);
    }

    #[test]
    fn policy_planner_memoizes_repeated_profiles() {
        let cache = PlanCache::shared();
        let mut policy = ChronosPolicy::with_cache(
            StrategyKind::SpeculativeResume,
            ChronosPolicyConfig::testbed(),
            Arc::clone(&cache),
        );
        for _ in 0..10 {
            submitted_r(&mut policy, 100.0);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
    }

    #[test]
    fn fixed_r_bypasses_the_planner_cache() {
        let cache = PlanCache::shared();
        let mut policy = ChronosPolicy::with_cache(
            StrategyKind::Clone,
            ChronosPolicyConfig::testbed().with_fixed_r(5),
            Arc::clone(&cache),
        );
        assert_eq!(submitted_r(&mut policy, 100.0), 5);
        assert_eq!(cache.stats().lookups(), 0);
    }

    #[test]
    fn broken_optimizer_config_reproduces_the_validation_error() {
        let mut cfg = ChronosPolicyConfig::testbed();
        cfg.optimizer.r_max = 0;
        let cache = PlanCache::shared();
        for mut policy in [
            ChronosPolicy::new(StrategyKind::Clone, cfg),
            ChronosPolicy::with_cache(StrategyKind::Clone, cfg, Arc::clone(&cache)),
            ChronosPolicy::uncached(StrategyKind::Clone, cfg),
        ] {
            // The policy keeps the validation error …
            assert!(format!("{policy:?}").contains("r_max"), "{policy:?}");
            // … and every feasible job falls back, as for a failed solve.
            assert_eq!(submitted_r(&mut policy, 100.0), cfg.fallback_r);
        }
        assert_eq!(cache.stats().lookups(), 0);
    }

    #[test]
    fn best_active_attempt_prefers_estimates() {
        let task = TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![attempt(0, Some(150.0), 0.9), attempt(1, Some(90.0), 0.1)],
        };
        assert_eq!(
            best_active_attempt(&task).unwrap().attempt,
            AttemptId::new(1)
        );
        let no_estimates = TaskView {
            task: TaskId::new(0),
            completed: false,
            attempts: vec![attempt(0, None, 0.9), attempt(1, None, 0.1)],
        };
        assert_eq!(
            best_active_attempt(&no_estimates).unwrap().attempt,
            AttemptId::new(0)
        );
    }
}
