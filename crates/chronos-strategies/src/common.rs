//! Shared machinery for the Chronos strategies: per-job optimization of the
//! number of extra attempts `r`, the straggler test and the reactive
//! strategies' `τ_kill` pruning.

use crate::timing::StrategyTiming;
use chronos_core::prelude::*;
use chronos_plan::{CacheStats, Plan, PlanCache, PlanRequest, Planner};
use chronos_sim::prelude::{AttemptView, JobSubmitView, JobView, PolicyAction, SimError, TaskView};
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

    /// Builds the analytical job profile corresponding to a submitted job.
    ///
    /// # Errors
    ///
    /// Propagates profile validation failures (e.g. a deadline not exceeding
    /// `t_min`, for which no strategy can be optimized).
    pub fn job_profile(&self, job: &JobSubmitView) -> Result<JobProfile, ChronosError> {
        JobProfile::builder()
            .tasks(job.task_count.max(1))
            .t_min(job.profile.t_min())
            .beta(job.profile.beta())
            .deadline(job.deadline_secs)
            .price(job.price)
            .build()
    }

    /// Runs Algorithm 1 for the given strategy kind on a submitted job and
    /// returns the optimal `r`, falling back to `fallback_r` when the
    /// problem is infeasible or the timing is incompatible with the job.
    /// When [`fixed_r`](Self::fixed_r) is set it is returned directly.
    #[must_use]
    pub fn optimize_r(&self, job: &JobSubmitView, kind: StrategyKind) -> u32 {
        if let Some(fixed) = self.fixed_r {
            return fixed;
        }
        self.try_optimize_r(job, kind).unwrap_or(self.fallback_r)
    }

    /// Same as [`optimize_r`](Self::optimize_r) but surfacing errors, for
    /// callers that want to distinguish infeasible jobs.
    ///
    /// # Errors
    ///
    /// Propagates profile construction, strategy validation and optimizer
    /// failures.
    pub fn try_optimize_r(
        &self,
        job: &JobSubmitView,
        kind: StrategyKind,
    ) -> Result<u32, ChronosError> {
        let profile = self.job_profile(job)?;
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
        let optimizer = Optimizer::with_config(self.objective, self.optimizer)?;
        Ok(optimizer.optimize(&profile, &params)?.r)
    }
}

impl Default for ChronosPolicyConfig {
    fn default() -> Self {
        ChronosPolicyConfig::testbed()
    }
}

/// How a [`PolicyPlanner`] executes its optimizations.
#[derive(Debug, Clone)]
enum PlanBackend {
    /// Unmemoized: every call rebuilds the models and re-runs Algorithm 1,
    /// exactly like [`ChronosPolicyConfig::try_optimize_r`]. The reference
    /// the memoized paths are bit-compared against.
    Direct,
    /// Memoized through a `chronos-plan` [`Planner`] (private or shared
    /// cache).
    Planned(Planner),
    /// The optimizer configuration failed validation; every planning
    /// attempt reproduces that error, matching the direct path's behaviour
    /// for an invalid configuration.
    Broken(ChronosError),
}

/// The planning front-end shared by the three Chronos strategies: turns
/// submit-time job views into `chronos-plan` requests, memoizes the solved
/// plans (per-policy or across policies/shards via a shared
/// [`PlanCache`]), and resolves errors to the configured fallback `r`
/// exactly like the historical per-job path.
///
/// # Examples
///
/// ```
/// use chronos_strategies::prelude::*;
/// use chronos_sim::prelude::PlanCache;
///
/// let cache = PlanCache::shared();
/// let planner = PolicyPlanner::with_cache(ChronosPolicyConfig::testbed(), cache);
/// assert_eq!(planner.cache_stats().unwrap().lookups(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PolicyPlanner {
    config: ChronosPolicyConfig,
    backend: PlanBackend,
}

impl PolicyPlanner {
    /// A memoizing planner with a fresh private cache: plans are reused
    /// across the jobs this policy instance sees, but not across policies
    /// or shards.
    #[must_use]
    pub fn new(config: ChronosPolicyConfig) -> Self {
        PolicyPlanner::with_shared(config, None)
    }

    /// A memoizing planner over a shared cache: every policy (and every
    /// shard's policy instance) handed a clone of the same `Arc` reuses one
    /// plan per distinct job profile.
    #[must_use]
    pub fn with_cache(config: ChronosPolicyConfig, cache: Arc<PlanCache>) -> Self {
        PolicyPlanner::with_shared(config, Some(cache))
    }

    /// An unmemoized planner: the bit-identical reference path (used by the
    /// scale tests to prove memoization changes wall-clock only).
    #[must_use]
    pub fn uncached(config: ChronosPolicyConfig) -> Self {
        PolicyPlanner {
            config,
            backend: PlanBackend::Direct,
        }
    }

    fn with_shared(config: ChronosPolicyConfig, cache: Option<Arc<PlanCache>>) -> Self {
        let backend = match Optimizer::with_config(config.objective, config.optimizer) {
            Ok(optimizer) => PlanBackend::Planned(match cache {
                Some(cache) => Planner::with_cache(optimizer, cache),
                None => Planner::from_optimizer(optimizer),
            }),
            Err(err) => PlanBackend::Broken(err),
        };
        PolicyPlanner { config, backend }
    }

    /// The policy configuration this planner optimizes under.
    #[must_use]
    pub fn config(&self) -> &ChronosPolicyConfig {
        &self.config
    }

    /// Counter snapshot of the backing cache (`None` for the uncached
    /// reference backend).
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match &self.backend {
            PlanBackend::Planned(planner) => Some(planner.stats()),
            _ => None,
        }
    }

    /// The plan request corresponding to a submitted job under `kind`: the
    /// analytical profile plus the resolved strategy timing.
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
        let profile = self.config.job_profile(job)?;
        let (tau_est, tau_kill) = self.config.timing.resolve(job.profile.t_min());
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

    /// Plans one submitted job, memoized (unless this is the uncached
    /// reference backend). The plan's outcome is bit-identical to
    /// [`ChronosPolicyConfig::try_optimize_r`] on the same inputs.
    ///
    /// # Errors
    ///
    /// Any planner error is returned as a [`SimError`] that names the job
    /// id (via [`SimError::with_context`]), so a surfaced planning failure
    /// is always attributable to its job.
    pub fn try_plan(&self, job: &JobSubmitView, kind: StrategyKind) -> Result<Plan, SimError> {
        let named = |err: ChronosError| {
            SimError::from(err).with_context(format_args!("planning {}", job.job))
        };
        let request = self.request_for(job, kind).map_err(named)?;
        match &self.backend {
            PlanBackend::Direct => {
                // The one definition of an uncached solve lives in
                // chronos-plan; rebuilding the optimizer per call preserves
                // the legacy per-submission cost profile this backend is
                // the reference for.
                let optimizer =
                    Optimizer::with_config(self.config.objective, self.config.optimizer)
                        .map_err(named)?;
                Planner::from_optimizer(optimizer)
                    .solve_uncached(&request)
                    .map_err(named)
            }
            PlanBackend::Planned(planner) => planner.plan_request(&request).map_err(named),
            PlanBackend::Broken(err) => Err(named(err.clone())),
        }
    }

    /// The `r` a policy should use for a submitted job: the forced
    /// [`ChronosPolicyConfig::fixed_r`] when set, the planned optimum when
    /// the problem is solvable, and [`ChronosPolicyConfig::fallback_r`]
    /// otherwise — element-for-element identical to the historical
    /// [`ChronosPolicyConfig::optimize_r`] path.
    #[must_use]
    pub fn optimize_r(&self, job: &JobSubmitView, kind: StrategyKind) -> u32 {
        if let Some(fixed) = self.config.fixed_r {
            return fixed;
        }
        self.try_plan(job, kind)
            .map(|plan| plan.outcome.r)
            .unwrap_or(self.config.fallback_r)
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
    use chronos_core::Pareto;
    use chronos_sim::prelude::{AttemptId, JobId, SimTime, TaskId};

    fn submit_view(deadline: f64) -> JobSubmitView {
        JobSubmitView {
            job: JobId::new(0),
            task_count: 10,
            deadline_secs: deadline,
            price: 1.0,
            profile: Pareto::new(20.0, 1.5).unwrap(),
        }
    }

    #[test]
    fn profiles_built_from_submit_view() {
        let cfg = ChronosPolicyConfig::testbed();
        let profile = cfg.job_profile(&submit_view(100.0)).unwrap();
        assert_eq!(profile.tasks(), 10);
        assert_eq!(profile.t_min(), 20.0);
        assert_eq!(profile.deadline(), 100.0);
        assert!(cfg.job_profile(&submit_view(10.0)).is_err());
    }

    #[test]
    fn optimization_returns_positive_r_for_tight_deadlines() {
        let cfg = ChronosPolicyConfig::testbed();
        for kind in StrategyKind::ALL {
            let r = cfg.optimize_r(&submit_view(100.0), kind);
            assert!(r >= 1, "{kind}: {r}");
            assert!(r <= 16, "{kind}: {r}");
        }
    }

    #[test]
    fn infeasible_jobs_fall_back() {
        // Deadline barely above t_min: the reactive timings (τ_est = 40 s)
        // exceed the deadline, so the strategy validation fails and the
        // fallback is used.
        let cfg = ChronosPolicyConfig::testbed();
        let r = cfg.optimize_r(&submit_view(21.0), StrategyKind::SpeculativeRestart);
        assert_eq!(r, cfg.fallback_r);
        assert!(cfg
            .try_optimize_r(&submit_view(21.0), StrategyKind::SpeculativeRestart)
            .is_err());
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
            assert_eq!(cfg.optimize_r(&submit_view(100.0), kind), 7);
        }
        // Even infeasible jobs use the forced value.
        assert_eq!(
            cfg.optimize_r(&submit_view(21.0), StrategyKind::SpeculativeRestart),
            7
        );
    }

    #[test]
    fn larger_theta_shrinks_r() {
        let small = ChronosPolicyConfig::with_theta(1e-5).unwrap();
        let large = ChronosPolicyConfig::with_theta(1e-3).unwrap();
        for kind in StrategyKind::ALL {
            let r_small = small.optimize_r(&submit_view(100.0), kind);
            let r_large = large.optimize_r(&submit_view(100.0), kind);
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
        // All three backends must agree with ChronosPolicyConfig::optimize_r
        // on every job and strategy — memoization is wall-clock only.
        let cfg = ChronosPolicyConfig::testbed();
        let cache = PlanCache::shared();
        let planners = [
            PolicyPlanner::new(cfg),
            PolicyPlanner::with_cache(cfg, Arc::clone(&cache)),
            PolicyPlanner::uncached(cfg),
        ];
        for deadline in [21.0, 60.0, 100.0, 300.0] {
            for kind in StrategyKind::ALL {
                let legacy = cfg.optimize_r(&submit_view(deadline), kind);
                for planner in &planners {
                    assert_eq!(
                        planner.optimize_r(&submit_view(deadline), kind),
                        legacy,
                        "deadline {deadline}, {kind}"
                    );
                }
            }
        }
        // The shared-cache planner actually memoized that sweep.
        let stats = cache.stats();
        assert!(stats.misses > 0);
        assert_eq!(stats.entries, stats.misses);
    }

    #[test]
    fn policy_planner_memoizes_repeated_profiles() {
        let planner = PolicyPlanner::new(ChronosPolicyConfig::testbed());
        for _ in 0..10 {
            let _ = planner.optimize_r(&submit_view(100.0), StrategyKind::SpeculativeResume);
        }
        let stats = planner.cache_stats().unwrap();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
        assert!(PolicyPlanner::uncached(ChronosPolicyConfig::testbed())
            .cache_stats()
            .is_none());
    }

    #[test]
    fn planner_errors_name_the_job_id() {
        // Deadline 21 s with t_min 20 s: the reactive timing is impossible,
        // and the surfaced error must say which job could not be planned.
        let planner = PolicyPlanner::new(ChronosPolicyConfig::testbed());
        let err = planner
            .try_plan(&submit_view(21.0), StrategyKind::SpeculativeRestart)
            .unwrap_err();
        assert!(err.to_string().contains("planning job-0"), "{err}");
        // Errors resolve to the fallback, exactly like the legacy path.
        assert_eq!(
            planner.optimize_r(&submit_view(21.0), StrategyKind::SpeculativeRestart),
            ChronosPolicyConfig::testbed().fallback_r
        );
    }

    #[test]
    fn fixed_r_bypasses_the_planner_cache() {
        let planner = PolicyPlanner::new(ChronosPolicyConfig::testbed().with_fixed_r(5));
        assert_eq!(
            planner.optimize_r(&submit_view(100.0), StrategyKind::Clone),
            5
        );
        assert_eq!(planner.cache_stats().unwrap().lookups(), 0);
    }

    #[test]
    fn broken_optimizer_config_reproduces_the_validation_error() {
        let mut cfg = ChronosPolicyConfig::testbed();
        cfg.optimizer.r_max = 0;
        let planner = PolicyPlanner::new(cfg);
        let err = planner
            .try_plan(&submit_view(100.0), StrategyKind::Clone)
            .unwrap_err();
        assert!(err.to_string().contains("r_max"), "{err}");
        assert!(err.to_string().contains("planning job-0"), "{err}");
        // And the fallback applies, as on the legacy path.
        assert_eq!(
            planner.optimize_r(&submit_view(100.0), StrategyKind::Clone),
            cfg.fallback_r
        );
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
