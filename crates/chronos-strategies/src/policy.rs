//! The Chronos policy (Section III / VI): one Application Master for Clone,
//! Speculative-Restart and Speculative-Resume. The three share Algorithm 1,
//! which takes the strategy as a parameter; they differ only in the
//! extra attempts launched at submission and in the actions taken at the
//! check points (see the `clone`, `restart` and `resume` modules).

use crate::common::{prune_to_fastest, ChronosPolicyConfig};
use crate::{clone, restart, resume};
use chronos_core::{ChronosError, StrategyKind};
use chronos_plan::{PlanRequest, Planner};
use chronos_sim::prelude::{
    CheckOffsets, CheckSchedule, JobSubmitView, JobView, PlanCache, PolicyAction,
    SpeculationPolicy, SubmitDecision,
};
use std::sync::Arc;

/// A Chronos strategy: at job submission it runs Algorithm 1 for its
/// [`StrategyKind`] to pick the number of extra attempts `r`, then acts at
/// the strategy's check points.
///
/// * **Clone** launches `r` extra copies of every task alongside the
///   original and, at `τ_kill`, keeps the attempt with the best progress.
/// * **Speculative-Restart** launches one attempt per task; at `τ_est` every
///   task whose estimated completion (Eq. 30) misses the deadline gets `r`
///   extra attempts from byte zero, and at `τ_kill` the attempt with the
///   earliest estimated completion survives.
/// * **Speculative-Resume** detects stragglers the same way but kills them
///   and launches `r + 1` attempts that resume from the Eq. 31 offset, so
///   no work is reprocessed; `τ_kill` prunes as for Restart.
///
/// The policy keeps no per-job state: the `r` of a job reaches its checks
/// as [`JobView::chosen_r`], which the engine fills from the submit
/// decision.
///
/// # Examples
///
/// ```
/// use chronos_core::StrategyKind;
/// use chronos_strategies::prelude::*;
///
/// let config = ChronosPolicyConfig::testbed();
/// for (kind, name) in [
///     (StrategyKind::Clone, "clone"),
///     (StrategyKind::SpeculativeRestart, "s-restart"),
///     (StrategyKind::SpeculativeResume, "s-resume"),
/// ] {
///     assert_eq!(ChronosPolicy::new(kind, config).name(), name);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ChronosPolicy {
    config: ChronosPolicyConfig,
    kind: StrategyKind,
    /// The policy's planner, or the optimizer-validation error of an
    /// invalid configuration (every job then gets `fallback_r`).
    planner: Result<Planner, ChronosError>,
    /// `false` for the unmemoized reference: solves bypass the cache.
    cached: bool,
}

impl ChronosPolicy {
    /// Creates the policy for `kind` with the given Chronos configuration.
    /// Plans are memoized per policy instance; use
    /// [`ChronosPolicy::with_cache`] to share them across policies and
    /// shards.
    #[must_use]
    pub fn new(kind: StrategyKind, config: ChronosPolicyConfig) -> Self {
        ChronosPolicy::with_cache(kind, config, PlanCache::shared())
    }

    /// Creates the policy over a shared plan cache: every policy instance
    /// handed a clone of the same `Arc` (e.g. one per shard of a sharded
    /// replay) solves each distinct job profile once, cluster-wide.
    #[must_use]
    pub fn with_cache(
        kind: StrategyKind,
        config: ChronosPolicyConfig,
        cache: Arc<PlanCache>,
    ) -> Self {
        ChronosPolicy {
            config,
            kind,
            planner: config.planner(cache),
            cached: true,
        }
    }

    /// Creates the policy with memoization disabled: every job is solved
    /// by the planner's `Optimizer::optimize`, bypassing the cache. This is
    /// the bit-identical reference path the scale tests compare the cached
    /// paths against.
    #[must_use]
    pub fn uncached(kind: StrategyKind, config: ChronosPolicyConfig) -> Self {
        ChronosPolicy {
            cached: false,
            ..ChronosPolicy::new(kind, config)
        }
    }

    /// The configuration this policy optimizes with.
    #[must_use]
    pub fn config(&self) -> &ChronosPolicyConfig {
        &self.config
    }

    /// The plan request of a submitted job under this policy's strategy.
    pub(crate) fn request_for(&self, job: &JobSubmitView) -> Result<PlanRequest, ChronosError> {
        self.config.request_for(job, self.kind)
    }

    /// The planner this policy solves through, or its configuration's
    /// validation error.
    pub(crate) fn planner(&self) -> Result<&Planner, ChronosError> {
        self.planner.as_ref().map_err(Clone::clone)
    }

    /// The `r` for a submitted job: the forced
    /// [`ChronosPolicyConfig::fixed_r`] when set, the planned optimum when
    /// the problem is solvable, and [`ChronosPolicyConfig::fallback_r`]
    /// otherwise.
    fn r_for(&self, job: &JobSubmitView) -> u32 {
        if let Some(fixed) = self.config.fixed_r {
            return fixed;
        }
        let outcome = self.planner().and_then(|planner| {
            let request = self.request_for(job)?;
            if self.cached {
                planner.plan_request(&request)
            } else {
                planner.optimizer().optimize(&request.job, &request.params)
            }
        });
        outcome.map_or(self.config.fallback_r, |outcome| outcome.r)
    }

    /// The submit decision for a job given `r` extra attempts: Clone
    /// launches them at submission, the reactive strategies at `τ_est`.
    pub(crate) fn decision(&self, r: u32) -> SubmitDecision {
        SubmitDecision {
            extra_clones_per_task: match self.kind {
                StrategyKind::Clone => r,
                StrategyKind::SpeculativeRestart | StrategyKind::SpeculativeResume => 0,
            },
            reported_r: Some(r),
        }
    }
}

impl SpeculationPolicy for ChronosPolicy {
    fn name(&self) -> &str {
        self.kind.label()
    }

    fn on_job_submit(&mut self, job: &JobSubmitView) -> SubmitDecision {
        self.decision(self.r_for(job))
    }

    fn check_schedule(&self, job: &JobSubmitView) -> CheckSchedule {
        let (tau_est, tau_kill) = self.config().timing.resolve(job.profile.t_min());
        CheckSchedule::AtOffsets(match self.kind {
            StrategyKind::Clone => CheckOffsets::from([tau_kill]),
            StrategyKind::SpeculativeRestart | StrategyKind::SpeculativeResume => {
                CheckOffsets::from([tau_est, tau_kill])
            }
        })
    }

    fn on_check(&mut self, view: &JobView) -> Vec<PolicyAction> {
        let r = view.chosen_r.unwrap_or(self.config().fallback_r);
        match (self.kind, view.check_index) {
            (StrategyKind::Clone, _) => clone::prune_to_best_progress(view),
            (StrategyKind::SpeculativeRestart, 0) => restart::detect_and_speculate(view, r),
            (StrategyKind::SpeculativeResume, 0) => resume::replace_stragglers(view, r),
            _ => prune_to_fastest(view),
        }
    }
}
