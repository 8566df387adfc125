//! The planner: an optimizer bound to a plan cache, solving one request at a
//! time.

use crate::cache::{CacheStats, PlanCache};
use crate::key::ProfileKey;
use chronos_core::{
    ChronosError, JobProfile, OptimizationOutcome, Optimizer, StrategyParams, UtilityModel,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One planning problem: a job class plus the strategy parameters to
/// optimize for it. The objective and optimizer configuration come from the
/// [`Planner`] the request is handed to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// The analytical job profile.
    pub job: JobProfile,
    /// The strategy (kind and timing) to optimize.
    pub params: StrategyParams,
}

impl PlanRequest {
    /// Builds a request.
    #[must_use]
    pub fn new(job: JobProfile, params: StrategyParams) -> Self {
        PlanRequest { job, params }
    }
}

/// Outcome of planning one request: Algorithm 1's optimum, or the
/// analytical error (also memoized — an infeasible job class is proven
/// infeasible once, not once per job).
pub type PlanResult = Result<OptimizationOutcome, ChronosError>;

/// The memoizing strategy planner: an [`Optimizer`] bound to a (possibly
/// shared) [`PlanCache`].
///
/// [`Planner::plan_request`] is a drop-in, bit-identical replacement for
/// `Optimizer::optimize` — same inputs, same outcome, same errors — that
/// pays the closed-form solve once per distinct [`ProfileKey`]. The cache
/// is the only deduplication: a batch is planned by calling
/// [`Planner::plan_request`] once per job, in order, and each key's first
/// lookup is its one miss. The uncached reference is
/// `planner.optimizer().optimize(..)`.
///
/// # Examples
///
/// ```
/// use chronos_plan::prelude::*;
/// use chronos_core::prelude::*;
///
/// # fn main() -> Result<(), ChronosError> {
/// let planner = Planner::new(UtilityModel::new(1e-4, 0.0)?);
/// let job = JobProfile::builder().deadline(100.0).build()?;
/// let params = StrategyParams::resume(40.0, 80.0, 0.3)?;
///
/// let request = PlanRequest::new(job, params);
/// let first = planner.plan_request(&request)?;
/// let again = planner.plan_request(&request)?; // served from the cache
/// assert_eq!(first, again);
/// assert_eq!(planner.stats().misses, 1);
/// assert_eq!(planner.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Planner {
    optimizer: Optimizer,
    cache: Arc<PlanCache>,
}

impl Planner {
    /// A planner over the default optimizer configuration with a fresh
    /// private cache.
    #[must_use]
    pub fn new(objective: UtilityModel) -> Self {
        Planner::from_optimizer(Optimizer::new(objective))
    }

    /// Wraps an existing optimizer with a fresh private cache.
    #[must_use]
    pub fn from_optimizer(optimizer: Optimizer) -> Self {
        Planner::with_cache(optimizer, PlanCache::shared())
    }

    /// Wraps an existing optimizer around a shared cache. Sharing is always
    /// sound: the [`ProfileKey`] covers the objective and optimizer
    /// configuration, so planners with different settings can share one
    /// cache without ever reading each other's entries.
    #[must_use]
    pub fn with_cache(optimizer: Optimizer, cache: Arc<PlanCache>) -> Self {
        Planner { optimizer, cache }
    }

    /// The underlying optimizer.
    #[must_use]
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The cache this planner memoizes into.
    #[must_use]
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Snapshot of the cache counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The canonical cache key of a request under this planner's objective
    /// and configuration.
    #[must_use]
    pub fn key_of(&self, request: &PlanRequest) -> ProfileKey {
        ProfileKey::new(
            &request.job,
            &request.params,
            self.optimizer.objective(),
            self.optimizer.config(),
        )
    }

    /// Plans one request, memoized: a miss runs exactly
    /// `Optimizer::optimize` on the request.
    ///
    /// # Errors
    ///
    /// Exactly the errors of `Optimizer::optimize` for the same inputs
    /// (memoized like successes).
    pub fn plan_request(&self, request: &PlanRequest) -> PlanResult {
        self.cache.get_or_compute(self.key_of(request), || {
            self.optimizer.optimize(&request.job, &request.params)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(deadline: f64) -> JobProfile {
        JobProfile::builder()
            .tasks(10)
            .t_min(20.0)
            .beta(1.5)
            .deadline(deadline)
            .price(1.0)
            .build()
            .unwrap()
    }

    fn planner() -> Planner {
        Planner::new(UtilityModel::new(1e-4, 0.0).unwrap())
    }

    fn plan(planner: &Planner, deadline: f64, params: StrategyParams) -> PlanResult {
        planner.plan_request(&PlanRequest::new(job(deadline), params))
    }

    #[test]
    fn plan_matches_uncached_optimizer_bit_for_bit() {
        // The second case has an infinite machine time at r = 0 (β ≤ 1)
        // under a PoCD floor that r = 0 misses, so the optimum never
        // evaluates r = 0's cost: a plan must not either.
        let heavy = JobProfile::builder()
            .tasks(10)
            .t_min(20.0)
            .beta(0.9)
            .deadline(100.0)
            .price(1.0)
            .build()
            .unwrap();
        for (objective, job) in [
            (UtilityModel::new(1e-4, 0.0).unwrap(), job(100.0)),
            (UtilityModel::new(1e-4, 0.5).unwrap(), heavy),
        ] {
            let planner = Planner::new(objective);
            let optimizer = Optimizer::new(objective);
            for params in [
                StrategyParams::clone_strategy(80.0),
                StrategyParams::restart(40.0, 80.0).unwrap(),
                StrategyParams::resume(40.0, 80.0, 0.4).unwrap(),
            ] {
                let planned = planner.plan_request(&PlanRequest::new(job, params));
                match (planned, optimizer.optimize(&job, &params)) {
                    (Ok(planned), Ok(direct)) => {
                        assert_eq!(planned.r, direct.r);
                        assert_eq!(planned.utility.to_bits(), direct.utility.to_bits());
                        assert_eq!(planned.pocd.to_bits(), direct.pocd.to_bits());
                        assert_eq!(
                            planned.machine_time.to_bits(),
                            direct.machine_time.to_bits()
                        );
                        assert_eq!(planned.dollar_cost.to_bits(), direct.dollar_cost.to_bits());
                    }
                    (Err(planned), Err(direct)) => {
                        assert_eq!(planned.to_string(), direct.to_string());
                    }
                    (planned, direct) => panic!("{params:?}: plan {planned:?} vs {direct:?}"),
                }
            }
        }
    }

    #[test]
    fn repeated_requests_solve_once() {
        let planner = planner();
        let params = StrategyParams::resume(40.0, 80.0, 0.4).unwrap();
        for _ in 0..5 {
            plan(&planner, 100.0, params).unwrap();
        }
        let stats = planner.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn errors_are_memoized_too() {
        // tau_est beyond the deadline: inconsistent for a reactive strategy.
        let planner = planner();
        let params = StrategyParams::restart(95.0, 99.0).unwrap();
        for _ in 0..3 {
            assert!(plan(&planner, 100.0, params).is_err());
        }
        let stats = planner.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn shared_cache_spans_planners() {
        let cache = PlanCache::shared();
        let a = Planner::with_cache(
            Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap()),
            Arc::clone(&cache),
        );
        let b = Planner::with_cache(
            Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap()),
            Arc::clone(&cache),
        );
        let params = StrategyParams::clone_strategy(80.0);
        plan(&a, 100.0, params).unwrap();
        plan(&b, 100.0, params).unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);

        // A planner with a different objective shares storage but never
        // entries: the key covers θ.
        let other = Planner::with_cache(
            Optimizer::new(UtilityModel::new(1e-3, 0.0).unwrap()),
            Arc::clone(&cache),
        );
        plan(&other, 100.0, params).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }
}
