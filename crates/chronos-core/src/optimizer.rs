//! Algorithm 1: the hybrid optimizer that selects the number of extra
//! attempts `r` maximizing net utility.
//!
//! Theorem 8 guarantees the objective is concave in `r` above the threshold
//! `Γ_strategy`, and Theorem 9 shows that an exhaustive scan of the
//! integers below `⌈Γ⌉` plus a local search on the concave tail finds the
//! global optimum. The optimizer does both in one upward integer walk: it
//! evaluates `U(0), U(1), …` and keeps the first strict maximum, and once
//! `r ≥ ⌈Γ⌉` it stops at the first drop `U(r+1) < U(r)` from a finite
//! `U(r)`. On a concave sequence nothing past that drop can be larger.
//!
//! The paper's Algorithm 1 phrases the tail search as gradient ascent on a
//! continuous relaxation of `r`, with a gradient threshold η and a
//! backtracking line search (α, ξ). On the integers the gradient is the
//! forward difference `U(r+1) − U(r)`, the step is one attempt, and the
//! stopping rule `|∇U| ≤ η` becomes "the forward difference is negative",
//! so the walk needs none of the three constants. It evaluates every `r`
//! at most once and never probes a fractional `r` it would have to round.

use crate::error::ChronosError;
use crate::job::JobProfile;
use crate::strategy::{StrategyKind, StrategyParams};
use crate::utility::{NetUtility, Point, UtilityModel};
use serde::{Deserialize, Serialize};

/// Tuning knobs of the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Hard upper bound on `r` considered by the search.
    pub r_max: u32,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig { r_max: 64 }
    }
}

impl OptimizerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InvalidParameter`] when `r_max == 0`.
    pub fn validate(&self) -> Result<(), ChronosError> {
        if self.r_max == 0 {
            return Err(ChronosError::invalid("r_max", 0.0, "at least 1"));
        }
        Ok(())
    }
}

/// Result of one optimization run: the chosen `r` and the metrics at it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizationOutcome {
    /// Which strategy was optimized.
    pub strategy: StrategyKind,
    /// The optimal number of extra attempts.
    pub r: u32,
    /// Net utility at the optimum.
    pub utility: f64,
    /// PoCD at the optimum.
    pub pocd: f64,
    /// Expected job machine time at the optimum (seconds of VM time).
    pub machine_time: f64,
    /// Expected dollar cost (`C · E[T]`) at the optimum.
    pub dollar_cost: f64,
}

/// The Chronos optimizer (Algorithm 1).
///
/// # Examples
///
/// ```
/// use chronos_core::prelude::*;
///
/// # fn main() -> Result<(), ChronosError> {
/// let job = JobProfile::builder()
///     .tasks(10)
///     .t_min(20.0)
///     .beta(1.5)
///     .deadline(100.0)
///     .build()?;
/// let objective = UtilityModel::new(1e-4, 0.0)?;
/// let outcome = Optimizer::new(objective)
///     .optimize(&job, &StrategyParams::resume(40.0, 80.0, 0.4)?)?;
/// assert!(outcome.pocd > 0.5);
/// assert!(outcome.utility.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Optimizer {
    objective: UtilityModel,
    config: OptimizerConfig,
}

impl Optimizer {
    /// Creates an optimizer with the default configuration.
    #[must_use]
    pub fn new(objective: UtilityModel) -> Self {
        Optimizer {
            objective,
            config: OptimizerConfig::default(),
        }
    }

    /// Creates an optimizer with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`OptimizerConfig::validate`] failures.
    pub fn with_config(
        objective: UtilityModel,
        config: OptimizerConfig,
    ) -> Result<Self, ChronosError> {
        config.validate()?;
        Ok(Optimizer { objective, config })
    }

    /// The objective configuration this optimizer maximizes.
    #[must_use]
    pub fn objective(&self) -> &UtilityModel {
        &self.objective
    }

    /// The optimizer configuration.
    #[must_use]
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs Algorithm 1 for a single job / strategy pair.
    ///
    /// # Errors
    ///
    /// * [`ChronosError::Infeasible`] when no `r ≤ r_max` achieves
    ///   `R(r) > R_min`.
    /// * Propagated model-construction and numerical failures.
    pub fn optimize(
        &self,
        job: &JobProfile,
        params: &StrategyParams,
    ) -> Result<OptimizationOutcome, ChronosError> {
        let net = self.objective.for_job(job, params)?;
        self.optimize_net(&net)
    }

    /// Runs Algorithm 1 on an already-bound [`NetUtility`] objective.
    ///
    /// # Errors
    ///
    /// Same as [`optimize`](Self::optimize).
    pub fn optimize_net(&self, net: &NetUtility) -> Result<OptimizationOutcome, ChronosError> {
        let r_max = self.config.r_max;
        // Without a threshold speculation cannot reduce the failure
        // probability, so the utility is non-increasing from r = 0.
        let concave_from = net.pocd_model().concave_from().unwrap_or(0);

        let mut best: Option<(u32, Point)> = None;
        let mut previous = f64::NEG_INFINITY;
        for r in 0..=r_max {
            let point = net.evaluate(f64::from(r))?;
            let utility = point.map_or(f64::NEG_INFINITY, |p| p.utility);
            // The first drop on the concave tail (r−1 ≥ ⌈Γ⌉) ends the walk:
            // nothing past it is larger. A drop needs a finite U(r−1), so
            // the −∞ prefix an R_min floor creates is walked through, and
            // exact ties keep walking.
            if r > concave_from && utility < previous {
                break;
            }
            if let Some(point) = point {
                if best.is_none_or(|(_, b)| point.utility > b.utility) {
                    best = Some((r, point));
                }
            }
            previous = utility;
        }

        let (r, point) = best.ok_or_else(|| {
            ChronosError::infeasible(format!(
                "no r in [0, {r_max}] satisfies R(r) > R_min = {}",
                net.objective().r_min()
            ))
        })?;
        Ok(OptimizationOutcome {
            strategy: net.pocd_model().params().kind(),
            r,
            utility: point.utility,
            pocd: point.pocd,
            machine_time: point.machine_time,
            dollar_cost: net.pocd_model().job().price() * point.machine_time,
        })
    }

    /// Optimizes every supplied strategy and returns all outcomes sorted by
    /// descending utility (best first). Strategies that are infeasible for
    /// this job are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::Infeasible`] if *every* strategy is
    /// infeasible; other model errors are propagated immediately.
    pub fn rank_strategies(
        &self,
        job: &JobProfile,
        strategies: &[StrategyParams],
    ) -> Result<Vec<OptimizationOutcome>, ChronosError> {
        let mut outcomes = Vec::with_capacity(strategies.len());
        for params in strategies {
            match self.optimize(job, params) {
                Ok(outcome) => outcomes.push(outcome),
                Err(ChronosError::Infeasible { .. })
                | Err(ChronosError::InconsistentParameters { .. }) => continue,
                Err(other) => return Err(other),
            }
        }
        if outcomes.is_empty() {
            return Err(ChronosError::infeasible(
                "every candidate strategy is infeasible for this job",
            ));
        }
        outcomes.sort_by(|a, b| {
            b.utility
                .partial_cmp(&a.utility)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(outcomes)
    }

    /// Reference implementation: exhaustive search over `0..=r_max`.
    ///
    /// Used by tests and benchmarks to confirm Algorithm 1 returns the same
    /// optimum (Theorem 9) at a fraction of the evaluations.
    ///
    /// # Errors
    ///
    /// Same as [`optimize`](Self::optimize).
    pub fn optimize_exhaustive(
        &self,
        job: &JobProfile,
        params: &StrategyParams,
    ) -> Result<OptimizationOutcome, ChronosError> {
        let net = self.objective.for_job(job, params)?;
        let mut best: Option<(u32, f64)> = None;
        for r in 0..=self.config.r_max {
            let u = net.utility(r)?;
            if u.is_finite() {
                match best {
                    Some((_, bu)) if bu >= u => {}
                    _ => best = Some((r, u)),
                }
            }
        }
        let (r, utility) = best
            .ok_or_else(|| ChronosError::infeasible("no feasible r found by exhaustive search"))?;
        Ok(OptimizationOutcome {
            strategy: params.kind(),
            r,
            utility,
            pocd: net.pocd(r)?,
            machine_time: net.machine_time(r)?,
            dollar_cost: net.dollar_cost(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobProfile {
        JobProfile::builder()
            .tasks(10)
            .t_min(20.0)
            .beta(1.5)
            .deadline(100.0)
            .price(1.0)
            .build()
            .unwrap()
    }

    fn strategies() -> Vec<StrategyParams> {
        vec![
            StrategyParams::clone_strategy(80.0),
            StrategyParams::restart(40.0, 80.0).unwrap(),
            StrategyParams::resume(40.0, 80.0, 0.4).unwrap(),
        ]
    }

    #[test]
    fn config_validation() {
        assert!(OptimizerConfig::default().validate().is_ok());
        let cfg = OptimizerConfig { r_max: 0 };
        assert!(cfg.validate().is_err());
        assert!(Optimizer::with_config(UtilityModel::default(), cfg).is_err());
    }

    #[test]
    fn theorem9_hybrid_matches_exhaustive() {
        let objective = UtilityModel::new(1e-4, 0.0).unwrap();
        let optimizer = Optimizer::new(objective);
        for params in strategies() {
            // The walk reuses the PoCD and machine time it computed at the
            // optimum; the reference recomputes them. They agree bit for bit.
            assert_eq!(
                optimizer.optimize(&job(), &params).unwrap(),
                optimizer.optimize_exhaustive(&job(), &params).unwrap(),
                "{:?}",
                params.kind()
            );
        }
    }

    #[test]
    fn walk_reaches_a_floor_cleared_only_deep_in_the_tail() {
        // ⌈Γ⌉ = 16, but R(r) > R_min = 0.99 only from r = 48 and U keeps
        // rising to r_max. A continuous search bracketed from ⌈Γ⌉ saw only
        // −∞ and reported the job infeasible.
        let job = JobProfile::builder()
            .tasks(10)
            .t_min(1.0)
            .beta(1.5)
            .deadline(1.1)
            .price(1.0)
            .build()
            .unwrap();
        let params = StrategyParams::clone_strategy(0.22);
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.99).unwrap());
        let walk = optimizer.optimize(&job, &params).unwrap();
        assert_eq!(walk, optimizer.optimize_exhaustive(&job, &params).unwrap());
        assert_eq!(walk.r, 64);
        assert!((walk.utility - -2.05703).abs() < 1e-5, "{}", walk.utility);
    }

    #[test]
    fn hybrid_matches_exhaustive_across_thetas_and_deadlines() {
        for theta in [1e-6, 1e-5, 1e-4, 1e-3] {
            for deadline in [60.0, 100.0, 200.0] {
                let job = JobProfile::builder()
                    .tasks(20)
                    .t_min(20.0)
                    .beta(1.4)
                    .deadline(deadline)
                    .build()
                    .unwrap();
                let objective = UtilityModel::new(theta, 0.0).unwrap();
                let optimizer = Optimizer::new(objective);
                for params in [
                    StrategyParams::clone_strategy(0.5 * 20.0),
                    StrategyParams::restart(0.3 * 20.0, 0.8 * 20.0).unwrap(),
                    StrategyParams::resume(0.3 * 20.0, 0.8 * 20.0, 0.3).unwrap(),
                ] {
                    let hybrid = optimizer.optimize(&job, &params).unwrap();
                    let exhaustive = optimizer.optimize_exhaustive(&job, &params).unwrap();
                    assert_eq!(
                        hybrid.r,
                        exhaustive.r,
                        "theta {theta} deadline {deadline} {:?}",
                        params.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn larger_theta_never_increases_optimal_r() {
        // As cost weighs more, the optimizer launches fewer extra attempts
        // (the mechanism behind Figure 5).
        let optimizer_small = Optimizer::new(UtilityModel::new(1e-5, 0.0).unwrap());
        let optimizer_large = Optimizer::new(UtilityModel::new(1e-3, 0.0).unwrap());
        for params in strategies() {
            let small = optimizer_small.optimize(&job(), &params).unwrap();
            let large = optimizer_large.optimize(&job(), &params).unwrap();
            assert!(
                large.r <= small.r,
                "{:?}: r went {} -> {} when theta grew",
                params.kind(),
                small.r,
                large.r
            );
        }
    }

    #[test]
    fn loose_deadline_drives_r_toward_zero() {
        // Non-deadline-sensitive jobs need (almost) no speculation
        // (Section V remark). Clone pays for every task up front, so its
        // optimum collapses to exactly zero; the reactive strategies only pay
        // on the (vanishing) straggler event, so at most one standby attempt
        // survives the optimization.
        let loose = job().with_deadline(5_000.0).unwrap();
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        for params in strategies() {
            let outcome = optimizer.optimize(&loose, &params).unwrap();
            match params.kind() {
                StrategyKind::Clone => assert_eq!(outcome.r, 0),
                _ => assert!(outcome.r <= 1, "{:?}: r = {}", params.kind(), outcome.r),
            }
        }
        // Tight deadlines, by contrast, need speculation.
        let tight = job().with_deadline(60.0).unwrap();
        for params in [
            StrategyParams::clone_strategy(30.0),
            StrategyParams::restart(15.0, 30.0).unwrap(),
        ] {
            let outcome = optimizer.optimize(&tight, &params).unwrap();
            assert!(outcome.r >= 1, "{:?}", params.kind());
        }
    }

    #[test]
    fn infeasible_floor_reported() {
        // R_min practically 1.0 cannot be met with r ≤ 2.
        let objective = UtilityModel::new(1e-4, 0.999_999).unwrap();
        let config = OptimizerConfig { r_max: 1 };
        let optimizer = Optimizer::with_config(objective, config).unwrap();
        let tight = JobProfile::builder()
            .tasks(50)
            .t_min(20.0)
            .beta(1.1)
            .deadline(25.0)
            .build()
            .unwrap();
        let err = optimizer
            .optimize(&tight, &StrategyParams::clone_strategy(10.0))
            .unwrap_err();
        assert!(matches!(err, ChronosError::Infeasible { .. }));
    }

    #[test]
    fn rank_strategies_sorted_and_skips_infeasible() {
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        let mut candidates = strategies();
        // Add a reactive strategy whose estimation point is hopeless for the
        // deadline; it should be silently skipped.
        candidates.push(StrategyParams::restart(95.0, 99.0).unwrap());
        let ranked = optimizer.rank_strategies(&job(), &candidates).unwrap();
        assert_eq!(ranked.len(), 3);
        for pair in ranked.windows(2) {
            assert!(pair[0].utility >= pair[1].utility);
        }
    }

    #[test]
    fn rank_strategies_all_infeasible_errors() {
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        let hopeless = vec![StrategyParams::restart(95.0, 99.0).unwrap()];
        assert!(optimizer.rank_strategies(&job(), &hopeless).is_err());
    }

    #[test]
    fn tail_searches_pass_numerical_failures_up() {
        // τ_est within 2e-6·D of the deadline: the Theorem 4 series would
        // need ~2e7 terms, past its cap.
        let job = JobProfile::builder()
            .tasks(10)
            .t_min(1.0)
            .beta(1.5)
            .deadline(1e6)
            .build()
            .unwrap();
        let params = StrategyParams::restart(1e6 - 2.0, 1e6 - 1.0).unwrap();
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        let err = optimizer.optimize(&job, &params).unwrap_err();
        assert!(
            matches!(err, ChronosError::NumericalFailure { .. }),
            "{err:?}"
        );

        // An infinite expectation is reported as such, as the reference does.
        let heavy = JobProfile::builder()
            .beta(0.8)
            .t_min(20.0)
            .deadline(100.0)
            .build()
            .unwrap();
        let clone = StrategyParams::clone_strategy(80.0);
        for result in [
            optimizer.optimize(&heavy, &clone),
            optimizer.optimize_exhaustive(&heavy, &clone),
        ] {
            assert!(
                matches!(result, Err(ChronosError::InconsistentParameters { .. })),
                "{result:?}"
            );
        }
    }

    #[test]
    fn outcome_reports_consistent_metrics() {
        let optimizer = Optimizer::new(UtilityModel::new(1e-4, 0.0).unwrap());
        let outcome = optimizer
            .optimize(&job(), &StrategyParams::resume(40.0, 80.0, 0.4).unwrap())
            .unwrap();
        let net = UtilityModel::new(1e-4, 0.0)
            .unwrap()
            .for_job(&job(), &StrategyParams::resume(40.0, 80.0, 0.4).unwrap())
            .unwrap();
        assert!((outcome.pocd - net.pocd(outcome.r).unwrap()).abs() < 1e-12);
        assert!((outcome.machine_time - net.machine_time(outcome.r).unwrap()).abs() < 1e-9);
        assert!((outcome.utility - net.utility(outcome.r).unwrap()).abs() < 1e-9);
        assert!(outcome.dollar_cost > 0.0);
    }
}
