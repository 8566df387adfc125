//! Algorithm 1: the hybrid optimizer that selects the number of extra
//! attempts `r` maximizing net utility.
//!
//! Theorem 8 guarantees the objective is concave in `r` above the threshold
//! `Γ_strategy`, so the optimizer runs a continuous line search on the tail
//! `r ≥ ⌈Γ⌉` and an exhaustive scan over the (few) integers below the
//! threshold, then returns the better of the two — which Theorem 9 shows is
//! the global optimum.

use crate::error::ChronosError;
use crate::job::JobProfile;
use crate::numeric::{central_difference, golden_section_max};
use crate::strategy::{StrategyKind, StrategyParams};
use crate::utility::{NetUtility, UtilityModel};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Which continuous search backend drives the concave-tail phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchMethod {
    /// Golden-section search over the bracketed concave region (robust
    /// default; does not require derivative estimates).
    GoldenSection,
    /// Gradient ascent with backtracking line search, following Algorithm 1
    /// as printed in the paper (η/α/ξ parameters of [`OptimizerConfig`]).
    GradientAscent,
}

/// Tuning knobs of the optimizer.
///
/// `eta`, `alpha` and `xi` correspond to the η, α and ξ constants of
/// Algorithm 1 and only affect the [`SearchMethod::GradientAscent`] backend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Continuous search backend for the concave tail.
    pub method: SearchMethod,
    /// Gradient-norm stopping threshold η of Algorithm 1.
    pub eta: f64,
    /// Sufficient-decrease constant α of the backtracking line search.
    pub alpha: f64,
    /// Backtracking shrink factor ξ ∈ (0, 1).
    pub xi: f64,
    /// Hard upper bound on `r` considered by the search.
    pub r_max: u32,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            method: SearchMethod::GoldenSection,
            eta: 1e-6,
            alpha: 0.3,
            xi: 0.5,
            r_max: 64,
        }
    }
}

impl OptimizerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InvalidParameter`] for non-positive `eta`,
    /// `alpha` outside `(0, 1)`, `xi` outside `(0, 1)` or `r_max == 0`.
    pub fn validate(&self) -> Result<(), ChronosError> {
        if !(self.eta.is_finite() && self.eta > 0.0) {
            return Err(ChronosError::invalid("eta", self.eta, "a finite value > 0"));
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ChronosError::invalid(
                "alpha",
                self.alpha,
                "a value in (0, 1)",
            ));
        }
        if !(self.xi > 0.0 && self.xi < 1.0) {
            return Err(ChronosError::invalid("xi", self.xi, "a value in (0, 1)"));
        }
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
        let gamma = net.pocd_model().concave_from();

        let mut best: Option<(u32, f64)> = None;
        let consider = |r: u32, utility: f64, best: &mut Option<(u32, f64)>| {
            if utility.is_finite() {
                match best {
                    Some((_, u)) if *u >= utility => {}
                    _ => *best = Some((r, utility)),
                }
            }
        };

        match gamma {
            None => {
                // Speculation cannot reduce the failure probability; the
                // utility is non-increasing in r, so scanning a handful of
                // small values suffices.
                for r in 0..=r_max.min(4) {
                    let u = net.utility(r)?;
                    consider(r, u, &mut best);
                }
            }
            Some(gamma_ceil) => {
                let gamma_ceil = gamma_ceil.min(r_max);
                // Phase 2 of Algorithm 1 (run first here, it is cheap):
                // exhaustively evaluate the non-concave head r < ⌈Γ⌉, plus
                // ⌈Γ⌉ itself.
                for r in 0..=gamma_ceil {
                    let u = net.utility(r)?;
                    consider(r, u, &mut best);
                }
                // Phase 1: continuous search on the concave tail.
                let lo = f64::from(gamma_ceil);
                let hi = f64::from(self.bracket_upper_bound(net, gamma_ceil)?);
                let peak = match self.config.method {
                    SearchMethod::GoldenSection => self.golden_peak(net, lo, hi)?,
                    SearchMethod::GradientAscent => self.gradient_peak(net, lo, hi)?,
                };
                // The integer optimum on a concave function is at ⌊x*⌋ or ⌈x*⌉.
                for candidate in [peak.floor(), peak.ceil()] {
                    if candidate >= 0.0 && candidate <= f64::from(r_max) {
                        let r = candidate as u32;
                        let u = net.utility(r)?;
                        consider(r, u, &mut best);
                    }
                }
            }
        }

        let (r, utility) = best.ok_or_else(|| {
            ChronosError::infeasible(format!(
                "no r in [0, {r_max}] satisfies R(r) > R_min = {}",
                net.objective().r_min()
            ))
        })?;
        Ok(OptimizationOutcome {
            strategy: net.pocd_model().params().kind(),
            r,
            utility,
            pocd: net.pocd(r)?,
            machine_time: net.machine_time(r)?,
            dollar_cost: net.dollar_cost(r)?,
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

    /// Finds an upper bracket for the concave-tail search by doubling the
    /// step until the utility drops below its value at the bracket start
    /// (concavity then guarantees the maximum lies inside).
    fn bracket_upper_bound(&self, net: &NetUtility, start: u32) -> Result<u32, ChronosError> {
        let r_max = self.config.r_max;
        let u_start = net.utility(start)?;
        let mut step = 1u32;
        let mut current = start;
        while current < r_max {
            let next = current.saturating_add(step).min(r_max);
            let u_next = net.utility(next)?;
            if u_next < u_start || next == r_max {
                return Ok(next);
            }
            current = next;
            step = step.saturating_mul(2);
        }
        Ok(r_max)
    }

    fn golden_peak(&self, net: &NetUtility, lo: f64, hi: f64) -> Result<f64, ChronosError> {
        if hi <= lo {
            return Ok(lo);
        }
        let failure = Cell::new(None);
        let peak = golden_section_max(|r| searched_utility(net, r, &failure), lo, hi, 1e-4)?;
        failure.into_inner().map_or(Ok(peak), Err)
    }

    /// Gradient ascent with backtracking, transcribing the loop of
    /// Algorithm 1 onto the continuous relaxation.
    fn gradient_peak(&self, net: &NetUtility, lo: f64, hi: f64) -> Result<f64, ChronosError> {
        let failure = Cell::new(None);
        let f = |r: f64| searched_utility(net, r, &failure);
        let mut r = lo.max(0.0);
        let h = 1e-4;
        for _ in 0..200 {
            let grad = central_difference(f, r.max(h), h);
            if grad.abs() <= self.config.eta {
                break;
            }
            // Ascent direction Δr = ∇U(r); backtrack until the Armijo
            // condition U(r + εΔr) > U(r) + α·ε·∇U(r)·Δr holds.
            let delta = grad;
            let mut eps = 1.0;
            let current = f(r);
            let mut accepted = false;
            for _ in 0..60 {
                let candidate = (r + eps * delta).clamp(lo, hi);
                if f(candidate) > current + self.config.alpha * eps * grad * delta {
                    r = candidate;
                    accepted = true;
                    break;
                }
                eps *= self.config.xi;
            }
            if !accepted {
                break;
            }
        }
        failure.into_inner().map_or(Ok(r.clamp(lo, hi)), Err)
    }
}

/// The objective the continuous tail searches maximize. An infinite
/// expectation ([`ChronosError::InconsistentParameters`]) is an unboundedly
/// bad point and reads as `−∞`. Any other error also reads as `−∞`, and the
/// first one is kept in `failure` for the search to return.
fn searched_utility(net: &NetUtility, r: f64, failure: &Cell<Option<ChronosError>>) -> f64 {
    match net.utility_continuous(r) {
        Ok(utility) => utility,
        Err(ChronosError::InconsistentParameters { .. }) => f64::NEG_INFINITY,
        Err(err) => {
            let first = failure.take().unwrap_or(err);
            failure.set(Some(first));
            f64::NEG_INFINITY
        }
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
        let mut cfg = OptimizerConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.eta = 0.0;
        assert!(cfg.validate().is_err());
        cfg = OptimizerConfig::default();
        cfg.alpha = 1.5;
        assert!(cfg.validate().is_err());
        cfg = OptimizerConfig::default();
        cfg.xi = 0.0;
        assert!(cfg.validate().is_err());
        cfg = OptimizerConfig::default();
        cfg.r_max = 0;
        assert!(cfg.validate().is_err());
        assert!(Optimizer::with_config(UtilityModel::default(), cfg).is_err());
    }

    #[test]
    fn theorem9_hybrid_matches_exhaustive() {
        let objective = UtilityModel::new(1e-4, 0.0).unwrap();
        let optimizer = Optimizer::new(objective);
        for params in strategies() {
            let hybrid = optimizer.optimize(&job(), &params).unwrap();
            let exhaustive = optimizer.optimize_exhaustive(&job(), &params).unwrap();
            assert_eq!(hybrid.r, exhaustive.r, "{:?}", params.kind());
            assert!((hybrid.utility - exhaustive.utility).abs() < 1e-9);
        }
    }

    #[test]
    fn gradient_backend_matches_exhaustive() {
        let objective = UtilityModel::new(1e-4, 0.0).unwrap();
        let config = OptimizerConfig {
            method: SearchMethod::GradientAscent,
            ..OptimizerConfig::default()
        };
        let optimizer = Optimizer::with_config(objective, config).unwrap();
        for params in strategies() {
            let hybrid = optimizer.optimize(&job(), &params).unwrap();
            let exhaustive = optimizer.optimize_exhaustive(&job(), &params).unwrap();
            assert_eq!(hybrid.r, exhaustive.r, "{:?}", params.kind());
        }
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
        let config = OptimizerConfig {
            r_max: 1,
            ..OptimizerConfig::default()
        };
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
        let objective = UtilityModel::new(1e-4, 0.0).unwrap();
        let net = objective.for_job(&job, &params).unwrap();
        let failure = Cell::new(None);
        assert_eq!(searched_utility(&net, 1.5, &failure), f64::NEG_INFINITY);
        assert!(matches!(
            failure.take(),
            Some(ChronosError::NumericalFailure { .. })
        ));
        for method in [SearchMethod::GoldenSection, SearchMethod::GradientAscent] {
            let config = OptimizerConfig {
                method,
                ..OptimizerConfig::default()
            };
            let optimizer = Optimizer::with_config(objective, config).unwrap();
            let peak = match method {
                SearchMethod::GoldenSection => optimizer.golden_peak(&net, 0.0, 4.0),
                SearchMethod::GradientAscent => optimizer.gradient_peak(&net, 0.0, 4.0),
            };
            assert!(
                matches!(peak, Err(ChronosError::NumericalFailure { .. })),
                "{method:?}: {peak:?}"
            );
        }

        // An infinite expectation is an unboundedly bad point, not a failure.
        let heavy = JobProfile::builder()
            .beta(0.8)
            .t_min(20.0)
            .deadline(100.0)
            .build()
            .unwrap();
        let net = objective
            .for_job(&heavy, &StrategyParams::clone_strategy(80.0))
            .unwrap();
        assert_eq!(searched_utility(&net, 0.1, &failure), f64::NEG_INFINITY);
        assert!(failure.take().is_none());
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
