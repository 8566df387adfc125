//! The joint PoCD / cost objective of Section V.
//!
//! For a chosen strategy and `r` extra attempts the net utility is
//!
//! ```text
//! U(r) = f(R(r) − R_min) − θ·C·E[T(r)]
//! ```
//!
//! where `f` is an increasing concave function (the paper, and this crate,
//! use the base-10 logarithm `lg`, which is proportionally fair), `R_min` is
//! the minimum acceptable PoCD, `θ ≥ 0` trades PoCD against cost, `C` is the
//! per-unit-time VM price and `E[T(r)]` the expected machine time of
//! Theorems 2/4/6. Whenever `R(r) ≤ R_min` the utility is `−∞`.

use crate::cost::CostModel;
use crate::error::ChronosError;
use crate::job::JobProfile;
use crate::pocd::PocdModel;
use crate::strategy::StrategyParams;
use serde::{Deserialize, Serialize};

/// Configuration of the net-utility objective: the tradeoff factor `θ` and
/// the PoCD floor `R_min`.
///
/// # Examples
///
/// ```
/// use chronos_core::prelude::*;
///
/// # fn main() -> Result<(), ChronosError> {
/// let job = JobProfile::builder().build()?;
/// let params = StrategyParams::clone_strategy(80.0);
/// let objective = UtilityModel::new(1e-4, 0.0)?;
/// let net = objective.for_job(&job, &params)?;
/// assert!(net.utility(1)? > f64::NEG_INFINITY);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilityModel {
    theta: f64,
    r_min: f64,
}

impl UtilityModel {
    /// Creates an objective configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InvalidParameter`] if `theta` is negative or
    /// not finite, or if `r_min` is not a probability in `[0, 1)`.
    pub fn new(theta: f64, r_min: f64) -> Result<Self, ChronosError> {
        if !(theta.is_finite() && theta >= 0.0) {
            return Err(ChronosError::invalid("theta", theta, "a finite value >= 0"));
        }
        if !(0.0..1.0).contains(&r_min) {
            return Err(ChronosError::invalid(
                "r_min",
                r_min,
                "a probability in [0, 1)",
            ));
        }
        Ok(UtilityModel { theta, r_min })
    }

    /// The PoCD-vs-cost tradeoff factor `θ`.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The PoCD floor `R_min` below which utility is `−∞`.
    #[must_use]
    pub fn r_min(&self) -> f64 {
        self.r_min
    }

    /// Returns a copy with a different tradeoff factor.
    ///
    /// # Errors
    ///
    /// Same domain checks as [`UtilityModel::new`].
    pub fn with_theta(&self, theta: f64) -> Result<Self, ChronosError> {
        UtilityModel::new(theta, self.r_min)
    }

    /// Returns a copy with a different PoCD floor.
    ///
    /// # Errors
    ///
    /// Same domain checks as [`UtilityModel::new`].
    pub fn with_r_min(&self, r_min: f64) -> Result<Self, ChronosError> {
        UtilityModel::new(self.theta, r_min)
    }

    /// Binds the objective to a concrete job and strategy, producing an
    /// evaluable [`NetUtility`].
    ///
    /// # Errors
    ///
    /// Propagates the strategy/job compatibility checks of
    /// [`PocdModel::new`] and [`CostModel::new`].
    pub fn for_job(
        &self,
        job: &JobProfile,
        params: &StrategyParams,
    ) -> Result<NetUtility, ChronosError> {
        let pocd = PocdModel::new(*job, *params)?;
        let cost = CostModel::new(*job, *params)?;
        Ok(NetUtility {
            pocd,
            cost,
            objective: *self,
        })
    }
}

impl Default for UtilityModel {
    /// The paper's testbed configuration: `θ = 1e-4` and `R_min = 0`
    /// (callers typically replace `R_min` with the Hadoop-NS PoCD).
    fn default() -> Self {
        UtilityModel {
            theta: 1e-4,
            r_min: 0.0,
        }
    }
}

/// One feasible point of the objective: the net utility at some `r` and the
/// PoCD and expected job machine time it was computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Point {
    pub(crate) utility: f64,
    pub(crate) pocd: f64,
    pub(crate) machine_time: f64,
}

/// The net-utility objective bound to one job and one strategy, ready to be
/// evaluated or optimized over `r`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetUtility {
    pocd: PocdModel,
    cost: CostModel,
    objective: UtilityModel,
}

impl NetUtility {
    /// The PoCD closed-form model.
    #[must_use]
    pub fn pocd_model(&self) -> &PocdModel {
        &self.pocd
    }

    /// The machine-time closed-form model.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The objective configuration (θ, R_min).
    #[must_use]
    pub fn objective(&self) -> &UtilityModel {
        &self.objective
    }

    /// Net utility at an integer `r`.
    ///
    /// Returns `f64::NEG_INFINITY` (not an error) when `R(r) ≤ R_min`, which
    /// matches the paper's convention that the utility of a configuration
    /// violating the PoCD floor is unboundedly bad.
    ///
    /// # Errors
    ///
    /// Propagates cost-model failures (infinite expectations, numerical
    /// failures).
    pub fn utility(&self, r: u32) -> Result<f64, ChronosError> {
        self.utility_continuous(f64::from(r))
    }

    /// Net utility on the continuous relaxation of `r`; [`utility`](Self::utility)
    /// is this at integer `r`.
    ///
    /// # Errors
    ///
    /// Propagates cost-model failures (infinite expectations, numerical
    /// failures).
    pub fn utility_continuous(&self, r: f64) -> Result<f64, ChronosError> {
        Ok(self.evaluate(r)?.map_or(f64::NEG_INFINITY, |p| p.utility))
    }

    /// The utility at `r` together with the PoCD and machine time it was
    /// computed from, or `None` when `R(r) ≤ R_min` (utility `−∞`), where
    /// the cost is never evaluated.
    pub(crate) fn evaluate(&self, r: f64) -> Result<Option<Point>, ChronosError> {
        let pocd = self.pocd.pocd_continuous(r);
        let margin = pocd - self.objective.r_min;
        if margin <= 0.0 {
            return Ok(None);
        }
        let machine_time = self.cost.expected_job_machine_time(r)?;
        let price = self.pocd.job().price();
        Ok(Some(Point {
            utility: margin.log10() - self.objective.theta * price * machine_time,
            pocd,
            machine_time,
        }))
    }

    /// PoCD at an integer `r` (Theorems 1/3/5).
    ///
    /// # Errors
    ///
    /// Never fails for models built through [`UtilityModel::for_job`].
    pub fn pocd(&self, r: u32) -> Result<f64, ChronosError> {
        self.pocd.pocd(r)
    }

    /// Expected job machine time at an integer `r` (Theorems 2/4/6).
    ///
    /// # Errors
    ///
    /// Propagates cost-model failures.
    pub fn machine_time(&self, r: u32) -> Result<f64, ChronosError> {
        self.cost.expected_job_machine_time(f64::from(r))
    }

    /// Expected dollar cost (`C · E[T]`) at an integer `r`.
    ///
    /// # Errors
    ///
    /// Propagates cost-model failures.
    pub fn dollar_cost(&self, r: u32) -> Result<f64, ChronosError> {
        self.cost.expected_cost(f64::from(r))
    }

    /// The concavity threshold `Γ_strategy` of Theorem 8 for this objective.
    /// `None` when speculation cannot reduce the failure probability.
    #[must_use]
    pub fn concavity_threshold(&self) -> Option<f64> {
        self.pocd.concavity_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;

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

    fn net(theta: f64, r_min: f64, params: StrategyParams) -> NetUtility {
        UtilityModel::new(theta, r_min)
            .unwrap()
            .for_job(&job(), &params)
            .unwrap()
    }

    #[test]
    fn rejects_bad_configuration() {
        assert!(UtilityModel::new(-1.0, 0.0).is_err());
        assert!(UtilityModel::new(f64::NAN, 0.0).is_err());
        assert!(UtilityModel::new(0.1, 1.0).is_err());
        assert!(UtilityModel::new(0.1, -0.2).is_err());
    }

    #[test]
    fn default_matches_paper_theta() {
        let m = UtilityModel::default();
        assert_eq!(m.theta(), 1e-4);
        assert_eq!(m.r_min(), 0.0);
    }

    #[test]
    fn with_setters() {
        let m = UtilityModel::default();
        assert_eq!(m.with_theta(1e-3).unwrap().theta(), 1e-3);
        assert_eq!(m.with_r_min(0.5).unwrap().r_min(), 0.5);
        assert!(m.with_theta(-2.0).is_err());
    }

    #[test]
    fn utility_is_log_margin_minus_weighted_cost() {
        let params = StrategyParams::clone_strategy(80.0);
        let n = net(1e-4, 0.0, params);
        let r = 2;
        let expected = n.pocd(r).unwrap().log10() - 1e-4 * n.machine_time(r).unwrap();
        assert!((n.utility(r).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn utility_negative_infinity_below_floor() {
        let params = StrategyParams::clone_strategy(80.0);
        // Floor above anything achievable at r = 0 but not at larger r.
        let n = net(1e-4, 0.60, params);
        let u0 = n.utility(0).unwrap();
        let base = n.pocd(0).unwrap();
        assert!(base < 0.60, "baseline PoCD {base}");
        assert_eq!(u0, f64::NEG_INFINITY);
        assert!(n.utility(3).unwrap() > f64::NEG_INFINITY);
    }

    #[test]
    fn larger_theta_penalizes_cost_more() {
        let params = StrategyParams::clone_strategy(80.0);
        let cheap = net(1e-5, 0.0, params);
        let costly = net(1e-3, 0.0, params);
        for r in 0..5 {
            assert!(cheap.utility(r).unwrap() > costly.utility(r).unwrap());
        }
    }

    #[test]
    fn continuous_matches_integer_grid() {
        let params = StrategyParams::resume(40.0, 80.0, 0.3).unwrap();
        let n = net(1e-4, 0.0, params);
        for r in 0..5 {
            assert!(
                (n.utility(r).unwrap() - n.utility_continuous(f64::from(r)).unwrap()).abs() < 1e-12
            );
        }
    }

    #[test]
    fn theorem8_concavity_on_the_tail() {
        // On integers above ⌈Γ⌉ the discrete second difference of U must be
        // non-positive for every strategy.
        for params in [
            StrategyParams::clone_strategy(80.0),
            StrategyParams::restart(40.0, 80.0).unwrap(),
            StrategyParams::resume(40.0, 80.0, 0.3).unwrap(),
        ] {
            let n = net(1e-4, 0.0, params);
            let start = n
                .pocd_model()
                .concave_from()
                .expect("finite threshold for these parameters");
            let us: Vec<f64> = (start..start + 8).map(|r| n.utility(r).unwrap()).collect();
            for w in us.windows(3) {
                let second_diff = w[2] - 2.0 * w[1] + w[0];
                assert!(
                    second_diff <= 1e-9,
                    "{:?}: second difference {second_diff} at window {w:?}",
                    params.kind()
                );
            }
        }
    }

    #[test]
    fn utility_eventually_decreases_in_r() {
        // The cost term grows linearly in r while the PoCD term is bounded,
        // so utility must eventually decrease; this bounds the optimizer's
        // search.
        for params in [
            StrategyParams::clone_strategy(80.0),
            StrategyParams::restart(40.0, 80.0).unwrap(),
            StrategyParams::resume(40.0, 80.0, 0.3).unwrap(),
        ] {
            let n = net(1e-4, 0.0, params);
            assert!(n.utility(40).unwrap() < n.utility(2).unwrap());
        }
    }

    #[test]
    fn accessors_expose_models() {
        let params = StrategyParams::restart(40.0, 80.0).unwrap();
        let n = net(1e-4, 0.0, params);
        assert_eq!(
            n.pocd_model().params().kind(),
            StrategyKind::SpeculativeRestart
        );
        assert_eq!(
            n.cost_model().params().kind(),
            StrategyKind::SpeculativeRestart
        );
        assert_eq!(n.objective().theta(), 1e-4);
        assert!(n.dollar_cost(1).unwrap() > 0.0);
        assert!(n.concavity_threshold().is_some());
    }
}
