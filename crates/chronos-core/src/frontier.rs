//! PoCD / cost tradeoff frontier (Section V discussion).
//!
//! The paper notes that the optimal tradeoff frontier "can be employed to
//! determine user's budget for desired PoCD performance, and vice versa".
//! This module sweeps `r` for a strategy and exposes the frontier as a list
//! of `(r, PoCD, machine time, cost)` points, plus helpers that answer the
//! two planning questions directly:
//!
//! * [`Frontier::cheapest_for_pocd`] — the minimum budget achieving a PoCD
//!   target (for SLA pricing), and
//! * [`Frontier::best_pocd_within_budget`] — the best PoCD attainable under
//!   a machine-time budget.

use crate::cost::CostModel;
use crate::error::ChronosError;
use crate::job::JobProfile;
use crate::pocd::PocdModel;
use crate::strategy::StrategyParams;
use serde::{Deserialize, Serialize};

/// One point on the PoCD / cost frontier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Number of extra attempts at this point.
    pub r: u32,
    /// Job-level PoCD (Theorems 1/3/5).
    pub pocd: f64,
    /// Expected job machine time in seconds of VM time (Theorems 2/4/6).
    pub machine_time: f64,
    /// Expected dollar cost (`C · E[T]`).
    pub dollar_cost: f64,
}

/// The tradeoff frontier of a job under a single strategy, for
/// `r = 0 … r_max`.
///
/// # Examples
///
/// ```
/// use chronos_core::prelude::*;
/// use chronos_core::frontier::Frontier;
///
/// # fn main() -> Result<(), ChronosError> {
/// let job = JobProfile::builder().deadline(100.0).build()?;
/// let frontier = Frontier::sweep(&job, &StrategyParams::clone_strategy(80.0), 8)?;
/// let target = frontier.cheapest_for_pocd(0.95);
/// assert!(target.is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frontier {
    params: StrategyParams,
    points: Vec<FrontierPoint>,
}

impl Frontier {
    /// Evaluates PoCD and cost for every `r` in `0..=r_max`.
    ///
    /// # Errors
    ///
    /// Propagates model-construction and cost-evaluation failures. Individual
    /// `r` values whose expected cost is infinite (possible for very heavy
    /// tails at small `r`) are skipped rather than failing the whole sweep.
    pub fn sweep(
        job: &JobProfile,
        params: &StrategyParams,
        r_max: u32,
    ) -> Result<Self, ChronosError> {
        let pocd = PocdModel::new(*job, *params)?;
        let cost = CostModel::new(*job, *params)?;
        let mut points = Vec::with_capacity(r_max as usize + 1);
        for r in 0..=r_max {
            let machine_time = match cost.expected_job_machine_time(r) {
                Ok(v) => v,
                Err(ChronosError::InconsistentParameters { .. }) => continue,
                Err(other) => return Err(other),
            };
            points.push(FrontierPoint {
                r,
                pocd: pocd.pocd(r),
                machine_time,
                dollar_cost: machine_time * job.price(),
            });
        }
        Ok(Frontier {
            params: *params,
            points,
        })
    }

    /// The strategy this frontier was computed for.
    #[must_use]
    pub fn params(&self) -> &StrategyParams {
        &self.params
    }

    /// The frontier points, in increasing order of `r`.
    #[must_use]
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// Iterates over the frontier points.
    pub fn iter(&self) -> impl Iterator<Item = &FrontierPoint> {
        self.points.iter()
    }

    /// The cheapest point (by machine time) whose PoCD reaches `target`, or
    /// `None` if the target is unreachable within the swept range.
    #[must_use]
    pub fn cheapest_for_pocd(&self, target: f64) -> Option<FrontierPoint> {
        self.points
            .iter()
            .filter(|p| p.pocd >= target)
            .min_by(|a, b| {
                a.machine_time
                    .partial_cmp(&b.machine_time)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied()
    }

    /// The highest-PoCD point whose machine time does not exceed `budget`,
    /// or `None` if even `r = 0` exceeds the budget.
    #[must_use]
    pub fn best_pocd_within_budget(&self, budget: f64) -> Option<FrontierPoint> {
        self.points
            .iter()
            .filter(|p| p.machine_time <= budget)
            .max_by(|a, b| {
                a.pocd
                    .partial_cmp(&b.pocd)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied()
    }

    /// Retains only Pareto-efficient points: those not dominated by another
    /// point with both higher-or-equal PoCD and lower-or-equal cost.
    #[must_use]
    pub fn pareto_efficient(&self) -> Vec<FrontierPoint> {
        let mut efficient = Vec::new();
        for candidate in &self.points {
            let dominated = self.points.iter().any(|other| {
                (other.pocd > candidate.pocd && other.machine_time <= candidate.machine_time)
                    || (other.pocd >= candidate.pocd && other.machine_time < candidate.machine_time)
            });
            if !dominated {
                efficient.push(*candidate);
            }
        }
        efficient
    }
}

impl<'a> IntoIterator for &'a Frontier {
    type Item = &'a FrontierPoint;
    type IntoIter = std::slice::Iter<'a, FrontierPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
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
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_produces_all_points() {
        let f = Frontier::sweep(&job(), &StrategyParams::clone_strategy(80.0), 6).unwrap();
        assert_eq!(f.points().len(), 7);
        assert_eq!(f.points()[0].r, 0);
        assert_eq!(f.points()[6].r, 6);
        assert_eq!(f.params().kind(), StrategyKind::Clone);
    }

    #[test]
    fn pocd_is_monotone_along_sweep() {
        let f =
            Frontier::sweep(&job(), &StrategyParams::resume(40.0, 80.0, 0.3).unwrap(), 8).unwrap();
        for pair in f.points().windows(2) {
            assert!(pair[1].pocd >= pair[0].pocd);
        }
    }

    #[test]
    fn cheapest_for_pocd_meets_target_minimally() {
        let f = Frontier::sweep(&job(), &StrategyParams::clone_strategy(80.0), 8).unwrap();
        let point = f.cheapest_for_pocd(0.95).unwrap();
        assert!(point.pocd >= 0.95);
        // Every cheaper point must fall short of the target.
        for p in f.points() {
            if p.machine_time < point.machine_time {
                assert!(p.pocd < 0.95);
            }
        }
        assert!(f.cheapest_for_pocd(1.0).is_none());
    }

    #[test]
    fn best_pocd_within_budget_respects_budget() {
        let f = Frontier::sweep(&job(), &StrategyParams::clone_strategy(80.0), 8).unwrap();
        let budget = 1_200.0;
        let point = f.best_pocd_within_budget(budget).unwrap();
        assert!(point.machine_time <= budget);
        for p in f.points() {
            if p.machine_time <= budget {
                assert!(p.pocd <= point.pocd + 1e-15);
            }
        }
        assert!(f.best_pocd_within_budget(0.0).is_none());
    }

    #[test]
    fn pareto_filter_removes_dominated_points() {
        // For Clone, PoCD and cost both increase with r, so every point is
        // efficient; for S-Restart the r = 0 point is dominated by r = 1
        // (higher PoCD at lower cost) and must be filtered out.
        let clone = Frontier::sweep(&job(), &StrategyParams::clone_strategy(80.0), 5).unwrap();
        assert_eq!(clone.pareto_efficient().len(), clone.points().len());

        let restart =
            Frontier::sweep(&job(), &StrategyParams::restart(40.0, 80.0).unwrap(), 5).unwrap();
        let efficient = restart.pareto_efficient();
        assert!(efficient.iter().all(|p| p.r != 0));
        assert!(efficient.len() < restart.points().len());
    }

    #[test]
    fn dollar_cost_tracks_price() {
        let pricey = JobProfile::builder().price(2.0).build().unwrap();
        let f = Frontier::sweep(&pricey, &StrategyParams::clone_strategy(80.0), 3).unwrap();
        for p in f.points() {
            assert!((p.dollar_cost - 2.0 * p.machine_time).abs() < 1e-9);
        }
    }

    #[test]
    fn iteration_visits_every_point() {
        let f = Frontier::sweep(&job(), &StrategyParams::clone_strategy(80.0), 4).unwrap();
        assert_eq!(f.iter().count(), 5);
        assert_eq!((&f).into_iter().count(), 5);
    }
}
