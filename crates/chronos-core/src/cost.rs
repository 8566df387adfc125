//! Expected machine running time (execution cost) of each strategy.
//!
//! Implements Theorems 2, 4 and 6: the expected total (virtual) machine time
//! consumed by a job under Clone, Speculative-Restart and Speculative-Resume,
//! as a function of the number of extra attempts `r`. Multiplying by the
//! per-unit-time VM price gives the dollar cost used in the net-utility
//! objective of Section V.

use crate::error::ChronosError;
use crate::job::JobProfile;
use crate::numeric::gauss_series;
use crate::pareto::Pareto;
use crate::strategy::{StrategyKind, StrategyParams};
use serde::{Deserialize, Serialize};

/// Expected machine-time / cost model for one job under one strategy.
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
/// let cost = CostModel::new(job, StrategyParams::clone_strategy(80.0))?;
///
/// // Theorem 2 at r = 0 reduces to N times the mean task time.
/// let base = cost.expected_job_machine_time(0.0)?;
/// assert!((base - 10.0 * 60.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    job: JobProfile,
    params: StrategyParams,
}

impl CostModel {
    /// Builds a cost model, validating the strategy timing against the job.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InconsistentParameters`] under the same
    /// conditions as [`crate::pocd::PocdModel::new`].
    pub fn new(job: JobProfile, params: StrategyParams) -> Result<Self, ChronosError> {
        params.validate_against(job.deadline(), job.t_min())?;
        Ok(CostModel { job, params })
    }

    /// The job profile this model describes.
    #[must_use]
    pub fn job(&self) -> &JobProfile {
        &self.job
    }

    /// The strategy parameters this model describes.
    #[must_use]
    pub fn params(&self) -> &StrategyParams {
        &self.params
    }

    /// Expected machine running time of a *single task* with `r` extra
    /// attempts (continuous relaxation of `r`).
    ///
    /// # Errors
    ///
    /// * [`ChronosError::InvalidParameter`] if `r` is negative or not finite.
    /// * [`ChronosError::InconsistentParameters`] if the expectation is
    ///   infinite for the given `β` and `r` (e.g. Clone needs
    ///   `β·(r+1) > 1`).
    /// * [`ChronosError::NumericalFailure`] if the Theorem 4 series does not
    ///   converge or the result is not finite.
    pub fn expected_task_machine_time(&self, r: f64) -> Result<f64, ChronosError> {
        if !r.is_finite() || r < 0.0 {
            return Err(ChronosError::invalid("r", r, "a finite value >= 0"));
        }
        let time = match self.params.kind() {
            StrategyKind::Clone => self.clone_task_time(r),
            StrategyKind::SpeculativeRestart => self.restart_task_time(r),
            StrategyKind::SpeculativeResume => self.resume_task_time(r),
        }?;
        if !time.is_finite() {
            return Err(ChronosError::numerical(format!(
                "{} expected task time is {time} at r = {r}",
                self.params.kind()
            )));
        }
        Ok(time)
    }

    /// Expected machine running time of the *job*: `N` times the per-task
    /// expectation (Theorems 2, 4, 6).
    ///
    /// # Errors
    ///
    /// Same failure modes as
    /// [`expected_task_machine_time`](Self::expected_task_machine_time).
    pub fn expected_job_machine_time(&self, r: f64) -> Result<f64, ChronosError> {
        Ok(f64::from(self.job.tasks()) * self.expected_task_machine_time(r)?)
    }

    /// Expected dollar cost of the job: machine time multiplied by the
    /// per-unit-time VM price `C`.
    ///
    /// # Errors
    ///
    /// Same failure modes as
    /// [`expected_job_machine_time`](Self::expected_job_machine_time).
    pub fn expected_cost(&self, r: f64) -> Result<f64, ChronosError> {
        Ok(self.job.price() * self.expected_job_machine_time(r)?)
    }

    /// Expected machine time of the no-speculation baseline (Hadoop-NS):
    /// `N · E[T] = N·t_min·β/(β−1)`.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InconsistentParameters`] when `β ≤ 1` (the
    /// mean task time is infinite).
    pub fn baseline_job_machine_time(&self) -> Result<f64, ChronosError> {
        let mean = self.job.task_time().mean().ok_or_else(|| {
            ChronosError::inconsistent("mean task time is infinite for beta <= 1")
        })?;
        Ok(f64::from(self.job.tasks()) * mean)
    }

    /// Theorem 2: `E[T_j] = r·τ_kill + t_min + t_min/(β(r+1) − 1)`.
    fn clone_task_time(&self, r: f64) -> Result<f64, ChronosError> {
        let beta = self.job.beta();
        let t_min = self.job.t_min();
        let nb = beta * (r + 1.0);
        if nb <= 1.0 {
            return Err(ChronosError::inconsistent(format!(
                "Clone expected time infinite: beta*(r+1) = {nb} <= 1"
            )));
        }
        Ok(r * self.params.tau_kill() + t_min + t_min / (nb - 1.0))
    }

    /// Theorem 4. The `T_{j,1} > D` branch needs the expected remaining
    /// time of the fastest of the conditioned original attempt and the `r`
    /// restarted extras, a survival integral over two segments; both have
    /// closed forms.
    fn restart_task_time(&self, r: f64) -> Result<f64, ChronosError> {
        let beta = self.job.beta();
        let t_min = self.job.t_min();
        let d = self.job.deadline();
        let tau_est = self.params.tau_est();
        let tau_kill = self.params.tau_kill();
        let dist = self.job.task_time();

        let p_miss = dist.survival(d);
        let p_meet = 1.0 - p_miss;
        let on_time = if p_meet > 0.0 {
            dist.conditional_mean_below(d)?
        } else {
            0.0
        };

        // E[Ŵ_all]: expected remaining execution (after τ_est) of the fastest
        // among the conditioned original attempt and the r restarted extras.
        let window = d - tau_est;
        // Segment 1: ω ∈ [t_min, D − τ_est], where the conditioned original
        // attempt surely exceeds ω, so the integrand is (t_min/ω)^(βr).
        let seg1 = integral_power_segment(t_min, window, beta * r)?;
        // Segment 2: ω ∈ [D − τ_est, ∞). Decays like ω^(−β(r+1)).
        let seg2 = restart_tail(t_min, beta, d, tau_est, r)?;
        let expected_w_all = t_min + seg1 + seg2;
        let late = tau_est + r * (tau_kill - tau_est) + expected_w_all;

        Ok(on_time * p_meet + late * p_miss)
    }

    /// Theorem 6: the resumed attempts process the remaining `1 − ϕ_est`
    /// fraction, so the survivor term is
    /// `t_min·(1−ϕ_est)^(β(r+1)) / (β(r+1) − 1) + t_min`.
    fn resume_task_time(&self, r: f64) -> Result<f64, ChronosError> {
        let beta = self.job.beta();
        let t_min = self.job.t_min();
        let d = self.job.deadline();
        let tau_est = self.params.tau_est();
        let tau_kill = self.params.tau_kill();
        let dist = self.job.task_time();
        let phi_bar = self.params.remaining_fraction();

        let p_miss = dist.survival(d);
        let p_meet = 1.0 - p_miss;
        let on_time = if p_meet > 0.0 {
            dist.conditional_mean_below(d)?
        } else {
            0.0
        };

        let nb = beta * (r + 1.0);
        if nb <= 1.0 {
            return Err(ChronosError::inconsistent(format!(
                "Speculative-Resume expected time infinite: beta*(r+1) = {nb} <= 1"
            )));
        }
        let survivor = t_min * phi_bar.powf(nb) / (nb - 1.0) + t_min;
        let late = tau_est + r * (tau_kill - tau_est) + survivor;

        Ok(on_time * p_meet + late * p_miss)
    }
}

/// `∫_a^b (a/ω)^p dω` for `b ≥ a > 0`.
///
/// Written as `a·ln(b/a)·(e^x − 1)/x` with `x = (1 − p)·ln(b/a)`, which is
/// finite for every `p` (the textbook `a^p·(b^(1−p) − a^(1−p))/(1 − p)`
/// overflows to `inf·0` once `a^p` does) and reduces to `a·ln(b/a)` at
/// `p = 1`.
fn integral_power_segment(a: f64, b: f64, p: f64) -> Result<f64, ChronosError> {
    if b < a {
        return Err(ChronosError::numerical(format!(
            "power segment requires b >= a, got a = {a}, b = {b}"
        )));
    }
    let log_ratio = (b / a).ln();
    let x = (1.0 - p) * log_ratio;
    let exprel = if x == 0.0 { 1.0 } else { x.exp_m1() / x };
    Ok(a * log_ratio * exprel)
}

/// Segment 2 of Theorem 4:
/// `∫_w^∞ (D/(ω+τ_est))^β (t_min/ω)^(βr) dω` with `w = D − τ_est`.
///
/// Substituting `ω = w/(1 − t)` gives Euler's integral of
/// `₂F₁(β, 1; c; y)` with `c = β(r+1)` and `y = τ_est/D`, so the tail is
/// `w·(t_min/w)^(βr)/(c − 1)·₂F₁(β, 1; c; y)`. Every factor stays in range:
/// `t_min < w` keeps the power at most 1, and the series terms are at most 1.
fn restart_tail(t_min: f64, beta: f64, d: f64, tau_est: f64, r: f64) -> Result<f64, ChronosError> {
    let c = beta * (r + 1.0);
    if c <= 1.0 {
        return Err(ChronosError::inconsistent(format!(
            "Speculative-Restart expected time infinite: beta*(r+1) = {c} <= 1"
        )));
    }
    let window = d - tau_est;
    let series = gauss_series(beta, c, tau_est / d)?;
    Ok(window * (t_min / window).powf(beta * r) / (c - 1.0) * series)
}

/// Expected machine time of a single task under Clone evaluated by Monte
/// Carlo, following the accounting of Theorem 2 exactly: `r` attempts are
/// charged until `τ_kill` and the fastest attempt runs to completion.
///
/// Exposed primarily so benchmarks and tests can cross-validate the closed
/// forms; the discrete-event simulator in `chronos-sim` measures the real
/// process instead.
pub fn monte_carlo_clone_task_time<R: rand::Rng + ?Sized>(
    dist: &Pareto,
    r: u32,
    tau_kill: f64,
    samples: usize,
    rng: &mut R,
) -> f64 {
    let mut total = 0.0;
    for _ in 0..samples {
        let attempts = dist.sample_n(rng, r as usize + 1);
        let fastest = attempts.iter().copied().fold(f64::INFINITY, f64::min);
        total += f64::from(r) * tau_kill + fastest;
    }
    total / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::{approx_eq, integrate_tail};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn job() -> JobProfile {
        JobProfile::builder()
            .tasks(10)
            .t_min(20.0)
            .beta(1.5)
            .deadline(100.0)
            .build()
            .unwrap()
    }

    fn clone_cost() -> CostModel {
        CostModel::new(job(), StrategyParams::clone_strategy(80.0)).unwrap()
    }

    fn restart_cost() -> CostModel {
        CostModel::new(job(), StrategyParams::restart(40.0, 80.0).unwrap()).unwrap()
    }

    fn resume_cost(phi: f64) -> CostModel {
        CostModel::new(job(), StrategyParams::resume(40.0, 80.0, phi).unwrap()).unwrap()
    }

    #[test]
    fn theorem2_closed_form() {
        let m = clone_cost();
        for r in 0..5u32 {
            let rf = f64::from(r);
            let expected = 10.0 * (rf * 80.0 + 20.0 + 20.0 / (1.5 * (rf + 1.0) - 1.0));
            let got = m.expected_job_machine_time(rf).unwrap();
            assert!(approx_eq(got, expected, 1e-9, 1e-12), "r={r}: {got}");
        }
    }

    #[test]
    fn theorem2_r_zero_is_mean() {
        let m = clone_cost();
        let got = m.expected_job_machine_time(0.0).unwrap();
        assert!(approx_eq(got, 10.0 * 60.0, 1e-9, 1e-12));
        assert!(approx_eq(
            got,
            m.baseline_job_machine_time().unwrap(),
            1e-9,
            1e-12
        ));
    }

    #[test]
    fn theorem2_against_monte_carlo() {
        let m = clone_cost();
        let mut rng = StdRng::seed_from_u64(42);
        for r in [1u32, 2] {
            let closed = m.expected_task_machine_time(f64::from(r)).unwrap();
            let mc = monte_carlo_clone_task_time(&m.job().task_time(), r, 80.0, 400_000, &mut rng);
            // min of Pareto draws has light tail, so the MC mean converges well.
            assert!(
                (closed - mc).abs() / closed < 0.01,
                "r={r}: closed {closed} vs mc {mc}"
            );
        }
    }

    #[test]
    fn theorem4_r_zero_reduces_to_unconditional_mean() {
        // With no extra attempts, S-Restart never launches anything, so the
        // expected machine time is just E[T] of the original attempt:
        // E[T|T≤D]P(T≤D) + E[T|T>D]P(T>D) = E[T].
        let m = restart_cost();
        let got = m.expected_task_machine_time(0.0).unwrap();
        assert!(approx_eq(got, 60.0, 0.0, 1e-13), "got {got}");
    }

    #[test]
    fn theorem4_tail_at_r_zero_is_exact() {
        // With no extras the tail is ∫_w^∞ (D/(ω+τ_est))^β dω = D/(β−1)
        // exactly, for any τ_est < D: the series must reproduce it as
        // β → 1⁺ (where 1/(c−1) blows up) and as τ_est → D (where y → 1
        // and the series needs the most terms).
        let (t_min, d) = (20.0, 100.0);
        for beta in [1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.01, 1.5] {
            let tail = restart_tail(t_min, beta, d, 40.0, 0.0).unwrap();
            let exact = d / (beta - 1.0);
            assert!(approx_eq(tail, exact, 0.0, 1e-13), "beta {beta}: {tail}");
        }
        for gap in [1e-1, 1e-2, 1e-3, 1e-4] {
            let tau_est = d * (1.0 - gap);
            let tail = restart_tail(t_min, 1.5, d, tau_est, 0.0).unwrap();
            assert!(approx_eq(tail, 2.0 * d, 0.0, 1e-9), "gap {gap}: {tail}");
        }
    }

    #[test]
    fn theorem4_stays_finite_where_the_power_overflows() {
        // β = 8, t_min = 50: t_min^(βr) passes f64::MAX from r ≈ 23, which
        // used to turn segment 1 into inf·0 = NaN.
        let job = JobProfile::builder()
            .tasks(1)
            .t_min(50.0)
            .beta(8.0)
            .deadline(800.0 / 7.0)
            .build()
            .unwrap();
        let m = CostModel::new(job, StrategyParams::restart(15.0, 30.0).unwrap()).unwrap();
        let mut prev = m.expected_task_machine_time(1.0).unwrap();
        for r in 2..=64 {
            let cur = m.expected_task_machine_time(f64::from(r)).unwrap();
            assert!(cur.is_finite() && cur > prev, "r={r}: {cur} after {prev}");
            prev = cur;
        }
    }

    #[test]
    fn theorem4_structure_matches_manual_quadrature() {
        let m = restart_cost();
        let r = 2.0;
        let beta = 1.5;
        let t_min = 20.0;
        let d = 100.0f64;
        let tau_est = 40.0;
        let tau_kill = 80.0;
        let dist = Pareto::new(t_min, beta).unwrap();

        let p_miss = (t_min / d).powf(beta);
        let on_time = dist.conditional_mean_below(d).unwrap();
        // Manual evaluation of E[Ŵ_all] via brute-force quadrature over the
        // survival product P(T̂1 − τ_est > ω)·P(T > ω)^r.
        let survival_product = |omega: f64| {
            let orig = if omega < d - tau_est {
                1.0
            } else {
                (d / (omega + tau_est)).powf(beta)
            };
            let extra = if omega < t_min {
                1.0
            } else {
                (t_min / omega).powf(beta * r)
            };
            orig * extra
        };
        let tail = integrate_tail(survival_product, t_min, beta * (r + 1.0), 1e-12).unwrap();
        let expected_w_all = t_min + tail;
        let late = tau_est + r * (tau_kill - tau_est) + expected_w_all;
        let manual = on_time * (1.0 - p_miss) + late * p_miss;

        let got = m.expected_task_machine_time(r).unwrap();
        assert!(approx_eq(got, manual, 1e-5, 1e-7), "{got} vs {manual}");
    }

    #[test]
    fn theorem6_closed_form() {
        let phi = 0.4;
        let m = resume_cost(phi);
        for r in 0..4u32 {
            let rf = f64::from(r);
            let beta = 1.5;
            let t_min = 20.0f64;
            let d = 100.0f64;
            let p_miss = (t_min / d).powf(beta);
            let dist = Pareto::new(t_min, beta).unwrap();
            let on_time = dist.conditional_mean_below(d).unwrap();
            let nb = beta * (rf + 1.0);
            let late = 40.0 + rf * 40.0 + t_min * (1.0 - phi).powf(nb) / (nb - 1.0) + t_min;
            let expected = 10.0 * (on_time * (1.0 - p_miss) + late * p_miss);
            let got = m.expected_job_machine_time(rf).unwrap();
            assert!(approx_eq(got, expected, 1e-9, 1e-12), "r={r}");
        }
    }

    #[test]
    fn clone_cost_increases_with_r() {
        let m = clone_cost();
        let mut prev = m.expected_job_machine_time(0.0).unwrap();
        for r in 1..8 {
            let cur = m.expected_job_machine_time(f64::from(r)).unwrap();
            assert!(cur > prev, "Clone cost should grow with r");
            prev = cur;
        }
    }

    #[test]
    fn reactive_cost_increases_with_r_once_speculating() {
        // For r ≥ 1 every additional attempt adds (τ_kill − τ_est) of machine
        // time on each straggler, which outweighs the shrinking survivor term.
        for m in [restart_cost(), resume_cost(0.3)] {
            let mut prev = m.expected_job_machine_time(1.0).unwrap();
            for r in 2..8 {
                let cur = m.expected_job_machine_time(f64::from(r)).unwrap();
                assert!(
                    cur > prev,
                    "{:?}: cost should grow with r >= 1",
                    m.params().kind()
                );
                prev = cur;
            }
        }
    }

    #[test]
    fn first_speculative_attempt_can_reduce_restart_cost() {
        // Going from r = 0 to r = 1 *reduces* expected machine time for
        // Speculative-Restart: without speculation a straggler runs to
        // completion (conditional mean D·β/(β−1)), whereas one extra attempt
        // replaces that heavy tail with τ_est + (τ_kill − τ_est) + a light
        // minimum-of-two tail. This is the quantitative version of Mantri's
        // observation that killing stragglers can save resources.
        let m = restart_cost();
        let at_zero = m.expected_job_machine_time(0.0).unwrap();
        let at_one = m.expected_job_machine_time(1.0).unwrap();
        assert!(at_one < at_zero, "expected {at_one} < {at_zero}");
    }

    #[test]
    fn resume_already_prunes_stragglers_at_r_zero() {
        // Speculative-Resume kills the straggler and relaunches even when
        // r = 0, so its r = 0 cost is already far below the no-speculation
        // baseline and grows monotonically from there.
        let m = resume_cost(0.3);
        let baseline = m.baseline_job_machine_time().unwrap();
        let at_zero = m.expected_job_machine_time(0.0).unwrap();
        let at_one = m.expected_job_machine_time(1.0).unwrap();
        assert!(at_zero < baseline);
        assert!(at_one > at_zero);
    }

    #[test]
    fn clone_costs_more_than_speculation_for_same_r() {
        // Clone pays r·τ_kill on every task; the reactive strategies only pay
        // for stragglers, so for equal r they are cheaper.
        let c = clone_cost();
        let s = restart_cost();
        let re = resume_cost(0.3);
        for r in 1..6 {
            let rf = f64::from(r);
            let cc = c.expected_job_machine_time(rf).unwrap();
            let sc = s.expected_job_machine_time(rf).unwrap();
            let rc = re.expected_job_machine_time(rf).unwrap();
            assert!(cc > sc, "r={r}");
            assert!(cc > rc, "r={r}");
        }
    }

    #[test]
    fn resume_cheaper_than_restart() {
        // Work preservation means resumed attempts finish sooner on average.
        let s = restart_cost();
        let re = resume_cost(0.3);
        for r in 1..6 {
            let rf = f64::from(r);
            assert!(
                re.expected_job_machine_time(rf).unwrap()
                    < s.expected_job_machine_time(rf).unwrap(),
                "r={r}"
            );
        }
    }

    #[test]
    fn expected_cost_scales_with_price() {
        let cheap = CostModel::new(
            JobProfile::builder().price(0.01).build().unwrap(),
            StrategyParams::clone_strategy(80.0),
        )
        .unwrap();
        let pricey = CostModel::new(
            JobProfile::builder().price(0.02).build().unwrap(),
            StrategyParams::clone_strategy(80.0),
        )
        .unwrap();
        let a = cheap.expected_cost(2.0).unwrap();
        let b = pricey.expected_cost(2.0).unwrap();
        assert!(approx_eq(b, 2.0 * a, 1e-12, 1e-12));
    }

    #[test]
    fn rejects_negative_r() {
        assert!(clone_cost().expected_task_machine_time(-1.0).is_err());
        assert!(clone_cost().expected_task_machine_time(f64::NAN).is_err());
    }

    #[test]
    fn infinite_mean_cases_error() {
        let heavy = JobProfile::builder()
            .beta(0.8)
            .t_min(20.0)
            .deadline(100.0)
            .build()
            .unwrap();
        let m = CostModel::new(heavy, StrategyParams::clone_strategy(80.0)).unwrap();
        // β(r+1) = 0.8 ≤ 1 at r = 0: infinite expectation.
        assert!(m.expected_task_machine_time(0.0).is_err());
        // r = 1 gives β(r+1) = 1.6 > 1: finite.
        assert!(m.expected_task_machine_time(1.0).is_ok());
        assert!(m.baseline_job_machine_time().is_err());
    }

    #[test]
    fn power_segment_log_case() {
        let v = integral_power_segment(2.0, 8.0, 1.0).unwrap();
        assert!(approx_eq(v, 2.0 * (4.0f64).ln(), 1e-12, 1e-12));
        assert!(integral_power_segment(5.0, 4.0, 1.0).is_err());
    }

    #[test]
    fn power_segment_general_case() {
        // ∫_2^8 (2/ω)^3 dω = 8·[−ω^-2/2]_2^8 = 8·(1/8 − 1/128) = 0.9375
        let v = integral_power_segment(2.0, 8.0, 3.0).unwrap();
        assert!(approx_eq(v, 0.9375, 1e-12, 1e-12));
        // p < 1 grows with b: ∫_1^4 ω^(-1/2) dω = 2.
        let v = integral_power_segment(1.0, 4.0, 0.5).unwrap();
        assert!(approx_eq(v, 2.0, 1e-12, 1e-12));
    }

    #[test]
    fn power_segment_is_finite_for_huge_exponents() {
        // a^p overflows here; the segment tends to a/(p−1).
        let v = integral_power_segment(50.0, 97.0, 500.0).unwrap();
        assert!(approx_eq(v, 50.0 / 499.0, 0.0, 1e-12), "{v}");
        assert_eq!(integral_power_segment(50.0, 50.0, 500.0).unwrap(), 0.0);
        // Near p = 1 it joins the logarithmic case continuously.
        let near = integral_power_segment(2.0, 8.0, 1.0 + 1e-13).unwrap();
        assert!(approx_eq(near, 2.0 * (4.0f64).ln(), 0.0, 1e-12));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The series tail equals the quadrature oracle wherever the oracle
        /// can truncate (β(r+1) ≥ 1.05), up to β = 8, t_min = 500 and
        /// τ_est/D = 0.95.
        #[test]
        fn theorem4_tail_series_matches_quadrature(
            t_min in 1.0f64..500.0,
            beta in 1.0f64..8.0,
            y in 0.0f64..0.95,
            slack in 1.0f64..6.0,
            r in 0.0f64..24.0,
        ) {
            let c = beta * (r + 1.0);
            proptest::prop_assume!(c >= 1.05);
            let window = slack * t_min;
            let d = window / (1.0 - y);
            let tau_est = d - window;
            let series = restart_tail(t_min, beta, d, tau_est, r).unwrap();
            let oracle = integrate_tail(
                |omega| (d / (omega + tau_est)).powf(beta) * (t_min / omega).powf(beta * r),
                window,
                c,
                1e-12 * window,
            )
            .unwrap();
            proptest::prop_assert!(
                approx_eq(series, oracle, 1e-10 * window, 1e-8),
                "series {} vs quadrature {}", series, oracle
            );
        }
    }
}
