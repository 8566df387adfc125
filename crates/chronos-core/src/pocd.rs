//! Probability of Completion before Deadline (PoCD) closed forms.
//!
//! Implements Theorems 1, 3 and 5 of the paper — the PoCD of the Clone,
//! Speculative-Restart and Speculative-Resume strategies under i.i.d.
//! Pareto attempt execution times — together with the dominance relations of
//! Theorem 7 and the concavity thresholds `Γ_strategy` that Theorem 8 uses.
//!
//! All three strategies share the same skeleton: a task misses the deadline
//! when every one of its attempts misses, so the per-task failure probability
//! is a product of per-attempt miss probabilities, and the job-level PoCD is
//! `R(r) = (1 − q(r))^N`.

use crate::error::ChronosError;
use crate::job::JobProfile;
use crate::numeric::clamp_probability;
use crate::strategy::{StrategyKind, StrategyParams};
use serde::{Deserialize, Serialize};

/// PoCD model for one job under one strategy parameterization.
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
/// let model = PocdModel::new(job, StrategyParams::clone_strategy(80.0))?;
///
/// // Theorem 1: R = [1 − (t_min/D)^(β(r+1))]^N
/// let r1 = model.pocd(1);
/// assert!(r1 > model.pocd(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PocdModel {
    job: JobProfile,
    params: StrategyParams,
}

impl PocdModel {
    /// Builds a PoCD model, validating that the strategy timing is
    /// compatible with the job's deadline.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InconsistentParameters`] when a reactive
    /// strategy's `τ_est` leaves less than `t_min` before the deadline, so
    /// speculative attempts could never finish in time.
    pub fn new(job: JobProfile, params: StrategyParams) -> Result<Self, ChronosError> {
        params.validate_against(job.deadline(), job.t_min())?;
        Ok(PocdModel { job, params })
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

    /// Probability that a *single original attempt* misses the deadline,
    /// `P(T > D) = (t_min / D)^β` (Eq. 4 / Eq. 33 / Eq. 46).
    #[must_use]
    pub fn original_miss_probability(&self) -> f64 {
        self.job.task_time().survival(self.job.deadline())
    }

    /// Probability that a *single extra attempt* misses the deadline, given
    /// it was launched at `τ_est` (Eq. 34 / Eq. 47). For Clone the extra
    /// attempts start at time 0, so this equals
    /// [`original_miss_probability`](Self::original_miss_probability).
    #[must_use]
    pub fn extra_miss_probability(&self) -> f64 {
        let t_min = self.job.t_min();
        let beta = self.job.beta();
        let deadline = self.job.deadline();
        match self.params.kind() {
            StrategyKind::Clone => self.original_miss_probability(),
            StrategyKind::SpeculativeRestart => {
                let window = deadline - self.params.tau_est();
                clamp_probability((t_min / window).powf(beta))
            }
            StrategyKind::SpeculativeResume => {
                let window = deadline - self.params.tau_est();
                let remaining = self.params.remaining_fraction() * t_min;
                clamp_probability((remaining / window).powf(beta))
            }
        }
    }

    /// Per-task deadline-miss probability `q(r)` with `r` extra attempts.
    ///
    /// * Clone: `q = p^(r+1)` where `p = (t_min/D)^β` (Theorem 1),
    /// * S-Restart: `q = p · s^r` where `s = (t_min/(D−τ_est))^β` (Theorem 3),
    /// * S-Resume: `q = p · u^(r+1)` where
    ///   `u = ((1−ϕ_est)·t_min/(D−τ_est))^β` (Theorem 5).
    #[must_use]
    pub fn task_failure_probability(&self, r: u32) -> f64 {
        self.failure_probability_at(f64::from(r))
    }

    /// `q` at a real `r ≥ 0`. The integer closed forms are this at integer
    /// `r`; the unit tests also probe it around the real threshold `Γ`.
    fn failure_probability_at(&self, r: f64) -> f64 {
        let p = self.original_miss_probability();
        let value = match self.params.kind() {
            StrategyKind::Clone => p.powf(r + 1.0),
            StrategyKind::SpeculativeRestart => p * self.extra_miss_probability().powf(r),
            StrategyKind::SpeculativeResume => p * self.extra_miss_probability().powf(r + 1.0),
        };
        clamp_probability(value)
    }

    /// Job-level PoCD `R(r) = (1 − q(r))^N` (Theorems 1, 3 and 5).
    #[must_use]
    pub fn pocd(&self, r: u32) -> f64 {
        let q = self.task_failure_probability(r);
        clamp_probability((1.0 - q).powf(f64::from(self.job.tasks())))
    }

    /// PoCD of the no-speculation baseline (Hadoop-NS): a single attempt per
    /// task, i.e. `R = [1 − (t_min/D)^β]^N`.
    #[must_use]
    pub fn baseline_pocd(&self) -> f64 {
        let p = self.original_miss_probability();
        clamp_probability((1.0 - p).powf(f64::from(self.job.tasks())))
    }

    /// The concavity threshold `Γ_strategy` of Theorem 8 (Eqs. 27–29): the
    /// PoCD (and hence the log-utility term) is concave in `r` for
    /// `r > Γ_strategy`, which is exactly where the per-task failure
    /// probability drops below `1/N`.
    ///
    /// Returns `None` when extra attempts cannot reduce the per-task failure
    /// probability at all (the per-extra-attempt miss probability is ≥ 1,
    /// which only happens when the speculation window is shorter than the
    /// minimum remaining work).
    #[must_use]
    pub fn concavity_threshold(&self) -> Option<f64> {
        let n = f64::from(self.job.tasks());
        let p = self.original_miss_probability();
        if p <= 0.0 {
            // Deadline so loose that an original attempt never misses:
            // PoCD is identically 1 and trivially concave.
            return Some(0.0);
        }
        match self.params.kind() {
            StrategyKind::Clone => {
                // q = p^(r+1) < 1/N  ⟺  r > ln N / (−ln p) − 1
                Some(n.ln() / (-p.ln()) - 1.0)
            }
            StrategyKind::SpeculativeRestart => {
                let s = self.extra_miss_probability();
                if s >= 1.0 {
                    return None;
                }
                // q = p·s^r < 1/N  ⟺  r > (ln N + ln p) / (−ln s)
                Some((n.ln() + p.ln()) / (-s.ln()))
            }
            StrategyKind::SpeculativeResume => {
                let u = self.extra_miss_probability();
                if u >= 1.0 {
                    return None;
                }
                // q = p·u^(r+1) < 1/N  ⟺  r + 1 > (ln N + ln p) / (−ln u)
                Some((n.ln() + p.ln()) / (-u.ln()) - 1.0)
            }
        }
    }

    /// The smallest integer `r` at which the objective is guaranteed concave
    /// (`⌈Γ⌉`, floored at zero). `None` has the same meaning as in
    /// [`concavity_threshold`](Self::concavity_threshold).
    #[must_use]
    pub fn concave_from(&self) -> Option<u32> {
        self.concavity_threshold().map(|gamma| {
            if gamma <= 0.0 {
                0
            } else {
                // ⌈Γ⌉ as an integer, saturating for absurdly large thresholds.
                let ceil = gamma.ceil();
                if ceil >= f64::from(u32::MAX) {
                    u32::MAX
                } else {
                    ceil as u32
                }
            }
        })
    }

    /// Smallest `r` achieving at least the target PoCD, or `None` when no
    /// finite `r` can reach it (e.g. the extra-attempt miss probability is 1).
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InvalidParameter`] when `target` is not a
    /// probability.
    pub fn min_r_for_target(&self, target: f64) -> Result<Option<u32>, ChronosError> {
        if !(0.0..=1.0).contains(&target) {
            return Err(ChronosError::invalid(
                "target",
                target,
                "a probability in [0, 1]",
            ));
        }
        if self.pocd(0) >= target {
            return Ok(Some(0));
        }
        // The required per-task success is target^(1/N); invert q(r) ≤ 1 − that.
        let n = f64::from(self.job.tasks());
        let q_needed = 1.0 - target.powf(1.0 / n);
        if q_needed <= 0.0 {
            // target = 1 exactly: only reachable if q can hit 0, which a
            // finite r never does for p > 0.
            return Ok(if self.original_miss_probability() == 0.0 {
                Some(0)
            } else {
                None
            });
        }
        let p = self.original_miss_probability();
        let decay = self.extra_miss_probability();
        let r_needed = match self.params.kind() {
            StrategyKind::Clone => {
                if p >= 1.0 {
                    return Ok(None);
                }
                q_needed.ln() / p.ln() - 1.0
            }
            StrategyKind::SpeculativeRestart => {
                if decay >= 1.0 {
                    return Ok(None);
                }
                (q_needed.ln() - p.ln()) / decay.ln()
            }
            StrategyKind::SpeculativeResume => {
                if decay >= 1.0 {
                    return Ok(None);
                }
                (q_needed.ln() - p.ln()) / decay.ln() - 1.0
            }
        };
        let r = r_needed.max(0.0).ceil();
        if r >= f64::from(u32::MAX) {
            return Ok(None);
        }
        // Guard against floating point edge effects by nudging upward if
        // the closed form rounds to a value that still falls short.
        let mut r = r as u32;
        while self.pocd(r) < target && r < u32::MAX - 1 {
            r += 1;
            if r > 10_000 {
                return Ok(None);
            }
        }
        Ok(Some(r))
    }
}

/// Outcome of comparing two strategies' PoCD at the same `r` (Theorem 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dominance {
    /// The first strategy achieves strictly higher PoCD.
    FirstWins,
    /// The second strategy achieves strictly higher PoCD.
    SecondWins,
    /// Both achieve the same PoCD (up to floating-point equality).
    Tie,
}

/// Compares the PoCD of two models at the same number of extra attempts.
///
/// Theorem 7 states, for equal `r` and common timing parameters:
///
/// 1. Clone beats Speculative-Restart,
/// 2. Speculative-Resume beats Speculative-Restart,
/// 3. Clone beats Speculative-Resume iff `r` exceeds a threshold that depends
///    on `ϕ_est`, `t_min`, `D` and `τ_est` (see
///    [`clone_beats_resume_threshold`]).
///
#[must_use]
pub fn compare_pocd(a: &PocdModel, b: &PocdModel, r: u32) -> Dominance {
    let diff = a.pocd(r) - b.pocd(r);
    if diff.abs() <= 1e-15 {
        Dominance::Tie
    } else if diff > 0.0 {
        Dominance::FirstWins
    } else {
        Dominance::SecondWins
    }
}

/// The Theorem 7(3) threshold: Clone's PoCD exceeds Speculative-Resume's
/// exactly when `r` is larger than the returned value.
///
/// Derived from Eq. (59): with `D̄ = D − τ_est` and `ϕ̄ = 1 − ϕ_est`,
/// Clone wins iff `D̄^(β(r+1)) < ϕ̄^(β(r+1)) · D^(βr) · t_min^β`, i.e.
/// `r > (ln(ϕ̄·t_min) − ln D̄) / (ln D̄ − ln(ϕ̄·D))` whenever the original
/// attempt misses the deadline (which implies `D̄ < ϕ̄·D`).
///
/// The paper's Theorem 7 statement carries an extra factor `β`; the version
/// here follows the appendix derivation (Eq. 59–60), which cancels `β`. The
/// function is exercised against direct PoCD comparison in the test suite.
///
/// # Errors
///
/// Returns [`ChronosError::InconsistentParameters`] when `D̄ ≥ ϕ̄·D`, i.e.
/// the premise "the original attempt misses the deadline at τ_est" cannot
/// hold and the threshold is undefined.
pub fn clone_beats_resume_threshold(
    job: &JobProfile,
    resume_params: &StrategyParams,
) -> Result<f64, ChronosError> {
    let d = job.deadline();
    let d_bar = d - resume_params.tau_est();
    let phi_bar = resume_params.remaining_fraction();
    if d_bar >= phi_bar * d {
        return Err(ChronosError::inconsistent(format!(
            "threshold undefined: D - tau_est = {d_bar} is not smaller than (1 - phi_est)*D = {}",
            phi_bar * d
        )));
    }
    let numerator = (phi_bar * job.t_min()).ln() - d_bar.ln();
    let denominator = d_bar.ln() - (phi_bar * d).ln();
    Ok(numerator / denominator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::approx_eq;

    fn job() -> JobProfile {
        JobProfile::builder()
            .tasks(10)
            .t_min(20.0)
            .beta(1.5)
            .deadline(100.0)
            .build()
            .unwrap()
    }

    fn clone_model() -> PocdModel {
        PocdModel::new(job(), StrategyParams::clone_strategy(80.0)).unwrap()
    }

    fn restart_model() -> PocdModel {
        PocdModel::new(job(), StrategyParams::restart(40.0, 80.0).unwrap()).unwrap()
    }

    fn resume_model(phi: f64) -> PocdModel {
        PocdModel::new(job(), StrategyParams::resume(40.0, 80.0, phi).unwrap()).unwrap()
    }

    #[test]
    fn theorem1_clone_closed_form() {
        let m = clone_model();
        let p = (20.0_f64 / 100.0).powf(1.5);
        for r in 0..5 {
            let expected = (1.0 - p.powi(r as i32 + 1)).powi(10);
            assert!(approx_eq(m.pocd(r), expected, 1e-12, 1e-12), "r = {r}");
        }
    }

    #[test]
    fn theorem3_restart_closed_form() {
        let m = restart_model();
        let t_min = 20.0_f64;
        let beta = 1.5;
        let d = 100.0_f64;
        let tau_est = 40.0;
        for r in 0..5 {
            let rf = f64::from(r);
            let q = t_min.powf(beta * (rf + 1.0)) / (d.powf(beta) * (d - tau_est).powf(beta * rf));
            let expected = (1.0 - q).powi(10);
            assert!(approx_eq(m.pocd(r), expected, 1e-12, 1e-12), "r = {r}");
        }
    }

    #[test]
    fn theorem5_resume_closed_form() {
        let phi = 0.4;
        let m = resume_model(phi);
        let t_min = 20.0_f64;
        let beta = 1.5;
        let d = 100.0_f64;
        let tau_est = 40.0;
        for r in 0..5 {
            let rf = f64::from(r);
            let q = (1.0 - phi).powf(beta * (rf + 1.0)) * t_min.powf(beta * (rf + 2.0))
                / (d.powf(beta) * (d - tau_est).powf(beta * (rf + 1.0)));
            let expected = (1.0 - q).powi(10);
            assert!(approx_eq(m.pocd(r), expected, 1e-12, 1e-12), "r = {r}");
        }
    }

    #[test]
    fn pocd_monotone_in_r() {
        for m in [clone_model(), restart_model(), resume_model(0.3)] {
            let mut prev = m.pocd(0);
            for r in 1..8 {
                let cur = m.pocd(r);
                assert!(cur >= prev, "strategy {:?} r {r}", m.params().kind());
                prev = cur;
            }
        }
    }

    #[test]
    fn pocd_increases_with_deadline() {
        let tight = PocdModel::new(
            job().with_deadline(60.0).unwrap(),
            StrategyParams::clone_strategy(40.0),
        )
        .unwrap();
        let loose = PocdModel::new(
            job().with_deadline(200.0).unwrap(),
            StrategyParams::clone_strategy(40.0),
        )
        .unwrap();
        for r in 0..4 {
            assert!(loose.pocd(r) > tight.pocd(r));
        }
    }

    #[test]
    fn baseline_matches_r_zero_clone() {
        let m = clone_model();
        assert!(approx_eq(m.baseline_pocd(), m.pocd(0), 1e-15, 1e-15));
    }

    #[test]
    fn restart_r_zero_equals_baseline() {
        // With no extra attempts S-Restart degenerates to no speculation.
        let m = restart_model();
        assert!(approx_eq(m.pocd(0), m.baseline_pocd(), 1e-15, 1e-15));
    }

    #[test]
    fn theorem7_clone_beats_restart() {
        let c = clone_model();
        let s = restart_model();
        for r in 1..6 {
            assert_eq!(compare_pocd(&c, &s, r), Dominance::FirstWins);
        }
        // r = 0: both degenerate to the baseline.
        assert_eq!(compare_pocd(&c, &s, 0), Dominance::Tie);
    }

    #[test]
    fn theorem7_resume_beats_restart() {
        let re = resume_model(0.3);
        let s = restart_model();
        for r in 0..6 {
            assert_eq!(compare_pocd(&re, &s, r), Dominance::FirstWins);
        }
    }

    #[test]
    fn theorem7_clone_vs_resume_threshold() {
        // Pick parameters where the threshold premise D̄ < ϕ̄·D holds:
        // τ_est = 40, D = 100, ϕ = 0.3 ⇒ D̄ = 60 < 70 = ϕ̄·D.
        let phi = 0.3;
        let c = clone_model();
        let re = resume_model(phi);
        let threshold = clone_beats_resume_threshold(&job(), re.params()).expect("premise holds");
        for r in 0..12 {
            let cmp = compare_pocd(&c, &re, r);
            if f64::from(r) > threshold {
                assert_eq!(cmp, Dominance::FirstWins, "r = {r}, threshold {threshold}");
            } else {
                assert_ne!(cmp, Dominance::FirstWins, "r = {r}, threshold {threshold}");
            }
        }
    }

    #[test]
    fn clone_vs_resume_threshold_requires_premise() {
        // ϕ = 0.9 ⇒ ϕ̄·D = 10 < D̄ = 60: premise fails.
        let re = resume_model(0.9);
        assert!(clone_beats_resume_threshold(&job(), re.params()).is_err());
    }

    #[test]
    fn concavity_threshold_matches_failure_probability_crossing() {
        for m in [clone_model(), restart_model(), resume_model(0.3)] {
            let gamma = m.concavity_threshold().expect("finite threshold");
            let n = f64::from(m.job().tasks());
            // Just above Γ the failure probability is below 1/N and vice versa.
            let above = m.failure_probability_at(gamma + 1e-6);
            assert!(above < 1.0 / n + 1e-9, "{:?}", m.params().kind());
            if gamma > 0.0 {
                let below = m.failure_probability_at(gamma - 1e-6);
                assert!(below > 1.0 / n - 1e-9, "{:?}", m.params().kind());
            }
        }
    }

    #[test]
    fn concavity_threshold_is_small_in_practice() {
        // The paper notes Γ is typically < 4 for realistic parameters.
        for m in [clone_model(), restart_model(), resume_model(0.3)] {
            let gamma = m.concavity_threshold().unwrap();
            assert!(gamma < 4.0, "{:?}: {gamma}", m.params().kind());
        }
    }

    #[test]
    fn concave_from_rounds_up() {
        let m = clone_model();
        let gamma = m.concavity_threshold().unwrap();
        let from = m.concave_from().unwrap();
        assert!(f64::from(from) >= gamma);
        assert!(f64::from(from) < gamma.max(0.0) + 1.0 + 1e-9);
    }

    #[test]
    fn resume_with_no_useful_window_has_no_threshold() {
        // Deadline 45, τ_est 40 leaves a 5 s window; with ϕ = 0 the resumed
        // attempts still need ≥ t_min = 20 s, so speculation cannot help.
        let job = JobProfile::builder()
            .t_min(20.0)
            .deadline(45.0)
            .build()
            .unwrap();
        // Constructing the model fails the validation because the window is
        // useless; build the raw params and confirm the validation error.
        let params = StrategyParams::restart(40.0, 44.0).unwrap();
        assert!(PocdModel::new(job, params).is_err());
    }

    #[test]
    fn min_r_for_target() {
        let m = clone_model();
        let r = m.min_r_for_target(0.99).unwrap().unwrap();
        assert!(m.pocd(r) >= 0.99);
        if r > 0 {
            assert!(m.pocd(r - 1) < 0.99);
        }
        // A target of zero is met by r = 0.
        assert_eq!(m.min_r_for_target(0.0).unwrap(), Some(0));
        // Exactly 1.0 is unreachable with a finite number of attempts.
        assert_eq!(m.min_r_for_target(1.0).unwrap(), None);
        assert!(m.min_r_for_target(1.5).is_err());
    }

    #[test]
    fn extra_miss_probability_by_strategy() {
        let c = clone_model();
        assert!(approx_eq(
            c.extra_miss_probability(),
            c.original_miss_probability(),
            1e-15,
            1e-15
        ));
        let s = restart_model();
        let expected = (20.0_f64 / 60.0).powf(1.5);
        assert!(approx_eq(
            s.extra_miss_probability(),
            expected,
            1e-12,
            1e-12
        ));
        let re = resume_model(0.4);
        let expected = (0.6 * 20.0_f64 / 60.0).powf(1.5);
        assert!(approx_eq(
            re.extra_miss_probability(),
            expected,
            1e-12,
            1e-12
        ));
    }
}
