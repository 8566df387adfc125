//! Canonical, hashable keys for optimization inputs.
//!
//! The planner memoizes optimizer work per *job class*: two jobs whose
//! analytical inputs are equal must map to the same key, and two jobs whose
//! inputs differ — even by a single ULP of one `f64` field — must map to
//! different keys, because the closed forms are continuous but not constant
//! in every parameter. `f64` itself is neither `Eq` nor `Hash`, so the keys
//! canonicalize each float to its IEEE-754 bit pattern via
//! [`canonical_f64_bits`], which collapses the one case where distinct bit
//! patterns compare equal (`-0.0 == +0.0`). `NaN` never reaches a key: every
//! constructor input is validated by `chronos-core` before a key can be
//! built.

use chronos_core::{JobProfile, OptimizerConfig, StrategyKind, StrategyParams, UtilityModel};

/// The IEEE-754 bit pattern of `x`, with both zeros collapsed to `+0.0`.
///
/// This is the equality the cache keys use: bit-exact, except that the two
/// representations of zero (which compare `==` as floats) share one key.
///
/// # Examples
///
/// ```
/// use chronos_plan::canonical_f64_bits;
///
/// assert_eq!(canonical_f64_bits(-0.0), canonical_f64_bits(0.0));
/// let ulp_apart = f64::from_bits(100.0f64.to_bits() + 1);
/// assert_ne!(canonical_f64_bits(100.0), canonical_f64_bits(ulp_apart));
/// ```
#[must_use]
pub fn canonical_f64_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// Canonical key of a [`JobProfile`]: the job-class identity used to count
/// distinct profiles in a trace and as the job half of a [`ProfileKey`].
///
/// Two profiles produce the same key exactly when every analytical input
/// (`N`, `t_min`, `β`, `D`, `C`) is equal as a float.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobProfileKey {
    tasks: u32,
    t_min: u64,
    beta: u64,
    deadline: u64,
    price: u64,
}

impl JobProfileKey {
    /// Builds the canonical key of a job profile.
    #[must_use]
    pub fn of(job: &JobProfile) -> Self {
        JobProfileKey {
            tasks: job.tasks(),
            t_min: canonical_f64_bits(job.t_min()),
            beta: canonical_f64_bits(job.beta()),
            deadline: canonical_f64_bits(job.deadline()),
            price: canonical_f64_bits(job.price()),
        }
    }

    /// The task count `N` carried by the key (the one field that needs no
    /// canonicalization).
    #[must_use]
    pub fn tasks(&self) -> u32 {
        self.tasks
    }
}

/// Stable small discriminant of a [`StrategyKind`] (the enum itself carries
/// no guaranteed discriminant values).
fn kind_tag(kind: StrategyKind) -> u8 {
    match kind {
        StrategyKind::Clone => 0,
        StrategyKind::SpeculativeRestart => 1,
        StrategyKind::SpeculativeResume => 2,
    }
}

/// Canonical key of one optimization problem: job profile, strategy
/// parameters, objective and optimizer configuration, with every `f64`
/// canonicalized by [`canonical_f64_bits`].
///
/// This is the full input of `Optimizer::optimize`, so memoizing on it is
/// sound even when one [`crate::PlanCache`] is shared by planners with
/// different objectives (θ, `R_min`) or optimizer settings: inputs that
/// could produce different outcomes can never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProfileKey {
    job: JobProfileKey,
    kind: u8,
    tau_est: u64,
    tau_kill: u64,
    phi_est: u64,
    theta: u64,
    r_min: u64,
    r_max: u32,
}

impl ProfileKey {
    /// Builds the canonical key of one optimization problem.
    #[must_use]
    pub fn new(
        job: &JobProfile,
        params: &StrategyParams,
        objective: &UtilityModel,
        config: &OptimizerConfig,
    ) -> Self {
        ProfileKey {
            job: JobProfileKey::of(job),
            kind: kind_tag(params.kind()),
            tau_est: canonical_f64_bits(params.tau_est()),
            tau_kill: canonical_f64_bits(params.tau_kill()),
            phi_est: canonical_f64_bits(params.phi_est()),
            theta: canonical_f64_bits(objective.theta()),
            r_min: canonical_f64_bits(objective.r_min()),
            r_max: config.r_max,
        }
    }

    /// The job half of the key.
    #[must_use]
    pub fn job(&self) -> JobProfileKey {
        self.job
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

    fn key(job: &JobProfile, params: &StrategyParams) -> ProfileKey {
        ProfileKey::new(
            job,
            params,
            &UtilityModel::default(),
            &OptimizerConfig::default(),
        )
    }

    #[test]
    fn equal_inputs_collide() {
        let params = StrategyParams::resume(40.0, 80.0, 0.4).unwrap();
        assert_eq!(key(&job(100.0), &params), key(&job(100.0), &params));
        assert_eq!(
            JobProfileKey::of(&job(100.0)),
            JobProfileKey::of(&job(100.0))
        );
    }

    #[test]
    fn one_ulp_of_any_job_field_separates_keys() {
        // A single-ULP nudge of the deadline (and of t_min) must produce a
        // different key: the closed forms are not constant in either.
        let params = StrategyParams::resume(40.0, 80.0, 0.4).unwrap();
        let base = job(100.0);
        let nudged_deadline = job(f64::from_bits(100.0f64.to_bits() + 1));
        assert_ne!(key(&base, &params), key(&nudged_deadline, &params));

        let nudged_t_min = JobProfile::builder()
            .tasks(10)
            .t_min(f64::from_bits(20.0f64.to_bits() + 1))
            .beta(1.5)
            .deadline(100.0)
            .price(1.0)
            .build()
            .unwrap();
        assert_ne!(key(&base, &params), key(&nudged_t_min, &params));
        assert_ne!(JobProfileKey::of(&base), JobProfileKey::of(&nudged_t_min));
    }

    #[test]
    fn one_ulp_of_strategy_and_objective_fields_separates_keys() {
        let base = StrategyParams::resume(40.0, 80.0, 0.4).unwrap();
        let nudged =
            StrategyParams::resume(40.0, 80.0, f64::from_bits(0.4f64.to_bits() + 1)).unwrap();
        assert_ne!(key(&job(100.0), &base), key(&job(100.0), &nudged));

        let theta_nudged = UtilityModel::new(f64::from_bits(1e-4f64.to_bits() + 1), 0.0).unwrap();
        assert_ne!(
            ProfileKey::new(
                &job(100.0),
                &base,
                &UtilityModel::new(1e-4, 0.0).unwrap(),
                &OptimizerConfig::default()
            ),
            ProfileKey::new(
                &job(100.0),
                &base,
                &theta_nudged,
                &OptimizerConfig::default()
            )
        );
    }

    #[test]
    fn strategy_kinds_never_collide() {
        let clone = StrategyParams::clone_strategy(80.0);
        // Same timing numbers, different kind (tau_est 0 in both).
        let restart = StrategyParams::restart(0.0, 80.0).unwrap();
        assert_ne!(key(&job(100.0), &clone), key(&job(100.0), &restart));
    }

    #[test]
    fn negative_zero_collides_with_zero() {
        assert_eq!(canonical_f64_bits(0.0), canonical_f64_bits(-0.0));
        assert_ne!(0.0f64.to_bits(), (-0.0f64).to_bits());
    }
}
