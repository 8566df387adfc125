//! Strategy identifiers and timing parameters shared by the analytical
//! models and the simulator-facing policies.
//!
//! Chronos unifies three strategies (Section III):
//!
//! * **Clone** — `r + 1` attempts per task launched at time 0; at `τ_kill`
//!   only the best-progress attempt survives.
//! * **Speculative-Restart** — one attempt per task; at `τ_est` stragglers
//!   (estimated completion beyond `D`) get `r` extra attempts that restart
//!   from byte 0; at `τ_kill` only the fastest attempt survives.
//! * **Speculative-Resume** — straggler detection as in S-Restart, but the
//!   straggler is killed and `r + 1` fresh attempts resume from the last
//!   processed byte offset; at `τ_kill` only the fastest attempt survives.

use crate::error::ChronosError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three Chronos strategies analysed in closed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Proactive cloning: `r + 1` parallel attempts from the start.
    Clone,
    /// Reactive restart: `r` extra attempts from byte 0 for detected stragglers.
    SpeculativeRestart,
    /// Reactive, work-preserving resume: kill the straggler, launch `r + 1`
    /// attempts from the last processed byte offset.
    SpeculativeResume,
}

impl StrategyKind {
    /// All strategy kinds, in the order the paper presents them.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::Clone,
        StrategyKind::SpeculativeRestart,
        StrategyKind::SpeculativeResume,
    ];

    /// Short machine-friendly label, e.g. for experiment output rows.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::Clone => "clone",
            StrategyKind::SpeculativeRestart => "s-restart",
            StrategyKind::SpeculativeResume => "s-resume",
        }
    }

    /// Whether the strategy reacts to observed progress (as opposed to
    /// cloning proactively at submission time).
    #[must_use]
    pub fn is_reactive(&self) -> bool {
        !matches!(self, StrategyKind::Clone)
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StrategyKind::Clone => "Clone",
            StrategyKind::SpeculativeRestart => "Speculative-Restart",
            StrategyKind::SpeculativeResume => "Speculative-Resume",
        };
        f.write_str(name)
    }
}

/// Timing and progress parameters of a strategy instance.
///
/// * `tau_est` — the straggler-detection instant (`τ_est`); always `0` for
///   Clone, which never estimates.
/// * `tau_kill` — the pruning instant (`τ_kill`) at which all but the best
///   attempt are killed.
/// * `phi_est` — the average fraction of the task's workload processed by the
///   original attempt at `τ_est` (`ϕ_est`), used only by Speculative-Resume.
///
/// # Examples
///
/// ```
/// use chronos_core::strategy::{StrategyKind, StrategyParams};
///
/// # fn main() -> Result<(), chronos_core::ChronosError> {
/// let params = StrategyParams::new(StrategyKind::SpeculativeResume, 40.0, 80.0, 0.4)?;
/// assert_eq!(params.kind(), StrategyKind::SpeculativeResume);
/// assert!((params.remaining_fraction() - 0.6).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrategyParams {
    kind: StrategyKind,
    tau_est: f64,
    tau_kill: f64,
    phi_est: f64,
}

impl StrategyParams {
    /// Creates a parameter set, validating the timing relations.
    ///
    /// # Errors
    ///
    /// * [`ChronosError::InvalidParameter`] for negative or non-finite times
    ///   or a `phi_est` outside `[0, 1)`.
    /// * [`ChronosError::InconsistentParameters`] when `tau_kill < tau_est`,
    ///   or when a Clone strategy is given a non-zero `tau_est`.
    pub fn new(
        kind: StrategyKind,
        tau_est: f64,
        tau_kill: f64,
        phi_est: f64,
    ) -> Result<Self, ChronosError> {
        if !(tau_est.is_finite() && tau_est >= 0.0) {
            return Err(ChronosError::invalid(
                "tau_est",
                tau_est,
                "a finite value >= 0",
            ));
        }
        if !(tau_kill.is_finite() && tau_kill >= 0.0) {
            return Err(ChronosError::invalid(
                "tau_kill",
                tau_kill,
                "a finite value >= 0",
            ));
        }
        if tau_kill < tau_est {
            return Err(ChronosError::inconsistent(format!(
                "tau_kill ({tau_kill}) must not precede tau_est ({tau_est})"
            )));
        }
        if !(0.0..1.0).contains(&phi_est) {
            return Err(ChronosError::invalid(
                "phi_est",
                phi_est,
                "a fraction in [0, 1)",
            ));
        }
        if kind == StrategyKind::Clone && tau_est != 0.0 {
            return Err(ChronosError::inconsistent(
                "Clone never estimates: tau_est must be 0",
            ));
        }
        Ok(StrategyParams {
            kind,
            tau_est,
            tau_kill,
            phi_est,
        })
    }

    /// Convenience constructor for the Clone strategy (no estimation point).
    /// `tau_kill` is clamped into `[0, f64::MAX]`; NaN becomes 0.
    #[must_use]
    pub fn clone_strategy(tau_kill: f64) -> Self {
        let tau_kill = if tau_kill.is_nan() {
            0.0
        } else {
            tau_kill.clamp(0.0, f64::MAX)
        };
        // Invariant: a finite tau_kill >= 0 = tau_est and phi_est = 0 pass every check of `new`.
        #[allow(clippy::expect_used)]
        StrategyParams::new(StrategyKind::Clone, 0.0, tau_kill, 0.0)
            .expect("clone strategy parameters are always valid after clamping")
    }

    /// Convenience constructor for Speculative-Restart.
    ///
    /// # Errors
    ///
    /// Propagates validation failures from [`StrategyParams::new`].
    pub fn restart(tau_est: f64, tau_kill: f64) -> Result<Self, ChronosError> {
        StrategyParams::new(StrategyKind::SpeculativeRestart, tau_est, tau_kill, 0.0)
    }

    /// Convenience constructor for Speculative-Resume.
    ///
    /// # Errors
    ///
    /// Propagates validation failures from [`StrategyParams::new`].
    pub fn resume(tau_est: f64, tau_kill: f64, phi_est: f64) -> Result<Self, ChronosError> {
        StrategyParams::new(StrategyKind::SpeculativeResume, tau_est, tau_kill, phi_est)
    }

    /// Which of the three strategies this parameter set configures.
    #[must_use]
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// The straggler-detection instant `τ_est`.
    #[must_use]
    pub fn tau_est(&self) -> f64 {
        self.tau_est
    }

    /// The pruning instant `τ_kill`.
    #[must_use]
    pub fn tau_kill(&self) -> f64 {
        self.tau_kill
    }

    /// The average original-attempt progress at `τ_est` (`ϕ_est`).
    #[must_use]
    pub fn phi_est(&self) -> f64 {
        self.phi_est
    }

    /// The remaining workload fraction `1 − ϕ_est` processed by resumed
    /// attempts.
    #[must_use]
    pub fn remaining_fraction(&self) -> f64 {
        1.0 - self.phi_est
    }

    /// Returns a copy with a different estimation instant.
    ///
    /// # Errors
    ///
    /// Propagates validation failures from [`StrategyParams::new`].
    pub fn with_tau_est(&self, tau_est: f64) -> Result<Self, ChronosError> {
        StrategyParams::new(self.kind, tau_est, self.tau_kill, self.phi_est)
    }

    /// Returns a copy with a different kill instant.
    ///
    /// # Errors
    ///
    /// Propagates validation failures from [`StrategyParams::new`].
    pub fn with_tau_kill(&self, tau_kill: f64) -> Result<Self, ChronosError> {
        StrategyParams::new(self.kind, self.tau_est, tau_kill, self.phi_est)
    }

    /// Checks the parameter set against a specific deadline: reactive
    /// strategies need `D − τ_est > t_min` for any speculative attempt to be
    /// able to finish before the deadline.
    ///
    /// # Errors
    ///
    /// Returns [`ChronosError::InconsistentParameters`] when the timing makes
    /// speculation pointless for the supplied job constants.
    pub fn validate_against(&self, deadline: f64, t_min: f64) -> Result<(), ChronosError> {
        if self.kind.is_reactive() && deadline - self.tau_est <= t_min {
            return Err(ChronosError::inconsistent(format!(
                "D - tau_est = {} does not exceed t_min = {t_min}; extra attempts can never finish in time",
                deadline - self.tau_est
            )));
        }
        if self.kind.is_reactive() && self.tau_est >= deadline {
            return Err(ChronosError::inconsistent(
                "tau_est at or beyond the deadline leaves no time to react",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_display() {
        assert_eq!(StrategyKind::Clone.label(), "clone");
        assert_eq!(StrategyKind::SpeculativeRestart.label(), "s-restart");
        assert_eq!(StrategyKind::SpeculativeResume.label(), "s-resume");
        assert_eq!(StrategyKind::Clone.to_string(), "Clone");
        assert_eq!(
            StrategyKind::SpeculativeResume.to_string(),
            "Speculative-Resume"
        );
    }

    #[test]
    fn reactivity() {
        assert!(!StrategyKind::Clone.is_reactive());
        assert!(StrategyKind::SpeculativeRestart.is_reactive());
        assert!(StrategyKind::SpeculativeResume.is_reactive());
    }

    #[test]
    fn all_lists_three() {
        assert_eq!(StrategyKind::ALL.len(), 3);
    }

    #[test]
    fn clone_requires_zero_tau_est() {
        assert!(StrategyParams::new(StrategyKind::Clone, 10.0, 20.0, 0.0).is_err());
        assert!(StrategyParams::new(StrategyKind::Clone, 0.0, 20.0, 0.0).is_ok());
    }

    #[test]
    fn kill_cannot_precede_estimate() {
        assert!(StrategyParams::new(StrategyKind::SpeculativeRestart, 50.0, 40.0, 0.0).is_err());
    }

    #[test]
    fn phi_domain() {
        assert!(StrategyParams::resume(10.0, 20.0, 1.0).is_err());
        assert!(StrategyParams::resume(10.0, 20.0, -0.1).is_err());
        assert!(StrategyParams::resume(10.0, 20.0, 0.999).is_ok());
    }

    #[test]
    fn negative_times_rejected() {
        assert!(StrategyParams::restart(-1.0, 20.0).is_err());
        assert!(StrategyParams::new(StrategyKind::SpeculativeRestart, 1.0, f64::NAN, 0.0).is_err());
    }

    #[test]
    fn clone_strategy_clamps() {
        let p = StrategyParams::clone_strategy(-5.0);
        assert_eq!(p.tau_kill(), 0.0);
        assert_eq!(p.kind(), StrategyKind::Clone);
        assert_eq!(StrategyParams::clone_strategy(f64::NAN).tau_kill(), 0.0);
        assert_eq!(
            StrategyParams::clone_strategy(f64::INFINITY).tau_kill(),
            f64::MAX
        );
    }

    #[test]
    fn remaining_fraction() {
        let p = StrategyParams::resume(40.0, 80.0, 0.35).unwrap();
        assert!((p.remaining_fraction() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn with_setters_revalidate() {
        let p = StrategyParams::restart(40.0, 80.0).unwrap();
        assert!(p.with_tau_est(90.0).is_err());
        assert_eq!(p.with_tau_est(10.0).unwrap().tau_est(), 10.0);
        assert!(p.with_tau_kill(30.0).is_err());
        assert_eq!(p.with_tau_kill(120.0).unwrap().tau_kill(), 120.0);
    }

    #[test]
    fn validate_against_deadline() {
        let p = StrategyParams::restart(40.0, 80.0).unwrap();
        assert!(p.validate_against(100.0, 20.0).is_ok());
        // D - tau_est = 30 <= t_min = 40: reactive attempts can't finish.
        assert!(p.validate_against(70.0, 40.0).is_err());
        // Clone has no estimation constraint.
        let c = StrategyParams::clone_strategy(80.0);
        assert!(c.validate_against(70.0, 40.0).is_ok());
    }
}
