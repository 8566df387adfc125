//! # chronos-strategies
//!
//! The speculative-execution strategies evaluated in the Chronos paper,
//! implemented against the policy interface of [`chronos_sim`]:
//!
//! * the three **Chronos strategies** — Clone, Speculative-Restart and
//!   Speculative-Resume — as one [`ChronosPolicy`] that takes the
//!   [`StrategyKind`](chronos_core::StrategyKind) as a parameter, as
//!   Algorithm 1 from [`chronos_core`] does: it runs at job submission to
//!   pick the optimal number of extra attempts `r`, and the engine hands
//!   that `r` back at every check point (the policy keeps no per-job
//!   state);
//! * the **baselines**: [`HadoopNoSpec`] (Hadoop-NS), [`HadoopSpeculate`]
//!   (Hadoop-S, stock speculation) and [`MantriPolicy`] (Mantri-style
//!   outlier mitigation).
//!
//! # Example: build every policy used in Figure 2
//!
//! ```
//! use chronos_core::StrategyKind;
//! use chronos_strategies::prelude::*;
//! use chronos_sim::prelude::SpeculationPolicy;
//!
//! let config = ChronosPolicyConfig::testbed();
//! let mut policies: Vec<Box<dyn SpeculationPolicy>> = vec![
//!     Box::new(HadoopNoSpec::default()),
//!     Box::new(HadoopSpeculate::default()),
//! ];
//! for kind in StrategyKind::ALL {
//!     policies.push(Box::new(ChronosPolicy::new(kind, config)));
//! }
//! let names: Vec<&str> = policies.iter().map(|policy| policy.name()).collect();
//! assert_eq!(names, ["hadoop-ns", "hadoop-s", "clone", "s-restart", "s-resume"]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
mod clone;
pub mod common;
pub mod hadoop;
pub mod mantri;
pub mod policy;
mod restart;
mod resume;
pub mod timing;

pub mod prelude;

pub use budget::{BudgetedPolicy, PolicyBuildError, PolicyBuilder};
pub use common::{expected_straggler_progress, ChronosPolicyConfig};
pub use hadoop::{HadoopNoSpec, HadoopSpeculate};
pub use mantri::MantriPolicy;
pub use policy::ChronosPolicy;
pub use timing::{StrategyTiming, Timing};

use chronos_sim::prelude::SpeculationPolicy;

/// Identifier of every policy this crate can build, used by the experiment
/// harness to iterate over strategy line-ups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Hadoop with speculation disabled.
    HadoopNoSpec,
    /// Default Hadoop speculation.
    HadoopSpeculate,
    /// Mantri-style outlier mitigation.
    Mantri,
    /// Chronos Clone.
    Clone,
    /// Chronos Speculative-Restart.
    SpeculativeRestart,
    /// Chronos Speculative-Resume.
    SpeculativeResume,
}

impl PolicyKind {
    /// All policies, in the order the paper's figures list them.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::HadoopNoSpec,
        PolicyKind::HadoopSpeculate,
        PolicyKind::Mantri,
        PolicyKind::Clone,
        PolicyKind::SpeculativeRestart,
        PolicyKind::SpeculativeResume,
    ];

    /// The label used in experiment output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::HadoopNoSpec => "hadoop-ns",
            PolicyKind::HadoopSpeculate => "hadoop-s",
            PolicyKind::Mantri => "mantri",
            PolicyKind::Clone => "clone",
            PolicyKind::SpeculativeRestart => "s-restart",
            PolicyKind::SpeculativeResume => "s-resume",
        }
    }

    /// Looks a policy up by its [`PolicyKind::label`] (as accepted by the
    /// experiment binaries' `--policy` flags). The [`std::str::FromStr`]
    /// impl is the same lookup with a typed error naming the bad label.
    #[must_use]
    pub fn from_label(label: &str) -> Option<PolicyKind> {
        label.parse().ok()
    }

    /// Instantiates the policy. Chronos strategies use `config`; baselines
    /// ignore it. Shorthand for an option-free [`PolicyBuilder`].
    #[must_use]
    // Invariant: only a finite budget can fail a build; a new builder's is unlimited.
    #[allow(clippy::expect_used)]
    pub fn build(&self, config: ChronosPolicyConfig) -> Box<dyn SpeculationPolicy> {
        PolicyBuilder::new(config)
            .build(*self)
            .expect("unbudgeted builds are infallible")
    }
}

impl std::fmt::Display for PolicyKind {
    /// Prints the [`PolicyKind::label`]; `Display` and [`std::str::FromStr`]
    /// round-trip.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The typed error of parsing a [`PolicyKind`] from a label, naming the bad
/// input and the accepted labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyKindError {
    /// The label that matched no policy.
    pub label: String,
}

impl std::fmt::Display for ParsePolicyKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown policy `{}` (expected one of:", self.label)?;
        for (index, kind) in PolicyKind::ALL.iter().enumerate() {
            let separator = if index == 0 { " " } else { ", " };
            write!(f, "{separator}{}", kind.label())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParsePolicyKindError {}

impl std::str::FromStr for PolicyKind {
    type Err = ParsePolicyKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::ALL
            .into_iter()
            .find(|kind| kind.label() == s)
            .ok_or_else(|| ParsePolicyKindError {
                label: s.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = PolicyKind::ALL.iter().map(PolicyKind::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), PolicyKind::ALL.len());
    }

    #[test]
    fn labels_parse_and_display_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.to_string(), kind.label());
            assert_eq!(kind.label().parse::<PolicyKind>().unwrap(), kind);
            assert_eq!(PolicyKind::from_label(kind.label()), Some(kind));
        }
        let err = "late".parse::<PolicyKind>().unwrap_err();
        assert!(err.to_string().contains("`late`"), "{err}");
        assert!(err.to_string().contains("s-restart"), "{err}");
        assert_eq!(PolicyKind::from_label("late"), None);
    }

    #[test]
    fn build_produces_matching_names() {
        let config = ChronosPolicyConfig::testbed();
        for kind in PolicyKind::ALL {
            let policy = kind.build(config);
            assert_eq!(policy.name(), kind.label(), "{kind:?}");
        }
    }
}
