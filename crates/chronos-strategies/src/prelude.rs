//! Convenience re-exports for building strategy line-ups.

pub use crate::budget::{BudgetedPolicy, PolicyBuildError, PolicyBuilder};
pub use crate::common::{expected_straggler_progress, ChronosPolicyConfig};
pub use crate::hadoop::{HadoopNoSpec, HadoopSpeculate};
pub use crate::mantri::MantriPolicy;
pub use crate::policy::ChronosPolicy;
pub use crate::timing::{StrategyTiming, Timing};
pub use crate::{ParsePolicyKindError, PolicyKind};
pub use chronos_plan::{AllocationLedger, LedgerSummary, SpeculationBudget};
pub use chronos_sim::prelude::SpeculationPolicy;
