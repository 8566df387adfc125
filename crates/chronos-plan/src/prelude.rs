//! Convenience re-exports for planner users.

pub use crate::budget::{
    allocate, Allocation, AllocationLedger, BudgetJob, Grant, LedgerSummary, SpeculationBudget,
};
pub use crate::cache::{CacheStats, PlanCache};
pub use crate::key::{canonical_f64_bits, JobProfileKey, ProfileKey};
pub use crate::planner::{PlanRequest, PlanResult, Planner};
