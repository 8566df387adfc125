//! # chronos-plan
//!
//! The strategy-planning subsystem of the Chronos reproduction: memoized
//! execution of the per-job PoCD/cost optimization (Algorithm 1 of the
//! paper) across workloads that share job classes.
//!
//! Real traces — and the synthetic Google-style workloads the evaluation
//! replays — contain thousands of jobs drawn from a handful of
//! `(tasks, t_min, β, deadline, price)` profiles. The closed forms of
//! Sections III–V depend only on those inputs, so solving them once per
//! *class* and reusing the result per *job* is free throughput: the
//! multi-job formulations of Xu & Lau (arXiv:1406.0609) and the task-cloning
//! bounds of arXiv:1501.02330 exploit exactly this structure. This crate
//! makes that reuse safe and observable:
//!
//! * [`ProfileKey`] / [`JobProfileKey`] — canonical, hashable identities of
//!   an optimization problem, bit-exact in every `f64` field
//!   ([`canonical_f64_bits`]), so equal inputs always collide and inputs one
//!   ULP apart never do;
//! * [`PlanCache`] — a lock-striped concurrent cache with single-flight
//!   solves and hit/miss/eviction counters ([`CacheStats`]). It is the only
//!   place planning is deduplicated;
//! * [`Planner`] — an optimizer bound to a cache: [`Planner::plan_request`]
//!   is the one memoized entry point, and a miss computes exactly
//!   `Optimizer::optimize`, whose [`chronos_core::OptimizationOutcome`]
//!   (or error) is what the cache stores. The uncached reference paths
//!   call [`Planner::optimizer`]'s `optimize` directly;
//! * [`budget`] — cluster-wide speculation budgets: [`allocate`] plans each
//!   job of a batch once, in input order, then distributes a shared copy
//!   budget by deterministic greedy water-filling over the per-job
//!   closed-form utilities, and an [`AllocationLedger`] folds per-batch
//!   grants into a worker-count-invariant digest.
//!
//! The crate sits between `chronos-core` (whose optimizer it wraps) and the
//! simulation/benchmark layers (whose policies and replay paths consume it);
//! it depends only on `chronos-core`.
//!
//! # Worked example
//!
//! A 10,000-job workload drawn from three job classes plans with exactly
//! three optimizer solves, and every result is bit-identical to the
//! uncached path:
//!
//! ```
//! use chronos_plan::prelude::*;
//! use chronos_core::prelude::*;
//!
//! # fn main() -> Result<(), ChronosError> {
//! let planner = Planner::new(UtilityModel::new(1e-4, 0.0)?);
//!
//! // Three job classes, cycled over 10,000 "submissions".
//! let classes = [
//!     JobProfile::builder().tasks(10).deadline(100.0).build()?,
//!     JobProfile::builder().tasks(50).deadline(120.0).build()?,
//!     JobProfile::builder().tasks(200).deadline(150.0).build()?,
//! ];
//! let params = StrategyParams::resume(40.0, 80.0, 0.3)?;
//! let plans: Vec<PlanResult> = (0..10_000)
//!     .map(|i| planner.plan_request(&PlanRequest::new(classes[i % 3], params)))
//!     .collect();
//!
//! // One solve per class, 9,997 cache hits …
//! let stats = planner.stats();
//! assert_eq!(stats.misses, 3);
//! assert_eq!(stats.hits + stats.misses, 10_000);
//! assert!(stats.hit_rate() > 0.999);
//!
//! // … and the memoized plans are the uncached optimizer's answers.
//! let direct = Optimizer::new(UtilityModel::new(1e-4, 0.0)?)
//!     .optimize(&classes[1], &params)?;
//! assert_eq!(plans[1].as_ref().unwrap(), &direct);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
pub mod cache;
pub mod key;
pub mod planner;

pub mod prelude;

pub use budget::{
    allocate, Allocation, AllocationLedger, BudgetJob, Grant, LedgerSummary, ParseBudgetError,
    SpeculationBudget,
};
pub use cache::{CacheStats, PlanCache};
pub use key::{canonical_f64_bits, JobProfileKey, ProfileKey};
pub use planner::{PlanRequest, PlanResult, Planner};
