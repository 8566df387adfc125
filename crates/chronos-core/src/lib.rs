//! # chronos-core
//!
//! Analytical heart of the Chronos reproduction: the Probability of
//! Completion before Deadline (PoCD) closed forms, expected machine-time
//! (cost) models, the net-utility objective and the hybrid optimizer that
//! selects the number of speculative attempts `r` for each job.
//!
//! The crate mirrors Sections III–V of *"Chronos: A Unifying Optimization
//! Framework for Speculative Execution of Deadline-critical MapReduce Jobs"*
//! (ICDCS 2018):
//!
//! * [`pareto`] — the Pareto task execution-time model, order statistics
//!   (Lemma 1) and conditional forms (Lemma 3),
//! * [`pocd`] — Theorems 1, 3, 5 and the dominance relations of Theorem 7,
//! * [`cost`] — Theorems 2, 4, 6,
//! * [`utility`] — the net-utility objective and the concavity thresholds of
//!   Theorem 8,
//! * [`optimizer`] — Algorithm 1 (an upward integer walk that stops on the
//!   concave tail),
//! * [`frontier`] — the PoCD/cost tradeoff frontier used for SLA budgeting.
//!
//! # Quick example
//!
//! ```
//! use chronos_core::prelude::*;
//!
//! # fn main() -> Result<(), ChronosError> {
//! // A job of 10 tasks, minimum task time 20 s, tail index 1.5 and a 100 s
//! // deadline, priced at the default unit cost.
//! let job = JobProfile::builder()
//!     .tasks(10)
//!     .t_min(20.0)
//!     .beta(1.5)
//!     .deadline(100.0)
//!     .build()?;
//!
//! let strategy = StrategyParams::clone_strategy(40.0);
//! let objective = UtilityModel::new(0.0001, 0.0)?;
//! let outcome = Optimizer::new(objective).optimize(&job, &strategy)?;
//!
//! assert!(outcome.pocd > 0.9);
//! assert!(outcome.r <= 16);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
pub mod error;
pub mod frontier;
pub mod job;
pub mod numeric;
pub mod optimizer;
pub mod pareto;
pub mod pocd;
pub mod strategy;
pub mod utility;

pub mod prelude;

pub use cost::CostModel;
pub use error::ChronosError;
pub use frontier::{Frontier, FrontierPoint};
pub use job::{JobProfile, JobProfileBuilder};
pub use optimizer::{OptimizationOutcome, Optimizer, OptimizerConfig};
pub use pareto::Pareto;
pub use pocd::PocdModel;
pub use strategy::{StrategyKind, StrategyParams};
pub use utility::UtilityModel;
