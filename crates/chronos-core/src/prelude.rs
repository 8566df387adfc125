//! Convenience re-exports of the types most applications need.
//!
//! ```
//! use chronos_core::prelude::*;
//!
//! # fn main() -> Result<(), ChronosError> {
//! let job = JobProfile::builder().deadline(120.0).build()?;
//! let outcome = Optimizer::new(UtilityModel::default())
//!     .optimize(&job, &StrategyParams::clone_strategy(60.0))?;
//! assert!(outcome.pocd > 0.0);
//! # Ok(())
//! # }
//! ```

pub use crate::cost::CostModel;
pub use crate::error::ChronosError;
pub use crate::frontier::{Frontier, FrontierPoint};
pub use crate::job::{JobProfile, JobProfileBuilder};
pub use crate::optimizer::{OptimizationOutcome, Optimizer, OptimizerConfig};
pub use crate::pareto::Pareto;
pub use crate::pocd::{compare_pocd, Dominance, PocdModel};
pub use crate::strategy::{StrategyKind, StrategyParams};
pub use crate::utility::{NetUtility, UtilityModel};
