//! # chronos-sim
//!
//! A discrete-event MapReduce cluster simulator: the substrate on which the
//! Chronos strategies and the Hadoop/Mantri baselines are evaluated.
//!
//! The paper prototypes Chronos inside Hadoop YARN and measures it on a
//! 40-node EC2 testbed; this crate replaces that testbed with a simulator
//! that reproduces the decision-relevant parts of the stack:
//!
//! * a **cluster** of nodes with map-task containers and a FIFO
//!   ResourceManager ([`cluster`]),
//! * **jobs, tasks and attempts** with Pareto-distributed execution times,
//!   JVM launch delays, linear progress scores and resume offsets
//!   ([`job`], [`attempt`]),
//! * the **Application Master's estimators** — Hadoop's default and the
//!   JVM-aware estimator of Eq. 30, plus the Eq. 31 resume-offset estimator
//!   ([`progress`]),
//! * a **policy interface** through which Clone, Speculative-Restart,
//!   Speculative-Resume, Hadoop-S and Mantri plug in ([`policy`]),
//! * **metrics** matching the paper's evaluation axes: PoCD, cost and net
//!   utility ([`metrics`]),
//! * the deterministic **event-driven engine** tying it together
//!   ([`engine`]),
//! * and a **sharded runner** that scales workloads of independent jobs
//!   across worker threads without giving up bit-for-bit reproducibility
//!   ([`shard`]).
//!
//! # Quick example
//!
//! ```
//! use chronos_sim::prelude::*;
//!
//! # fn main() -> Result<(), SimError> {
//! let mut sim = Simulation::new(SimConfig::default(), Box::new(NoSpeculation))?;
//! sim.submit(JobSpec::new(JobId::new(0), SimTime::ZERO, 300.0, 10))?;
//! let report = sim.run()?;
//! println!("PoCD = {}", report.pocd());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod attempt;
pub mod cluster;
pub mod config;
pub mod engine;
pub mod error;
pub mod event;
pub mod ids;
pub mod job;
pub mod metrics;
pub mod policy;
pub mod progress;
pub mod shard;
pub mod time;

pub mod prelude;

pub use cluster::{ParsePlacementError, PlacementChoice, PlacementPolicy, PlacementRequest};
pub use config::{ClusterSpec, EstimatorKind, JvmModel, ShardSpec, SimConfig};
pub use engine::Simulation;
pub use error::SimError;
pub use job::{JobSpec, TaskSpec};
pub use metrics::{JobMetrics, LatencyHistogram, SimulationReport};
pub use policy::{NoSpeculation, SpeculationPolicy};
pub use shard::{shard_seed, ReplayError, RunOptions, RunOutput, ShardedRunner};
pub use time::{SimDuration, SimTime};
