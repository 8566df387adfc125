//! # chronos-trace
//!
//! Workload and environment models for the Chronos evaluation:
//!
//! * [`workload`] — the four testbed benchmarks (Sort, SecondarySort,
//!   TeraSort, WordCount) and the Figure 2 job mix,
//! * [`google`] — a synthetic Google-cluster-trace-style generator standing
//!   in for the 30-hour, 2 700-job trace of Figures 3–5,
//! * [`loader`] — the `chronos-trace` v1 on-disk trace format: a streaming
//!   [`loader::TraceLoader`] that parses trace files into validated
//!   [`chronos_sim::prelude::JobSpec`] chunks (with typed errors naming the
//!   offending line/column, duplicate job ids included) and a
//!   [`loader::TraceWriter`] that round-trips any workload to disk
//!   bit-exactly (see the module docs for the format specification),
//! * [`convert`] — foreign-format ingestion: the streaming
//!   [`convert::TraceConverter`] trait and the
//!   [`convert::GoogleClusterTraceConverter`] for the 2011 Google
//!   cluster-trace `task_events` CSV schema, fitting per-job Pareto
//!   profiles by method of moments and emitting validated v1 through the
//!   writer (see the module docs for the schema and the fit),
//! * [`pricing`] — fixed and EC2-spot-like price models,
//! * [`contention`] — the background-load model that produces the heavy
//!   (Pareto, `β < 2`) task-time tails and persistent slow nodes,
//! * [`census`] — a streaming distinct-profile census that predicts how
//!   much the `chronos-plan` cache can help on a given trace.
//!
//! Each substitution for data the paper used but which cannot be
//! redistributed (EC2 spot history, the Google trace, Stress-injected noise)
//! is documented in `DESIGN.md`.
//!
//! # Example
//!
//! ```
//! use chronos_trace::prelude::*;
//!
//! # fn main() -> Result<(), chronos_core::ChronosError> {
//! let workload = TestbedWorkload::paper_setup(Benchmark::Sort, 42).with_jobs(5);
//! let jobs = workload.generate()?;
//! assert_eq!(jobs.len(), 5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod census;
pub mod contention;
pub mod convert;
pub mod google;
pub mod loader;
pub mod pricing;
pub mod workload;

pub mod prelude;

pub use census::{CensusSummary, ProfileCensus};
pub use contention::{ContentionLevel, ContentionModel};
pub use convert::{
    converter_for, ConvertError, ConvertSummary, GoogleClusterTraceConverter, TraceConverter,
};
pub use google::{GoogleTraceConfig, GoogleTraceStream, SyntheticTrace};
pub use loader::{
    write_trace, TraceHeader, TraceLoader, TraceParseError, TraceStream, TraceWriteError,
    TraceWriter,
};
pub use pricing::{PriceModel, PricePath};
pub use workload::{Benchmark, TestbedWorkload};
