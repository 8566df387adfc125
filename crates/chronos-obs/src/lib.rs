//! # chronos-obs
//!
//! Deterministic observability primitives for the Chronos reproduction.
//!
//! The paper's pitch is *explainable* speculation — every extra copy exists
//! because a closed-form utility/PoCD calculation justified it — so the
//! audit trail has to be as reproducible as the decisions themselves. This
//! crate provides four building blocks, all worker-count-invariant by
//! construction:
//!
//! * [`MetricsRegistry`] — typed counters / gauges / histograms forming a
//!   commutative monoid, like every report type in the workspace:
//!   per-shard or per-worker registries merge into one total that does not
//!   depend on scheduling. Renders to Prometheus text exposition or JSON.
//! * [`DecisionTrace`] — a bounded ring of typed, sim-time-stamped
//!   [`TraceEvent`]s (submit override applied, speculative copy
//!   launched/killed, deadline missed, plan-cache totals, budget
//!   grant/deny, serve admission/overload) with an integer-only FNV-1a
//!   digest that is bit-identical across worker counts, and a
//!   line-oriented rendering suitable for byte-exact golden comparison.
//! * [`Digest`] — the FNV-1a 64 accumulator every pinned digest in the
//!   workspace is built from.
//! * [`span`] — two-clock phase timing: sim-time spans are plain
//!   [`TraceEvent::Phase`] records (digest-safe); wall-clock spans live
//!   behind the `wallclock` feature and are never hashed.
//!
//! The crate deliberately depends on nothing but `serde`/`serde_json` so
//! every layer of the stack (`chronos-sim`, `chronos-plan`,
//! `chronos-serve`, the bench tools) can feed it without dependency
//! cycles. Timestamps are raw integer microseconds; callers convert from
//! their own time types.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod digest;
pub mod metrics;
pub mod span;
pub mod trace;

pub use digest::Digest;
pub use metrics::{HistogramMetric, MetricValue, MetricsRegistry};
pub use trace::{DecisionTrace, TraceEvent, TraceRecord};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::digest::Digest;
    pub use crate::metrics::{HistogramMetric, MetricValue, MetricsRegistry};
    pub use crate::span::sim_span;
    #[cfg(feature = "wallclock")]
    pub use crate::span::{WallProfile, WallSpan};
    pub use crate::trace::{DecisionTrace, TraceEvent, TraceRecord};
}
