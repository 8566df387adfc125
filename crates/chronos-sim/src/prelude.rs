//! Convenience re-exports for simulator users and policy implementors.

pub use crate::attempt::{Attempt, AttemptState};
pub use crate::cluster::{
    Node, ParsePlacementError, PlacementChoice, PlacementPolicy, PlacementRequest, ResourceManager,
};
pub use crate::config::{ClusterSpec, EstimatorKind, JvmModel, ShardSpec, SimConfig};
pub use crate::engine::Simulation;
pub use crate::error::SimError;
pub use crate::event::{Event, EventQueue};
pub use crate::ids::{AttemptId, JobId, NodeId, TaskId};
pub use crate::job::{JobRuntime, JobSpec, TaskRuntime, TaskSpec};
pub use crate::metrics::{JobMetrics, LatencyHistogram, SimulationReport};
pub use crate::policy::{
    AttemptView, BatchDiagnostics, BatchPlan, CheckSchedule, JobSubmitView, JobView, NoSpeculation,
    PolicyAction, SpeculationPolicy, SubmitDecision, TaskView,
};
pub use crate::progress::{
    estimate_completion, estimate_completion_chronos, estimate_completion_hadoop,
    estimate_resume_offset, estimation_error_secs, first_progress_report, ProgressReport,
};
pub use crate::shard::{
    shard_seed, splitmix64, PolicyFactory, ReplayError, RunOptions, RunOutput, ShardedRunner,
};
pub use crate::time::{SimDuration, SimTime};
// The planner types the sharded runner's planner-backed path exchanges with
// policies; re-exported so policy implementors need no direct
// `chronos-plan` dependency.
pub use chronos_plan::{CacheStats, PlanCache, PlanRequest, Planner, SpeculationBudget};
// The observability types the engine's decision tracing and the report's
// metrics export exchange with callers; re-exported so trace consumers
// need no direct `chronos-obs` dependency.
pub use chronos_obs::{DecisionTrace, Digest, MetricsRegistry, TraceEvent, TraceRecord};
