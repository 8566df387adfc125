//! # chronos
//!
//! A full reproduction of *"Chronos: A Unifying Optimization Framework for
//! Speculative Execution of Deadline-critical MapReduce Jobs"* (ICDCS 2018)
//! as a Rust workspace. This facade crate re-exports the component
//! crates and provides a [`prelude`] that covers the common workflow:
//!
//! 1. describe a job analytically ([`chronos_core::JobProfile`]),
//! 2. pick a strategy and optimize the number of extra attempts `r`
//!    ([`chronos_core::Optimizer`], Algorithm 1),
//! 3. or go further and simulate whole workloads on the discrete-event
//!    MapReduce cluster ([`chronos_sim`]) under any of the six policies in
//!    [`chronos_strategies`], with workloads from [`chronos_trace`].
//!
//! # Quick start
//!
//! ```
//! use chronos::prelude::*;
//!
//! # fn main() -> Result<(), ChronosError> {
//! // A 10-task job with Pareto(20 s, 1.5) task times and a 100 s deadline.
//! let job = JobProfile::builder()
//!     .tasks(10)
//!     .t_min(20.0)
//!     .beta(1.5)
//!     .deadline(100.0)
//!     .build()?;
//!
//! // Maximize net utility for Speculative-Resume with θ = 1e-4.
//! let outcome = Optimizer::new(UtilityModel::new(1e-4, 0.0)?)
//!     .optimize(&job, &StrategyParams::resume(40.0, 80.0, 0.3)?)?;
//!
//! println!(
//!     "launch {} extra attempts per straggler: PoCD {:.3}, E[T] {:.0} VM-seconds",
//!     outcome.r, outcome.pocd, outcome.machine_time
//! );
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios (SLA planning,
//! cluster simulation, strategy selection) and `chronos-bench` for the
//! binaries that regenerate every table and figure of the paper.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use chronos_core as core;
pub use chronos_obs as obs;
pub use chronos_plan as plan;
pub use chronos_serve as serve;
pub use chronos_sim as sim;
pub use chronos_strategies as strategies;
pub use chronos_trace as trace;

/// One-stop imports for the whole framework.
pub mod prelude {
    pub use chronos_core::prelude::*;
    pub use chronos_obs::prelude::{
        DecisionTrace, HistogramMetric, MetricValue, MetricsRegistry, TraceEvent, TraceRecord,
    };
    pub use chronos_plan::prelude::{
        allocate, canonical_f64_bits, Allocation, AllocationLedger, BudgetJob, CacheStats, Grant,
        JobProfileKey, LedgerSummary, Plan, PlanCache, PlanRequest, PlanResult, Planner,
        ProfileKey, SpeculationBudget,
    };
    pub use chronos_serve::prelude::{
        decisions_digest, AdmissionDecision, LatencyProbe, PlanServer, ServeConfig, ServeError,
        ServeRequest, ServeResponse, ServerStats, Ticket,
    };
    pub use chronos_sim::prelude::{
        shard_seed, ClusterSpec, EstimatorKind, JobId, JobSpec, JvmModel, LatencyHistogram,
        ReplayError, RunOptions, RunOutput, ShardSpec, ShardedRunner, SimConfig, SimError, SimTime,
        Simulation, SimulationReport, SpeculationPolicy, TaskSpec,
    };
    pub use chronos_strategies::prelude::{
        BudgetedPolicy, ChronosPolicy, ChronosPolicyConfig, HadoopNoSpec, HadoopSpeculate,
        MantriPolicy, ParsePolicyKindError, PolicyBuildError, PolicyBuilder, PolicyKind,
        StrategyTiming, Timing,
    };
    pub use chronos_trace::prelude::{
        converter_for, write_trace, Benchmark, CensusSummary, ContentionLevel, ContentionModel,
        ConvertError, ConvertSummary, GoogleClusterTraceConverter, GoogleTraceConfig,
        GoogleTraceStream, PriceModel, ProfileCensus, SyntheticTrace, TestbedWorkload,
        TraceConverter, TraceHeader, TraceLoader, TraceParseError, TraceStream, TraceWriteError,
        TraceWriter, WorkloadStream,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_all_layers() {
        let job = JobProfile::builder().build().unwrap();
        assert_eq!(job.tasks(), 10);
        let config = SimConfig::default();
        assert_eq!(config.cluster.total_slots(), 320);
        let policies = PolicyKind::ALL;
        assert_eq!(policies.len(), 6);
        let benchmark = Benchmark::Sort;
        assert_eq!(benchmark.deadline_secs(), 100.0);
        // The foreign-trace conversion layer is reachable too.
        let converter = converter_for("google-2011").unwrap();
        assert_eq!(
            converter.format(),
            GoogleClusterTraceConverter::new().format()
        );
        // The planning layer is reachable through the facade too.
        let planner = Planner::new(UtilityModel::default());
        let plan = planner
            .plan(&job, &StrategyParams::clone_strategy(80.0))
            .unwrap();
        assert!(plan.outcome.pocd > plan.baseline_pocd);
        assert_eq!(planner.stats().misses, 1);
        // And the serving layer: an online admission decision end to end.
        let server = PlanServer::start(ServeConfig::new(1, 4)).unwrap();
        let responses = server
            .submit_one(ServeRequest {
                request_id: 7,
                job: JobSpec::new(JobId::new(0), SimTime::ZERO, 100.0, 10),
            })
            .unwrap()
            .wait();
        assert!(responses[0].decision.feasible);
        assert_eq!(server.shutdown().served, 1);
    }
}
