//! Simulation configuration: cluster shape, JVM launch model, progress
//! reporting cadence and which completion-time estimator the Application
//! Master uses.

use crate::cluster::PlacementPolicy;
use crate::error::SimError;
use serde::{Deserialize, Serialize};

/// Shape of the simulated cluster.
///
/// The paper's testbed is 40 EC2 nodes with 8 vCPUs each; one map container
/// per vCPU gives the default 40 × 8 layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub nodes: u32,
    /// Map-task containers (slots) per node.
    pub slots_per_node: u32,
    /// Per-node execution slowdown factors (≥ 1). Attempts placed on node
    /// `i` have their processing time multiplied by `slowdowns[i]`. An empty
    /// vector means every node runs at nominal speed, which is what the
    /// closed-form validation experiments use. Populated by the contention
    /// model in `chronos-trace` for the realistic runs.
    pub slowdowns: Vec<f64>,
    /// How the ResourceManager places attempts on nodes. Defaults to
    /// [`PlacementPolicy::MostFree`], the pre-placement-layer behavior;
    /// the policy's hand-written serde impl treats a missing field as that
    /// default, so configurations serialized before this field existed
    /// keep their exact semantics.
    pub placement: PlacementPolicy,
}

impl ClusterSpec {
    /// A cluster of `nodes × slots_per_node` homogeneous containers.
    #[must_use]
    pub fn homogeneous(nodes: u32, slots_per_node: u32) -> Self {
        ClusterSpec {
            nodes,
            slots_per_node,
            slowdowns: Vec::new(),
            placement: PlacementPolicy::MostFree,
        }
    }

    /// Returns a copy with the given placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Total container count.
    #[must_use]
    pub fn total_slots(&self) -> u64 {
        u64::from(self.nodes) * u64::from(self.slots_per_node)
    }

    /// The slowdown factor of a node (1.0 when unspecified).
    #[must_use]
    pub fn slowdown_of(&self, node_index: u32) -> f64 {
        self.slowdowns
            .get(node_index as usize)
            .copied()
            .unwrap_or(1.0)
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the cluster has no containers
    /// or any slowdown factor is below 1 or not finite.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.nodes == 0 || self.slots_per_node == 0 {
            return Err(SimError::invalid_config(
                "cluster must have at least one node and one slot per node",
            ));
        }
        if self.slowdowns.iter().any(|s| !s.is_finite() || *s < 1.0) {
            return Err(SimError::invalid_config(
                "node slowdown factors must be finite and >= 1",
            ));
        }
        if !self.slowdowns.is_empty() && self.slowdowns.len() != self.nodes as usize {
            return Err(SimError::invalid_config(
                "slowdown vector length must match the node count (or be empty)",
            ));
        }
        Ok(())
    }
}

impl Default for ClusterSpec {
    /// The paper's 40-node × 8-slot testbed.
    fn default() -> Self {
        ClusterSpec::homogeneous(40, 8)
    }
}

/// JVM (container) launch-time model.
///
/// The paper's improved completion-time estimator exists precisely because
/// JVM startup is not negligible in contended clusters; the simulator models
/// it as a uniform delay in `[min_secs, max_secs]` between container
/// assignment and the first byte of useful work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JvmModel {
    /// Minimum launch delay in seconds.
    pub min_secs: f64,
    /// Maximum launch delay in seconds.
    pub max_secs: f64,
}

impl JvmModel {
    /// A fixed (deterministic) launch delay.
    #[must_use]
    pub fn fixed(secs: f64) -> Self {
        JvmModel {
            min_secs: secs,
            max_secs: secs,
        }
    }

    /// No launch delay at all; used when validating the closed forms, which
    /// ignore JVM startup.
    #[must_use]
    pub fn disabled() -> Self {
        JvmModel::fixed(0.0)
    }

    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for negative, non-finite or
    /// reversed bounds.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.min_secs.is_finite() && self.max_secs.is_finite())
            || self.min_secs < 0.0
            || self.max_secs < self.min_secs
        {
            return Err(SimError::invalid_config(
                "JVM launch delay bounds must be finite, non-negative and ordered",
            ));
        }
        Ok(())
    }
}

impl Default for JvmModel {
    /// A 1–3 second launch window, in line with the contended-testbed
    /// observations that motivated Eq. 30.
    fn default() -> Self {
        JvmModel {
            min_secs: 1.0,
            max_secs: 3.0,
        }
    }
}

/// Sharded-execution knobs for [`crate::shard::ShardedRunner`].
///
/// A plain [`crate::Simulation`] ignores these; the sharded runner uses them
/// to decide how many independent per-shard simulations the workload is
/// partitioned into and how many OS threads execute them. The two knobs are
/// deliberately separate: **`shards` shapes the result** (each shard has its
/// own deterministically derived RNG stream), while **`workers` only shapes
/// the wall-clock** — any worker count produces bit-identical merged reports
/// for a fixed shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Number of shards the workload is partitioned into. `0` resolves to
    /// [`ShardSpec::DEFAULT_SHARDS`] — a fixed constant, never the machine's
    /// core count, so auto-configured runs stay reproducible across hosts.
    pub shards: u32,
    /// Worker threads executing shards. `0` resolves to the machine's
    /// available parallelism; the runner clamps it to the chunk count.
    pub workers: u32,
}

impl ShardSpec {
    /// Shard count used when `shards == 0`. A fixed constant (not the core
    /// count) so that the default partitioning — and therefore the merged
    /// metrics — do not depend on the machine running the simulation.
    pub const DEFAULT_SHARDS: u32 = 16;

    /// Run everything in one shard on one thread (the degenerate layout that
    /// behaves exactly like a plain [`crate::Simulation`] modulo the derived
    /// shard seed).
    #[must_use]
    pub fn single() -> Self {
        ShardSpec {
            shards: 1,
            workers: 1,
        }
    }

    /// `shards` shards executed by `workers` threads.
    #[must_use]
    pub fn new(shards: u32, workers: u32) -> Self {
        ShardSpec { shards, workers }
    }

    /// The effective shard count (resolving the `0` = auto convention).
    #[must_use]
    pub fn resolved_shards(&self) -> u32 {
        if self.shards == 0 {
            Self::DEFAULT_SHARDS
        } else {
            self.shards
        }
    }

    /// The requested worker count: the explicit value, or the machine's
    /// available parallelism when `0`. The sharded runner clamps it to the
    /// chunk count when its source reports one (extra threads would only
    /// idle).
    #[must_use]
    pub fn requested_workers(&self) -> u32 {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| u32::try_from(n.get()).unwrap_or(u32::MAX))
                .unwrap_or(1)
        } else {
            self.workers
        };
        requested.max(1)
    }

    /// Validates the specification. All values are currently valid (zero
    /// means "auto"), but the hook keeps the config surface uniform and
    /// future-proof.
    ///
    /// # Errors
    ///
    /// Currently never fails; kept fallible for parity with the sibling
    /// config types.
    pub fn validate(&self) -> Result<(), SimError> {
        Ok(())
    }
}

impl Default for ShardSpec {
    /// Auto everything: a fixed default shard count, workers from the
    /// machine's parallelism.
    fn default() -> Self {
        ShardSpec {
            shards: 0,
            workers: 0,
        }
    }
}

/// Which completion-time estimator the Application Master exposes to
/// policies (Section VI.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EstimatorKind {
    /// Hadoop's default estimator: elapsed time divided by progress score,
    /// which ignores JVM launch time and over-estimates badly early on.
    HadoopDefault,
    /// The Chronos estimator of Eq. 30, which separates launch overhead from
    /// processing rate using the first progress report.
    #[default]
    ChronosJvmAware,
}

/// Top-level simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Cluster shape and per-node slowdowns.
    pub cluster: ClusterSpec,
    /// JVM launch delay model.
    pub jvm: JvmModel,
    /// Which estimator the AM uses when building policy views.
    pub estimator: EstimatorKind,
    /// Interval between task progress reports, seconds. The first report of
    /// an attempt defines `t_FP` in Eq. 30.
    pub progress_report_interval_secs: f64,
    /// RNG seed; identical seeds give identical simulations. The sharded
    /// runner derives per-shard seeds from this value via splitmix64 (see
    /// [`crate::shard::shard_seed`]).
    pub seed: u64,
    /// Safety valve: the simulation aborts after this many events, guarding
    /// against runaway policies. `0` disables the limit. The limit applies
    /// per shard when running under the sharded runner.
    pub max_events: u64,
    /// Shard/worker layout used by [`crate::shard::ShardedRunner`]; ignored
    /// by a plain [`crate::Simulation`].
    pub sharding: ShardSpec,
}

impl SimConfig {
    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any component is invalid or the
    /// progress-report interval is not positive.
    pub fn validate(&self) -> Result<(), SimError> {
        self.cluster.validate()?;
        self.jvm.validate()?;
        self.sharding.validate()?;
        if !(self.progress_report_interval_secs.is_finite()
            && self.progress_report_interval_secs > 0.0)
        {
            return Err(SimError::invalid_config(
                "progress report interval must be a positive number of seconds",
            ));
        }
        Ok(())
    }

    /// Configuration used to validate the closed-form analysis: no JVM
    /// delay, a cluster large enough that containers are never the
    /// bottleneck, and the Chronos estimator.
    #[must_use]
    pub fn analysis_validation(seed: u64) -> Self {
        SimConfig {
            cluster: ClusterSpec::homogeneous(1_000, 8),
            jvm: JvmModel::disabled(),
            estimator: EstimatorKind::ChronosJvmAware,
            progress_report_interval_secs: 1.0,
            seed,
            max_events: 0,
            sharding: ShardSpec::default(),
        }
    }

    /// Returns a copy with the given shard/worker layout.
    #[must_use]
    pub fn with_sharding(mut self, sharding: ShardSpec) -> Self {
        self.sharding = sharding;
        self
    }

    /// Returns a copy with the given placement policy on its cluster.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.cluster.placement = placement;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cluster: ClusterSpec::default(),
            jvm: JvmModel::default(),
            estimator: EstimatorKind::ChronosJvmAware,
            progress_report_interval_secs: 3.0,
            seed: 1,
            max_events: 0,
            sharding: ShardSpec::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_testbed() {
        let c = ClusterSpec::default();
        assert_eq!(c.nodes, 40);
        assert_eq!(c.slots_per_node, 8);
        assert_eq!(c.total_slots(), 320);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cluster_validation() {
        assert!(ClusterSpec::homogeneous(0, 8).validate().is_err());
        assert!(ClusterSpec::homogeneous(4, 0).validate().is_err());
        let mut c = ClusterSpec::homogeneous(2, 2);
        c.slowdowns = vec![1.0, 0.5];
        assert!(c.validate().is_err());
        c.slowdowns = vec![1.0];
        assert!(c.validate().is_err());
        c.slowdowns = vec![1.0, 2.0];
        assert!(c.validate().is_ok());
        assert_eq!(c.slowdown_of(1), 2.0);
        assert_eq!(c.slowdown_of(7), 1.0);
    }

    #[test]
    fn jvm_model_validation() {
        assert!(JvmModel::default().validate().is_ok());
        assert!(JvmModel::fixed(2.0).validate().is_ok());
        assert!(JvmModel::disabled().validate().is_ok());
        assert!(JvmModel {
            min_secs: 3.0,
            max_secs: 1.0
        }
        .validate()
        .is_err());
        assert!(JvmModel {
            min_secs: -1.0,
            max_secs: 1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn sim_config_validation() {
        assert!(SimConfig::default().validate().is_ok());
        let cfg = SimConfig {
            progress_report_interval_secs: 0.0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let validation = SimConfig::analysis_validation(7);
        assert!(validation.validate().is_ok());
        assert_eq!(validation.jvm, JvmModel::disabled());
        assert_eq!(validation.seed, 7);
    }

    #[test]
    fn placement_field_defaults_and_round_trips() {
        // Specs serialized before the placement layer existed carry no
        // placement field; they must deserialize to the pre-refactor
        // behavior.
        let legacy = r#"{"nodes":2,"slots_per_node":4,"slowdowns":[]}"#;
        let spec: ClusterSpec = serde_json::from_str(legacy).unwrap();
        assert_eq!(spec.placement, PlacementPolicy::MostFree);
        assert!(spec.validate().is_ok());

        let spec = spec.with_placement(PlacementPolicy::DeadlineAware);
        let round: ClusterSpec =
            serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(round, spec);

        let config = SimConfig::default().with_placement(PlacementPolicy::BinPack);
        assert_eq!(config.cluster.placement, PlacementPolicy::BinPack);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn estimator_default_is_chronos() {
        assert_eq!(EstimatorKind::default(), EstimatorKind::ChronosJvmAware);
    }

    #[test]
    fn shard_spec_resolution() {
        let auto = ShardSpec::default();
        assert_eq!(auto.resolved_shards(), ShardSpec::DEFAULT_SHARDS);
        assert!(auto.requested_workers() >= 1);

        let single = ShardSpec::single();
        assert_eq!(single.resolved_shards(), 1);
        assert_eq!(single.requested_workers(), 1);

        // The spec does not clamp workers to shards: the runner clamps to
        // the chunk count its source reports.
        let oversubscribed = ShardSpec::new(4, 64);
        assert_eq!(oversubscribed.resolved_shards(), 4);
        assert_eq!(oversubscribed.requested_workers(), 64);
        assert!(ShardSpec::default().validate().is_ok());
    }

    #[test]
    fn with_sharding_sets_layout() {
        let config = SimConfig::default().with_sharding(ShardSpec::new(8, 2));
        assert_eq!(config.sharding.shards, 8);
        assert_eq!(config.sharding.workers, 2);
        assert!(config.validate().is_ok());
    }
}
