//! Budget-aware policy construction: [`BudgetedPolicy`] caps a
//! [`ChronosPolicy`] under a finite cluster-wide [`SpeculationBudget`], and
//! [`PolicyBuilder`] is the one construction path for every policy this
//! crate can build (kind + optional shared cache + optional budget +
//! optional ledger).
//!
//! The wrapper plugs the `chronos_plan::budget` water-filling allocator
//! into the batch-planning API: at
//! [`SpeculationPolicy::on_job_batch`] it plans the whole batch, allocates
//! the budget across the jobs' utility curves, and returns a
//! [`BatchPlan`] whose per-job [`SubmitDecision`] overrides replace the
//! inner policy's unconstrained submissions. Under
//! [`SpeculationBudget::Unlimited`] the builder does not wrap at all — the
//! unbudgeted policy is returned as-is, so unlimited runs are trivially
//! bit-identical to the historical behaviour, and every [`BudgetedPolicy`]
//! holds a finite budget.

use crate::common::{ChronosPolicyConfig, PolicyPlanner};
use crate::{ChronosPolicy, HadoopNoSpec, HadoopSpeculate, MantriPolicy, PolicyKind};
use chronos_core::{ChronosError, Optimizer, StrategyKind};
use chronos_plan::{allocate, AllocationLedger, BudgetJob, PlanCache, Planner, SpeculationBudget};
use chronos_sim::prelude::{
    BatchDiagnostics, BatchPlan, CheckSchedule, JobSubmitView, JobView, PlacementPolicy,
    PolicyAction, SimError, SpeculationPolicy, SubmitDecision,
};
use std::sync::Arc;

/// The typed error of [`PolicyBuilder::build`].
#[derive(Debug, Clone)]
pub enum PolicyBuildError {
    /// A finite budget was requested for a baseline policy, which has no
    /// per-job copy optimum the allocator could cap.
    UnbudgetableBaseline {
        /// The baseline kind that cannot be budgeted.
        kind: PolicyKind,
    },
    /// The Chronos configuration failed optimizer validation.
    InvalidConfig(ChronosError),
}

impl std::fmt::Display for PolicyBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyBuildError::UnbudgetableBaseline { kind } => write!(
                f,
                "policy `{}` cannot run under a finite speculation budget: baselines have no \
                 per-job copy optimum to allocate (budgetable: clone, s-restart, s-resume)",
                kind.label()
            ),
            PolicyBuildError::InvalidConfig(err) => {
                write!(f, "invalid policy configuration: {err}")
            }
        }
    }
}

impl std::error::Error for PolicyBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PolicyBuildError::InvalidConfig(err) => Some(err),
            PolicyBuildError::UnbudgetableBaseline { .. } => None,
        }
    }
}

/// The strategy whose closed forms a budgeted build allocates over; `None`
/// for the baselines, which have no per-job optimum.
fn budgeted_strategy(kind: PolicyKind) -> Option<StrategyKind> {
    match kind {
        PolicyKind::Clone => Some(StrategyKind::Clone),
        PolicyKind::SpeculativeRestart => Some(StrategyKind::SpeculativeRestart),
        PolicyKind::SpeculativeResume => Some(StrategyKind::SpeculativeResume),
        PolicyKind::HadoopNoSpec | PolicyKind::HadoopSpeculate | PolicyKind::Mantri => None,
    }
}

/// The one construction path for every policy this crate builds:
/// [`PolicyKind::build`], [`PolicyKind::build_with_cache`], the experiment
/// binaries and the admission server all funnel through it. Options
/// compose: a shared [`PlanCache`] memoizes plans across policies and
/// shards, a [`SpeculationBudget`] wraps the optimizing strategies in a
/// [`BudgetedPolicy`], and an [`AllocationLedger`] collects every
/// allocation round for worker-count-invariant auditing.
///
/// # Examples
///
/// ```
/// use chronos_strategies::prelude::*;
///
/// let builder = PolicyBuilder::new(ChronosPolicyConfig::testbed())
///     .budgeted(SpeculationBudget::Limited(16));
/// let policy = builder.build(PolicyKind::SpeculativeRestart).unwrap();
/// assert_eq!(policy.name(), "s-restart");
/// assert!(builder.build(PolicyKind::Mantri).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct PolicyBuilder {
    config: ChronosPolicyConfig,
    cache: Option<Arc<PlanCache>>,
    budget: SpeculationBudget,
    ledger: Option<Arc<AllocationLedger>>,
    placement: PlacementPolicy,
}

impl PolicyBuilder {
    /// A builder with no cache, an unlimited budget and no ledger — the
    /// historical [`PolicyKind::build`] behaviour.
    #[must_use]
    pub fn new(config: ChronosPolicyConfig) -> Self {
        PolicyBuilder {
            config,
            cache: None,
            budget: SpeculationBudget::default(),
            ledger: None,
            placement: PlacementPolicy::default(),
        }
    }

    /// Shares `cache` with every policy built: each distinct `(profile,
    /// strategy, objective)` combination is solved once across the whole
    /// line-up (and, under a finite budget, the allocator reuses the same
    /// solves).
    #[must_use]
    pub fn cached(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the cluster-wide speculation budget. Finite budgets apply only
    /// to the optimizing strategies; [`PolicyBuilder::build`] rejects
    /// baseline kinds.
    #[must_use]
    pub fn budgeted(mut self, budget: SpeculationBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Records every allocation round of budgeted policies into `ledger`
    /// (shared across shards the same way the plan cache is).
    #[must_use]
    pub fn with_ledger(mut self, ledger: Arc<AllocationLedger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Sets the cluster placement policy experiment harnesses should apply
    /// to their [`chronos_sim::prelude::SimConfig`]. The builder carries
    /// the choice alongside the strategy options so one value threads a
    /// whole line-up; policies themselves never see it — placement is
    /// enforced by the simulator's `ResourceManager`.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// The configured placement policy (default [`PlacementPolicy::MostFree`]).
    #[must_use]
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// The configured budget.
    #[must_use]
    pub fn budget(&self) -> SpeculationBudget {
        self.budget
    }

    /// The Chronos configuration policies are built with.
    #[must_use]
    pub fn config(&self) -> &ChronosPolicyConfig {
        &self.config
    }

    /// Builds `kind` under the configured options. With an unlimited
    /// budget the unbudgeted policy is returned directly (no wrapper), so
    /// the result is bit-identical to the historical construction paths.
    ///
    /// # Errors
    ///
    /// [`PolicyBuildError::UnbudgetableBaseline`] for a finite budget on a
    /// baseline kind; [`PolicyBuildError::InvalidConfig`] when the
    /// optimizer configuration fails validation (finite budgets only — the
    /// unbudgeted policies defer that failure to their fallback path).
    pub fn build(&self, kind: PolicyKind) -> Result<Box<dyn SpeculationPolicy>, PolicyBuildError> {
        if self.budget.is_unlimited() {
            return Ok(self.build_unbudgeted(kind));
        }
        let strategy =
            budgeted_strategy(kind).ok_or(PolicyBuildError::UnbudgetableBaseline { kind })?;
        let (_, allocator) = self.admission_parts()?;
        Ok(Box::new(BudgetedPolicy {
            inner: self.chronos(strategy),
            allocator,
            budget: self.budget,
            ledger: self.ledger.clone(),
        }))
    }

    /// The two halves of an admission planner built under the configured
    /// options: a [`PolicyPlanner`] that turns job views into per-strategy
    /// plan requests, and a [`Planner`] that solves them over the shared
    /// cache when one is configured. This is the construction path the
    /// serving layer (`chronos-serve`) and the budgeted wrapper share, so
    /// online admission decisions and batch allocations are guaranteed to
    /// run the same closed forms over the same cache.
    ///
    /// # Errors
    ///
    /// [`PolicyBuildError::InvalidConfig`] when the optimizer
    /// configuration fails validation.
    pub fn admission_parts(&self) -> Result<(PolicyPlanner, Planner), PolicyBuildError> {
        let optimizer = Optimizer::with_config(self.config.objective, self.config.optimizer)
            .map_err(PolicyBuildError::InvalidConfig)?;
        let planner = match &self.cache {
            Some(cache) => Planner::with_cache(optimizer, Arc::clone(cache)),
            None => Planner::from_optimizer(optimizer),
        };
        Ok((PolicyPlanner::uncached(self.config), planner))
    }

    /// The classic per-kind construction (baselines ignore the config; the
    /// Chronos strategies share the cache when one is configured).
    fn build_unbudgeted(&self, kind: PolicyKind) -> Box<dyn SpeculationPolicy> {
        match (kind, budgeted_strategy(kind)) {
            (_, Some(strategy)) => Box::new(self.chronos(strategy)),
            (PolicyKind::HadoopSpeculate, None) => Box::new(HadoopSpeculate::default()),
            (PolicyKind::Mantri, None) => Box::new(MantriPolicy::default()),
            (_, None) => Box::new(HadoopNoSpec::default()),
        }
    }

    /// The Chronos policy for `strategy`, over the shared cache when one is
    /// configured.
    fn chronos(&self, strategy: StrategyKind) -> ChronosPolicy {
        match &self.cache {
            Some(cache) => ChronosPolicy::with_cache(strategy, self.config, Arc::clone(cache)),
            None => ChronosPolicy::new(strategy, self.config),
        }
    }
}

/// A [`ChronosPolicy`] capped by a finite cluster-wide speculation budget.
///
/// At every [`SpeculationPolicy::on_job_batch`] round the wrapper plans the
/// batch through the shared closed forms, runs the
/// [`chronos_plan::budget`] water-filling allocator, and overrides every
/// job's [`SubmitDecision`] with its granted copy count (the budget is
/// per planning round: each batch is allocated a fresh `B`). Consequences:
///
/// * jobs granted their full unconstrained optimum behave exactly as under
///   the unwrapped policy (same decision values, and the engine hands the
///   granted `r` back at their checks as [`JobView::chosen_r`]);
/// * jobs granted zero copies are fully muted: no clones at submission and
///   no reactive actions at their check points, so a zero budget
///   reproduces Hadoop-NS miss rates;
/// * jobs whose plan (or plan request) is infeasible are granted zero
///   rather than the inner policy's `fallback_r` — under scarcity, copies
///   the closed forms cannot value are never bought.
///
/// Budget semantics: one unit is one `r` copy wave — an extra attempt of
/// every task (Clone) or of every detected straggler (reactive
/// strategies) — keeping the allocator exactly on the per-job utility
/// curves. Construct via [`PolicyBuilder::budgeted`].
#[derive(Debug)]
pub struct BudgetedPolicy {
    inner: ChronosPolicy,
    /// The allocator's planner; shares the builder's cache when present.
    allocator: Planner,
    budget: SpeculationBudget,
    ledger: Option<Arc<AllocationLedger>>,
}

impl BudgetedPolicy {
    /// The configured budget.
    #[must_use]
    pub fn budget(&self) -> SpeculationBudget {
        self.budget
    }
}

impl SpeculationPolicy for BudgetedPolicy {
    fn name(&self) -> &str {
        // The budget is a constraint on the strategy, not a new strategy:
        // reports keep the inner policy's label.
        self.inner.name()
    }

    fn on_job_batch(&mut self, jobs: &[JobSubmitView]) -> Result<BatchPlan, SimError> {
        // Jobs whose request cannot even be formed are infeasible for the
        // closed forms: granted zero, like jobs whose plan fails inside the
        // allocator.
        let mut budget_jobs = Vec::with_capacity(jobs.len());
        let mut plannable = vec![false; jobs.len()];
        for (index, job) in jobs.iter().enumerate() {
            if let Ok(request) = self.inner.request_for(job) {
                budget_jobs.push(BudgetJob::new(job.job.raw(), request));
                plannable[index] = true;
            }
        }
        let allocation = allocate(&self.allocator, &budget_jobs, self.budget)
            .map_err(|err| SimError::from(err).with_context("allocating the speculation budget"))?;
        if let Some(ledger) = &self.ledger {
            ledger.record(&allocation);
        }

        let mut grants = allocation.grants.iter();
        let mut plan = BatchPlan::new();
        for (index, job) in jobs.iter().enumerate() {
            let copies = if plannable[index] {
                grants.next().expect("one grant per plannable job").copies
            } else {
                0
            };
            plan = plan.with_override(job.job, self.inner.decision(copies));
        }
        plan.diagnostics = BatchDiagnostics {
            jobs: jobs.len() as u32,
            overridden: plan.override_count() as u32,
            budget: self.budget,
            requested: allocation.requested,
            spent: allocation.spent,
        };
        Ok(plan)
    }

    fn on_job_submit(&mut self, job: &JobSubmitView) -> SubmitDecision {
        // Batched submissions are always overridden; an out-of-band
        // submission falls through to the inner policy, unbudgeted (and its
        // reported r keeps its checks live).
        self.inner.on_job_submit(job)
    }

    fn check_schedule(&self, job: &JobSubmitView) -> CheckSchedule {
        self.inner.check_schedule(job)
    }

    fn on_check(&mut self, view: &JobView) -> Vec<PolicyAction> {
        // A zero-grant job is muted entirely: without this, the reactive
        // strategies would still launch replacements (Resume launches
        // `r + 1`), spending copies the allocator never granted.
        if view.chosen_r == Some(0) {
            return Vec::new();
        }
        self.inner.on_check(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::Pareto;
    use chronos_sim::prelude::{
        ClusterSpec, EstimatorKind, JobId, JobSpec, JvmModel, ShardSpec, SimConfig, SimTime,
        Simulation, SimulationReport,
    };

    fn sim_config(seed: u64) -> SimConfig {
        SimConfig {
            cluster: ClusterSpec::homogeneous(20, 8),
            jvm: JvmModel::default(),
            estimator: EstimatorKind::ChronosJvmAware,
            progress_report_interval_secs: 1.0,
            seed,
            max_events: 0,
            sharding: ShardSpec::default(),
        }
    }

    /// A small staggered workload of feasible jobs (deadlines comfortably
    /// beyond the testbed `τ_est = 40 s`).
    fn workload(jobs: usize) -> Vec<JobSpec> {
        (0..jobs)
            .map(|index| {
                let deadline = [100.0, 140.0, 200.0][index % 3];
                let mut spec = JobSpec::new(
                    JobId::new(index as u64),
                    SimTime::from_secs(index as f64 * 5.0),
                    deadline,
                    6,
                );
                spec.profile = Pareto::new(20.0, 1.5).unwrap();
                spec.price = 1.0;
                spec
            })
            .collect()
    }

    fn run(policy: Box<dyn SpeculationPolicy>, seed: u64) -> SimulationReport {
        let mut sim = Simulation::new(sim_config(seed), policy).unwrap();
        sim.submit_all(workload(9)).unwrap();
        sim.run().unwrap()
    }

    #[test]
    fn baselines_cannot_be_budgeted() {
        let builder = PolicyBuilder::new(ChronosPolicyConfig::testbed())
            .budgeted(SpeculationBudget::Limited(4));
        for kind in [
            PolicyKind::HadoopNoSpec,
            PolicyKind::HadoopSpeculate,
            PolicyKind::Mantri,
        ] {
            let err = builder.build(kind).unwrap_err();
            assert!(
                err.to_string().contains(kind.label()),
                "error must name the baseline: {err}"
            );
        }
        // Unlimited budgets build everything, unwrapped.
        let unlimited = PolicyBuilder::new(ChronosPolicyConfig::testbed());
        for kind in PolicyKind::ALL {
            assert_eq!(unlimited.build(kind).unwrap().name(), kind.label());
        }
    }

    #[test]
    fn builder_threads_the_placement_choice() {
        let builder = PolicyBuilder::new(ChronosPolicyConfig::testbed());
        assert_eq!(builder.placement(), PlacementPolicy::MostFree);
        let builder = builder.with_placement(PlacementPolicy::DeadlineAware);
        assert_eq!(builder.placement(), PlacementPolicy::DeadlineAware);
        // Placement composes with the other options without affecting them.
        let builder = builder.budgeted(SpeculationBudget::Limited(4));
        assert_eq!(builder.placement(), PlacementPolicy::DeadlineAware);
        assert_eq!(builder.budget(), SpeculationBudget::Limited(4));
    }

    #[test]
    fn budgeted_policy_keeps_the_inner_name() {
        let policy = PolicyBuilder::new(ChronosPolicyConfig::testbed())
            .budgeted(SpeculationBudget::Limited(2))
            .build(PolicyKind::Clone)
            .unwrap();
        assert_eq!(policy.name(), "clone");
    }

    #[test]
    fn invalid_config_is_rejected_at_build_time() {
        let mut config = ChronosPolicyConfig::testbed();
        config.optimizer.r_max = 0;
        let err = PolicyBuilder::new(config)
            .budgeted(SpeculationBudget::Limited(2))
            .build(PolicyKind::Clone)
            .unwrap_err();
        assert!(matches!(err, PolicyBuildError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn zero_budget_reproduces_hadoop_ns_outcomes() {
        let baseline = run(Box::new(HadoopNoSpec::default()), 3);
        for kind in [
            PolicyKind::Clone,
            PolicyKind::SpeculativeRestart,
            PolicyKind::SpeculativeResume,
        ] {
            let muted = run(
                PolicyBuilder::new(ChronosPolicyConfig::testbed())
                    .budgeted(SpeculationBudget::Limited(0))
                    .build(kind)
                    .unwrap(),
                3,
            );
            assert_eq!(muted.pocd(), baseline.pocd(), "{kind:?}");
            assert_eq!(
                muted.total_attempts(),
                baseline.total_attempts(),
                "{kind:?}"
            );
            assert_eq!(
                muted.mean_machine_time(),
                baseline.mean_machine_time(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn ample_budget_is_bit_identical_to_the_unwrapped_policy() {
        for kind in [
            PolicyKind::Clone,
            PolicyKind::SpeculativeRestart,
            PolicyKind::SpeculativeResume,
        ] {
            let unwrapped = run(kind.build(ChronosPolicyConfig::testbed()), 7);
            let budgeted = run(
                PolicyBuilder::new(ChronosPolicyConfig::testbed())
                    .budgeted(SpeculationBudget::Limited(u64::MAX))
                    .build(kind)
                    .unwrap(),
                7,
            );
            assert_eq!(budgeted, unwrapped, "{kind:?}");
        }
    }

    #[test]
    fn tight_budgets_reduce_attempts_monotonically_enough() {
        // Not a theorem, but on this workload the attempt count must not
        // increase as the budget shrinks, and a tight budget must land
        // strictly between unlimited and zero.
        let unlimited = run(PolicyKind::Clone.build(ChronosPolicyConfig::testbed()), 11);
        let tight = run(
            PolicyBuilder::new(ChronosPolicyConfig::testbed())
                .budgeted(SpeculationBudget::Limited(3))
                .build(PolicyKind::Clone)
                .unwrap(),
            11,
        );
        let zero = run(
            PolicyBuilder::new(ChronosPolicyConfig::testbed())
                .budgeted(SpeculationBudget::Limited(0))
                .build(PolicyKind::Clone)
                .unwrap(),
            11,
        );
        assert!(tight.total_attempts() <= unlimited.total_attempts());
        assert!(zero.total_attempts() <= tight.total_attempts());
        assert!(zero.total_attempts() < unlimited.total_attempts());
    }

    #[test]
    fn ledger_records_every_batch_and_is_reproducible() {
        let run_with_ledger = || {
            let ledger = AllocationLedger::shared();
            let policy = PolicyBuilder::new(ChronosPolicyConfig::testbed())
                .budgeted(SpeculationBudget::Limited(4))
                .with_ledger(Arc::clone(&ledger))
                .build(PolicyKind::SpeculativeRestart)
                .unwrap();
            let report = run(policy, 13);
            (report, ledger.digest(), ledger.summary())
        };
        let (report_a, digest_a, summary_a) = run_with_ledger();
        let (report_b, digest_b, summary_b) = run_with_ledger();
        assert_eq!(report_a, report_b);
        assert_eq!(digest_a, digest_b);
        assert_eq!(summary_a, summary_b);
        assert!(summary_a.batches >= 1);
        assert_eq!(summary_a.jobs, 9);
        assert!(summary_a.spent <= 4 * summary_a.batches);
    }
}
