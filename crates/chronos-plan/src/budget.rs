//! Cluster-wide speculation-budget allocation: deterministic greedy
//! water-filling of a shared speculative-copy budget across a batch of
//! competing jobs.
//!
//! The per-job optimizer (Algorithm 1) solves each job in isolation; real
//! clusters allocate a *shared* pool of speculative slots across thousands
//! of competing deadlines (Xu & Lau, arXiv:1406.0609). This module closes
//! that gap at the batch level: given N jobs and a budget `B` of
//! speculative copies, it distributes copies to maximize the summed
//! deadline-met utility over the existing closed forms.
//!
//! # The water-filling recurrence
//!
//! For job `j` let `U_j(r)` be the net utility at `r` speculative copies
//! (from [`chronos_core::UtilityModel`]'s closed forms) and `r*_j` the
//! unconstrained optimum the per-job optimizer picks. The marginal utility
//! of the `k`-th copy is
//!
//! ```text
//! g_j(k) = U_j(k) − U_j(k−1),      1 ≤ k ≤ r*_j .
//! ```
//!
//! `U_j` is concave on its integer tail (Theorem 8) but may have a
//! non-concave head, so raw marginals are not monotone. Each job's curve is
//! therefore first decomposed into its **concave-envelope blocks**: from
//! the current level `c`, the next block ends at the `t ∈ (c, r*_j]` that
//! maximizes the average gain `(U_j(t) − U_j(c)) / (t − c)` (smallest such
//! `t` on ties). Block averages are non-increasing per job, and every block
//! average is ≥ 0 because `r*_j` is the argmax of `U_j`.
//!
//! The allocation `A(B)` then satisfies the greedy recurrence
//!
//! ```text
//! A(0)     = 0 copies everywhere,
//! A(B)     = A(B − s) + the affordable block (size s) of highest
//!            average gain, ties broken by ascending job id.
//! ```
//!
//! Blocks are granted atomically — a partially granted block could land
//! inside a non-concave head, *below* the utility of its own start point —
//! so a job whose next block exceeds the remaining budget is frozen and the
//! water level keeps descending through the other jobs. Consequences used
//! by the tests and the engine:
//!
//! * `B = 0` grants nothing anywhere;
//! * `B ≥ Σ r*_j` grants exactly `r*_j` to every job — bit-identical to
//!   the unbudgeted per-job optima;
//! * the allocation is a pure function of the batch and the budget:
//!   independent of worker counts, scheduling, and iteration order
//!   (ties always resolve by ascending job id).
//!
//! A *copy* here is one unit of the closed forms' `r`: one extra attempt of
//! every task of the job (Clone) or of every detected straggler
//! (Speculative-Restart/-Resume). Budgeting planned copy *waves* rather
//! than raw slots keeps the allocator exactly on the per-job utility
//! curves the rest of the system optimizes.

use crate::planner::{PlanRequest, PlanResult, Planner};
use chronos_core::ChronosError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A global speculative-copy budget: either unlimited (the classic
/// per-job-optimal Chronos behaviour) or a hard cap on the summed copies a
/// planning round may grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SpeculationBudget {
    /// No cluster-wide cap: every job gets its unconstrained optimum.
    #[default]
    Unlimited,
    /// At most this many speculative copies per planning round.
    Limited(u64),
}

impl SpeculationBudget {
    /// The cap, if any.
    #[must_use]
    pub fn limit(&self) -> Option<u64> {
        match self {
            SpeculationBudget::Unlimited => None,
            SpeculationBudget::Limited(limit) => Some(*limit),
        }
    }

    /// Whether this budget never constrains an allocation.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        matches!(self, SpeculationBudget::Unlimited)
    }
}

impl std::fmt::Display for SpeculationBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpeculationBudget::Unlimited => write!(f, "unlimited"),
            SpeculationBudget::Limited(limit) => write!(f, "{limit}"),
        }
    }
}

/// The typed error of parsing a [`SpeculationBudget`], naming the bad
/// input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBudgetError {
    /// The input that did not parse.
    pub input: String,
}

impl std::fmt::Display for ParseBudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "`{}` is not a speculation budget (expected a copy count or `unlimited`)",
            self.input
        )
    }
}

impl std::error::Error for ParseBudgetError {}

impl std::str::FromStr for SpeculationBudget {
    type Err = ParseBudgetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "unlimited" {
            return Ok(SpeculationBudget::Unlimited);
        }
        s.parse::<u64>()
            .map(SpeculationBudget::Limited)
            .map_err(|_| ParseBudgetError {
                input: s.to_string(),
            })
    }
}

/// One job's entry in a budget-allocation problem: the planning request
/// plus the raw job id that breaks ties and keys the allocation digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetJob {
    /// Raw job id (unique within a batch).
    pub job: u64,
    /// The job's planning problem (profile + strategy timing).
    pub request: PlanRequest,
}

impl BudgetJob {
    /// Builds an entry.
    #[must_use]
    pub fn new(job: u64, request: PlanRequest) -> Self {
        BudgetJob { job, request }
    }
}

/// One job's share of an [`Allocation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grant {
    /// Raw job id.
    pub job: u64,
    /// Copies granted under the budget.
    pub copies: u32,
    /// The unconstrained per-job optimum `r*` (what an unlimited budget
    /// would grant); `0` when the job's plan is infeasible.
    pub unconstrained: u32,
}

/// The result of one water-filling round: per-job grants in input order
/// plus the allocator diagnostics the batch-planning API surfaces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// Per-job grants, aligned with the input batch order.
    pub grants: Vec<Grant>,
    /// The budget this round allocated under.
    pub budget: SpeculationBudget,
    /// Sum of the unconstrained optima `Σ r*_j` (what unlimited would
    /// spend).
    pub requested: u64,
    /// Copies actually granted (`Σ copies ≤ min(budget, requested)`).
    pub spent: u64,
    /// Jobs whose per-job plan failed (granted 0, excluded from
    /// `requested`).
    pub infeasible: u32,
}

impl Allocation {
    /// FNV-1a 64 digest over the integer-only `(job id, copies)` pairs in
    /// ascending job-id order, as a hex string. Floats never enter the
    /// digest, so it is safe to hard-check across hosts (like the serve
    /// decisions digest, unlike the float-carrying report digests).
    #[must_use]
    pub fn digest(&self) -> String {
        let mut ordered: Vec<(u64, u32)> = self
            .grants
            .iter()
            .map(|grant| (grant.job, grant.copies))
            .collect();
        ordered.sort_unstable();
        grants_digest(ordered.into_iter())
    }
}

/// FNV-1a 64 over `(job id, copies)` pairs in the order given (callers
/// pass ascending job-id order). Shared by [`Allocation::digest`] and
/// [`AllocationLedger::digest`] so a single-batch digest and a one-batch
/// ledger digest agree.
fn grants_digest(pairs: impl Iterator<Item = (u64, u32)>) -> String {
    let mut digest = chronos_obs::Digest::default();
    for (job, copies) in pairs {
        digest.write(&job.to_le_bytes());
        digest.write(&copies.to_le_bytes());
    }
    digest.finish_hex()
}

/// Distributes `budget` speculative copies across `jobs` by the greedy
/// water-filling of the module docs, planning each job's unconstrained
/// optimum through `planner` (so repeated profiles cost one solve via the
/// planner's cache).
///
/// The result is deterministic: a pure function of the batch, the budget
/// and the planner's objective/configuration. Infeasible jobs (per-job
/// plan errors) are granted 0 copies and counted in
/// [`Allocation::infeasible`] — the allocator never fails on them, exactly
/// as the unbudgeted policies fall back rather than abort.
///
/// # Errors
///
/// Propagates closed-form evaluation errors from the utility model — these
/// indicate an inconsistent objective, not an infeasible job, and cannot
/// occur for a request whose per-job plan succeeded.
pub fn allocate(
    planner: &Planner,
    jobs: &[BudgetJob],
    budget: SpeculationBudget,
) -> Result<Allocation, ChronosError> {
    let plans: Vec<PlanResult> = jobs
        .iter()
        .map(|job| planner.plan_request(&job.request))
        .collect();

    let mut infeasible = 0u32;
    let unconstrained: Vec<u32> = plans
        .iter()
        .map(|plan| match plan {
            Ok(plan) => plan.outcome.r,
            Err(_) => {
                infeasible += 1;
                0
            }
        })
        .collect();
    let requested: u64 = unconstrained.iter().map(|&r| u64::from(r)).sum();

    let granted = match budget.limit() {
        None => unconstrained.clone(),
        Some(limit) if limit >= requested => unconstrained.clone(),
        Some(limit) => water_fill(planner, jobs, &plans, &unconstrained, limit)?,
    };

    let spent = granted.iter().map(|&r| u64::from(r)).sum();
    let grants = jobs
        .iter()
        .zip(granted.iter().zip(&unconstrained))
        .map(|(job, (&copies, &unconstrained))| Grant {
            job: job.job,
            copies,
            unconstrained,
        })
        .collect();
    Ok(Allocation {
        grants,
        budget,
        requested,
        spent,
        infeasible,
    })
}

/// One concave-envelope block of a job's utility curve: granting `size`
/// copies (ending at `end`) yields `avg` utility per copy.
#[derive(Debug, Clone, Copy)]
struct Block {
    end: u32,
    avg: f64,
}

/// The constrained path of [`allocate`]: `limit < Σ r*_j` is already
/// established, so at least one job will be cut short.
fn water_fill(
    planner: &Planner,
    jobs: &[BudgetJob],
    plans: &[PlanResult],
    unconstrained: &[u32],
    limit: u64,
) -> Result<Vec<u32>, ChronosError> {
    // Per-job concave-envelope blocks, cheapest representation: the block
    // list plus a cursor. Only feasible jobs with r* > 0 participate.
    let mut blocks: Vec<Vec<Block>> = Vec::with_capacity(jobs.len());
    for (index, job) in jobs.iter().enumerate() {
        let r_star = unconstrained[index];
        if r_star == 0 || plans[index].is_err() {
            blocks.push(Vec::new());
            continue;
        }
        let net = planner
            .optimizer()
            .objective()
            .for_job(&job.request.job, &job.request.params)?;
        let utilities = (0..=r_star)
            .map(|r| net.utility(r))
            .collect::<Result<Vec<f64>, ChronosError>>()?;
        blocks.push(envelope_blocks(&utilities));
    }

    let mut granted = vec![0u32; jobs.len()];
    let mut cursor = vec![0usize; jobs.len()];
    let mut remaining = limit;
    loop {
        // The affordable block with the highest average gain; ties resolve
        // to the lowest job id so the scan order is immaterial.
        let mut best: Option<(usize, f64)> = None;
        for (index, job_blocks) in blocks.iter().enumerate() {
            let Some(block) = job_blocks.get(cursor[index]) else {
                continue;
            };
            let size = u64::from(block.end - granted[index]);
            if size > remaining {
                // Blocks are atomic and later blocks of this job are no
                // better: the job is frozen for the rest of the round.
                continue;
            }
            let better = match best {
                None => true,
                Some((best_index, best_avg)) => {
                    block.avg > best_avg
                        || (block.avg == best_avg && jobs[index].job < jobs[best_index].job)
                }
            };
            if better {
                best = Some((index, block.avg));
            }
        }
        let Some((index, _)) = best else {
            break;
        };
        let block = blocks[index][cursor[index]];
        remaining -= u64::from(block.end - granted[index]);
        granted[index] = block.end;
        cursor[index] += 1;
        if remaining == 0 {
            break;
        }
    }
    Ok(granted)
}

/// Decomposes a utility curve `utilities[0..=r*]` into its concave-envelope
/// blocks (module docs): block averages are non-increasing, and granting
/// block by block never visits a point below the running maximum the
/// unconstrained optimizer would accept.
fn envelope_blocks(utilities: &[f64]) -> Vec<Block> {
    let r_star = utilities.len() - 1;
    let mut blocks = Vec::new();
    let mut current = 0usize;
    while current < r_star {
        let mut best_end = current + 1;
        let mut best_avg = block_average(utilities, current, current + 1);
        for end in current + 2..=r_star {
            let avg = block_average(utilities, current, end);
            if avg > best_avg {
                best_avg = avg;
                best_end = end;
            }
        }
        blocks.push(Block {
            end: best_end as u32,
            avg: best_avg,
        });
        current = best_end;
    }
    blocks
}

/// Average utility gain per copy across `(start, end]`, with the
/// `-∞`-floor cases made explicit: climbing out of the PoCD floor is
/// infinitely valuable, staying inside it is worthless.
fn block_average(utilities: &[f64], start: usize, end: usize) -> f64 {
    let (from, to) = (utilities[start], utilities[end]);
    if from == f64::NEG_INFINITY {
        if to == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        return f64::INFINITY;
    }
    (to - from) / (end - start) as f64
}

/// A snapshot of an [`AllocationLedger`]'s totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LedgerSummary {
    /// Jobs recorded across all batches.
    pub jobs: u64,
    /// Summed unconstrained optima.
    pub requested: u64,
    /// Summed granted copies.
    pub spent: u64,
    /// Jobs whose per-job plan was infeasible.
    pub infeasible: u64,
    /// Planning rounds recorded.
    pub batches: u64,
}

impl LedgerSummary {
    /// Exports the totals into a
    /// [`MetricsRegistry`](chronos_obs::MetricsRegistry) under the
    /// `chronos_plan_budget_*` namespace. The ledger keys grants by job
    /// id, so the totals — like its digest — are already worker-count-
    /// invariant.
    pub fn export_metrics(&self, registry: &mut chronos_obs::MetricsRegistry) {
        registry.counter_add(
            "chronos_plan_budget_jobs_total",
            "Jobs recorded across all budgeted planning rounds",
            self.jobs,
        );
        registry.counter_add(
            "chronos_plan_budget_requested_total",
            "Speculative copies the unconstrained optima asked for",
            self.requested,
        );
        registry.counter_add(
            "chronos_plan_budget_granted_total",
            "Speculative copies actually granted under the budget",
            self.spent,
        );
        registry.counter_add(
            "chronos_plan_budget_infeasible_total",
            "Jobs whose per-job plan was infeasible",
            self.infeasible,
        );
        registry.counter_add(
            "chronos_plan_budget_batches_total",
            "Budgeted planning rounds recorded",
            self.batches,
        );
    }
}

/// Accumulates the [`Allocation`]s of many planning rounds (e.g. one per
/// shard chunk of a sharded replay) into one worker-count-invariant view:
/// grants are keyed by job id, so the combined [`AllocationLedger::digest`]
/// is independent of the order batches complete in.
///
/// Share one ledger across shards the same way a [`crate::PlanCache`] is
/// shared: `Arc`-cloned into every policy the builder creates.
#[derive(Debug, Default)]
pub struct AllocationLedger {
    state: Mutex<LedgerState>,
}

#[derive(Debug, Default)]
struct LedgerState {
    grants: BTreeMap<u64, u32>,
    summary: LedgerSummary,
}

impl AllocationLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        AllocationLedger::default()
    }

    /// An empty ledger behind an `Arc`, ready to share across shards.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(AllocationLedger::new())
    }

    /// Folds one planning round into the ledger.
    pub fn record(&self, allocation: &Allocation) {
        // Invariant: no code panics while holding the ledger lock.
        #[allow(clippy::expect_used)]
        let mut state = self.state.lock().expect("ledger lock poisoned");
        for grant in &allocation.grants {
            state.grants.insert(grant.job, grant.copies);
        }
        state.summary.jobs += allocation.grants.len() as u64;
        state.summary.requested += allocation.requested;
        state.summary.spent += allocation.spent;
        state.summary.infeasible += u64::from(allocation.infeasible);
        state.summary.batches += 1;
    }

    /// The combined allocation digest: FNV-1a 64 over every recorded
    /// `(job id, copies)` pair in ascending job-id order. Identical across
    /// worker counts whenever the underlying batches are (the chunk
    /// structure, not the thread schedule, determines the batches).
    #[must_use]
    pub fn digest(&self) -> String {
        // Invariant: no code panics while holding the ledger lock.
        #[allow(clippy::expect_used)]
        let state = self.state.lock().expect("ledger lock poisoned");
        grants_digest(state.grants.iter().map(|(&job, &copies)| (job, copies)))
    }

    /// Totals across every recorded round.
    #[must_use]
    // Invariant: no code panics while holding the ledger lock.
    #[allow(clippy::expect_used)]
    pub fn summary(&self) -> LedgerSummary {
        self.state.lock().expect("ledger lock poisoned").summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::{JobProfile, StrategyParams, UtilityModel};

    fn planner() -> Planner {
        Planner::new(UtilityModel::new(1e-4, 0.0).unwrap())
    }

    fn batch_job(id: u64, deadline: f64) -> BudgetJob {
        let job = JobProfile::builder()
            .tasks(10)
            .t_min(20.0)
            .beta(1.5)
            .deadline(deadline)
            .price(1.0)
            .build()
            .unwrap();
        BudgetJob::new(
            id,
            PlanRequest::new(job, StrategyParams::clone_strategy(80.0)),
        )
    }

    #[test]
    fn budget_parses_and_displays() {
        assert_eq!(
            "unlimited".parse::<SpeculationBudget>().unwrap(),
            SpeculationBudget::Unlimited
        );
        assert_eq!(
            "12".parse::<SpeculationBudget>().unwrap(),
            SpeculationBudget::Limited(12)
        );
        let err = "twelve".parse::<SpeculationBudget>().unwrap_err();
        assert!(err.to_string().contains("`twelve`"));
        assert_eq!(SpeculationBudget::Unlimited.to_string(), "unlimited");
        assert_eq!(SpeculationBudget::Limited(3).to_string(), "3");
    }

    #[test]
    fn zero_budget_grants_nothing() {
        let planner = planner();
        let jobs = vec![batch_job(0, 100.0), batch_job(1, 120.0)];
        let allocation = allocate(&planner, &jobs, SpeculationBudget::Limited(0)).unwrap();
        assert!(allocation.grants.iter().all(|grant| grant.copies == 0));
        assert_eq!(allocation.spent, 0);
        assert!(allocation.requested > 0);
    }

    #[test]
    fn ample_budget_reproduces_the_unconstrained_optima() {
        let planner = planner();
        let jobs = vec![batch_job(0, 100.0), batch_job(1, 120.0), batch_job(2, 90.0)];
        let unlimited = allocate(&planner, &jobs, SpeculationBudget::Unlimited).unwrap();
        let ample = allocate(
            &planner,
            &jobs,
            SpeculationBudget::Limited(unlimited.requested),
        )
        .unwrap();
        for (a, b) in unlimited.grants.iter().zip(&ample.grants) {
            assert_eq!(a.copies, b.copies);
            assert_eq!(a.copies, a.unconstrained);
        }
        assert_eq!(ample.spent, ample.requested);
    }

    #[test]
    fn single_job_batch_is_clamped_to_the_budget() {
        let planner = planner();
        let jobs = vec![batch_job(7, 100.0)];
        let unlimited = allocate(&planner, &jobs, SpeculationBudget::Unlimited).unwrap();
        assert!(unlimited.grants[0].copies >= 1);
        let capped = allocate(&planner, &jobs, SpeculationBudget::Limited(1)).unwrap();
        assert!(capped.grants[0].copies <= 1);
        assert!(capped.spent <= 1);
    }

    #[test]
    fn tied_marginals_resolve_by_ascending_job_id() {
        let planner = planner();
        // Identical profiles → identical utility curves → every marginal
        // ties. One copy must go to the lowest job id.
        let jobs = vec![
            batch_job(9, 100.0),
            batch_job(3, 100.0),
            batch_job(5, 100.0),
        ];
        let allocation = allocate(&planner, &jobs, SpeculationBudget::Limited(1)).unwrap();
        let by_id: BTreeMap<u64, u32> = allocation
            .grants
            .iter()
            .map(|grant| (grant.job, grant.copies))
            .collect();
        assert_eq!(by_id[&3], 1);
        assert_eq!(by_id[&5], 0);
        assert_eq!(by_id[&9], 0);
    }

    #[test]
    fn infeasible_jobs_are_granted_zero_and_counted() {
        let planner = planner();
        // Deadline at t_min: the profile itself cannot be built feasibly
        // for the clone timing (tau_kill beyond the deadline is fine, but a
        // deadline equal to t_min is hopeless), so drive infeasibility via
        // a reactive timing beyond the deadline instead.
        let job = JobProfile::builder()
            .tasks(10)
            .t_min(20.0)
            .beta(1.5)
            .deadline(100.0)
            .price(1.0)
            .build()
            .unwrap();
        let broken = BudgetJob::new(
            1,
            PlanRequest::new(job, StrategyParams::restart(95.0, 99.0).unwrap()),
        );
        let jobs = vec![batch_job(0, 100.0), broken];
        let allocation = allocate(&planner, &jobs, SpeculationBudget::Limited(8)).unwrap();
        assert_eq!(allocation.infeasible, 1);
        assert_eq!(allocation.grants[1].copies, 0);
        assert_eq!(allocation.grants[1].unconstrained, 0);
        assert!(allocation.grants[0].copies >= 1);
    }

    #[test]
    fn digest_is_order_invariant_and_grant_sensitive() {
        let planner = planner();
        let forward = vec![batch_job(0, 100.0), batch_job(1, 120.0)];
        let reversed = vec![batch_job(1, 120.0), batch_job(0, 100.0)];
        let budget = SpeculationBudget::Limited(2);
        let a = allocate(&planner, &forward, budget).unwrap();
        let b = allocate(&planner, &reversed, budget).unwrap();
        assert_eq!(a.digest(), b.digest());
        let c = allocate(&planner, &forward, SpeculationBudget::Limited(0)).unwrap();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn ledger_combines_batches_worker_invariantly() {
        let planner = planner();
        let jobs = [batch_job(0, 100.0), batch_job(1, 120.0), batch_job(2, 90.0)];
        let budget = SpeculationBudget::Limited(2);
        // One big batch vs the same jobs split across two "chunks" in the
        // opposite recording order: per-chunk allocation differs from the
        // single batch in general, so compare the split orders to each
        // other.
        let first = allocate(&planner, &jobs[..1], budget).unwrap();
        let rest = allocate(&planner, &jobs[1..], budget).unwrap();
        let forward = AllocationLedger::new();
        forward.record(&first);
        forward.record(&rest);
        let backward = AllocationLedger::new();
        backward.record(&rest);
        backward.record(&first);
        assert_eq!(forward.digest(), backward.digest());
        let summary = forward.summary();
        assert_eq!(summary.batches, 2);
        assert_eq!(summary.jobs, 3);
        assert_eq!(summary.spent, first.spent + rest.spent);
    }

    #[test]
    fn envelope_blocks_handle_a_non_concave_head() {
        // U = [0, -2, 5, 6]: the first marginal is negative but the curve
        // peaks later, so the first block must span straight to the peak of
        // the average gain (r = 2, avg 2.5), then a size-1 block to r = 3.
        let blocks = envelope_blocks(&[0.0, -2.0, 5.0, 6.0]);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].end, 2);
        assert!((blocks[0].avg - 2.5).abs() < 1e-12);
        assert_eq!(blocks[1].end, 3);
        assert!((blocks[1].avg - 1.0).abs() < 1e-12);
        // Averages non-increasing.
        assert!(blocks[0].avg >= blocks[1].avg);
    }

    #[test]
    fn atomic_blocks_are_skipped_when_unaffordable() {
        // With budget 1 the 2-copy escape block cannot be granted
        // partially: a partial grant would land on the -2 point.
        let blocks = envelope_blocks(&[0.0, -2.0, 5.0]);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].end, 2);
    }

    #[test]
    fn floor_escape_is_infinitely_valuable() {
        assert_eq!(
            block_average(&[f64::NEG_INFINITY, 1.0], 0, 1),
            f64::INFINITY
        );
        assert_eq!(
            block_average(&[f64::NEG_INFINITY, f64::NEG_INFINITY, 1.0], 0, 1),
            f64::NEG_INFINITY
        );
    }
}
