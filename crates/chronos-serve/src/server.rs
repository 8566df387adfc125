//! The planning server: worker pool, request/response types, admission
//! logic, latency accounting and the decisions digest.

use crate::queue::{BoundedQueue, PushError};
use chronos_core::prelude::*;
use chronos_obs::{DecisionTrace, Digest, MetricsRegistry, TraceEvent};
use chronos_plan::{CacheStats, PlanCache, Planner, SpeculationBudget};
use chronos_sim::prelude::{JobId, JobSpec, JobSubmitView, LatencyHistogram};
use chronos_strategies::prelude::{ChronosPolicyConfig, PolicyBuilder, StrategyTiming};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How many work items a worker pops per queue round trip: large enough to
/// amortize the queue lock, small enough that one worker cannot starve the
/// others under a bursty arrival stream.
const POP_BATCH: usize = 32;

/// One admission request: a job, as it would be submitted, plus a
/// caller-assigned id that survives into the response (responses complete
/// out of submission order across workers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Caller-assigned correlation id, echoed in the response.
    pub request_id: u64,
    /// The job to decide admission for.
    pub job: JobSpec,
}

/// What the server decided for one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionDecision {
    /// Whether any strategy can be optimized for this job (deadline
    /// feasible). When `false` every other field is zero/`None`.
    pub feasible: bool,
    /// The utility-maximizing strategy (ties break in
    /// [`StrategyKind::ALL`] order, so the choice is deterministic).
    pub strategy: Option<StrategyKind>,
    /// The optimal number of extra speculative copies `r`.
    pub copies: u32,
    /// PoCD at the optimum.
    pub pocd: f64,
    /// Expected dollar cost at the optimum.
    pub dollar_cost: f64,
    /// Net utility at the optimum.
    pub utility: f64,
    /// The cluster-wide speculation budget left *after* this decision's
    /// debit, when the server runs under [`SpeculationBudget::Limited`];
    /// `None` when it runs unbudgeted. Serving-side observability only:
    /// the field is excluded from [`decisions_digest`], because under a
    /// finite budget the grant sequence depends on admission order anyway.
    pub remaining_budget: Option<u64>,
}

impl AdmissionDecision {
    /// The decision for a job no strategy can be optimized for.
    #[must_use]
    pub fn infeasible() -> Self {
        AdmissionDecision {
            feasible: false,
            strategy: None,
            copies: 0,
            pocd: 0.0,
            dollar_cost: 0.0,
            utility: 0.0,
            remaining_budget: None,
        }
    }

    /// Whether the cluster-wide speculation budget, not the deadline
    /// analysis, suppressed this job's speculative copies: the deadline is
    /// feasible, but no strategy (and no copies) was granted. Such jobs
    /// are still admitted — they run unspeculated, like under Hadoop-NS.
    #[must_use]
    pub fn budget_denied(&self) -> bool {
        self.feasible && self.strategy.is_none()
    }
}

/// One admission response, carrying its request's correlation id.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeResponse {
    /// The correlation id of the request this answers.
    pub request_id: u64,
    /// The job the decision applies to.
    pub job: JobId,
    /// The admission decision.
    pub decision: AdmissionDecision,
}

/// Why the server could not take a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue could not admit the batch: explicit backpressure.
    /// The caller decides whether to retry, shed or degrade.
    Overloaded {
        /// The server's queue capacity.
        capacity: usize,
    },
    /// The server is shutting down; no new work is accepted.
    ShuttingDown,
    /// The configuration was rejected at startup.
    InvalidConfig(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "server overloaded (queue capacity {capacity})")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::InvalidConfig(why) => write!(f, "invalid serve config: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A rejected submission: the error plus the batch, returned to the caller
/// in submission order so no request is lost to backpressure.
#[derive(Debug)]
pub struct Rejected {
    /// Why the batch was rejected.
    pub error: ServeError,
    /// The rejected requests, ownership returned.
    pub requests: Vec<ServeRequest>,
}

/// How the server measures per-request latency.
///
/// Wall-clock latencies are inherently nondeterministic, which would make
/// the "merged per-worker histograms equal a single-threaded replay"
/// property untestable. The synthetic probe replaces the clock with a pure
/// function of the job, so tests can pin histogram merging bit-exactly
/// while production keeps real measurements.
#[derive(Debug, Clone, Copy)]
pub enum LatencyProbe {
    /// Microseconds from enqueue to decision (queueing delay included —
    /// that is the latency a submitter observes).
    WallMicros,
    /// A deterministic per-job pseudo-latency in microseconds.
    SyntheticMicros(fn(&JobSpec) -> f64),
}

/// Planning-server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads (thread-per-core is the intended deployment).
    pub workers: u32,
    /// Bounded-queue capacity: the backpressure knob. Small capacities
    /// bound queueing delay (and therefore tail latency); large ones
    /// absorb burstier arrivals before rejecting.
    pub queue_capacity: usize,
    /// The Chronos policy configuration decisions are optimized under.
    pub policy: ChronosPolicyConfig,
    /// Latency measurement mode.
    pub probe: LatencyProbe,
    /// The cluster-wide speculation budget: how many extra copies the
    /// server may grant in total across its lifetime. Under
    /// [`SpeculationBudget::Limited`] every feasible decision debits its
    /// optimal copy count atomically, all-or-nothing: a job whose full
    /// grant no longer fits is admitted *without* speculation (see
    /// [`AdmissionDecision::budget_denied`]) rather than partially funded
    /// with copies the closed forms never valued. Unlimited (the default)
    /// reproduces the historical per-job-optimal decisions exactly.
    pub budget: SpeculationBudget,
    /// Per-worker decision-trace ring capacity. `None` (the default)
    /// disables recording entirely — the worker hot loop keeps a single
    /// never-taken branch. `Some(capacity)` records one
    /// [`TraceEvent::ServeAdmitted`] per decision (stamped with the job's
    /// deterministic submit time, never the wall clock) plus submit-side
    /// [`TraceEvent::ServeOverloaded`] events; collect the merged,
    /// request-id-sorted trace with [`PlanServer::shutdown_with_trace`].
    pub decision_trace: Option<usize>,
}

impl ServeConfig {
    /// A configuration with the trace-replay policy defaults (testbed
    /// objective, trace-scaled `τ_est`/`τ_kill`), wall-clock latencies, an
    /// unlimited budget and no decision trace.
    #[must_use]
    pub fn new(workers: u32, queue_capacity: usize) -> Self {
        ServeConfig {
            workers,
            queue_capacity,
            policy: ChronosPolicyConfig::testbed().with_timing(StrategyTiming::trace_default()),
            probe: LatencyProbe::WallMicros,
            budget: SpeculationBudget::Unlimited,
            decision_trace: None,
        }
    }

    /// Replaces the latency probe.
    #[must_use]
    pub fn with_probe(mut self, probe: LatencyProbe) -> Self {
        self.probe = probe;
        self
    }

    /// Replaces the policy configuration.
    #[must_use]
    pub fn with_policy(mut self, policy: ChronosPolicyConfig) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the cluster-wide speculation budget.
    #[must_use]
    pub fn with_budget(mut self, budget: SpeculationBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables per-worker decision tracing with the given ring capacity
    /// (see [`ServeConfig::decision_trace`]; pass `usize::MAX` for an
    /// effectively unbounded ring).
    #[must_use]
    pub fn with_decision_trace(mut self, capacity: usize) -> Self {
        self.decision_trace = Some(capacity);
        self
    }
}

/// Server-wide statistics. Per-worker histograms merge monoidally (in
/// worker-index order, though element-wise integer addition is commutative
/// anyway) into one [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests decided and completed.
    pub served: u64,
    /// Requests rejected with [`ServeError::Overloaded`] or
    /// [`ServeError::ShuttingDown`].
    pub rejected: u64,
    /// Merged per-request latency histogram. **The recorded unit is
    /// microseconds**, not seconds: the histogram's log₂ buckets start at
    /// `[0, 1)`, so recording seconds would collapse every sub-second
    /// decision into bucket 0. Bucket `i` therefore covers
    /// `[2^(i−1), 2^i)` µs here.
    pub latency: LatencyHistogram,
    /// Counter snapshot of the shared plan cache.
    pub cache: CacheStats,
}

impl ServerStats {
    /// Exports the statistics into a
    /// [`MetricsRegistry`] under the
    /// `chronos_serve_*` namespace (the plan cache exports under its own
    /// `chronos_plan_cache_*` names).
    pub fn export_metrics(&self, registry: &mut MetricsRegistry) {
        registry.counter_add(
            "chronos_serve_served_total",
            "Requests decided and completed",
            self.served,
        );
        registry.counter_add(
            "chronos_serve_rejected_total",
            "Requests rejected (overloaded or shutting down)",
            self.rejected,
        );
        registry.histogram_merge(
            "chronos_serve_latency_micros",
            "Enqueue-to-decision latency distribution (log2 buckets, microseconds)",
            self.latency.to_metric(),
        );
        self.cache.export_metrics(registry);
    }
}

/// The slots a batch's responses land in, plus the countdown to done.
#[derive(Debug)]
struct BatchSlots {
    responses: Vec<Option<ServeResponse>>,
    remaining: usize,
}

/// Completion state shared between a [`Ticket`] and the workers deciding
/// its batch.
#[derive(Debug)]
struct BatchState {
    slots: Mutex<BatchSlots>,
    done: Condvar,
}

impl BatchState {
    fn new(len: usize) -> Self {
        BatchState {
            slots: Mutex::new(BatchSlots {
                responses: (0..len).map(|_| None).collect(),
                remaining: len,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, slot: usize, response: ServeResponse) {
        let mut slots = self.slots.lock().expect("batch lock poisoned");
        if slots.responses[slot].replace(response).is_none() {
            slots.remaining -= 1;
        }
        if slots.remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// A claim on an accepted batch's responses. [`Ticket::wait`] blocks until
/// every request in the batch is decided and returns the responses in
/// submission order.
#[derive(Debug)]
#[must_use = "an unawaited ticket drops its responses"]
pub struct Ticket {
    batch: Arc<BatchState>,
}

impl Ticket {
    /// Blocks until the whole batch is decided; responses come back in the
    /// order the requests were submitted.
    pub fn wait(self) -> Vec<ServeResponse> {
        let mut slots = self.batch.slots.lock().expect("batch lock poisoned");
        while slots.remaining > 0 {
            slots = self
                .batch
                .done
                .wait(slots)
                .expect("batch lock poisoned while waiting");
        }
        slots
            .responses
            .iter_mut()
            .map(|slot| slot.take().expect("completed batch fills every slot"))
            .collect()
    }
}

/// One unit of queued work.
#[derive(Debug)]
struct WorkItem {
    request: ServeRequest,
    slot: usize,
    batch: Arc<BatchState>,
    enqueued: Instant,
}

/// State shared by the submitter-facing handle and every worker.
#[derive(Debug)]
struct ServerShared {
    queue: BoundedQueue<WorkItem>,
    /// Builds the per-strategy plan requests for a job.
    policy: ChronosPolicyConfig,
    /// Plans each request through the shared single-flight [`PlanCache`]:
    /// the only lookup layer on the admission path.
    planner: Planner,
    served: AtomicU64,
    rejected: AtomicU64,
    histograms: Vec<Mutex<LatencyHistogram>>,
    /// Remaining speculation-budget tokens; `None` when unbudgeted.
    budget_remaining: Option<AtomicU64>,
    /// Decision traces when [`ServeConfig::decision_trace`] is set: one per
    /// worker plus a final submit-side trace (index `workers`) for
    /// overload events, which have no owning worker.
    traces: Option<Vec<Mutex<DecisionTrace>>>,
}

impl ServerShared {
    /// Decides one job: every strategy in [`StrategyKind::ALL`] is planned
    /// and the highest-utility feasible one wins (strictly-greater
    /// comparison, so ties resolve to the earliest kind — deterministic
    /// regardless of which worker decides).
    fn decide(&self, job: &JobSpec) -> AdmissionDecision {
        let view = JobSubmitView {
            job: job.id,
            task_count: job.task_count() as u32,
            deadline_secs: job.deadline_secs,
            price: job.price,
            profile: job.profile,
        };
        let mut best: Option<(StrategyKind, OptimizationOutcome)> = None;
        for kind in StrategyKind::ALL {
            let request = self.policy.request_for(&view, kind);
            let Ok(Ok(outcome)) = request.map(|request| self.planner.plan_request(&request)) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((_, incumbent)) => outcome.utility > incumbent.utility,
            };
            if better {
                best = Some((kind, outcome));
            }
        }
        match best {
            Some((kind, outcome)) => AdmissionDecision {
                feasible: true,
                strategy: Some(kind),
                copies: outcome.r,
                pocd: outcome.pocd,
                dollar_cost: outcome.dollar_cost,
                utility: outcome.utility,
                remaining_budget: None,
            },
            None => AdmissionDecision::infeasible(),
        }
    }
}

/// The long-running admission-control planning server. See the crate docs
/// for the queue shape, backpressure semantics and shutdown protocol.
#[derive(Debug)]
pub struct PlanServer {
    shared: Arc<ServerShared>,
    config: ServeConfig,
    handles: Vec<JoinHandle<()>>,
}

impl PlanServer {
    /// Starts the worker pool over a fresh shared plan cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when `workers` or `queue_capacity` is
    /// zero, or the policy's optimizer configuration fails validation.
    pub fn start(config: ServeConfig) -> Result<Self, ServeError> {
        PlanServer::start_with_cache(config, PlanCache::shared())
    }

    /// Starts the worker pool over an existing shared cache (e.g. one
    /// pre-warmed by a batch replay).
    ///
    /// # Errors
    ///
    /// As for [`PlanServer::start`].
    pub fn start_with_cache(
        config: ServeConfig,
        cache: Arc<PlanCache>,
    ) -> Result<Self, ServeError> {
        let mut server = PlanServer::build(config, cache)?;
        server.launch_workers();
        Ok(server)
    }

    /// Builds the server without launching workers. Used directly by tests
    /// that need a deterministically full queue (no consumer racing the
    /// submitter); everything else goes through [`PlanServer::start`].
    fn build(config: ServeConfig, cache: Arc<PlanCache>) -> Result<Self, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::InvalidConfig(
                "workers: must be at least 1".to_string(),
            ));
        }
        if config.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity: must be at least 1".to_string(),
            ));
        }
        // The same construction path the simulator's budgeted policies use
        // (`PolicyBuilder`), so online admission and batch replay run
        // identical closed forms over the shared cache. It also validates
        // the optimizer configuration: a broken config fails startup
        // loudly instead of turning every decision infeasible.
        let planner = PolicyBuilder::new(config.policy)
            .cached(cache)
            .planner()
            .map_err(|err| ServeError::InvalidConfig(err.to_string()))?;
        let shared = Arc::new(ServerShared {
            queue: BoundedQueue::new(config.queue_capacity),
            policy: config.policy,
            planner,
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            histograms: (0..config.workers)
                .map(|_| Mutex::new(LatencyHistogram::new()))
                .collect(),
            budget_remaining: match config.budget {
                SpeculationBudget::Unlimited => None,
                SpeculationBudget::Limited(tokens) => Some(AtomicU64::new(tokens)),
            },
            traces: config.decision_trace.map(|capacity| {
                (0..=config.workers)
                    .map(|_| Mutex::new(DecisionTrace::bounded(capacity.max(1))))
                    .collect()
            }),
        });
        Ok(PlanServer {
            shared,
            config,
            handles: Vec::new(),
        })
    }

    fn launch_workers(&mut self) {
        for index in 0..self.config.workers as usize {
            let shared = Arc::clone(&self.shared);
            let config = self.config;
            self.handles.push(std::thread::spawn(move || {
                worker_loop(&shared, index, &config);
            }));
        }
    }

    /// The server's queue capacity.
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// The shared plan cache backing every worker.
    #[must_use]
    pub fn cache(&self) -> &Arc<PlanCache> {
        self.shared.planner.cache()
    }

    /// Submits a batch of requests. The whole batch is admitted or
    /// rejected atomically and **the call never blocks**: backpressure
    /// surfaces as [`ServeError::Overloaded`] with the batch returned, and
    /// the caller chooses its overload policy (retry, shed, degrade).
    ///
    /// # Errors
    ///
    /// [`Rejected`] with [`ServeError::Overloaded`] when the queue cannot
    /// take the batch, or [`ServeError::ShuttingDown`] once shutdown began.
    pub fn submit(&self, requests: Vec<ServeRequest>) -> Result<Ticket, Rejected> {
        let enqueued = Instant::now();
        let batch = Arc::new(BatchState::new(requests.len()));
        let items: Vec<WorkItem> = requests
            .into_iter()
            .enumerate()
            .map(|(slot, request)| WorkItem {
                request,
                slot,
                batch: Arc::clone(&batch),
                enqueued,
            })
            .collect();
        match self.shared.queue.try_push_all(items) {
            Ok(()) => Ok(Ticket { batch }),
            Err((push_error, items)) => {
                self.shared
                    .rejected
                    .fetch_add(items.len() as u64, Ordering::Relaxed);
                if let Some(traces) = &self.shared.traces {
                    // Submit-side slot (index `workers`): rejections have no
                    // owning worker. Overload is load-dependent by nature, so
                    // these events are honest but not worker-count-invariant
                    // (see the digest-safety notes in docs/observability.md).
                    traces[traces.len() - 1]
                        .lock()
                        .expect("trace lock poisoned")
                        .record(
                            0,
                            TraceEvent::ServeOverloaded {
                                rejected: items.len() as u64,
                            },
                        );
                }
                let error = match push_error {
                    PushError::Full { capacity } => ServeError::Overloaded { capacity },
                    PushError::Closed => ServeError::ShuttingDown,
                };
                Err(Rejected {
                    error,
                    requests: items.into_iter().map(|item| item.request).collect(),
                })
            }
        }
    }

    /// Submits a single request (see [`PlanServer::submit`]).
    ///
    /// # Errors
    ///
    /// As for [`PlanServer::submit`].
    pub fn submit_one(&self, request: ServeRequest) -> Result<Ticket, Rejected> {
        self.submit(vec![request])
    }

    /// A live snapshot of the server statistics (workers keep running).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        collect_stats(&self.shared)
    }

    /// Graceful shutdown: closes the queue (new submissions are rejected
    /// with [`ServeError::ShuttingDown`]), lets the workers drain every
    /// already-accepted request, joins them, and returns the final
    /// statistics. No accepted request is dropped.
    #[must_use]
    pub fn shutdown(mut self) -> ServerStats {
        self.close_and_join();
        collect_stats(&self.shared)
    }

    /// [`PlanServer::shutdown`] plus the merged decision trace. Per-worker
    /// traces are folded in worker-index order and the admitted events
    /// sorted by request id — the same canonicalization as
    /// [`decisions_digest`] — so for an unbudgeted, never-overloaded
    /// server the trace digest is worker-count-invariant. Returns an empty
    /// trace when [`ServeConfig::decision_trace`] was off.
    #[must_use]
    pub fn shutdown_with_trace(mut self) -> (ServerStats, DecisionTrace) {
        self.close_and_join();
        let stats = collect_stats(&self.shared);
        let mut merged = DecisionTrace::new();
        if let Some(traces) = &self.shared.traces {
            for trace in traces {
                let taken = std::mem::take(&mut *trace.lock().expect("trace lock poisoned"));
                merged.merge(taken);
            }
            merged.sort_records_by(|record| match record.event {
                TraceEvent::ServeAdmitted { request, .. } => (0u8, request),
                // Submit-side overload events sort after every admission;
                // their count is load-dependent anyway.
                _ => (1u8, u64::MAX),
            });
        }
        (stats, merged)
    }

    /// A live [`MetricsRegistry`] snapshot of the server — the exportable
    /// form of [`PlanServer::stats`] (Prometheus text via
    /// [`MetricsRegistry::render_prometheus`], JSON via
    /// [`MetricsRegistry::render_json`]).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        self.stats().export_metrics(&mut registry);
        registry
    }

    /// Closes the queue and joins the workers once they have drained it.
    fn close_and_join(&mut self) {
        self.shared.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for PlanServer {
    /// Dropping the server without [`PlanServer::shutdown`] still drains
    /// and joins — abandoned worker threads would outlive the process's
    /// expectations otherwise.
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn collect_stats(shared: &ServerShared) -> ServerStats {
    let mut latency = LatencyHistogram::new();
    // Worker-index order: merging is commutative, but a fixed order keeps
    // the merge sequence itself reproducible.
    for histogram in &shared.histograms {
        latency.merge(&histogram.lock().expect("histogram lock poisoned"));
    }
    ServerStats {
        served: shared.served.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        latency,
        cache: shared.planner.stats(),
    }
}

fn worker_loop(shared: &ServerShared, index: usize, config: &ServeConfig) {
    loop {
        let items = shared.queue.pop_many(POP_BATCH);
        if items.is_empty() {
            // Closed and fully drained: the shutdown protocol's exit signal.
            return;
        }
        for item in items {
            let mut decision = shared.decide(&item.request.job);
            if let Some(remaining) = &shared.budget_remaining {
                decision = debit_budget(remaining, decision);
            }
            let micros = match config.probe {
                LatencyProbe::WallMicros => item.enqueued.elapsed().as_secs_f64() * 1e6,
                LatencyProbe::SyntheticMicros(f) => f(&item.request.job),
            };
            shared.histograms[index]
                .lock()
                .expect("histogram lock poisoned")
                .record_secs(micros);
            let response = ServeResponse {
                request_id: item.request.request_id,
                job: item.request.job.id,
                decision,
            };
            if let Some(traces) = &shared.traces {
                // Stamped with the job's submit time — deterministic — and
                // sorted by request id at collection, mirroring
                // `decisions_digest`'s worker-count-invariance argument.
                traces[index].lock().expect("trace lock poisoned").record(
                    item.request.job.submit_time.as_micros(),
                    TraceEvent::ServeAdmitted {
                        request: response.request_id,
                        job: response.job.raw(),
                        feasible: response.decision.feasible,
                        strategy: strategy_ordinal(response.decision.strategy),
                        copies: response.decision.copies,
                    },
                );
            }
            item.batch.complete(item.slot, response);
            shared.served.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Debits a finite speculation budget for one decision, all-or-nothing: a
/// feasible decision either reserves its full optimal copy count (CAS loop
/// — workers debit concurrently) or, when the remaining tokens cannot cover
/// it, is downgraded to admission without speculation. Partial grants are
/// never made: the closed forms valued the *optimal* `r`, not a truncation
/// of it, so buying fewer copies than planned would report utilities the
/// plan no longer earns. Every decision — including infeasible ones, which
/// cost nothing — reports the tokens left after its debit.
fn debit_budget(remaining: &AtomicU64, decision: AdmissionDecision) -> AdmissionDecision {
    let cost = u64::from(decision.copies);
    match remaining.fetch_update(Ordering::AcqRel, Ordering::Relaxed, |tokens| {
        tokens.checked_sub(cost)
    }) {
        Ok(before) => AdmissionDecision {
            remaining_budget: Some(before - cost),
            ..decision
        },
        Err(left) => AdmissionDecision {
            feasible: true,
            remaining_budget: Some(left),
            ..AdmissionDecision::infeasible()
        },
    }
}

/// FNV-1a 64 digest over the batch's *decision* fields (ids, feasibility,
/// strategy, copy counts), as a hex string. Responses are digested in
/// ascending `request_id` order, so any submission/completion interleaving
/// of the same decisions produces the same digest. Float fields (PoCD,
/// cost, utility) are deliberately excluded: they flow through platform
/// libm, and this digest is pinned across hosts by `chronos-bench`'s
/// `tests/pinned_workload.rs`, `tests/serve_replay.rs` and
/// `tests/trace_tool_cli.rs`.
/// [`AdmissionDecision::remaining_budget`] is excluded too — it is a
/// serving-side observability field, and under a finite budget the grant
/// sequence (and so the digest-relevant `copies` values) already depends on
/// the order workers admit jobs; only unbudgeted digests are
/// worker-count-invariant.
#[must_use]
pub fn decisions_digest(responses: &[ServeResponse]) -> String {
    let mut ordered: Vec<&ServeResponse> = responses.iter().collect();
    ordered.sort_unstable_by_key(|response| response.request_id);
    let mut digest = Digest::default();
    for response in ordered {
        digest.write(&response.request_id.to_le_bytes());
        digest.write(&response.job.raw().to_le_bytes());
        digest.write(&[u8::from(response.decision.feasible)]);
        digest.write(&[strategy_ordinal(response.decision.strategy)]);
        digest.write(&response.decision.copies.to_le_bytes());
    }
    digest.finish_hex()
}

/// The stable one-byte encoding of a strategy choice, shared by
/// [`decisions_digest`] and the decision trace's
/// [`TraceEvent::ServeAdmitted`] events (Clone = 0, SpeculativeRestart = 1,
/// SpeculativeResume = 2, no speculation = 255).
#[must_use]
pub fn strategy_ordinal(strategy: Option<StrategyKind>) -> u8 {
    match strategy {
        None => u8::MAX,
        Some(StrategyKind::Clone) => 0,
        Some(StrategyKind::SpeculativeRestart) => 1,
        Some(StrategyKind::SpeculativeResume) => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_sim::prelude::SimTime;

    fn job(id: u64, deadline: f64) -> JobSpec {
        JobSpec::new(JobId::new(id), SimTime::ZERO, deadline, 10)
    }

    fn request(id: u64, deadline: f64) -> ServeRequest {
        ServeRequest {
            request_id: id,
            job: job(id, deadline),
        }
    }

    #[test]
    fn start_rejects_zero_workers_and_zero_capacity() {
        let err = PlanServer::start(ServeConfig::new(0, 8)).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(ref why) if why.contains("workers")));
        let err = PlanServer::start(ServeConfig::new(1, 0)).unwrap_err();
        assert!(
            matches!(err, ServeError::InvalidConfig(ref why) if why.contains("queue_capacity"))
        );
    }

    #[test]
    fn start_rejects_a_broken_optimizer_config() {
        let mut config = ServeConfig::new(1, 8);
        config.policy.optimizer.r_max = 0;
        let err = PlanServer::start(config).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(ref why) if why.contains("r_max")));
    }

    #[test]
    fn serves_a_batch_and_decides_deterministically() {
        let server = PlanServer::start(ServeConfig::new(1, 16)).unwrap();
        let ticket = server
            .submit((0..8).map(|i| request(i, 100.0)).collect())
            .unwrap();
        let responses = ticket.wait();
        assert_eq!(responses.len(), 8);
        for (index, response) in responses.iter().enumerate() {
            // Submission order, with the correlation ids echoed back.
            assert_eq!(response.request_id, index as u64);
            assert!(response.decision.feasible);
            assert!(response.decision.strategy.is_some());
            assert!(response.decision.copies >= 1);
        }
        // All 8 jobs share one profile: every decision is identical.
        for response in &responses[1..] {
            assert_eq!(response.decision, responses[0].decision);
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 8);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.latency.total(), 8);
        // Each decision plans all three strategies, and every one of those
        // lookups reaches the shared cache exactly once: one miss (solve)
        // per strategy for the single distinct profile, and the other
        // 8 × 3 − 3 lookups are hits. No other lookup layer sits in front.
        assert_eq!(stats.cache.misses, 3);
        assert_eq!(stats.cache.hits, 21);
    }

    #[test]
    fn infeasible_jobs_get_a_typed_negative_decision() {
        let server = PlanServer::start(ServeConfig::new(1, 4)).unwrap();
        // Deadline at t_min: no strategy (not even Clone) can be built.
        let responses = server.submit_one(request(0, 1.0)).unwrap().wait();
        assert_eq!(responses[0].decision, AdmissionDecision::infeasible());
        let _ = server.shutdown();
    }

    #[test]
    fn overload_is_deterministic_when_no_worker_drains() {
        // Paused start: workers never launch, so the queue state is fully
        // under the test's control — no racing consumer can make room.
        let server = PlanServer::build(ServeConfig::new(1, 2), PlanCache::shared()).unwrap();
        let _accepted = server
            .submit(vec![request(0, 100.0), request(1, 100.0)])
            .unwrap();
        let rejected = server.submit_one(request(2, 100.0)).unwrap_err();
        assert_eq!(rejected.error, ServeError::Overloaded { capacity: 2 });
        assert_eq!(rejected.requests.len(), 1);
        assert_eq!(rejected.requests[0].request_id, 2);
        let stats = server.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.served, 0);
    }

    #[test]
    fn batches_larger_than_the_queue_are_rejected_not_blocked() {
        let server = PlanServer::start(ServeConfig::new(1, 2)).unwrap();
        let batch: Vec<ServeRequest> = (0..3).map(|i| request(i, 100.0)).collect();
        let rejected = server.submit(batch).unwrap_err();
        assert_eq!(rejected.error, ServeError::Overloaded { capacity: 2 });
        assert_eq!(rejected.requests.len(), 3);
        // Ownership returned in submission order.
        assert_eq!(rejected.requests[0].request_id, 0);
        assert_eq!(rejected.requests[2].request_id, 2);
        let _ = server.shutdown();
    }

    #[test]
    fn submissions_after_shutdown_began_are_rejected_as_shutting_down() {
        let server = PlanServer::start(ServeConfig::new(1, 4)).unwrap();
        server.shared.queue.close();
        let rejected = server.submit_one(request(0, 100.0)).unwrap_err();
        assert_eq!(rejected.error, ServeError::ShuttingDown);
    }

    #[test]
    fn empty_submission_completes_immediately() {
        let server = PlanServer::start(ServeConfig::new(1, 4)).unwrap();
        let responses = server.submit(Vec::new()).unwrap().wait();
        assert!(responses.is_empty());
        let _ = server.shutdown();
    }

    #[test]
    fn digest_is_submission_order_invariant_and_decision_sensitive() {
        let decision = AdmissionDecision {
            feasible: true,
            strategy: Some(StrategyKind::Clone),
            copies: 2,
            pocd: 0.9,
            dollar_cost: 10.0,
            utility: -0.1,
            remaining_budget: None,
        };
        let a = ServeResponse {
            request_id: 0,
            job: JobId::new(0),
            decision,
        };
        let b = ServeResponse {
            request_id: 1,
            job: JobId::new(1),
            decision,
        };
        assert_eq!(decisions_digest(&[a, b]), decisions_digest(&[b, a]));
        // Floats are excluded: a libm-shifted utility digests identically…
        let mut float_shift = b;
        float_shift.decision.utility += 1e-9;
        assert_eq!(
            decisions_digest(&[a, b]),
            decisions_digest(&[a, float_shift])
        );
        // …but any decision field difference changes the digest.
        let mut different = b;
        different.decision.copies = 3;
        assert_ne!(decisions_digest(&[a, b]), decisions_digest(&[a, different]));
        // `remaining_budget` is observability, not decision: excluded.
        let mut budget_shift = b;
        budget_shift.decision.remaining_budget = Some(3);
        assert_eq!(
            decisions_digest(&[a, b]),
            decisions_digest(&[a, budget_shift])
        );
    }

    #[test]
    fn a_finite_budget_drains_all_or_nothing_in_admission_order() {
        // Learn the per-job optimum from an unbudgeted server first.
        let server = PlanServer::start(ServeConfig::new(1, 16)).unwrap();
        let optimal = server.submit_one(request(0, 100.0)).unwrap().wait()[0].decision;
        let _ = server.shutdown();
        assert!(optimal.feasible);
        assert_eq!(optimal.remaining_budget, None);
        let per_job = u64::from(optimal.copies);
        assert!(per_job >= 1);

        // Two full grants' worth of tokens, four identical jobs, one
        // worker: FIFO pop order makes the grant sequence the submission
        // order, so the test is deterministic.
        let config = ServeConfig::new(1, 16).with_budget(SpeculationBudget::Limited(2 * per_job));
        let server = PlanServer::start(config).unwrap();
        let responses = server
            .submit((0..4).map(|i| request(i, 100.0)).collect())
            .unwrap()
            .wait();
        let _ = server.shutdown();

        for funded in &responses[..2] {
            assert_eq!(funded.decision.strategy, optimal.strategy);
            assert_eq!(funded.decision.copies, optimal.copies);
            assert!(!funded.decision.budget_denied());
        }
        assert_eq!(responses[0].decision.remaining_budget, Some(per_job));
        assert_eq!(responses[1].decision.remaining_budget, Some(0));
        for denied in &responses[2..] {
            assert!(denied.decision.budget_denied());
            assert!(denied.decision.feasible);
            assert_eq!(denied.decision.strategy, None);
            assert_eq!(denied.decision.copies, 0);
            assert_eq!(denied.decision.remaining_budget, Some(0));
        }
    }

    #[test]
    fn infeasible_jobs_never_debit_the_budget() {
        let server = PlanServer::start(ServeConfig::new(1, 16)).unwrap();
        let optimal = server.submit_one(request(0, 100.0)).unwrap().wait()[0].decision;
        let _ = server.shutdown();
        let per_job = u64::from(optimal.copies);

        // Exactly one grant's worth of tokens; the infeasible job decided
        // first must not consume any of it.
        let config = ServeConfig::new(1, 16).with_budget(SpeculationBudget::Limited(per_job));
        let server = PlanServer::start(config).unwrap();
        let responses = server
            .submit(vec![request(0, 1.0), request(1, 100.0)])
            .unwrap()
            .wait();
        let _ = server.shutdown();
        assert!(!responses[0].decision.feasible);
        assert!(!responses[0].decision.budget_denied());
        assert_eq!(responses[0].decision.remaining_budget, Some(per_job));
        assert_eq!(responses[1].decision.copies, optimal.copies);
        assert_eq!(responses[1].decision.remaining_budget, Some(0));
    }

    /// The per-job latency a synthetic probe reports: a pure function of
    /// the job id, so a single-threaded reference recorder can replay the
    /// exact values the racing workers recorded.
    fn synthetic_latency(job: &JobSpec) -> f64 {
        (job.id.raw() * 37 + 5) as f64
    }

    #[test]
    fn stats_merge_is_exact_when_shutdown_races_inflight_workers() {
        let config =
            ServeConfig::new(4, 64).with_probe(LatencyProbe::SyntheticMicros(synthetic_latency));
        let server = PlanServer::start(config).unwrap();
        let mut tickets = Vec::new();
        for batch in 0..3u64 {
            let requests: Vec<ServeRequest> = (batch * 8..batch * 8 + 8)
                .map(|i| request(i, 100.0))
                .collect();
            tickets.push(server.submit(requests).unwrap());
        }
        // Shut down immediately: the four workers are still draining the 24
        // accepted requests, so `collect_stats` merges per-worker histograms
        // that were being filled right up to the join.
        let stats = server.shutdown();
        assert_eq!(stats.served, 24);
        assert_eq!(stats.rejected, 0);
        // The shutdown protocol drains accepted work: every ticket completes.
        for ticket in tickets {
            assert_eq!(ticket.wait().len(), 8);
        }
        // The merged histogram is bit-identical to a single-threaded recorder
        // fed the same probe values — the monoid merge is exact regardless of
        // which worker served which request or when shutdown began.
        let mut expected = LatencyHistogram::new();
        for i in 0..24 {
            expected.record_secs(synthetic_latency(&job(i, 100.0)));
        }
        assert_eq!(stats.latency, expected);
        assert_eq!(stats.latency.count(), 24);
    }

    #[test]
    fn decision_trace_is_worker_count_invariant() {
        fn run(workers: u32) -> DecisionTrace {
            let config = ServeConfig::new(workers, 64).with_decision_trace(1024);
            let server = PlanServer::start(config).unwrap();
            let responses = server
                .submit((0..12).map(|i| request(i, 100.0)).collect())
                .unwrap()
                .wait();
            assert_eq!(responses.len(), 12);
            let (stats, trace) = server.shutdown_with_trace();
            assert_eq!(stats.served, 12);
            trace
        }
        let solo = run(1);
        let fleet = run(4);
        assert_eq!(solo.len(), 12);
        // Post-sort canonicalization makes the whole trace — digest and
        // rendered log, not just the set of events — independent of how the
        // requests were scheduled across workers.
        assert_eq!(solo.digest(), fleet.digest());
        assert_eq!(solo.render_log(), fleet.render_log());
    }

    #[test]
    fn a_zero_budget_admits_everything_without_speculation() {
        let config = ServeConfig::new(2, 16).with_budget(SpeculationBudget::Limited(0));
        let server = PlanServer::start(config).unwrap();
        let responses = server
            .submit((0..4).map(|i| request(i, 100.0)).collect())
            .unwrap()
            .wait();
        let stats = server.shutdown();
        assert_eq!(stats.served, 4);
        for response in &responses {
            assert!(response.decision.budget_denied());
            assert_eq!(response.decision.copies, 0);
            assert_eq!(response.decision.remaining_budget, Some(0));
        }
    }
}
