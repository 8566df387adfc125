//! # chronos-serve
//!
//! The online admission-control planning server: the first step from the
//! batch simulator toward the serving stack the paper's deployment story
//! implies. Chronos's pitch (Xu et al., ICDCS 2018) is deciding *at job
//! submission time* which speculation strategy to run, how many extra
//! copies `r` to launch, and whether the deadline is feasible at all — an
//! online, per-arrival problem (cf. Xu & Lau, arXiv:1406.0609), not an
//! offline sweep. This crate answers exactly that question per
//! [`JobSpec`](chronos_sim::prelude::JobSpec), at scale, over one shared
//! [`PlanCache`](chronos_plan::PlanCache).
//!
//! ## Architecture
//!
//! A [`PlanServer`] is a thread-per-core worker pool (plain `std::thread`
//! — the vendored-deps constraint rules out async runtimes, and the CPU-
//! bound closed-form solves would not benefit from one anyway) fed by a
//! single hand-rolled bounded MPMC queue:
//!
//! * **Queue shape.** One [`queue::BoundedQueue`] of work items, FIFO,
//!   guarded by a `Mutex` + `Condvar` pair. Producers never block;
//!   consumers park on the condvar. Workers pop in small batches to
//!   amortize the queue lock without letting one worker starve the rest.
//! * **Backpressure semantics.** The queue is *bounded* and submission is
//!   all-or-nothing: [`PlanServer::submit`] either admits the whole batch
//!   or rejects it immediately with [`ServeError::Overloaded`], returning
//!   ownership of the requests. Nothing ever queues beyond the configured
//!   capacity, so memory stays bounded and queueing delay — the dominant
//!   term of tail latency — stays capped. Overload policy (retry, shed,
//!   degrade) belongs to the caller, not the server.
//! * **Shutdown protocol.** [`PlanServer::shutdown`] closes the queue:
//!   new submissions fail with [`ServeError::ShuttingDown`], while every
//!   already-accepted request keeps draining — workers exit only once the
//!   queue is closed *and* empty, and are then joined. No accepted
//!   request is ever dropped; every outstanding [`Ticket`] completes.
//!   Dropping the server unawaited performs the same close-drain-join.
//! * **Planning.** Each worker runs the policy front-end from
//!   `chronos-strategies` over the shared single-flight `PlanCache`
//!   (every distinct job profile is solved once per server, whichever
//!   worker gets there first). That cache is the only lookup layer: each
//!   strategy of each decision is one `PlanCache` lookup, and a hit on a
//!   solved profile costs one stripe lock and a copy. Decisions pick the
//!   utility-maximizing strategy across all three Chronos strategies,
//!   with deterministic tie-breaking — the decision for a job is a pure
//!   function of the job and the policy config, independent of worker
//!   count or scheduling. [`decisions_digest`] hashes that invariant.
//! * **Budgeting.** The server can run under a cluster-wide
//!   [`SpeculationBudget`]
//!   ([`ServeConfig::with_budget`]): every feasible decision atomically
//!   debits its optimal copy count from a shared token counter,
//!   all-or-nothing, and once the tokens cannot cover a job's full grant
//!   the job is admitted *without* speculation
//!   ([`AdmissionDecision::budget_denied`]) — mirroring the batch
//!   simulator's `BudgetedPolicy` semantics at the serving layer. Each
//!   decision reports the tokens left after its debit
//!   ([`AdmissionDecision::remaining_budget`]); the field is excluded
//!   from [`decisions_digest`], which stays worker-count-invariant only
//!   for unbudgeted servers (finite grants depend on admission order).
//! * **Latency accounting.** Each worker records enqueue-to-decision
//!   latency (in **microseconds**) into its own
//!   [`LatencyHistogram`](chronos_sim::prelude::LatencyHistogram); the
//!   per-worker histograms merge monoidally into the server-wide
//!   [`ServerStats`]. Tests swap the wall clock for a synthetic per-job
//!   probe ([`LatencyProbe::SyntheticMicros`]) to pin the merge
//!   bit-exactly.
//!
//! ## Example
//!
//! ```
//! use chronos_serve::prelude::*;
//! use chronos_sim::prelude::{JobId, JobSpec, SimTime};
//!
//! let server = PlanServer::start(ServeConfig::new(2, 64)).unwrap();
//! let ticket = server
//!     .submit_one(ServeRequest {
//!         request_id: 0,
//!         job: JobSpec::new(JobId::new(0), SimTime::ZERO, 100.0, 10),
//!     })
//!     .unwrap();
//! let responses = ticket.wait();
//! assert!(responses[0].decision.feasible);
//! let stats = server.shutdown();
//! assert_eq!(stats.served, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod queue;
pub mod server;

pub use chronos_plan::SpeculationBudget;
pub use server::{
    decisions_digest, strategy_ordinal, AdmissionDecision, LatencyProbe, PlanServer, Rejected,
    ServeConfig, ServeError, ServeRequest, ServeResponse, ServerStats, Ticket,
};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::queue::{BoundedQueue, PushError};
    pub use crate::server::{
        decisions_digest, strategy_ordinal, AdmissionDecision, LatencyProbe, PlanServer, Rejected,
        ServeConfig, ServeError, ServeRequest, ServeResponse, ServerStats, Ticket,
    };
    pub use chronos_obs::{DecisionTrace, MetricsRegistry, TraceEvent};
    pub use chronos_plan::SpeculationBudget;
}
