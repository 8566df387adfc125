//! Structured decision tracing with a worker-count-invariant digest.
//!
//! A [`DecisionTrace`] is a bounded ring of typed, sim-time-stamped
//! [`TraceEvent`]s answering *why* the stack did what it did: which submit
//! overrides were applied, which speculative copies launched and died,
//! which deadlines were missed, what the planner's cache and budget did,
//! and what the serving layer admitted. Producers record per shard (or per
//! serve worker); the per-shard traces are merged in shard-index order —
//! exactly like `SimulationReport` — so the merged trace, its rendered
//! log, and its [`DecisionTrace::digest`] are bit-identical regardless of
//! how many OS threads executed the shards.
//!
//! Digest-safety rules (see `docs/observability.md`):
//!
//! * only integers are hashed — never floats, never wall-clock readings;
//! * events attributable to a scheduling accident (which worker won a
//!   shared-cache race, which submit hit a full queue) either carry
//!   deterministic totals instead ([`TraceEvent::PlanCacheReport`]) or are
//!   documented as load-dependent ([`TraceEvent::ServeOverloaded`]).

use crate::digest::Digest;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;

/// One structured observability event. All fields are integers (or
/// strings hashed as bytes): floats and wall-clock readings are banned so
/// every event is digest-safe.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A `BatchPlan` override replaced the policy's own submit decision at
    /// the job's arrival.
    SubmitOverrideApplied {
        /// Raw job id.
        job: u64,
        /// Extra clones per task the override requested.
        extra_clones: u32,
        /// The `r` the override reported, if any.
        reported_r: Option<u32>,
    },
    /// A speculative extra copy was launched for a running task.
    CopyLaunched {
        /// Raw job id.
        job: u64,
        /// Raw task id.
        task: u64,
        /// Raw attempt id of the new copy.
        attempt: u64,
    },
    /// A speculative copy (or original) was killed by the policy.
    CopyKilled {
        /// Raw job id.
        job: u64,
        /// Raw task id.
        task: u64,
        /// Raw attempt id of the killed copy.
        attempt: u64,
    },
    /// A job finished after its deadline (or never finished).
    DeadlineMissed {
        /// Raw job id.
        job: u64,
    },
    /// A batch-planning round granted speculation tokens.
    BudgetGrant {
        /// Jobs in the batch.
        jobs: u32,
        /// Copies the optimizer asked for.
        requested: u64,
        /// Copies the budget actually granted.
        granted: u64,
    },
    /// A batch-planning round denied part of the requested speculation.
    BudgetDeny {
        /// Jobs in the batch.
        jobs: u32,
        /// Copies requested but not granted this round.
        denied: u64,
    },
    /// Aggregate plan-cache activity for a run. Totals are deterministic
    /// for the single-flight cache (each distinct profile misses exactly
    /// once) even though *which* worker took each miss is not — so the
    /// trace records the invariant totals, never per-access events.
    PlanCacheReport {
        /// Lookups served from the cache.
        hits: u64,
        /// Lookups that computed a fresh plan.
        misses: u64,
        /// Entries evicted under capacity pressure.
        evictions: u64,
        /// Entries resident at snapshot time.
        entries: u64,
    },
    /// The serving layer admitted (or declared infeasible) one request.
    ServeAdmitted {
        /// Client-chosen request id.
        request: u64,
        /// Raw job id.
        job: u64,
        /// Whether the deadline was feasible at all.
        feasible: bool,
        /// Strategy ordinal (Clone=0, SpecRestart=1, SpecResume=2, none=255).
        strategy: u8,
        /// Extra copies granted.
        copies: u32,
    },
    /// A submission batch bounced off the bounded queue. Load-dependent by
    /// nature: present in logs, but not worker-count-invariant.
    ServeOverloaded {
        /// Requests rejected in the batch.
        rejected: u64,
    },
    /// A sim-time phase span (digest-safe; see [`crate::span`]).
    Phase {
        /// Phase label.
        name: String,
        /// Phase start, integer microseconds of sim time.
        start_micros: u64,
        /// Phase end, integer microseconds of sim time.
        end_micros: u64,
    },
    /// The ResourceManager placed an attempt on a node under a non-default
    /// placement policy. Integers only (the score tier, never the raw
    /// score) so the event is digest-safe; the default most-free placement
    /// records nothing, keeping pre-placement-layer traces byte-identical.
    PlacementDecision {
        /// Raw node id the attempt was placed on.
        node: u64,
        /// Free slots on the node at decision time (before placement).
        free_slots: u32,
        /// Deadline-aware score tier (2 = fits the node's busy window,
        /// 1 = extends it, 0 = empty node; 0 for bin-pack placements).
        score_bucket: u32,
    },
}

impl TraceEvent {
    fn ordinal(&self) -> u8 {
        match self {
            TraceEvent::SubmitOverrideApplied { .. } => 0,
            TraceEvent::CopyLaunched { .. } => 1,
            TraceEvent::CopyKilled { .. } => 2,
            TraceEvent::DeadlineMissed { .. } => 3,
            TraceEvent::BudgetGrant { .. } => 4,
            TraceEvent::BudgetDeny { .. } => 5,
            TraceEvent::PlanCacheReport { .. } => 6,
            TraceEvent::ServeAdmitted { .. } => 7,
            TraceEvent::ServeOverloaded { .. } => 8,
            TraceEvent::Phase { .. } => 9,
            TraceEvent::PlacementDecision { .. } => 10,
        }
    }

    fn eat(&self, eat: &mut impl FnMut(&[u8])) {
        eat(&[self.ordinal()]);
        match self {
            TraceEvent::SubmitOverrideApplied {
                job,
                extra_clones,
                reported_r,
            } => {
                eat(&job.to_le_bytes());
                eat(&extra_clones.to_le_bytes());
                match reported_r {
                    Some(r) => {
                        eat(&[1]);
                        eat(&r.to_le_bytes());
                    }
                    None => eat(&[0]),
                }
            }
            TraceEvent::CopyLaunched { job, task, attempt }
            | TraceEvent::CopyKilled { job, task, attempt } => {
                eat(&job.to_le_bytes());
                eat(&task.to_le_bytes());
                eat(&attempt.to_le_bytes());
            }
            TraceEvent::DeadlineMissed { job } => eat(&job.to_le_bytes()),
            TraceEvent::BudgetGrant {
                jobs,
                requested,
                granted,
            } => {
                eat(&jobs.to_le_bytes());
                eat(&requested.to_le_bytes());
                eat(&granted.to_le_bytes());
            }
            TraceEvent::BudgetDeny { jobs, denied } => {
                eat(&jobs.to_le_bytes());
                eat(&denied.to_le_bytes());
            }
            TraceEvent::PlanCacheReport {
                hits,
                misses,
                evictions,
                entries,
            } => {
                eat(&hits.to_le_bytes());
                eat(&misses.to_le_bytes());
                eat(&evictions.to_le_bytes());
                eat(&entries.to_le_bytes());
            }
            TraceEvent::ServeAdmitted {
                request,
                job,
                feasible,
                strategy,
                copies,
            } => {
                eat(&request.to_le_bytes());
                eat(&job.to_le_bytes());
                eat(&[u8::from(*feasible), *strategy]);
                eat(&copies.to_le_bytes());
            }
            TraceEvent::ServeOverloaded { rejected } => eat(&rejected.to_le_bytes()),
            TraceEvent::Phase {
                name,
                start_micros,
                end_micros,
            } => {
                eat(&(name.len() as u64).to_le_bytes());
                eat(name.as_bytes());
                eat(&start_micros.to_le_bytes());
                eat(&end_micros.to_le_bytes());
            }
            TraceEvent::PlacementDecision {
                node,
                free_slots,
                score_bucket,
            } => {
                eat(&node.to_le_bytes());
                eat(&free_slots.to_le_bytes());
                eat(&score_bucket.to_le_bytes());
            }
        }
    }

    /// Renders the event body of the one-line log form (without the
    /// timestamp prefix). Deterministic: only integers and fixed labels.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            TraceEvent::SubmitOverrideApplied {
                job,
                extra_clones,
                reported_r,
            } => match reported_r {
                Some(r) => {
                    format!("submit-override job={job} extra-clones={extra_clones} reported-r={r}")
                }
                None => {
                    format!("submit-override job={job} extra-clones={extra_clones} reported-r=none")
                }
            },
            TraceEvent::CopyLaunched { job, task, attempt } => {
                format!("copy-launched job={job} task={task} attempt={attempt}")
            }
            TraceEvent::CopyKilled { job, task, attempt } => {
                format!("copy-killed job={job} task={task} attempt={attempt}")
            }
            TraceEvent::DeadlineMissed { job } => format!("deadline-missed job={job}"),
            TraceEvent::BudgetGrant {
                jobs,
                requested,
                granted,
            } => format!("budget-grant jobs={jobs} requested={requested} granted={granted}"),
            TraceEvent::BudgetDeny { jobs, denied } => {
                format!("budget-deny jobs={jobs} denied={denied}")
            }
            TraceEvent::PlanCacheReport {
                hits,
                misses,
                evictions,
                entries,
            } => format!(
                "plan-cache hits={hits} misses={misses} evictions={evictions} entries={entries}"
            ),
            TraceEvent::ServeAdmitted {
                request,
                job,
                feasible,
                strategy,
                copies,
            } => format!(
                "serve-admitted request={request} job={job} feasible={feasible} \
                 strategy={strategy} copies={copies}"
            ),
            TraceEvent::ServeOverloaded { rejected } => {
                format!("serve-overloaded rejected={rejected}")
            }
            TraceEvent::Phase {
                name,
                start_micros,
                end_micros,
            } => format!("phase name={name} start-us={start_micros} end-us={end_micros}"),
            TraceEvent::PlacementDecision {
                node,
                free_slots,
                score_bucket,
            } => format!("placement node={node} free-slots={free_slots} bucket={score_bucket}"),
        }
    }
}

/// One trace entry: a sim-time timestamp (integer microseconds) plus the
/// event payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Sim-time timestamp in integer microseconds. The serving layer,
    /// which has no simulation clock, stamps events with the job's
    /// submit time (deterministic) rather than wall time (not).
    pub at_micros: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// A bounded ring of [`TraceRecord`]s with deterministic merge, digest and
/// rendering.
///
/// When the ring is full the *oldest* record is evicted and counted in
/// [`DecisionTrace::dropped`] — recent decisions are usually what an
/// operator is debugging. The default construction is unbounded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionTrace {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for DecisionTrace {
    fn default() -> Self {
        DecisionTrace::new()
    }
}

impl DecisionTrace {
    /// An unbounded trace (the merge identity).
    #[must_use]
    pub fn new() -> Self {
        DecisionTrace {
            records: VecDeque::new(),
            capacity: usize::MAX,
            dropped: 0,
        }
    }

    /// A trace bounded to `capacity` records; once full, recording evicts
    /// the oldest record.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        DecisionTrace {
            records: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
        }
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends one event stamped at `at_micros`.
    pub fn record(&mut self, at_micros: u64, event: TraceEvent) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord { at_micros, event });
    }

    /// Iterates records in recording (or post-sort) order.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Appends another trace's records onto this one. Callers must merge
    /// in a canonical order (shard index, or sorted afterwards with
    /// [`DecisionTrace::sort_records_by`]) for worker-count invariance —
    /// the same contract as `SimulationReport::merge`.
    pub fn merge(&mut self, other: DecisionTrace) {
        self.dropped += other.dropped;
        for record in other.records {
            if self.records.len() == self.capacity {
                self.records.pop_front();
                self.dropped += 1;
            }
            self.records.push_back(record);
        }
    }

    /// Sorts records by an arbitrary key — the canonicalization step for
    /// producers whose recording order is scheduling-dependent (e.g. the
    /// serve worker pool sorts by request id, mirroring
    /// `decisions_digest`).
    pub fn sort_records_by<K: Ord>(&mut self, mut key: impl FnMut(&TraceRecord) -> K) {
        self.records.make_contiguous().sort_by_key(|r| key(r));
    }

    /// Integer-only FNV-1a digest over every record (timestamps, event
    /// ordinals, fields — never floats, never wall time). Bit-identical
    /// across worker counts when the producer followed the merge/sort
    /// contract.
    #[must_use]
    pub fn digest(&self) -> String {
        let mut digest = Digest::default();
        let mut eat = |bytes: &[u8]| digest.write(bytes);
        eat(&(self.records.len() as u64).to_le_bytes());
        for record in &self.records {
            eat(&record.at_micros.to_le_bytes());
            record.event.eat(&mut eat);
        }
        digest.finish_hex()
    }

    /// Writes the whole trace as a newline-terminated decision log, one
    /// `t=<micros>us <event>` line per record, suitable for byte-exact
    /// comparison across worker counts. This is the one definition of the
    /// log's line format; it holds no more than one line in memory, so a
    /// large trace streams into a file without a copy of the whole log.
    ///
    /// # Errors
    ///
    /// Propagates the first write error of `out`.
    pub fn write_log(&self, out: &mut impl io::Write) -> io::Result<()> {
        for record in &self.records {
            writeln!(out, "t={}us {}", record.at_micros, record.event.render())?;
        }
        Ok(())
    }

    /// The decision log of [`DecisionTrace::write_log`] as one `String`.
    #[must_use]
    pub fn render_log(&self) -> String {
        let mut out = Vec::new();
        // Invariant: `io::Write` for `Vec<u8>` never returns an error.
        #[allow(clippy::expect_used)]
        self.write_log(&mut out)
            .expect("writing into a Vec cannot fail");
        // Invariant: every byte comes from `writeln!` of Rust strings, so it is UTF-8.
        #[allow(clippy::expect_used)]
        String::from_utf8(out).expect("every rendered event is UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<(u64, TraceEvent)> {
        vec![
            (
                0,
                TraceEvent::SubmitOverrideApplied {
                    job: 7,
                    extra_clones: 1,
                    reported_r: Some(2),
                },
            ),
            (
                1_500_000,
                TraceEvent::CopyLaunched {
                    job: 7,
                    task: 3,
                    attempt: 11,
                },
            ),
            (
                2_000_000,
                TraceEvent::CopyKilled {
                    job: 7,
                    task: 3,
                    attempt: 11,
                },
            ),
            (9_000_000, TraceEvent::DeadlineMissed { job: 9 }),
        ]
    }

    #[test]
    fn digest_depends_on_content_not_capacity() {
        let mut unbounded = DecisionTrace::new();
        let mut bounded = DecisionTrace::bounded(64);
        for (at, event) in sample_events() {
            unbounded.record(at, event.clone());
            bounded.record(at, event);
        }
        assert_eq!(unbounded.digest(), bounded.digest());
        assert_ne!(unbounded.digest(), DecisionTrace::new().digest());
    }

    #[test]
    fn bounded_ring_drops_oldest() {
        let mut trace = DecisionTrace::bounded(2);
        for (at, event) in sample_events() {
            trace.record(at, event);
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 2);
        let first = trace.records().next().unwrap();
        assert_eq!(first.at_micros, 2_000_000);
    }

    #[test]
    fn merge_in_order_equals_single_recorder() {
        let events = sample_events();
        let mut whole = DecisionTrace::new();
        for (at, event) in events.clone() {
            whole.record(at, event);
        }
        let mut left = DecisionTrace::new();
        let mut right = DecisionTrace::new();
        for (index, (at, event)) in events.into_iter().enumerate() {
            if index < 2 {
                left.record(at, event);
            } else {
                right.record(at, event);
            }
        }
        left.merge(right);
        assert_eq!(left, whole);
        assert_eq!(left.digest(), whole.digest());
        assert_eq!(left.render_log(), whole.render_log());
    }

    #[test]
    fn sort_canonicalizes_scheduling_order() {
        let admitted = |request: u64| TraceEvent::ServeAdmitted {
            request,
            job: request,
            feasible: true,
            strategy: 0,
            copies: 1,
        };
        let mut a = DecisionTrace::new();
        let mut b = DecisionTrace::new();
        a.record(0, admitted(2));
        a.record(0, admitted(0));
        b.record(0, admitted(1));
        let mut merged_ab = a.clone();
        merged_ab.merge(b.clone());
        let mut merged_ba = b;
        merged_ba.merge(a);
        for trace in [&mut merged_ab, &mut merged_ba] {
            trace.sort_records_by(|record| match record.event {
                TraceEvent::ServeAdmitted { request, .. } => request,
                _ => u64::MAX,
            });
        }
        assert_eq!(merged_ab.digest(), merged_ba.digest());
        assert_eq!(merged_ab.render_log(), merged_ba.render_log());
    }

    #[test]
    fn placement_decision_is_digest_safe_and_greppable() {
        let mut trace = DecisionTrace::new();
        trace.record(
            250_000,
            TraceEvent::PlacementDecision {
                node: 3,
                free_slots: 2,
                score_bucket: 1,
            },
        );
        assert!(trace
            .render_log()
            .contains("t=250000us placement node=3 free-slots=2 bucket=1"));
        let mut other = DecisionTrace::new();
        other.record(
            250_000,
            TraceEvent::PlacementDecision {
                node: 3,
                free_slots: 2,
                score_bucket: 2,
            },
        );
        assert_ne!(trace.digest(), other.digest());
        let round: DecisionTrace =
            serde_json::from_str(&serde_json::to_string(&trace).unwrap()).unwrap();
        assert_eq!(round, trace);
    }

    #[test]
    fn log_lines_are_greppable() {
        let mut trace = DecisionTrace::new();
        for (at, event) in sample_events() {
            trace.record(at, event);
        }
        let log = trace.render_log();
        assert!(log.contains("t=0us submit-override job=7 extra-clones=1 reported-r=2"));
        assert!(log.contains("t=9000000us deadline-missed job=9"));
        let round: DecisionTrace =
            serde_json::from_str(&serde_json::to_string(&trace).unwrap()).unwrap();
        assert_eq!(round, trace);
    }
}
