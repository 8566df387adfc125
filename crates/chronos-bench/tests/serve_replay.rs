//! The serving-layer determinism gate: feeding the checked-in converted
//! Google-2011 trace through the `chronos-serve` admission server must
//! produce the same decisions — count, feasibility, strategy, copies — at
//! any worker count, bit-for-bit, and those decisions are pinned by
//! digest. `tests/trace_tool_cli.rs` repeats the pin through the
//! `trace_tool serve-replay` command line.
//!
//! If an intentional policy/optimizer change shifts the decisions,
//! regenerate the pinned digest with
//! `trace_tool serve-replay --trace crates/chronos-bench/tests/golden/google2011_converted.trace`
//! and update [`GOLDEN_DIGEST`] (and the literal in `tests/trace_tool_cli.rs`).

use chronos_serve::prelude::*;
use chronos_sim::prelude::JobSpec;
use chronos_strategies::prelude::{ChronosPolicyConfig, StrategyTiming};
use chronos_trace::prelude::TraceLoader;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/google2011_converted.trace"
);

/// The decisions digest of the golden trace under the default serve
/// config (testbed policy, trace-scaled timing). Pinned here and by
/// `tests/trace_tool_cli.rs`.
const GOLDEN_DIGEST: &str = "3969606c572cc471";

fn golden_jobs() -> Vec<JobSpec> {
    let stream = TraceLoader::open(GOLDEN)
        .expect("golden trace exists")
        .stream(512)
        .expect("golden trace parses");
    let mut jobs = Vec::new();
    for chunk in stream {
        jobs.extend(chunk.expect("golden trace parses"));
    }
    assert_eq!(jobs.len(), 7, "golden trace job count changed");
    jobs
}

fn serve_pass(jobs: &[JobSpec], workers: u32) -> Vec<ServeResponse> {
    let server = PlanServer::start(ServeConfig::new(workers, 16)).expect("valid config");
    let tickets: Vec<Ticket> = jobs
        .chunks(4)
        .enumerate()
        .map(|(batch, chunk)| {
            let mut requests: Vec<ServeRequest> = chunk
                .iter()
                .enumerate()
                .map(|(offset, job)| ServeRequest {
                    request_id: (batch * 4 + offset) as u64,
                    job: job.clone(),
                })
                .collect();
            loop {
                match server.submit(requests) {
                    Ok(ticket) => return ticket,
                    Err(rejected) => {
                        requests = rejected.requests;
                        std::thread::yield_now();
                    }
                }
            }
        })
        .collect();
    let mut responses: Vec<ServeResponse> = tickets
        .into_iter()
        .flat_map(|ticket| ticket.wait())
        .collect();
    let stats = server.shutdown();
    assert_eq!(stats.served, jobs.len() as u64);
    responses.sort_unstable_by_key(|response| response.request_id);
    responses
}

#[test]
fn golden_trace_decisions_are_worker_count_invariant_and_pinned() {
    let jobs = golden_jobs();
    let single = serve_pass(&jobs, 1);
    let eight = serve_pass(&jobs, 8);
    // The full decisions agree element for element…
    assert_eq!(single, eight);
    // …and match the pinned digest CI greps for.
    assert_eq!(decisions_digest(&single), GOLDEN_DIGEST);
    assert_eq!(decisions_digest(&eight), GOLDEN_DIGEST);
}

#[test]
fn server_decisions_match_a_sequential_policy_planner_reference() {
    // The server's per-job decision must equal what a caller computes by
    // hand from the same seam: best utility across StrategyKind::ALL via
    // ChronosPolicyConfig::request_for + one unshared Planner. This pins
    // the server's admission logic to the library reference, so the
    // worker pool, memo layers and shared cache change wall-clock only.
    use chronos_core::prelude::{OptimizationOutcome, Optimizer, StrategyKind};
    use chronos_plan::Planner;
    use chronos_sim::prelude::JobSubmitView;

    let jobs = golden_jobs();
    let served = serve_pass(&jobs, 4);

    let policy = ChronosPolicyConfig::testbed().with_timing(StrategyTiming::trace_default());
    let planner = Planner::from_optimizer(
        Optimizer::with_config(policy.objective, policy.optimizer).expect("valid config"),
    );
    for (job, response) in jobs.iter().zip(&served) {
        let view = JobSubmitView {
            job: job.id,
            task_count: job.task_count() as u32,
            deadline_secs: job.deadline_secs,
            price: job.price,
            profile: job.profile,
        };
        let mut best: Option<(StrategyKind, OptimizationOutcome)> = None;
        for kind in StrategyKind::ALL {
            let Ok(request) = policy.request_for(&view, kind) else {
                continue;
            };
            let Ok(outcome) = planner.plan_request(&request) else {
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
            Some((kind, outcome)) => {
                assert!(response.decision.feasible);
                assert_eq!(response.decision.strategy, Some(kind), "{}", job.id);
                assert_eq!(response.decision.copies, outcome.r, "{}", job.id);
                assert_eq!(
                    response.decision.utility.to_bits(),
                    outcome.utility.to_bits(),
                    "{}",
                    job.id
                );
            }
            None => assert!(!response.decision.feasible, "{}", job.id),
        }
    }
}
