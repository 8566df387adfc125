//! The admission workload: one closed-loop client in front of a one-worker
//! `PlanServer`, so the process runs two threads, one of them runnable at a
//! time (the run is pinned to one CPU; see `run_pinned` in `main.rs`).
//!
//! The client submits batches of [`BATCH`] requests and blocks in
//! `Ticket::wait` before sending the next, as a job submitter waiting for
//! its decision would. Requests are Zipf(1)-skewed over [`PROFILES`]
//! Google-style job profiles: three plan keys each (one per strategy), three
//! times the worker's default memo, so the memo keeps clearing. Every
//! profile is decided once during setup, which fills the shared plan cache
//! as a long-running server would have: the timed phase solves nothing.

use crate::alloc;
use crate::host;
use crate::stats::{median, quantile, Ledger, Outcome, Phases};
use chronos_core::StrategyKind;
use chronos_serve::prelude::*;
use chronos_sim::prelude::{splitmix64, JobSpec, LatencyHistogram};
use chronos_trace::prelude::GoogleTraceConfig;
use std::time::Instant;

/// Distinct job profiles requests are drawn from.
pub const PROFILES: u32 = 1_024;
/// Requests per submitted batch.
const BATCH: usize = 32;
/// The server's queue capacity.
const QUEUE_CAPACITY: usize = 64;
/// The request stream cycles through this many Zipf draws.
const SEQUENCE: usize = 1 << 16;
/// Server start-ups (each warming every profile) per run; the run reports
/// their median and keeps the last server.
const SETUPS: usize = 3;
/// Throughput and latency quantiles are taken per window of this length,
/// and the run reports their median over windows, so a burst of co-tenant
/// noise moves one window rather than the whole figure.
const WINDOW_S: f64 = 1.0;

/// `count` draws from Zipf(1) over `0..n`, from `seed`.
fn zipf_sequence(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = splitmix64(state);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
            cdf.partition_point(|&edge| edge <= u).min(n - 1)
        })
        .collect()
}

/// Starts a server and decides every profile once.
fn start_and_warm(profiles: &[JobSpec]) -> Result<(PlanServer, Vec<AdmissionDecision>), String> {
    let server = PlanServer::start(ServeConfig::new(1, QUEUE_CAPACITY))
        .map_err(|err| format!("starting the server: {err}"))?;
    let mut decisions = Vec::with_capacity(profiles.len());
    for (batch_index, batch) in profiles.chunks(BATCH).enumerate() {
        let first_id = (batch_index * BATCH) as u64;
        let requests = batch
            .iter()
            .zip(first_id..)
            .map(|(job, request_id)| ServeRequest {
                request_id,
                job: job.clone(),
            })
            .collect();
        let ticket = server
            .submit(requests)
            .map_err(|rejected| format!("warming: {}", rejected.error))?;
        for (response, request_id) in ticket.wait().into_iter().zip(first_id..) {
            if response.request_id != request_id {
                return Err(format!(
                    "warming: response {} for request {request_id}",
                    response.request_id
                ));
            }
            decisions.push(response.decision);
        }
    }
    if decisions.len() != profiles.len() {
        return Err(format!(
            "warming: {} decisions for {} profiles",
            decisions.len(),
            profiles.len()
        ));
    }
    Ok((server, decisions))
}

/// Bucket-wise difference of two snapshots of one latency histogram.
fn histogram_since(now: &LatencyHistogram, before: &LatencyHistogram) -> Vec<((f64, f64), u64)> {
    now.iter_buckets()
        .zip(before.iter_buckets())
        .map(|((bounds, count), (_, earlier))| (bounds, count - earlier))
        .collect()
}

/// Upper bucket edge of the `q`-quantile of a bucketed histogram.
fn bucket_quantile(buckets: &[((f64, f64), u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|(_, count)| count).sum();
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for ((low, high), count) in buckets {
        seen += count;
        if seen >= target {
            return if high.is_finite() { *high } else { *low };
        }
    }
    0.0
}

/// Client-side figures of one timed phase.
#[derive(Default)]
struct Phase {
    requests: u64,
    seconds: f64,
    window_jobs_per_s: Vec<f64>,
    window_p50_us: Vec<f64>,
    window_p99_us: Vec<f64>,
    samples: usize,
    submit_s: f64,
    wait_s: f64,
}

/// Runs the admission workload on `profile_count` profiles for `phases`.
pub fn run(seed: u64, profile_count: u32, phases: Phases) -> Outcome {
    let mut outcome = Outcome::default();
    let profiles = match GoogleTraceConfig::scaled(profile_count, seed).generate() {
        Ok(trace) => trace.into_jobs(),
        Err(err) => return Outcome::failed(format!("generating profiles: {err}")),
    };
    let sequence = zipf_sequence(profiles.len(), SEQUENCE, seed ^ 0x5eed);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut reference: Option<Vec<AdmissionDecision>> = None;
    let mut server = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let started = start_and_warm(&profiles);
        setups.push(start.elapsed().as_secs_f64());
        outcome.attempted += profiles.len() as u64;
        match started {
            Ok((started, decisions)) => {
                let expected = reference.get_or_insert_with(|| decisions.clone());
                if decisions != *expected {
                    outcome.fail("warm decisions differ between server start-ups".into());
                }
                // Dropping the previous server shuts it down and joins it.
                server = Some(started);
            }
            Err(err) => {
                outcome.fail(err);
                return outcome;
            }
        }
    }
    let (Some(server), Some(reference)) = (server, reference) else {
        return outcome;
    };

    let mut client = Client {
        server: &server,
        profiles: &profiles,
        sequence: &sequence,
        reference: &reference,
        next_request: 0,
    };
    let mut untraced = Phase::default();
    let mut traced = Phase::default();
    let mut layers = Ledger::default();
    for (traced_phase, seconds) in phases.iter() {
        let stats_before = server.stats();
        let cpu_before = host::cpu_seconds();
        let allocs_before = alloc::total();
        alloc::enable(traced_phase);
        let phase = client.run_phase(seconds, traced_phase, &mut outcome);
        alloc::enable(false);
        if traced_phase {
            let stats = server.stats();
            let requests = phase.requests as f64;
            let cpu_s = cpu_before
                .zip(host::cpu_seconds())
                .map_or(0.0, |(before, after)| after - before);
            let cache = stats.cache.since(&stats_before.cache);
            let server_latency = histogram_since(&stats.latency, &stats_before.latency);
            layers.set("serve.submit_s", phase.submit_s);
            layers.set("serve.wait_s", phase.wait_s);
            layers.set("serve.server_p50_us", bucket_quantile(&server_latency, 0.5));
            layers.set(
                "serve.server_p99_us",
                bucket_quantile(&server_latency, 0.99),
            );
            layers.set("serve.requests", requests);
            layers.set(
                "serve.rejected",
                (stats.rejected - stats_before.rejected) as f64,
            );
            // A decision plans every strategy: one memo lookup each.
            let plan_lookups = StrategyKind::ALL.len() as f64 * requests;
            layers.set(
                "serve.memo_miss_frac",
                cache.lookups() as f64 / plan_lookups,
            );
            layers.set(
                "serve.allocs_per_request",
                (alloc::total() - allocs_before) as f64 / requests,
            );
            layers.set("serve.cpu_us_per_request", cpu_s * 1e6 / requests);
            layers.set("proc.cpu_s", cpu_s);
            layers.set(
                "proc.parallel_eff",
                cpu_s / (phase.seconds * f64::from(host::nproc())),
            );
            traced = phase;
        } else {
            untraced = phase;
        }
    }
    let final_stats = server.shutdown();
    if final_stats.rejected != 0 {
        outcome.note("server_rejected", final_stats.rejected.to_string());
    }

    let jobs_per_s = |phase: &Phase| median(&phase.window_jobs_per_s);
    // Means over the decision for each profile, not over the Zipf-weighted
    // traffic: a handful of top-ranked profiles would otherwise decide the
    // figure, and it would swing with the seed.
    let mean_of = |field: fn(&AdmissionDecision) -> f64| {
        reference.iter().map(field).sum::<f64>() / reference.len() as f64
    };
    let e2e = &mut outcome.end_to_end;
    e2e.set("setup_s", median(&setups));
    e2e.set("jobs_per_s", jobs_per_s(&untraced));
    e2e.set("latency_p50_us", median(&untraced.window_p50_us));
    e2e.set("latency_p99_us", median(&untraced.window_p99_us));
    e2e.set("pocd", mean_of(|decision| decision.pocd));
    e2e.set("cost_per_job", mean_of(|decision| decision.dollar_cost));
    e2e.set("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0));
    outcome.note("latency_samples", untraced.samples.to_string());
    outcome.note("latency_windows", untraced.window_p99_us.len().to_string());
    if phases.trace {
        layers.set(
            "bench.trace_overhead",
            1.0 - jobs_per_s(&traced) / jobs_per_s(&untraced),
        );
        outcome.per_layer = layers;
    }
    outcome
}

/// The closed-loop client and what it checks responses against.
struct Client<'a> {
    server: &'a PlanServer,
    profiles: &'a [JobSpec],
    sequence: &'a [usize],
    /// The setup-time decision for each profile.
    reference: &'a [AdmissionDecision],
    next_request: u64,
}

impl Client<'_> {
    fn profile_of(&self, request_id: u64) -> usize {
        self.sequence[request_id as usize % self.sequence.len()]
    }

    /// One timed phase of closed-loop batches, checking every response.
    fn run_phase(&mut self, seconds: f64, traced: bool, outcome: &mut Outcome) -> Phase {
        let mut phase = Phase::default();
        let windows = ((seconds / WINDOW_S).floor() as usize).max(1);
        let window_s = seconds / windows as f64;
        let mut latencies_us: Vec<f64> = Vec::new();
        let start = Instant::now();
        for window in 1..=windows {
            let window_end = window_s * window as f64;
            let window_start = start.elapsed().as_secs_f64();
            let requests_before = phase.requests;
            latencies_us.clear();
            loop {
                self.batch(traced, &mut phase, &mut latencies_us, outcome);
                if start.elapsed().as_secs_f64() >= window_end {
                    break;
                }
            }
            let window_seconds = start.elapsed().as_secs_f64() - window_start;
            phase
                .window_jobs_per_s
                .push((phase.requests - requests_before) as f64 / window_seconds);
            phase.samples += latencies_us.len();
            phase.window_p50_us.push(median(&latencies_us));
            phase.window_p99_us.push(quantile(&latencies_us, 0.99));
        }
        phase.seconds = start.elapsed().as_secs_f64();
        phase
    }

    /// Submits one batch, waits for it and checks its responses.
    fn batch(
        &mut self,
        traced: bool,
        phase: &mut Phase,
        latencies_us: &mut Vec<f64>,
        outcome: &mut Outcome,
    ) {
        let first_id = self.next_request;
        self.next_request += BATCH as u64;
        let requests: Vec<ServeRequest> = (first_id..self.next_request)
            .map(|request_id| ServeRequest {
                request_id,
                job: self.profiles[self.profile_of(request_id)].clone(),
            })
            .collect();
        outcome.attempted += BATCH as u64;
        let submitted = Instant::now();
        let ticket = self.server.submit(requests);
        let accepted = traced.then(Instant::now);
        let responses = match ticket {
            Ok(ticket) => ticket.wait(),
            Err(rejected) => {
                // A closed loop never overfills the queue; a rejection is a
                // failure of every request in the batch.
                for _ in 0..BATCH {
                    outcome.fail(format!("batch at {first_id}: {}", rejected.error));
                }
                return;
            }
        };
        let done = Instant::now();
        latencies_us.push((done - submitted).as_secs_f64() * 1e6);
        if let Some(accepted) = accepted {
            phase.submit_s += (accepted - submitted).as_secs_f64();
            phase.wait_s += (done - accepted).as_secs_f64();
        }
        phase.requests += responses.len() as u64;
        for _ in responses.len()..BATCH {
            outcome.fail(format!("batch at {first_id}: a response is missing"));
        }
        for (response, request_id) in responses.iter().zip(first_id..) {
            if response.request_id != request_id {
                outcome.fail(format!(
                    "response {} came back for request {request_id}",
                    response.request_id
                ));
            } else if response.decision != self.reference[self.profile_of(request_id)] {
                outcome.fail(format!(
                    "request {request_id}: decision differs from the setup-time one"
                ));
            }
        }
    }
}
