//! The replay workloads: a chronos-trace v1 file replayed through the
//! planned, fallible sharded path of `trace_tool replay --trace` (same
//! simulator config, chunk size 512, one plan cache and one allocation
//! ledger shared by every shard).
//!
//! A run times whole replays back to back. Every replay starts from a fresh
//! cache and ledger, so each one pays the same planning work. The traced
//! phase wraps the trace stream and the shard policies in benchmark-side
//! timers; the library itself is never instrumented.

use crate::alloc::{self, Span};
use crate::host;
use crate::stats::{median, quantile, Ledger, Outcome, Phases};
use chronos_bench::{report_digest, SHARDED_BENCH_TASKS_PER_JOB};
use chronos_plan::LedgerSummary;
use chronos_sim::prelude::*;
use chronos_strategies::prelude::*;
use chronos_trace::prelude::*;
use std::cell::Cell;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Chunk size of the replay, as `trace_tool` uses by default: one chunk is
/// one shard and, for a budgeted policy, one planning round.
pub const CHUNK_SIZE: u32 = 512;

/// `trace_tool`'s simulation seed (per-shard seeds derive from it).
const SIM_SEED: u64 = 47;

/// Setup takes tens of microseconds, so one setup sample times this
/// many setups in a row and reports their mean.
const SETUPS_PER_SAMPLE: u32 = 1_000;
/// Setup samples per run; the run reports their median.
const SETUP_SAMPLES: usize = 25;
/// Replays per timed phase, however short `--seconds` is.
const MIN_REPLAYS: usize = 3;
/// Replay latencies are summarised per window of this many consecutive
/// replays, and the run reports the median over windows: a burst of
/// co-tenant noise then moves one window's tail, not the run's.
const LATENCY_WINDOW: usize = 25;

/// Where a replay's jobs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The testbed Sort workload in the `sharded_bench_stream` shape: one
    /// job profile, four tasks per job, a job every two seconds.
    Sort,
    /// The Google-style synthetic trace: every job has its own profile.
    Google,
}

/// One replay workload.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// The job source.
    pub source: Source,
    /// The speculation policy every shard runs.
    pub kind: PolicyKind,
    /// The per-round speculation budget.
    pub budget: SpeculationBudget,
    /// Worker threads of the sharded runner.
    pub workers: u32,
}

/// Writes `jobs` jobs of `source`, generated from `seed`, as a trace file.
///
/// # Errors
///
/// Generation or write failures, as text.
pub fn write_trace(source: Source, seed: u64, jobs: u32, path: &Path) -> Result<(), String> {
    let mut writer = TraceWriter::create(path, Some(u64::from(jobs)))
        .map_err(|err| format!("creating {}: {err}", path.display()))?;
    let mut write = |chunk: &[JobSpec]| {
        writer
            .write_all(chunk)
            .map_err(|err| format!("writing {}: {err}", path.display()))
    };
    match source {
        Source::Sort => {
            let mut workload = TestbedWorkload::paper_setup(Benchmark::Sort, seed).with_jobs(jobs);
            workload.tasks_per_job = SHARDED_BENCH_TASKS_PER_JOB;
            workload.mean_interarrival_secs = 2.0;
            for chunk in workload.stream(CHUNK_SIZE).map_err(|err| err.to_string())? {
                write(&chunk)?;
            }
        }
        Source::Google => {
            let stream = GoogleTraceConfig::scaled(jobs, seed)
                .stream(CHUNK_SIZE)
                .map_err(|err| err.to_string())?;
            for chunk in stream {
                write(&chunk)?;
            }
        }
    }
    writer
        .finish()
        .map_err(|err| format!("finishing {}: {err}", path.display()))?;
    Ok(())
}

/// The simulator configuration of `trace_replay --trace`: the trace-driven
/// datacenter-scale pool of Figures 3–5, one shard per chunk.
fn sim_config(workers: u32) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(1_000, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::HadoopDefault,
        progress_report_interval_secs: 1.0,
        seed: SIM_SEED,
        max_events: 0,
        sharding: ShardSpec::new(1, workers),
    }
}

/// Everything one replay needs, built before its clock starts.
struct Prepared {
    runner: ShardedRunner,
    cache: Arc<PlanCache>,
    ledger: Arc<AllocationLedger>,
    builder: PolicyBuilder,
    stream: TraceStream<BufReader<File>>,
    declared_jobs: Option<u64>,
}

/// What one replay produced that must repeat exactly: within a run, and
/// between traced and untraced replays.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    jobs: usize,
    report_digest: String,
    events_dispatched: u64,
    events_stale: u64,
    attempts_launched: u64,
    attempts_killed: u64,
    pocd: f64,
    cost_per_job: f64,
    cache: (u64, u64, u64),
    ledger: LedgerSummary,
    ledger_digest: String,
}

/// Benchmark-side span totals of one traced replay, summed over threads.
#[derive(Debug, Default)]
struct Spans {
    parse_ns: AtomicU64,
    parse_jobs: AtomicU64,
    batch_ns: AtomicU64,
    batch_calls: AtomicU64,
    hook_ns: AtomicU64,
    hook_calls: AtomicU64,
    shard_ns: AtomicU64,
    shards: AtomicU64,
    last_shard_end: Mutex<Option<Instant>>,
}

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

fn secs(nanos: &AtomicU64) -> f64 {
    nanos.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Times the trace stream's `Iterator::next`: the chronos-trace loader,
/// which runs under the runner's chunk-queue lock.
struct TimedStream<I> {
    inner: I,
    spans: Arc<Spans>,
}

impl<I, E> Iterator for TimedStream<I>
where
    I: Iterator<Item = Result<Vec<JobSpec>, E>>,
{
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let start = Instant::now();
        let item = alloc::in_span(Span::Parse, || self.inner.next());
        self.spans
            .parse_ns
            .fetch_add(nanos(start.elapsed()), Ordering::Relaxed);
        if let Some(Ok(chunk)) = &item {
            self.spans
                .parse_jobs
                .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        }
        item
    }
}

/// Sums the time and count of many short calls.
#[derive(Debug, Default)]
struct CallClock {
    nanos: Cell<u64>,
    calls: Cell<u64>,
}

impl CallClock {
    fn time<T>(&self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = call();
        self.nanos.set(self.nanos.get() + nanos(start.elapsed()));
        self.calls.set(self.calls.get() + 1);
        result
    }
}

/// Times a shard's policy: `on_job_batch` and the per-event hooks, each
/// summed as a count plus total time. The policy lives exactly as long as
/// its shard's simulation, so its lifetime is the shard span.
#[derive(Debug)]
struct TimedPolicy {
    inner: Box<dyn SpeculationPolicy>,
    spans: Arc<Spans>,
    born: Instant,
    batch: CallClock,
    hooks: CallClock,
}

impl SpeculationPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_job_batch(&mut self, jobs: &[JobSubmitView]) -> Result<BatchPlan, SimError> {
        self.batch.time(|| self.inner.on_job_batch(jobs))
    }

    fn on_job_submit(&mut self, job: &JobSubmitView) -> SubmitDecision {
        self.hooks.time(|| self.inner.on_job_submit(job))
    }

    fn submit_is_profile_pure(&self) -> bool {
        self.inner.submit_is_profile_pure()
    }

    fn on_job_submit_replayed(&mut self, job: &JobSubmitView, decision: SubmitDecision) {
        self.hooks
            .time(|| self.inner.on_job_submit_replayed(job, decision));
    }

    fn check_schedule(&self, job: &JobSubmitView) -> CheckSchedule {
        self.hooks.time(|| self.inner.check_schedule(job))
    }

    fn on_check(&mut self, view: &JobView) -> Vec<PolicyAction> {
        self.hooks.time(|| self.inner.on_check(view))
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        let spans = &self.spans;
        let add = |total: &AtomicU64, value: u64| total.fetch_add(value, Ordering::Relaxed);
        add(&spans.batch_ns, self.batch.nanos.get());
        add(&spans.batch_calls, self.batch.calls.get());
        add(&spans.hook_ns, self.hooks.nanos.get());
        add(&spans.hook_calls, self.hooks.calls.get());
        add(&spans.shard_ns, nanos(self.born.elapsed()));
        add(&spans.shards, 1);
        if let Ok(mut last) = spans.last_shard_end.lock() {
            let now = Instant::now();
            *last = Some(last.map_or(now, |last| last.max(now)));
        }
    }
}

/// One replay's timings, fingerprint and (when traced) layer figures.
struct Rep {
    run_s: f64,
    fingerprint: Fingerprint,
    layers: Option<Ledger>,
}

impl Replay {
    fn prepare(&self, input: &Path) -> Result<Prepared, String> {
        let loader = TraceLoader::open(input).map_err(|err| err.to_string())?;
        let declared_jobs = loader.header().jobs;
        let stream = loader.stream(CHUNK_SIZE).map_err(|err| err.to_string())?;
        let runner = ShardedRunner::new(sim_config(self.workers)).map_err(|err| err.to_string())?;
        let cache = PlanCache::shared();
        let ledger = AllocationLedger::shared();
        let config = ChronosPolicyConfig::testbed().with_timing(StrategyTiming::trace_default());
        let builder = PolicyBuilder::new(config)
            .budgeted(self.budget)
            .with_ledger(Arc::clone(&ledger));
        // Reject an unbuildable kind/budget pair before the clock starts.
        builder.build(self.kind).map_err(|err| err.to_string())?;
        Ok(Prepared {
            runner,
            cache,
            ledger,
            builder,
            stream,
            declared_jobs,
        })
    }

    fn build(&self, builder: &PolicyBuilder, cache: Arc<PlanCache>) -> Box<dyn SpeculationPolicy> {
        builder
            .clone()
            .cached(cache)
            .build(self.kind)
            .expect("kind/budget pair validated in prepare")
    }

    /// One replay, from setup to checked report.
    fn replay(&self, input: &Path, traced: bool) -> Result<Rep, String> {
        let Prepared {
            runner,
            cache,
            ledger,
            builder,
            stream,
            declared_jobs,
        } = self.prepare(input)?;

        let (report, stats, run_s, layers) = if traced {
            let spans = Arc::new(Spans::default());
            let timed = TimedStream {
                inner: stream,
                spans: Arc::clone(&spans),
            };
            let build = |_shard: u64, cache: Arc<PlanCache>| -> Box<dyn SpeculationPolicy> {
                Box::new(TimedPolicy {
                    inner: self.build(&builder, cache),
                    spans: Arc::clone(&spans),
                    born: Instant::now(),
                    batch: CallClock::default(),
                    hooks: CallClock::default(),
                })
            };
            let allocs_before = (alloc::total(), alloc::count(Span::Parse));
            let cpu_before = host::cpu_seconds();
            let start = Instant::now();
            let result = runner.run_chunked_fallible_planned(&cache, timed, build);
            let end = Instant::now();
            let cpu_s = cpu_before
                .zip(host::cpu_seconds())
                .map_or(0.0, |(before, after)| after - before);
            let allocs = alloc::total() - allocs_before.0;
            let parse_allocs = alloc::count(Span::Parse) - allocs_before.1;
            let (report, stats) = result.map_err(|err| err.to_string())?;
            let run_s = (end - start).as_secs_f64();
            let merge_s = spans
                .last_shard_end
                .lock()
                .ok()
                .and_then(|last| *last)
                .map_or(0.0, |last| {
                    end.saturating_duration_since(last).as_secs_f64()
                });
            let mut layers = Ledger::default();
            let parse_s = secs(&spans.parse_ns);
            let batch_s = secs(&spans.batch_ns);
            let hook_s = secs(&spans.hook_ns);
            let self_s = secs(&spans.shard_ns) - batch_s - hook_s + merge_s;
            layers.set("trace.parse_s", parse_s);
            layers.set(
                "trace.jobs",
                spans.parse_jobs.load(Ordering::Relaxed) as f64,
            );
            layers.set(
                "trace.bytes",
                std::fs::metadata(input).map_or(0.0, |meta| meta.len() as f64),
            );
            layers.set("trace.allocs", parse_allocs as f64);
            layers.set("policy.batch_s", batch_s);
            layers.set(
                "policy.batch_calls",
                spans.batch_calls.load(Ordering::Relaxed) as f64,
            );
            layers.set("policy.hook_s", hook_s);
            layers.set(
                "policy.hook_calls",
                spans.hook_calls.load(Ordering::Relaxed) as f64,
            );
            layers.set("sim.run_s", run_s);
            layers.set("sim.self_s", self_s);
            layers.set("sim.merge_s", merge_s);
            layers.set(
                "sim.events_per_self_s",
                report.events_dispatched as f64 / self_s,
            );
            layers.set("sim.shards", spans.shards.load(Ordering::Relaxed) as f64);
            layers.set("sim.allocs", (allocs - parse_allocs) as f64);
            layers.set("proc.cpu_s", cpu_s);
            layers.set(
                "proc.parallel_eff",
                cpu_s / (run_s * f64::from(self.workers)),
            );
            (report, stats, run_s, Some(layers))
        } else {
            let build = |_shard: u64, cache: Arc<PlanCache>| self.build(&builder, cache);
            let start = Instant::now();
            let result = runner.run_chunked_fallible_planned(&cache, stream, build);
            let run_s = start.elapsed().as_secs_f64();
            let (report, stats) = result.map_err(|err| err.to_string())?;
            (report, stats, run_s, None)
        };

        if let Some(declared) = declared_jobs {
            if report.job_count() as u64 != declared {
                return Err(format!(
                    "replayed {} jobs of a {declared}-job trace",
                    report.job_count()
                ));
            }
        }
        let fingerprint = Fingerprint {
            jobs: report.job_count(),
            report_digest: report_digest(&report),
            events_dispatched: report.events_dispatched,
            events_stale: report.events_stale,
            attempts_launched: report.total_attempts(),
            attempts_killed: report.total_kills(),
            pocd: report.pocd(),
            cost_per_job: report.mean_cost(),
            cache: (stats.misses, stats.hits, stats.evictions),
            ledger: ledger.summary(),
            ledger_digest: ledger.digest(),
        };
        Ok(Rep {
            run_s,
            fingerprint,
            layers,
        })
    }

    /// Median per-setup time over [`SETUP_SAMPLES`] samples of
    /// [`SETUPS_PER_SAMPLE`] setups each.
    fn setup_seconds(&self, input: &Path) -> Result<f64, String> {
        let mut samples = Vec::with_capacity(SETUP_SAMPLES);
        for _ in 0..SETUP_SAMPLES {
            let start = Instant::now();
            for _ in 0..SETUPS_PER_SAMPLE {
                std::hint::black_box(self.prepare(input)?);
            }
            samples.push(start.elapsed().as_secs_f64() / f64::from(SETUPS_PER_SAMPLE));
        }
        Ok(median(&samples))
    }

    /// Runs the workload on the trace at `input` for `phases`, checking
    /// every replay against the first.
    pub fn run(&self, input: &Path, phases: Phases) -> Outcome {
        let mut outcome = Outcome::default();
        let setup_s = match self.setup_seconds(input) {
            Ok(setup_s) => setup_s,
            Err(err) => return Outcome::failed(err),
        };
        let mut reference: Option<Fingerprint> = None;
        let mut untraced: Vec<Rep> = Vec::new();
        let mut traced: Vec<Rep> = Vec::new();
        for (traced_phase, seconds) in phases.iter() {
            alloc::enable(traced_phase);
            let phase_start = Instant::now();
            let reps = if traced_phase {
                &mut traced
            } else {
                &mut untraced
            };
            // Stop before a replay that would overrun the phase, so long
            // replays do not stretch the run past `--seconds`.
            let mut count = 0;
            let mut last_s = 0.0;
            while count < MIN_REPLAYS || phase_start.elapsed().as_secs_f64() + last_s <= seconds {
                count += 1;
                outcome.attempted += 1;
                let replay_start = Instant::now();
                match self.replay(input, traced_phase) {
                    Ok(rep) => {
                        let expected = reference.get_or_insert_with(|| rep.fingerprint.clone());
                        if rep.fingerprint == *expected {
                            reps.push(rep);
                        } else {
                            outcome.fail(format!(
                                "replay {} differs from the first: {:?} vs {:?}",
                                outcome.attempted, rep.fingerprint, expected
                            ));
                        }
                    }
                    Err(err) => outcome.fail(err),
                }
                last_s = replay_start.elapsed().as_secs_f64();
            }
            alloc::enable(false);
        }
        let Some(fingerprint) = reference else {
            return outcome;
        };

        let run_us: Vec<f64> = untraced.iter().map(|rep| rep.run_s * 1e6).collect();
        let jobs_per_s = |reps: &[Rep]| {
            let rates: Vec<f64> = reps
                .iter()
                .map(|rep| fingerprint.jobs as f64 / rep.run_s)
                .collect();
            median(&rates)
        };
        let e2e = &mut outcome.end_to_end;
        e2e.set("setup_s", setup_s);
        e2e.set("jobs_per_s", jobs_per_s(&untraced));
        let windows: Vec<&[f64]> = if run_us.len() < 2 * LATENCY_WINDOW {
            vec![&run_us]
        } else {
            run_us.chunks_exact(LATENCY_WINDOW).collect()
        };
        let per_window =
            |q: f64| -> Vec<f64> { windows.iter().map(|window| quantile(window, q)).collect() };
        e2e.set("latency_p50_us", median(&per_window(0.5)));
        e2e.set("latency_p99_us", median(&per_window(0.99)));
        e2e.set("pocd", fingerprint.pocd);
        e2e.set("cost_per_job", fingerprint.cost_per_job);
        e2e.set("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0));
        outcome.note("latency_samples", untraced.len().to_string());
        outcome.note("latency_windows", windows.len().to_string());

        if !traced.is_empty() {
            let timed: Vec<Ledger> = traced.iter().filter_map(|rep| rep.layers.clone()).collect();
            let layers = &mut outcome.per_layer;
            *layers = Ledger::median_of(&timed);
            let (solves, hits, evictions) = fingerprint.cache;
            layers.set("plan.solves", solves as f64);
            layers.set("plan.cache_hits", hits as f64);
            layers.set("plan.hit_rate", ratio(hits, hits + solves));
            layers.set("plan.evictions", evictions as f64);
            let ledger = &fingerprint.ledger;
            layers.set("budget.rounds", ledger.batches as f64);
            layers.set("budget.copies_requested", ledger.requested as f64);
            layers.set("budget.copies_granted", ledger.spent as f64);
            layers.set("budget.grant_frac", ratio(ledger.spent, ledger.requested));
            layers.set(
                "sim.events_dispatched",
                fingerprint.events_dispatched as f64,
            );
            layers.set("sim.events_stale", fingerprint.events_stale as f64);
            layers.set(
                "sim.stale_frac",
                ratio(
                    fingerprint.events_stale,
                    fingerprint.events_dispatched + fingerprint.events_stale,
                ),
            );
            layers.set(
                "sim.attempts_launched",
                fingerprint.attempts_launched as f64,
            );
            layers.set("sim.attempts_killed", fingerprint.attempts_killed as f64);
            layers.set(
                "sim.kill_frac",
                ratio(fingerprint.attempts_killed, fingerprint.attempts_launched),
            );
            layers.set(
                "bench.trace_overhead",
                1.0 - jobs_per_s(&traced) / jobs_per_s(&untraced),
            );
        }
        outcome.note("report_digest", fingerprint.report_digest.clone());
        outcome.note(
            "events_dispatched",
            fingerprint.events_dispatched.to_string(),
        );
        if self.budget.limit().is_some() {
            outcome.note("allocation_digest", fingerprint.ledger_digest.clone());
        }
        outcome
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
