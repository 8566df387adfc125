//! Command-line companion of `chronos_trace::loader`: generates
//! `chronos-trace` v1 files from the synthetic Google-style model, replays
//! them (or the equivalent in-memory stream) through the sharded runner,
//! and reports per-trace profile statistics.
//!
//! The `trace-replay-smoke` check of `ci/cli_smoke.sh` (run by CI's
//! `cli-smoke` job, like every `*-smoke` check named below) is the
//! canonical user: it generates a trace with `TraceWriter`, replays it from
//! the file at 8 workers, replays the same jobs in-memory at 1 worker, and
//! byte-compares the two report JSONs — pinning the whole write → parse →
//! shard → merge pipeline to the in-memory path, worker-count invariance
//! included.
//!
//! ```text
//! trace_tool generate --jobs N --seed S --out trace.csv [--chunk-size C]
//! trace_tool convert  IN OUT --format google-2011 [--deadline-factor F] [--chunk-size C]
//! trace_tool replay --trace trace.csv   [--policy P] [--budget B] [--placement L] [--workers W] [--chunk-size C] [--out report.json] [--metrics-out m.prom] [--decision-log d.log]
//! trace_tool replay --jobs N --seed S   [--policy P] [--budget B] [--placement L] [--workers W] [--chunk-size C] [--out report.json] [--metrics-out m.prom] [--decision-log d.log]
//! trace_tool serve-replay --trace trace.csv [--workers W] [--queue-capacity Q] [--chunk-size C] [--metrics-out m.prom] [--decision-log d.log]
//! trace_tool stats  --trace trace.csv   [--chunk-size C]
//! ```
//!
//! Every summary line printed below comes from [`chronos_bench::format`] —
//! the single formatter CI's grep-based smoke jobs pin — so `replay`,
//! `serve-replay`, `convert` and `stats` cannot drift apart.
//!
//! `--metrics-out FILE` writes a Prometheus text-format snapshot of the
//! run (simulation counters and latency histogram, plan-cache counters,
//! budget ledger totals when budgeted; serve counters for `serve-replay`).
//! `--decision-log FILE` enables the deterministic decision trace, writes
//! the greppable event log to FILE and prints its FNV-1a digest — the
//! digest and the log bytes are worker-count-invariant (what CI's
//! `obs-smoke` check pins); recording is off (and costs nothing) without the
//! flag.
//!
//! `serve-replay` feeds the trace's jobs through the `chronos-serve`
//! admission-control planning server as an arrival stream and prints the
//! deterministic decision count/digest (what `tests/trace_tool_cli.rs`
//! pins) plus informational wall-clock latency quantiles.
//!
//! Each subcommand rejects a flag it does not declare with exit code 2 and
//! a usage error naming the flag, so a typo never runs a default instead.
//! Count-valued flags (`--workers`, `--chunk-size`, `--queue-capacity`)
//! reject `0` with a usage error naming the flag: a zero would mean "no
//! worker ever drains" or "no chunk ever forms", never a sensible request.
//!
//! `convert` ingests a foreign trace file (currently the 2011 Google
//! cluster-trace `task_events` CSV schema — see `chronos_trace::convert`)
//! into a validated v1 trace, then prints the distinct-profile census of
//! the converted output so the plan-cache benefit of a future replay is
//! visible immediately. CI's `trace-convert-smoke` check byte-compares the
//! converted fixture against a golden and replays it at 8 vs 1 workers.
//!
//! Both replay forms use the same fixed simulator configuration and seed,
//! the same policy (Hadoop-NS unless `--policy` says otherwise) and the
//! same default chunk size, so their reports are bit-identical whenever the
//! trace file round-trips exactly. The chunk structure is the shard
//! structure: replays with different `--chunk-size` are different
//! experiments (see the sharding module docs).
//!
//! Replays run through the planner-backed sharded path: the optimizing
//! policies (`--policy clone|s-restart|s-resume`) share one plan cache
//! across all shards, and the cache statistics are printed after the
//! replay (to stdout, never into the report JSON — reports stay
//! bit-identical to the unplanned path). `stats` prints the
//! distinct-profile census of a trace — the ceiling on that cache's hit
//! rate — so the planner benefit can be predicted without replaying.
//!
//! `--placement L` selects the cluster placement policy (`most-free`, the
//! default and bit-identical to the historical scheduler; `bin-pack`;
//! `deadline-aware`). Non-default placements record a `PlacementDecision`
//! per assignment into the decision trace, so `--decision-log` digests are
//! placement-specific yet still worker-count-invariant (what CI's
//! `placement-smoke` check pins).
//!
//! `--budget B` caps the speculative copies each planning round may grant
//! (`unlimited`, the default, reproduces the classic per-job optima
//! bit-for-bit). Budgeted replays share one `AllocationLedger` across all
//! shards and print its integer-only allocation digest after the replay;
//! because the chunk structure — not the thread schedule — determines the
//! planning rounds, that digest is identical at any `--workers` count
//! (what CI's `budget-smoke` check pins). Only the optimizing policies can
//! be budgeted; a finite budget on a baseline is a usage error.

use chronos_bench::format as fmt;
use chronos_bench::report_json::{write_report_json, JsonStyle};
use chronos_serve::prelude::*;
use chronos_sim::prelude::*;
use chronos_strategies::prelude::*;
use chronos_trace::prelude::*;
use std::convert::Infallible;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Simulation seed shared by both replay forms (per-shard seeds derive from
/// it; it must not depend on the job source).
const SIM_SEED: u64 = 47;

/// Default chunk size: small enough that CI-scale traces still exercise
/// several shards, large enough that million-job files stay cheap to chunk.
const DEFAULT_CHUNK_SIZE: u32 = 512;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace_tool generate --jobs N --seed S --out PATH [--chunk-size C]\n  \
         trace_tool convert IN OUT --format F [--deadline-factor D] [--chunk-size C]\n  \
         trace_tool replay --trace PATH [--policy P] [--budget B] [--placement L] [--workers W] [--chunk-size C] [--out PATH] [--metrics-out PATH] [--decision-log PATH]\n  \
         trace_tool replay --jobs N --seed S [--policy P] [--budget B] [--placement L] [--workers W] [--chunk-size C] [--out PATH] [--metrics-out PATH] [--decision-log PATH]\n  \
         trace_tool serve-replay --trace PATH [--workers W] [--queue-capacity Q] [--chunk-size C] [--metrics-out PATH] [--decision-log PATH]\n  \
         trace_tool stats --trace PATH [--chunk-size C]\n\n  \
         policies: hadoop-ns (default), hadoop-s, mantri, clone, s-restart, s-resume\n  \
         budgets: `unlimited` (default) or a per-round extra-copy cap (optimizing policies only)\n  \
         placements: most-free (default), bin-pack, deadline-aware\n  \
         foreign formats: {}",
        chronos_trace::convert::FORMATS.join(", ")
    );
    ExitCode::from(2)
}

/// Looks up the value of `flag`, parsed with `FromStr`.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match chronos_bench::flag_value(args, flag)? {
        None => Ok(None),
        Some(raw) => raw
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{flag}: `{raw}` is not a valid value")),
    }
}

/// Like [`flag_value`] for count-valued flags that must be at least 1:
/// `0` is rejected with a typed usage error naming the flag. Returns
/// `default` when the flag is absent.
fn nonzero_flag_value(args: &[String], flag: &str, default: u32) -> Result<u32, String> {
    let value: u32 = flag_value(args, flag)?.unwrap_or(default);
    if value == 0 {
        return Err(format!("{flag}: must be at least 1, got 0"));
    }
    Ok(value)
}

/// The simulator configuration of both replay forms: the trace-driven
/// datacenter-scale pool of Figures 3–5, sharded with `workers` threads.
fn replay_config(workers: u32) -> SimConfig {
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

fn generate(args: &[String]) -> Result<(), String> {
    let jobs: u32 = flag_value(args, "--jobs")?.ok_or("generate needs --jobs")?;
    let seed: u64 = flag_value(args, "--seed")?.ok_or("generate needs --seed")?;
    let out: PathBuf = flag_value(args, "--out")?.ok_or("generate needs --out")?;
    let chunk_size = nonzero_flag_value(args, "--chunk-size", DEFAULT_CHUNK_SIZE)?;

    let stream = GoogleTraceConfig::scaled(jobs, seed)
        .stream(chunk_size)
        .map_err(|err| format!("trace generation: {err}"))?;
    let mut writer = TraceWriter::create(&out, Some(u64::from(jobs)))
        .map_err(|err| format!("creating {}: {err}", out.display()))?;
    for chunk in stream {
        writer
            .write_all(&chunk)
            .map_err(|err| format!("writing {}: {err}", out.display()))?;
    }
    writer
        .finish()
        .map_err(|err| format!("finishing {}: {err}", out.display()))?;
    println!("wrote {jobs} jobs -> {}", out.display());
    Ok(())
}

/// Writes the report's pretty JSON and a trailing newline to the `out`
/// file, or to stdout when there is none, streamed one job at a time
/// through a buffer.
fn write_report(report: &SimulationReport, out: Option<&Path>) -> Result<(), String> {
    fn stream(report: &SimulationReport, sink: impl Write) -> std::io::Result<()> {
        let mut sink = BufWriter::new(sink);
        write_report_json(report, JsonStyle::Pretty, &mut sink)?;
        sink.write_all(b"\n")?;
        sink.flush()
    }
    match out {
        Some(path) => {
            File::create(path)
                .and_then(|file| stream(report, file))
                .map_err(|err| format!("writing {}: {err}", path.display()))?;
            println!(
                "replayed {} jobs ({} events dispatched, {} stale) -> {}",
                report.job_count(),
                report.events_dispatched,
                report.events_stale,
                path.display()
            );
        }
        None => stream(report, std::io::stdout().lock())
            .map_err(|err| format!("writing the report to stdout: {err}"))?,
    }
    Ok(())
}

fn replay(args: &[String]) -> Result<(), String> {
    let workers = nonzero_flag_value(args, "--workers", 4)?;
    let chunk_size = nonzero_flag_value(args, "--chunk-size", DEFAULT_CHUNK_SIZE)?;
    let out: Option<PathBuf> = flag_value(args, "--out")?;
    let metrics_out: Option<PathBuf> = flag_value(args, "--metrics-out")?;
    let decision_log: Option<PathBuf> = flag_value(args, "--decision-log")?;
    let trace: Option<PathBuf> = flag_value(args, "--trace")?;
    let policy_label: String =
        flag_value(args, "--policy")?.unwrap_or_else(|| "hadoop-ns".to_string());
    let kind: PolicyKind = policy_label
        .parse()
        .map_err(|err| format!("--policy: {err}"))?;
    let budget: SpeculationBudget = match flag_value::<String>(args, "--budget")? {
        None => SpeculationBudget::Unlimited,
        Some(raw) => raw.parse().map_err(|err| format!("--budget: {err}"))?,
    };
    // Parse through `PlacementPolicy::FromStr` directly so the typed error
    // (which lists the accepted labels) reaches the usage message intact.
    let placement: PlacementPolicy = match flag_value::<String>(args, "--placement")? {
        None => PlacementPolicy::default(),
        Some(raw) => raw.parse().map_err(|err| format!("--placement: {err}"))?,
    };
    let chronos_config =
        ChronosPolicyConfig::testbed().with_timing(StrategyTiming::trace_default());

    let runner = ShardedRunner::new(replay_config(workers).with_placement(placement))
        .map_err(|err| format!("config: {err}"))?;
    // Every shard's policy shares this cache: a job profile optimized by
    // any shard is a lookup in every other (the baselines just leave the
    // counters at zero). Budgeted replays additionally share one ledger,
    // so the combined allocation digest is worker-count-invariant.
    let cache = PlanCache::shared();
    let ledger = AllocationLedger::shared();
    let builder = PolicyBuilder::new(chronos_config)
        .budgeted(budget)
        .with_placement(placement)
        .with_ledger(Arc::clone(&ledger));
    // Surface an unbudgetable kind/budget combination as a usage error
    // before any replay work starts, with the builder's typed message.
    builder
        .build(kind)
        .map_err(|err| format!("--budget: {err}"))?;
    let build = |_shard: u64| {
        builder
            .clone()
            .cached(Arc::clone(&cache))
            .build(kind)
            .expect("kind/budget combination validated above")
    };
    // The decision trace records only when asked for: without
    // `--decision-log` recording stays off, so reports, digests and cache
    // counters cannot move.
    let options = RunOptions {
        cache: Some(&cache),
        trace: decision_log.is_some().then_some(None),
    };
    let output = match trace {
        Some(path) => {
            let stream = TraceLoader::open(&path)
                .map_err(|err| format!("opening {}: {err}", path.display()))?
                .stream(chunk_size)
                .map_err(|err| err.to_string())?;
            runner
                .run(stream, options, build)
                .map_err(|err| format!("replaying {}: {err}", path.display()))?
        }
        None => {
            let jobs: u32 = flag_value(args, "--jobs")?.ok_or("replay needs --trace or --jobs")?;
            let seed: u64 = flag_value(args, "--seed")?.ok_or("replay needs --seed with --jobs")?;
            let stream = GoogleTraceConfig::scaled(jobs, seed)
                .stream(chunk_size)
                .map_err(|err| format!("trace generation: {err}"))?;
            runner
                .run(stream.map(Ok::<_, Infallible>), options, build)
                .map_err(|err| format!("replaying in-memory trace: {err}"))?
        }
    };
    let report = output.report;
    let stats = output.cache_stats.expect("the replay shares a plan cache");
    write_report(&report, out.as_deref())?;
    if stats.lookups() == 0 {
        println!("{}", fmt::plan_cache_untouched_line(kind.label()));
    } else {
        println!(
            "{}",
            fmt::plan_cache_line(
                kind.label(),
                stats.misses,
                report.job_count() as u64,
                &stats
            )
        );
    }
    if let Some(tokens) = budget.limit() {
        let summary = ledger.summary();
        println!("{}", fmt::budget_summary_line(tokens, &summary));
        println!("{}", fmt::allocation_digest_line(&ledger.digest()));
    }
    if let Some(path) = &decision_log {
        let decision_trace = output
            .trace
            .expect("trace recorded when --decision-log is set");
        std::fs::write(path, decision_trace.render_log())
            .map_err(|err| format!("writing {}: {err}", path.display()))?;
        println!(
            "{}",
            fmt::decision_trace_digest_line(&decision_trace.digest())
        );
    }
    if let Some(path) = &metrics_out {
        let mut registry = MetricsRegistry::new();
        report.export_metrics(&mut registry);
        stats.export_metrics(&mut registry);
        if budget.limit().is_some() {
            ledger.summary().export_metrics(&mut registry);
        }
        std::fs::write(path, registry.render_prometheus())
            .map_err(|err| format!("writing {}: {err}", path.display()))?;
    }
    Ok(())
}

/// Feeds a trace's jobs through the `chronos-serve` admission-control
/// planning server as an arrival stream: every job becomes one
/// [`ServeRequest`], submitted in small batches with a retry-on-overload
/// loop (the server rejects rather than queues past its capacity).
///
/// The decision count and [`decisions_digest`] printed here are
/// deterministic — a pure function of the trace and the policy config,
/// independent of `--workers` and `--queue-capacity` — which is what
/// `tests/trace_tool_cli.rs` pins. The latency quantiles are wall-clock
/// and informational only.
fn serve_replay(args: &[String]) -> Result<(), String> {
    let trace: PathBuf = flag_value(args, "--trace")?.ok_or("serve-replay needs --trace")?;
    let workers = nonzero_flag_value(args, "--workers", 4)?;
    let queue_capacity = nonzero_flag_value(args, "--queue-capacity", 64)? as usize;
    let chunk_size = nonzero_flag_value(args, "--chunk-size", DEFAULT_CHUNK_SIZE)?;
    let metrics_out: Option<PathBuf> = flag_value(args, "--metrics-out")?;
    let decision_log: Option<PathBuf> = flag_value(args, "--decision-log")?;

    let stream = TraceLoader::open(&trace)
        .map_err(|err| format!("opening {}: {err}", trace.display()))?
        .stream(chunk_size)
        .map_err(|err| err.to_string())?;
    let mut jobs: Vec<JobSpec> = Vec::new();
    for chunk in stream {
        jobs.extend(chunk.map_err(|err| format!("parsing {}: {err}", trace.display()))?);
    }

    let mut config = ServeConfig::new(workers, queue_capacity);
    if decision_log.is_some() {
        // One record per admission plus headroom for overload events (the
        // retry loop below makes their count load-dependent; the admission
        // records and their ordering stay deterministic regardless).
        config = config.with_decision_trace(jobs.len() * 2 + 16);
    }
    let server = PlanServer::start(config).map_err(|err| format!("starting server: {err}"))?;
    // Submit in batches of at most half the queue so two submitters'
    // worth of work fits; retry on Overloaded — backpressure is the
    // server's contract, the overload policy is ours.
    let submit_batch = (queue_capacity / 2).max(1);
    let mut tickets = Vec::new();
    for (batch_index, batch_jobs) in jobs.chunks(submit_batch).enumerate() {
        let mut batch: Vec<ServeRequest> = batch_jobs
            .iter()
            .enumerate()
            .map(|(offset, job)| ServeRequest {
                request_id: (batch_index * submit_batch + offset) as u64,
                job: job.clone(),
            })
            .collect();
        loop {
            match server.submit(batch) {
                Ok(ticket) => break tickets.push(ticket),
                Err(rejected) => match rejected.error {
                    ServeError::Overloaded { .. } => {
                        batch = rejected.requests;
                        std::thread::yield_now();
                    }
                    other => return Err(format!("submitting batch: {other}")),
                },
            }
        }
    }
    let mut responses: Vec<ServeResponse> = tickets
        .into_iter()
        .flat_map(|ticket| ticket.wait())
        .collect();
    let (stats, decision_trace) = if decision_log.is_some() {
        let (stats, decision_trace) = server.shutdown_with_trace();
        (stats, Some(decision_trace))
    } else {
        (server.shutdown(), None)
    };
    responses.sort_unstable_by_key(|response| response.request_id);

    let feasible = responses
        .iter()
        .filter(|response| response.decision.feasible)
        .count();
    println!(
        "{}",
        fmt::planned_jobs_line(responses.len(), workers, feasible)
    );
    println!(
        "{}",
        fmt::decisions_digest_line(&decisions_digest(&responses))
    );
    if let Some(path) = &decision_log {
        // Admission records are sorted by request id at collection, so —
        // like `decisions_digest` — log and digest are worker-count
        // invariant as long as no submission was rejected (overload events
        // are load-dependent by nature and sort last).
        let decision_trace = decision_trace.expect("trace enabled when --decision-log is set");
        std::fs::write(path, decision_trace.render_log())
            .map_err(|err| format!("writing {}: {err}", path.display()))?;
        println!(
            "{}",
            fmt::decision_trace_digest_line(&decision_trace.digest())
        );
    }
    if let Some(path) = &metrics_out {
        let mut registry = MetricsRegistry::new();
        stats.export_metrics(&mut registry);
        std::fs::write(path, registry.render_prometheus())
            .map_err(|err| format!("writing {}: {err}", path.display()))?;
    }
    println!("{}", fmt::serve_latency_line(&stats.latency));
    println!("{}", fmt::serve_cache_line(&stats.cache));
    Ok(())
}

/// Streams `trace` through a [`ProfileCensus`] and prints the summary —
/// the shared back end of `stats` and the post-conversion report.
fn print_census(trace: &Path, chunk_size: u32) -> Result<(), String> {
    let stream = TraceLoader::open(trace)
        .map_err(|err| format!("opening {}: {err}", trace.display()))?
        .stream(chunk_size)
        .map_err(|err| err.to_string())?;
    let mut census = ProfileCensus::new();
    for chunk in stream {
        let chunk = chunk.map_err(|err| format!("parsing {}: {err}", trace.display()))?;
        census.observe_all(&chunk);
    }
    println!("{}", fmt::census_block(trace, &census.summary()));
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let trace: PathBuf = flag_value(args, "--trace")?.ok_or("stats needs --trace")?;
    let chunk_size = nonzero_flag_value(args, "--chunk-size", DEFAULT_CHUNK_SIZE)?;
    print_census(&trace, chunk_size)
}

fn convert(args: &[String]) -> Result<(), String> {
    let format: String = flag_value(args, "--format")?.ok_or_else(|| {
        format!(
            "convert needs --format (supported: {})",
            chronos_trace::convert::FORMATS.join(", ")
        )
    })?;
    let deadline_factor: Option<f64> = flag_value(args, "--deadline-factor")?;
    let chunk_size = nonzero_flag_value(args, "--chunk-size", DEFAULT_CHUNK_SIZE)?;
    let positional = chronos_bench::check_flags(args, "", CONVERT_FLAGS)?;
    let [input, output] = positional.as_slice() else {
        return Err(format!(
            "convert needs exactly two positional arguments (IN OUT), got {}",
            positional.len()
        ));
    };

    // Dispatch through the registry so a newly registered schema reaches
    // the CLI without touching this match; only the google-2011-specific
    // --deadline-factor knob needs the concrete type.
    let mut converter: Box<dyn TraceConverter> = converter_for(&format).ok_or_else(|| {
        format!(
            "--format: unknown foreign format `{format}` (supported: {})",
            chronos_trace::convert::FORMATS.join(", ")
        )
    })?;
    if let Some(factor) = deadline_factor {
        if format != chronos_trace::convert::GOOGLE_2011_FORMAT {
            return Err(format!(
                "--deadline-factor is not supported by format `{format}`"
            ));
        }
        converter = Box::new(
            GoogleClusterTraceConverter::new()
                .with_deadline_factor(factor)
                .map_err(|err| format!("--deadline-factor: {err}"))?,
        );
    }

    let summary = converter
        .convert_files(Path::new(input), Path::new(output))
        .map_err(|err| format!("converting {input}: {err}"))?;
    println!(
        "converted {} jobs ({} tasks) from {} {} events -> {output}",
        summary.jobs,
        summary.tasks,
        summary.events,
        converter.format(),
    );
    if summary.skipped_jobs > 0 {
        println!(
            "skipped {} jobs with no completed task (nothing to fit)",
            summary.skipped_jobs
        );
    }
    // The census of the converted output doubles as an end-to-end check:
    // it re-parses the file we just wrote.
    print_census(Path::new(output), chunk_size)
}

// The flags a subcommand declares (each takes a value); the short lists
// sit in `main`.
const CONVERT_FLAGS: &str = "--format --deadline-factor --chunk-size";
const REPLAY_FLAGS: &str = "--trace --jobs --seed --policy --budget --placement --workers \
     --chunk-size --out --metrics-out --decision-log";
const SERVE_REPLAY_FLAGS: &str =
    "--trace --workers --queue-capacity --chunk-size --metrics-out --decision-log";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    type Subcommand = fn(&[String]) -> Result<(), String>;
    let (subcommand, flags): (Subcommand, &str) = match args.get(1).map(String::as_str) {
        Some("generate") => (generate, "--jobs --seed --out --chunk-size"),
        Some("convert") => (convert, CONVERT_FLAGS),
        Some("replay") => (replay, REPLAY_FLAGS),
        Some("serve-replay") => (serve_replay, SERVE_REPLAY_FLAGS),
        Some("stats") => (stats, "--trace --chunk-size"),
        _ => return usage(),
    };
    // A flag the subcommand does not declare is a usage error, never
    // silently ignored.
    if let Err(message) = chronos_bench::check_flags(&args[2..], "", flags) {
        eprintln!("trace_tool {}: {message}", args[1]);
        return usage();
    }
    match subcommand(&args[2..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("trace_tool: {message}");
            ExitCode::FAILURE
        }
    }
}
