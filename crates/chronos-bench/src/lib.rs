//! # chronos-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Chronos paper's evaluation (Section VII), plus Criterion micro-benchmarks
//! for the optimizer, the analysis closed forms and the estimators. End-to-end
//! and per-layer timing lives in the separate `perfbench` package.
//!
//! Each binary prints the rows of the corresponding paper artifact and
//! writes a JSON copy under `results/`:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2` | Figure 2(a–c): PoCD / Cost / Utility per benchmark |
//! | `table1` | Table I: sweep of `τ_est` with `τ_kill − τ_est` fixed |
//! | `table2` | Table II: sweep of `τ_kill` with `τ_est` fixed |
//! | `fig3` | Figure 3(a–c): PoCD / Cost / Utility vs θ (incl. Mantri) |
//! | `fig4` | Figure 4(a–c): PoCD / Cost / Utility vs Pareto β |
//! | `fig5` | Figure 5: histogram of optimal `r` |
//! | `validate_analysis` | Monte-Carlo validation of Theorems 1–6 |
//! | `all_experiments` | Runs everything above in sequence |
//!
//! Every run is deterministic given the seed embedded in each binary.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod format;
pub mod report_json;

use chronos_sim::prelude::*;
use chronos_strategies::prelude::*;
use chronos_trace::prelude::{
    Benchmark, TestbedWorkload, TraceLoader, TraceParseError, TraceWriteError, TraceWriter,
    WorkloadStream,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Aggregate measurement of one policy over one workload: the three axes the
/// paper reports, plus diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Policy label (`hadoop-ns`, `clone`, …).
    pub policy: String,
    /// Fraction of jobs meeting their deadline.
    pub pocd: f64,
    /// Mean machine time per job, seconds of VM time.
    pub mean_machine_time: f64,
    /// Mean priced cost per job (`price × machine time`).
    pub mean_cost: f64,
    /// Net utility `lg(PoCD − R_min) − θ·mean cost`.
    pub utility: f64,
    /// Mean job turnaround, seconds (completed jobs only).
    pub mean_completion_secs: Option<f64>,
    /// Number of jobs measured.
    pub jobs: usize,
    /// Total attempts launched.
    pub attempts: u64,
    /// Histogram of the per-job `r` chosen by the policy's optimizer.
    pub r_histogram: std::collections::BTreeMap<u32, usize>,
}

/// The utility parameters used when turning a [`SimulationReport`] into a
/// [`Measurement`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilitySpec {
    /// Tradeoff factor θ.
    pub theta: f64,
    /// PoCD floor `R_min`.
    pub r_min: f64,
}

impl UtilitySpec {
    /// Builds a utility specification.
    #[must_use]
    pub fn new(theta: f64, r_min: f64) -> Self {
        UtilitySpec { theta, r_min }
    }
}

/// Converts a simulation report into a [`Measurement`] under the given
/// utility parameters. The utility uses the *mean cost* (priced machine
/// time), matching how the paper reports its Cost axis.
#[must_use]
pub fn measure(report: &SimulationReport, utility: UtilitySpec) -> Measurement {
    Measurement {
        policy: report.policy.clone(),
        pocd: report.pocd(),
        mean_machine_time: report.mean_machine_time(),
        mean_cost: report.mean_cost(),
        utility: report.net_utility(utility.theta, utility.r_min),
        mean_completion_secs: report.mean_completion_secs(),
        jobs: report.job_count(),
        attempts: report.total_attempts(),
        r_histogram: report.chosen_r_histogram(),
    }
}

/// Runs one policy over a workload and returns the raw simulation report.
///
/// # Errors
///
/// Propagates simulator configuration and runtime errors.
pub fn run_policy(
    config: &SimConfig,
    policy: Box<dyn SpeculationPolicy>,
    jobs: Vec<JobSpec>,
) -> Result<SimulationReport, SimError> {
    let mut sim = Simulation::new(config.clone(), policy)?;
    sim.submit_all(jobs)?;
    sim.run()
}

/// Runs one policy and reduces the report to a [`Measurement`] in one step.
///
/// # Errors
///
/// Propagates simulator configuration and runtime errors.
pub fn run_and_measure(
    config: &SimConfig,
    policy: Box<dyn SpeculationPolicy>,
    jobs: Vec<JobSpec>,
    utility: UtilitySpec,
) -> Result<Measurement, SimError> {
    let report = run_policy(config, policy, jobs)?;
    Ok(measure(&report, utility))
}

/// Simulator configuration for the testbed experiments (Figure 2, 40 nodes
/// × 8 slots, JVM launch overhead enabled).
#[must_use]
pub fn testbed_sim_config(seed: u64) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(40, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::ChronosJvmAware,
        progress_report_interval_secs: 1.0,
        seed,
        max_events: 0,
        sharding: ShardSpec::default(),
    }
}

/// Simulator configuration for the trace-driven experiments (Figures 3–5,
/// Tables I–II): a datacenter-scale container pool so queueing does not
/// confound the strategy comparison. JVM launch overhead stays enabled and
/// the Application Master uses Hadoop's stock progress-based estimator —
/// this is what produces the "small `τ_est` over-estimates completion times
/// and speculates too eagerly" behaviour that Tables I and II document.
#[must_use]
pub fn trace_sim_config(seed: u64) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(1_000, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::HadoopDefault,
        progress_report_interval_secs: 1.0,
        seed,
        max_events: 0,
        sharding: ShardSpec::default(),
    }
}

/// Seed of the sharded benchmark workload ([`sharded_bench_stream`] /
/// [`sharded_bench_config`]).
pub const SHARDED_BENCH_SEED: u64 = 33;
/// Shard count of the sharded benchmark workload.
pub const SHARDED_BENCH_SHARDS: u32 = 16;
/// Tasks per job of the sharded benchmark workload.
pub const SHARDED_BENCH_TASKS_PER_JOB: u32 = 4;

/// The chunked Sort workload whose counters and digests
/// `tests/pinned_workload.rs` pins on every execution path. Scale it only
/// via `jobs`: the pinned literals hold for this exact shape.
#[must_use]
pub fn sharded_bench_stream(jobs: u32) -> WorkloadStream {
    let mut workload =
        TestbedWorkload::paper_setup(Benchmark::Sort, SHARDED_BENCH_SEED).with_jobs(jobs);
    workload.tasks_per_job = SHARDED_BENCH_TASKS_PER_JOB;
    workload.mean_interarrival_secs = 2.0;
    workload
        .stream(jobs.div_ceil(SHARDED_BENCH_SHARDS))
        .expect("valid workload")
}

/// The simulator configuration paired with [`sharded_bench_stream`]:
/// testbed-style 50×8 cluster, JVM overhead on, [`SHARDED_BENCH_SHARDS`]
/// shards, `workers` worker threads.
#[must_use]
pub fn sharded_bench_config(workers: u32) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::homogeneous(50, 8),
        jvm: JvmModel::default(),
        estimator: EstimatorKind::ChronosJvmAware,
        progress_report_interval_secs: 1.0,
        seed: SHARDED_BENCH_SEED,
        max_events: 0,
        sharding: ShardSpec::new(SHARDED_BENCH_SHARDS, workers),
    }
}

/// Checks command-line arguments (without the program name) against the
/// flags a binary accepts, each list space-separated: `switches` stand
/// alone, `valued` flags take the next argument or a joined `=value`.
/// Returns the positionals (neither flags nor flag values) in order.
///
/// # Errors
///
/// Names the first flag that is not accepted. A mistyped flag must not be
/// ignored: `--polcy s-resume` would otherwise silently run the default
/// policy and publish the wrong numbers.
pub fn check_flags<'a>(
    args: &'a [String],
    switches: &str,
    valued: &str,
) -> Result<Vec<&'a str>, String> {
    let listed = |list: &str, flag: &str| list.split_whitespace().any(|known| known == flag);
    let mut positionals = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        if listed(valued, arg) {
            args.next();
        } else if !arg.starts_with('-') {
            positionals.push(arg);
        } else if !listed(switches, arg)
            && !arg
                .split_once('=')
                .is_some_and(|(name, _)| listed(valued, name))
        {
            return Err(format!("unknown flag `{arg}`"));
        }
    }
    Ok(positionals)
}

/// The value of `flag` in `args`: the argument after it, or the text after
/// `flag=`. The first occurrence wins.
///
/// # Errors
///
/// A `flag` that ends the argument list has no value.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        if arg == flag {
            return args.next().map(Some).ok_or(format!("{flag} needs a value"));
        }
        if let Some(joined) = arg
            .strip_prefix(flag)
            .and_then(|rest| rest.strip_prefix('='))
        {
            return Ok(Some(joined));
        }
    }
    Ok(None)
}

/// Parses an optional `--trace <path>` flag from an explicit flag list
/// (testable form of [`trace_path_from_args`]). Accepts both the
/// space-separated (`--trace file`) and `=`-joined (`--trace=file`) forms.
///
/// # Errors
///
/// A `--trace` with no path is an error, not an absent flag: falling back
/// to synthetic data when the user asked for a file would silently publish
/// the wrong numbers.
pub fn trace_path_from_flags(flags: &[String]) -> Result<Option<PathBuf>, String> {
    match flag_value(flags, "--trace")? {
        Some("") => Err("--trace needs a path".into()),
        path => Ok(path.map(PathBuf::from)),
    }
}

/// Parses an optional `--trace <path>` flag from the process arguments.
/// The trace-driven binaries (`fig3`, `fig4`, `fig5`) use it to swap the
/// synthetic Google-style source for a `chronos-trace` v1 file. A dangling
/// `--trace` prints a diagnostic and exits 2 rather than silently running
/// the synthetic workload.
#[must_use]
pub fn trace_path_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    trace_path_from_flags(&args).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2);
    })
}

/// Loads a whole trace file into validated job specs.
///
/// # Errors
///
/// Propagates the loader's typed parse errors (naming line/column).
pub fn load_trace_jobs(path: &Path) -> Result<Vec<JobSpec>, TraceParseError> {
    TraceLoader::open(path)?.load()
}

/// [`load_trace_jobs`] with the experiment binaries' shared error handling:
/// a parse failure prints the typed diagnostic to stderr and exits 2.
#[must_use]
pub fn load_trace_jobs_or_exit(path: &Path) -> Vec<JobSpec> {
    load_trace_jobs(path).unwrap_or_else(|err| {
        eprintln!("failed to load trace {}: {err}", path.display());
        std::process::exit(2);
    })
}

/// The chunk size [`sharded_bench_stream`] shards `jobs` into; replays of a
/// trace file written from that stream must use the same value so the chunk
/// structure (= shard structure) matches and reports stay bit-comparable.
#[must_use]
pub fn sharded_bench_chunk_size(jobs: u32) -> u32 {
    jobs.div_ceil(SHARDED_BENCH_SHARDS)
}

/// Writes the [`sharded_bench_stream`] workload to `path` as a
/// `chronos-trace` v1 file, streaming chunk by chunk (the full spec list is
/// never materialized), so a file replay can be compared to the in-memory
/// run.
///
/// # Errors
///
/// Propagates [`TraceWriter`] failures.
pub fn write_sharded_bench_trace(path: &Path, jobs: u32) -> Result<(), TraceWriteError> {
    let mut writer = TraceWriter::create(path, Some(u64::from(jobs)))?;
    for chunk in sharded_bench_stream(jobs) {
        writer.write_all(&chunk)?;
    }
    writer.finish()?;
    Ok(())
}

/// Replays a trace file written by [`write_sharded_bench_trace`] through
/// `ShardedRunner::run` under [`sharded_bench_config`]
/// with the Hadoop-NS policy. Panics on any parse or simulation error
/// (test context).
#[must_use]
pub fn replay_sharded_bench_trace(path: &Path, jobs: u32, workers: u32) -> SimulationReport {
    let runner = ShardedRunner::new(sharded_bench_config(workers)).expect("valid config");
    let stream = TraceLoader::open(path)
        .expect("bench trace opens")
        .stream(sharded_bench_chunk_size(jobs))
        .expect("non-zero chunk size");
    runner
        .run(stream, RunOptions::default(), |_| {
            Box::new(HadoopNoSpec::default())
        })
        .expect("bench trace replays")
        .report
}

/// Experiment scale selected on the command line: `--quick` shrinks the
/// workloads for smoke runs, `--paper` uses the paper's full sizes, the
/// default is a middle ground that finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Scale {
    /// Tiny workloads for CI smoke tests.
    Quick,
    /// A few hundred jobs: the default.
    #[default]
    Standard,
    /// The paper's full workload sizes.
    Paper,
}

impl Scale {
    /// Parses the scale from process arguments (`--quick` / `--paper`).
    /// An unknown flag prints a diagnostic and exits 2.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Scale::from_flags(&args).unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        })
    }

    /// Parses the scale from an explicit argument list, program name first
    /// (testable form). `--quick` wins over `--paper`.
    ///
    /// # Errors
    ///
    /// Any flag besides `--quick`, `--paper` and `--trace <path>` (the set
    /// `all_experiments` forwards to every experiment binary).
    pub fn from_flags(flags: &[String]) -> Result<Self, String> {
        check_flags(
            flags.get(1..).unwrap_or_default(),
            "--quick --paper",
            "--trace",
        )
        .map_err(|err| format!("{err} (accepted: --quick, --paper, --trace <path>)"))?;
        Ok(if flags.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if flags.iter().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Standard
        })
    }

    /// Number of jobs per benchmark for the Figure 2 workload.
    #[must_use]
    pub fn fig2_jobs(&self) -> u32 {
        match self {
            Scale::Quick => 20,
            Scale::Standard | Scale::Paper => 100,
        }
    }

    /// Number of jobs in the synthetic Google trace.
    #[must_use]
    pub fn trace_jobs(&self) -> u32 {
        match self {
            Scale::Quick => 100,
            Scale::Standard => 500,
            Scale::Paper => 2_700,
        }
    }
}

/// One row of a printed table: a label plus one value per column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Row label (strategy name, parameter setting, …).
    pub label: String,
    /// Column values, aligned with the header passed to [`print_table`].
    pub values: Vec<f64>,
}

impl Row {
    /// Creates a row.
    #[must_use]
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Row {
            label: label.into(),
            values,
        }
    }
}

/// Prints a fixed-width table to stdout in the style of the paper's tables.
pub fn print_table(title: &str, columns: &[&str], rows: &[Row]) {
    println!("\n=== {title} ===");
    print!("{:<30}", "");
    for column in columns {
        print!("{column:>14}");
    }
    println!();
    for row in rows {
        print!("{:<30}", row.label);
        for value in &row.values {
            if value.is_finite() {
                print!("{value:>14.4}");
            } else {
                print!("{:>14}", "-inf");
            }
        }
        println!();
    }
}

/// Directory where experiment JSON output is written (`results/` at the
/// workspace root, overridable via `CHRONOS_RESULTS_DIR`).
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("CHRONOS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Serializes `value` as pretty JSON under [`results_dir`].
///
/// # Errors
///
/// Returns an [`std::io::Error`] if the directory cannot be created or the
/// file cannot be written.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    let json = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Reads back a JSON artifact written by [`write_json`]; used by the
/// integration tests to check the harness output is well-formed.
///
/// # Errors
///
/// Returns an [`std::io::Error`] when the file is missing or malformed.
pub fn read_json<T: for<'de> Deserialize<'de>>(path: &Path) -> std::io::Result<T> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(std::io::Error::other)
}

/// The standard five-policy line-up of Figure 2 (Hadoop-NS, Hadoop-S and the
/// three Chronos strategies) built for a given Chronos configuration over a
/// shared plan cache: the Chronos strategies memoize their optimizations
/// into `cache`, so repeated job profiles — within one run and across sweep
/// points reusing the cache — are solved once. Measurements are
/// bit-identical to unmemoized policies.
#[must_use]
pub fn figure2_lineup(
    config: ChronosPolicyConfig,
    cache: &Arc<PlanCache>,
) -> Vec<(PolicyKind, Box<dyn SpeculationPolicy>)> {
    lineup(
        &[
            PolicyKind::HadoopNoSpec,
            PolicyKind::HadoopSpeculate,
            PolicyKind::Clone,
            PolicyKind::SpeculativeRestart,
            PolicyKind::SpeculativeResume,
        ],
        config,
        cache,
    )
}

/// The four-policy line-up of Figure 3 (Mantri plus the three Chronos
/// strategies) over a shared plan cache (see [`figure2_lineup`]).
#[must_use]
pub fn figure3_lineup(
    config: ChronosPolicyConfig,
    cache: &Arc<PlanCache>,
) -> Vec<(PolicyKind, Box<dyn SpeculationPolicy>)> {
    lineup(
        &[
            PolicyKind::Mantri,
            PolicyKind::Clone,
            PolicyKind::SpeculativeRestart,
            PolicyKind::SpeculativeResume,
        ],
        config,
        cache,
    )
}

/// Builds `kinds`, unbudgeted, over one shared plan cache.
fn lineup(
    kinds: &[PolicyKind],
    config: ChronosPolicyConfig,
    cache: &Arc<PlanCache>,
) -> Vec<(PolicyKind, Box<dyn SpeculationPolicy>)> {
    let builder = PolicyBuilder::new(config).cached(Arc::clone(cache));
    kinds
        .iter()
        .map(|&kind| {
            let policy = builder
                .build(kind)
                .expect("unbudgeted builds are infallible");
            (kind, policy)
        })
        .collect()
}

/// FNV-1a 64 digest of a report's canonical JSON, as a hex string. Pinned
/// where a whole report is too large to compare (the plan-cache replay of
/// `tests/pinned_workload.rs`, `perfbench`'s fingerprint): a drifted digest
/// means the replay no longer reproduces the reference simulation byte for
/// byte.
///
/// The hashed bytes are exactly `serde_json::to_string(report)`. They are
/// streamed into the digest by [`report_json::write_report_json`] one job
/// at a time, so no JSON tree or string of the whole report is built.
#[must_use]
pub fn report_digest(report: &SimulationReport) -> String {
    let mut digest = Digest::default();
    report_json::write_report_json(report, report_json::JsonStyle::Compact, &mut digest)
        .expect("hashing into a digest cannot fail");
    digest.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::StrategyKind;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|arg| (*arg).to_string()).collect()
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::from_flags(&args(&["bin"])), Ok(Scale::Standard));
        assert_eq!(
            Scale::from_flags(&args(&["bin", "--quick"])),
            Ok(Scale::Quick)
        );
        assert_eq!(
            Scale::from_flags(&args(&["bin", "--paper"])),
            Ok(Scale::Paper)
        );
        assert_eq!(
            Scale::from_flags(&args(&["bin", "--paper", "--trace", "t.csv", "--quick"])),
            Ok(Scale::Quick)
        );
        assert!(Scale::Quick.fig2_jobs() < Scale::Paper.fig2_jobs());
        assert!(Scale::Quick.trace_jobs() < Scale::Paper.trace_jobs());
    }

    #[test]
    fn run_and_measure_small_workload() {
        let jobs = TestbedWorkload::paper_setup(Benchmark::Sort, 3)
            .with_jobs(5)
            .generate()
            .unwrap();
        let config = testbed_sim_config(1);
        let measurement = run_and_measure(
            &config,
            Box::new(HadoopNoSpec::default()),
            jobs,
            UtilitySpec::new(1e-4, 0.0),
        )
        .unwrap();
        assert_eq!(measurement.jobs, 5);
        assert_eq!(measurement.policy, "hadoop-ns");
        assert!(measurement.mean_machine_time > 0.0);
        assert!(measurement.pocd >= 0.0 && measurement.pocd <= 1.0);
        assert!(measurement.attempts >= 50);
    }

    #[test]
    fn chronos_policies_beat_baseline_pocd_on_testbed_workload() {
        let workload = TestbedWorkload::paper_setup(Benchmark::Sort, 11).with_jobs(30);
        let config = testbed_sim_config(5);
        let chronos = ChronosPolicyConfig::testbed();
        let baseline = run_and_measure(
            &config,
            Box::new(HadoopNoSpec::default()),
            workload.generate().unwrap(),
            UtilitySpec::new(1e-4, 0.0),
        )
        .unwrap();
        let resume = run_and_measure(
            &config,
            Box::new(ChronosPolicy::new(StrategyKind::SpeculativeResume, chronos)),
            workload.generate().unwrap(),
            UtilitySpec::new(1e-4, 0.0),
        )
        .unwrap();
        assert!(
            resume.pocd > baseline.pocd,
            "S-Resume {} should beat Hadoop-NS {}",
            resume.pocd,
            baseline.pocd
        );
    }

    #[test]
    fn lineups_have_expected_members() {
        let config = ChronosPolicyConfig::testbed();
        let cache = PlanCache::shared();
        let fig2 = figure2_lineup(config, &cache);
        assert_eq!(fig2.len(), 5);
        assert_eq!(fig2[0].0, PolicyKind::HadoopNoSpec);
        let fig3 = figure3_lineup(config, &cache);
        assert_eq!(fig3.len(), 4);
        assert_eq!(fig3[0].0, PolicyKind::Mantri);
    }

    #[test]
    fn scale_parsing_rejects_unknown_flags() {
        // A typo must not silently run Standard scale; the path after
        // `--trace` is a value, never a flag.
        let err = Scale::from_flags(&args(&["bin", "--trace", "-t.csv", "--quik"])).unwrap_err();
        assert!(err.starts_with("unknown flag `--quik`"), "{err}");
        // Positionals pass; `=value` joins only valued flags.
        let flags = args(&["in", "--check", "--out", "-x", "--out=y", "out"]);
        assert_eq!(
            check_flags(&flags, "--check", "--out"),
            Ok(vec!["in", "out"])
        );
        for bad in ["--chek", "--check=1", "-c"] {
            let err = check_flags(&args(&[bad]), "--check", "--out").unwrap_err();
            assert_eq!(err, format!("unknown flag `{bad}`"));
        }
    }

    #[test]
    fn trace_flag_parsing() {
        assert_eq!(trace_path_from_flags(&["bin".into()]), Ok(None));
        assert_eq!(
            trace_path_from_flags(&["bin".into(), "--trace".into(), "t.csv".into()]),
            Ok(Some(PathBuf::from("t.csv")))
        );
        assert_eq!(
            trace_path_from_flags(&["bin".into(), "--trace=t.csv".into()]),
            Ok(Some(PathBuf::from("t.csv")))
        );
        // A dangling flag is an error, never a silent synthetic fallback.
        assert!(trace_path_from_flags(&["bin".into(), "--trace".into()]).is_err());
        assert!(trace_path_from_flags(&["bin".into(), "--trace=".into()]).is_err());
    }

    #[test]
    fn bench_trace_round_trip_matches_in_memory_stream() {
        let jobs = 600u32;
        let dir = std::env::temp_dir().join(format!("chronos-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.trace");
        write_sharded_bench_trace(&path, jobs).unwrap();
        let loaded = load_trace_jobs(&path).unwrap();
        let in_memory: Vec<JobSpec> = sharded_bench_stream(jobs).flatten().collect();
        assert_eq!(loaded, in_memory);
        // Replaying the file equals replaying the in-memory stream.
        let replayed = replay_sharded_bench_trace(&path, jobs, 2);
        let runner = ShardedRunner::new(sharded_bench_config(1)).unwrap();
        let direct = runner
            .run(
                sharded_bench_stream(jobs).map(Ok::<_, std::convert::Infallible>),
                RunOptions::default(),
                |_| Box::new(HadoopNoSpec::default()),
            )
            .unwrap();
        assert_eq!(replayed, direct.report);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cached_lineups_measure_identically_to_uncached_ones() {
        let jobs = TestbedWorkload::paper_setup(Benchmark::Sort, 17)
            .with_jobs(10)
            .generate()
            .unwrap();
        let config = testbed_sim_config(9);
        let chronos = ChronosPolicyConfig::testbed();
        let cache = PlanCache::shared();
        for (kind, cached_policy) in figure3_lineup(chronos, &cache) {
            let strategy = StrategyKind::ALL
                .into_iter()
                .find(|strategy| strategy.label() == kind.label());
            let uncached_policy: Box<dyn SpeculationPolicy> = match strategy {
                Some(strategy) => Box::new(ChronosPolicy::uncached(strategy, chronos)),
                None => kind.build(chronos),
            };
            let a = run_policy(&config, cached_policy, jobs.clone()).unwrap();
            let b = run_policy(&config, uncached_policy, jobs.clone()).unwrap();
            assert_eq!(a, b, "{kind:?}");
            assert_eq!(report_digest(&a), report_digest(&b));
        }
        // The three Chronos strategies shared the cache: one profile each.
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn report_digest_separates_different_reports() {
        let jobs = |seed| {
            TestbedWorkload::paper_setup(Benchmark::Sort, seed)
                .with_jobs(5)
                .generate()
                .unwrap()
        };
        let config = testbed_sim_config(1);
        let a = run_policy(&config, Box::new(HadoopNoSpec::default()), jobs(3)).unwrap();
        let b = run_policy(&config, Box::new(HadoopNoSpec::default()), jobs(4)).unwrap();
        assert_eq!(report_digest(&a), report_digest(&a));
        assert_ne!(report_digest(&a), report_digest(&b));
    }

    #[test]
    fn json_round_trip() {
        let dir = std::env::temp_dir().join("chronos-bench-json-round-trip");
        std::env::set_var("CHRONOS_RESULTS_DIR", &dir);
        let rows = vec![Row::new("a", vec![1.0, 2.0]), Row::new("b", vec![3.0, 4.0])];
        let path = write_json("unit-test.json", &rows).unwrap();
        let back: Vec<Row> = read_json(&path).unwrap();
        assert_eq!(rows, back);
        std::env::remove_var("CHRONOS_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn print_table_handles_infinities() {
        // Smoke test: must not panic on -inf utilities.
        print_table(
            "smoke",
            &["PoCD", "Utility"],
            &[Row::new("hadoop-ns", vec![0.4, f64::NEG_INFINITY])],
        );
    }
}
