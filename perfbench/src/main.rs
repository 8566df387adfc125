//! The Chronos benchmark: the replay and admission paths, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--jobs <n>]
//! ```
//!
//! Workloads (`BENCHMARK.json` gives the reason for each):
//!
//! - `replay-sort`: a Sort trace (one job profile) replayed with `s-resume`
//!   at one worker. Loader, engine, shard setup and merge.
//! - `replay-google-budget`: a Google-style trace (a profile per job)
//!   replayed with `s-restart` under a budget of 64 copies per round, at one
//!   worker. Closed-form solves and the budget allocator.
//! - `serve-recurring`: a closed-loop client in front of a one-worker
//!   `PlanServer`, on recurring profiles. Queue, handoff, memo and cache
//!   hits.
//!
//! `--jobs` overrides the input size (jobs per trace, or profiles for
//! `serve-recurring`); the benchmark's own tests use it to run at tiny scale.
//!
//! Inputs derive from `--seed` only. A replay's trace file is written by a
//! child process (`perfbench gen ...`), so generating it does not count in
//! the measured process's peak RSS. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs an untraced and a traced half and prints the
//! per-layer metrics. Every replay and every decision is checked; the last
//! line of standard output is the JSON result.

mod alloc;
mod host;
mod replay;
mod serve;
mod stats;

use chronos_strategies::prelude::{PolicyKind, SpeculationBudget};
use replay::{Replay, Source};
use stats::{Outcome, Phases, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Jobs per replay of `replay-sort`.
const SORT_JOBS: u32 = 20_000;
/// Jobs per replay of `replay-google-budget`.
const GOOGLE_JOBS: u32 = 2_048;
/// Per-round speculation budget of `replay-google-budget`.
const GOOGLE_BUDGET: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReplaySort,
    ReplayGoogleBudget,
    ServeRecurring,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "replay-sort" => Ok(Workload::ReplaySort),
            "replay-google-budget" => Ok(Workload::ReplayGoogleBudget),
            "serve-recurring" => Ok(Workload::ServeRecurring),
            other => Err(format!(
                "unknown workload `{other}` (replay-sort, replay-google-budget, serve-recurring)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ReplaySort => "replay-sort",
            Workload::ReplayGoogleBudget => "replay-google-budget",
            Workload::ServeRecurring => "serve-recurring",
        }
    }

    fn replay(self) -> Option<(Replay, u32)> {
        match self {
            Workload::ReplaySort => Some((
                Replay {
                    source: Source::Sort,
                    kind: PolicyKind::SpeculativeResume,
                    budget: SpeculationBudget::Unlimited,
                    workers: 1,
                },
                SORT_JOBS,
            )),
            Workload::ReplayGoogleBudget => Some((
                Replay {
                    source: Source::Google,
                    kind: PolicyKind::SpeculativeRestart,
                    budget: SpeculationBudget::Limited(GOOGLE_BUDGET),
                    workers: 1,
                },
                GOOGLE_JOBS,
            )),
            Workload::ServeRecurring => None,
        }
    }
}

/// Command-line arguments of a measured run.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: Option<u32>,
}

fn flag_values(args: &[String], allowed: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        pairs.push((flag.clone(), value.clone()));
    }
    Ok(pairs)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse `{value}`"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut jobs = None;
    let allowed = ["--workload", "--seed", "--seconds", "--trace", "--jobs"];
    for (flag, value) in flag_values(args, &allowed)? {
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(parse(&flag, &value)?),
            "--seconds" => seconds = Some(parse::<f64>(&flag, &value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                })
            }
            _ => match parse::<u32>(&flag, &value)? {
                0 => return Err("--jobs: must be positive".to_string()),
                count => jobs = Some(count),
            },
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds: must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        jobs,
    })
}

/// `perfbench gen --workload W --seed S --jobs N --out PATH`: writes a
/// replay workload's trace file.
fn generate(args: &[String]) -> Result<(), String> {
    let allowed = ["--workload", "--seed", "--jobs", "--out"];
    let pairs = flag_values(args, &allowed)?;
    let value = |flag: &str| {
        pairs
            .iter()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value.as_str())
            .ok_or(format!("gen needs {flag}"))
    };
    let workload = Workload::parse(value("--workload")?)?;
    let (replay, _) = workload
        .replay()
        .ok_or("gen: only replay workloads read a trace")?;
    replay::write_trace(
        replay.source,
        parse("--seed", value("--seed")?)?,
        parse("--jobs", value("--jobs")?)?,
        Path::new(value("--out")?),
    )
}

/// Writes the trace in a child process and waits for it.
fn generate_in_child(args: &Args, jobs: u32, out: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|err| format!("locating the binary: {err}"))?;
    let status = Command::new(exe)
        .args(["gen", "--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .arg("--jobs")
        .arg(jobs.to_string())
        .arg("--out")
        .arg(out)
        .status()
        .map_err(|err| format!("starting the generator: {err}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("the generator failed: {status}"))
    }
}

/// Scratch directory for generated inputs, next to the binary (inside the
/// build directory of the checkout).
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|err| format!("locating the binary: {err}"))?;
    let dir = exe
        .parent()
        .ok_or("the binary has no parent directory")?
        .join("perfbench-inputs");
    std::fs::create_dir_all(&dir).map_err(|err| format!("creating {}: {err}", dir.display()))?;
    Ok(dir)
}

fn measure(args: &Args) -> Outcome {
    let phases = Phases {
        seconds: args.seconds,
        trace: args.trace,
    };
    let Some((replay, default_jobs)) = args.workload.replay() else {
        let profiles = args.jobs.unwrap_or(serve::PROFILES);
        let mut outcome = serve::run(args.seed, profiles, phases);
        outcome.note("input_profiles", profiles.to_string());
        outcome.note("workers", "1".to_string());
        return outcome;
    };
    let jobs = args.jobs.unwrap_or(default_jobs);
    let input = match work_dir() {
        Ok(dir) => dir.join(format!("trace-{}-{}.csv", std::process::id(), args.seed)),
        Err(err) => return Outcome::failed(err),
    };
    let mut outcome = match generate_in_child(args, jobs, &input) {
        Ok(()) => replay.run(&input, phases),
        Err(err) => Outcome::failed(err),
    };
    // Best effort: a leftover input only costs disk space.
    let _ = std::fs::remove_file(&input);
    outcome.note("input_jobs", jobs.to_string());
    outcome.note("workers", replay.workers.to_string());
    outcome
}

/// Formats a metric value as a JSON number (non-finite values read 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ch if u32::from(ch) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(ch))),
            ch => out.push(ch),
        }
    }
    out.push('"');
    out
}

fn print_result(args: &Args, outcome: &mut Outcome) {
    let ok = outcome.attempted.saturating_sub(outcome.failed);
    let ok_frac = ok as f64 / outcome.attempted.max(1) as f64;
    outcome.end_to_end.set("ok_frac", ok_frac);
    let (declared, ledger) = if args.trace {
        (PER_LAYER, &outcome.per_layer)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    for error in &outcome.errors {
        eprintln!("check failed: {error}");
    }
    for &(name, unit) in declared {
        println!(
            "{name:<28} {:>20} {unit}",
            json_number(ledger.get(name).unwrap_or(0.0))
        );
    }

    let mut provenance = vec![
        ("workload", json_string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", json_number(args.seconds)),
        ("nproc", host::online_cpus().to_string()),
        ("cpu_model", json_string(&host::cpu_model())),
        ("git_commit", json_string(&host::git_commit())),
        ("rustc", json_string(host::rustc_version())),
    ];
    provenance.extend(
        outcome
            .notes
            .iter()
            .map(|(key, value)| (*key, json_string(value))),
    );
    let fields: Vec<String> = provenance
        .iter()
        .map(|(key, value)| format!("{}: {value}", json_string(key)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", fields.join(", "));

    let metrics: Vec<String> = declared
        .iter()
        .map(|&(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(ledger.get(name).unwrap_or(0.0)),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

/// Re-runs this command in a child pinned to one CPU with `taskset`, and
/// returns the child's exit status; `None` when `taskset` cannot run.
///
/// Every workload keeps one thread busy at a time: the replays run one
/// worker, and the admission loop is closed, so its client and worker are
/// never runnable at once. Across two CPUs every handoff wakes an idle one,
/// and on a virtual machine whose idle vCPUs halt, that wake-up waits for
/// the host's scheduler: milliseconds under co-tenant load, a delay no
/// change to the program can move.
fn run_pinned(args: &[String]) -> Option<ExitCode> {
    let exe = std::env::current_exe().ok()?;
    let cpu = host::first_allowed_cpu()?;
    let status = Command::new("taskset")
        .args(["--cpu-list", &cpu.to_string()])
        .arg(exe)
        .arg("pinned")
        .args(args)
        .status()
        .ok()?;
    Some(match status.code() {
        Some(0) => ExitCode::SUCCESS,
        Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        None => ExitCode::FAILURE,
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gen") {
        return match generate(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("perfbench gen: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let pinned = args.first().map(String::as_str) == Some("pinned");
    if pinned {
        args.remove(0);
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!(
                "perfbench: {err}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--jobs <n>]"
            );
            return ExitCode::from(2);
        }
    };
    if !pinned {
        if let Some(code) = run_pinned(&args) {
            return code;
        }
    }
    let mut outcome = measure(&parsed);
    outcome.note("pinned_to_one_cpu", pinned.to_string());
    print_result(&parsed, &mut outcome);
    ExitCode::SUCCESS
}
