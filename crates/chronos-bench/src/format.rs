//! The one formatter behind every greppable `trace_tool` summary line.
//!
//! Checks pin several of these strings verbatim (`tests/trace_tool_cli.rs`
//! looks for `planned 7 jobs at 8 workers (7 feasible)`; in
//! `ci/cli_smoke.sh`, `budget-smoke` extracts `allocation digest: …` and
//! `obs-smoke` compares `decision trace digest: …` across worker counts),
//! and humans grep the rest. Before this module each
//! subcommand carried its own `println!` copies, so two commands could
//! drift apart silently — `replay` and `serve-replay` once rendered the
//! same cache stats under different prefixes. Every summary line now has
//! exactly one producer, the tests below pin the exact strings CI depends
//! on, and a new subcommand gets the same vocabulary by calling these
//! functions instead of re-inventing it.
//!
//! Functions return `String`s rather than printing so the binaries decide
//! the destination (stdout, a `--out` sidecar, a log file) and tests can
//! assert byte-exactness without capturing stdout.

use chronos_plan::{CacheStats, LedgerSummary};
use chronos_sim::prelude::LatencyHistogram;
use chronos_trace::prelude::CensusSummary;
use std::fmt::Write as _;
use std::path::Path;

/// The `plan cache [label]: …` line of a replay whose policy never touched
/// the cache (the baselines: they do not optimize, so lookups stay zero).
#[must_use]
pub fn plan_cache_untouched_line(label: &str) -> String {
    format!("plan cache [{label}]: policy does not optimize; cache untouched")
}

/// The `plan cache [label]: …` line of an optimizing replay: `misses` is
/// the number of optimizer solves actually paid (one per distinct
/// profile); every other job reused a plan.
#[must_use]
pub fn plan_cache_line(label: &str, misses: u64, jobs: u64, stats: &CacheStats) -> String {
    let saved = jobs.saturating_sub(misses);
    format!(
        "plan cache [{label}]: {misses} optimizer solves for {jobs} jobs ({:.2}% saved); {stats}",
        100.0 * saved as f64 / jobs.max(1) as f64,
    )
}

/// The speculation-budget summary line of a budgeted replay.
#[must_use]
pub fn budget_summary_line(tokens: u64, summary: &LedgerSummary) -> String {
    format!(
        "speculation budget [{tokens}/round]: granted {} of {} requested copies \
         across {} rounds ({} jobs, {} infeasible)",
        summary.spent, summary.requested, summary.batches, summary.jobs, summary.infeasible,
    )
}

/// The allocation-ledger digest line (`budget-smoke` extracts the hex
/// digest from it and pins worker-count invariance).
#[must_use]
pub fn allocation_digest_line(digest: &str) -> String {
    format!("allocation digest: {digest}")
}

/// The decision-count header of a serve replay (`tests/trace_tool_cli.rs`
/// pins it verbatim).
#[must_use]
pub fn planned_jobs_line(jobs: usize, workers: u32, feasible: usize) -> String {
    format!("planned {jobs} jobs at {workers} workers ({feasible} feasible)")
}

/// The serve decisions digest line (`tests/trace_tool_cli.rs` pins it).
#[must_use]
pub fn decisions_digest_line(digest: &str) -> String {
    format!("decisions digest: {digest}")
}

/// The decision-trace digest line (`obs-smoke` pins it across worker
/// counts).
#[must_use]
pub fn decision_trace_digest_line(digest: &str) -> String {
    format!("decision trace digest: {digest}")
}

/// The informational wall-clock latency line of a serve replay. The
/// quantiles are upper bounds from the log₂ histogram; `n/a` when nothing
/// was recorded.
#[must_use]
pub fn serve_latency_line(latency: &LatencyHistogram) -> String {
    let quantile = |q: f64| {
        latency
            .quantile_upper_bound(q)
            .map_or_else(|| "n/a".to_string(), |us| format!("{us:.0} us"))
    };
    format!(
        "latency (informational): p50 <= {}, p99 <= {}, saturated: {}",
        quantile(0.5),
        quantile(0.99),
        latency.saturated()
    )
}

/// The serve replay's plan-cache stats line.
#[must_use]
pub fn serve_cache_line(stats: &CacheStats) -> String {
    format!("plan cache: {stats}")
}

/// The multi-line distinct-profile census block shared by `stats` and the
/// post-conversion report of `convert` (no trailing newline).
#[must_use]
pub fn census_block(trace: &Path, summary: &CensusSummary) -> String {
    let mut block = String::new();
    let _ = writeln!(block, "trace:             {}", trace.display());
    let _ = writeln!(block, "jobs:              {}", summary.jobs);
    let _ = writeln!(block, "distinct profiles: {}", summary.distinct_profiles);
    let _ = writeln!(block, "unplannable jobs:  {}", summary.unplannable_jobs);
    let _ = writeln!(block, "largest class:     {} jobs", summary.largest_class);
    let _ = write!(
        block,
        "max cache hit rate: {:.2}% (a planner-backed replay can skip at most this fraction of optimizer solves)",
        100.0 * summary.max_hit_rate
    );
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_pinned_lines_are_byte_exact() {
        // tests/trace_tool_cli.rs looks for this exact string.
        assert_eq!(
            planned_jobs_line(7, 8, 7),
            "planned 7 jobs at 8 workers (7 feasible)"
        );
        assert_eq!(
            decisions_digest_line("3969606c572cc471"),
            "decisions digest: 3969606c572cc471"
        );
        // budget-smoke extracts the digest with
        // `grep -o 'allocation digest: [0-9a-f]*'`.
        assert_eq!(
            allocation_digest_line("00ff00ff00ff00ff"),
            "allocation digest: 00ff00ff00ff00ff"
        );
        // obs-smoke pins this one the same way.
        assert_eq!(
            decision_trace_digest_line("cbf29ce484222325"),
            "decision trace digest: cbf29ce484222325"
        );
    }

    #[test]
    fn cache_lines_match_the_historical_replay_output() {
        assert_eq!(
            plan_cache_untouched_line("hadoop-ns"),
            "plan cache [hadoop-ns]: policy does not optimize; cache untouched"
        );
        let stats = CacheStats {
            hits: 59,
            misses: 1,
            evictions: 0,
            entries: 1,
        };
        let line = plan_cache_line("clone", stats.misses, 30, &stats);
        assert!(
            line.starts_with("plan cache [clone]: 1 optimizer solves for 30 jobs (96.67% saved); "),
            "{line}"
        );
        assert_eq!(serve_cache_line(&stats), format!("plan cache: {stats}"));
    }

    #[test]
    fn latency_line_handles_the_empty_histogram() {
        let line = serve_latency_line(&LatencyHistogram::new());
        assert_eq!(
            line,
            "latency (informational): p50 <= n/a, p99 <= n/a, saturated: false"
        );
    }

    #[test]
    fn census_block_is_the_stats_subcommand_shape() {
        let summary = CensusSummary {
            jobs: 50,
            distinct_profiles: 1,
            unplannable_jobs: 0,
            largest_class: 50,
            max_hit_rate: 0.98,
        };
        let block = census_block(Path::new("/tmp/x.trace"), &summary);
        assert!(
            block.starts_with("trace:             /tmp/x.trace\n"),
            "{block}"
        );
        assert!(block.contains("\njobs:              50\n"), "{block}");
        assert!(block.ends_with("of optimizer solves)"), "{block}");
        assert_eq!(block.lines().count(), 6);
    }

    #[test]
    fn budget_line_matches_the_historical_replay_output() {
        let summary = LedgerSummary {
            jobs: 7,
            requested: 14,
            spent: 4,
            infeasible: 1,
            batches: 2,
        };
        assert_eq!(
            budget_summary_line(2, &summary),
            "speculation budget [2/round]: granted 4 of 14 requested copies \
             across 2 rounds (7 jobs, 1 infeasible)"
        );
    }
}
