//! Streamed report JSON: a [`SimulationReport`]'s compact or pretty JSON,
//! byte-identical to `serde_json::to_string` / `to_string_pretty`, written
//! into any [`Write`] sink one job at a time.
//!
//! The vendored serde lowers a value into an owned JSON tree before it
//! writes a byte, which for a whole report costs about a kilobyte per job
//! on top of the output string. Here only the report's head (every field
//! with `jobs` left empty) and one [`JobMetrics`] at a time are serialized;
//! the job entries are spliced in where the head's empty `jobs` object
//! stands. Memory is bounded by one job's JSON, whatever the job count.
//!
//! ```
//! use chronos_bench::report_json::{write_report_json, JsonStyle};
//! use chronos_sim::prelude::SimulationReport;
//!
//! let report = SimulationReport::default();
//! let mut bytes = Vec::new();
//! write_report_json(&report, JsonStyle::Compact, &mut bytes).unwrap();
//! assert_eq!(bytes, serde_json::to_string(&report).unwrap().into_bytes());
//! ```

use chronos_sim::prelude::{JobMetrics, SimulationReport};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// The two layouts `serde_json` writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonStyle {
    /// No whitespace, as `serde_json::to_string`.
    Compact,
    /// Two-space indentation, as `serde_json::to_string_pretty`.
    Pretty,
}

/// Writes `report` as JSON in `style` into `out`, byte for byte what
/// `serde_json` would return for the whole report, without building that
/// report's JSON tree or string.
///
/// # Errors
///
/// Any error `out` returns.
pub fn write_report_json<W: Write>(
    report: &SimulationReport,
    style: JsonStyle,
    out: &mut W,
) -> io::Result<()> {
    // Both the pattern and the literal name every field without `..`, so a
    // new report field fails to compile here instead of going missing
    // from the output.
    let SimulationReport {
        policy,
        jobs,
        events_dispatched,
        events_stale,
        ended_at,
        latency,
    } = report;
    let head = SimulationReport {
        policy: policy.clone(),
        jobs: BTreeMap::new(),
        events_dispatched: *events_dispatched,
        events_stale: *events_stale,
        ended_at: *ended_at,
        latency: latency.clone(),
    };
    let (head, empty_jobs) = match style {
        JsonStyle::Compact => (serde_json::to_string(&head), "\"jobs\":{}"),
        JsonStyle::Pretty => (serde_json::to_string_pretty(&head), "\"jobs\": {}"),
    };
    let head = head.map_err(io::Error::other)?;
    // A quote that follows `s` cannot sit inside an escaped JSON string, so
    // the first match is the `jobs` key itself. Split just inside its `{}`.
    let split = head
        .find(empty_jobs)
        .map(|at| at + empty_jobs.len() - 1)
        .ok_or_else(|| io::Error::other("report JSON has no empty `jobs` object"))?;
    out.write_all(&head.as_bytes()[..split])?;
    for (index, (id, job)) in jobs.iter().enumerate() {
        if index > 0 {
            out.write_all(b",")?;
        }
        match style {
            JsonStyle::Compact => {
                write!(out, "\"{}\":", id.raw())?;
                out.write_all(job_json(job, style)?.as_bytes())?;
            }
            JsonStyle::Pretty => {
                // Entries sit two levels deep: four more spaces of indent
                // after every line break of the job's own pretty JSON.
                write!(out, "\n    \"{}\": ", id.raw())?;
                out.write_all(job_json(job, style)?.replace('\n', "\n    ").as_bytes())?;
            }
        }
    }
    if style == JsonStyle::Pretty && !jobs.is_empty() {
        out.write_all(b"\n  ")?;
    }
    out.write_all(&head.as_bytes()[split..])
}

/// One job's JSON at the top level, in `style`.
fn job_json(job: &JobMetrics, style: JsonStyle) -> io::Result<String> {
    match style {
        JsonStyle::Compact => serde_json::to_string(job),
        JsonStyle::Pretty => serde_json::to_string_pretty(job),
    }
    .map_err(io::Error::other)
}
