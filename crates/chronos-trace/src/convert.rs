//! Foreign trace ingestion: streaming converters that turn other systems'
//! trace files into validated `chronos-trace` v1.
//!
//! The paper's large-scale evaluation (Figures 3–5) replays 30 hours of the
//! public 2011 Google cluster trace with per-job Pareto fits. The
//! [`crate::loader`] module defines our own on-disk format; this module is
//! how traces recorded by *other* systems reach it. A [`TraceConverter`]
//! reads a foreign file front to back, aggregates it in bounded memory and
//! emits a v1 trace through [`TraceWriter`] — so the converted file
//! inherits every loader guarantee for free: validated [`JobSpec`]s, unique
//! job ids, submission-sorted rows, and a bit-exact write → load round
//! trip that replays identically at any worker count.
//!
//! # The `google-2011` schema
//!
//! [`GoogleClusterTraceConverter`] ingests the `task_events` table of the
//! 2011 Google cluster trace (the `clusterdata-2011` format): one CSV row
//! per task state transition, no header line, with at least the six
//! leading fields
//!
//! ```text
//! timestamp_us, missing_info, job_id, task_index, machine_id, event_type, ...
//! ```
//!
//! where `timestamp_us` is microseconds since trace start and `event_type`
//! is `0` SUBMIT, `1` SCHEDULE, `2` EVICT, `3` FAIL, `4` FINISH, `5` KILL,
//! `6` LOST, `7`/`8` UPDATE. Fields beyond the sixth (user, scheduling
//! class, priority, resource requests) are carried by the real trace but
//! not consumed here; `missing_info` and `machine_id` may be empty. The
//! `job_events` table adds nothing the simulator needs — a job's
//! submission instant is the earliest SUBMIT among its tasks.
//!
//! # Aggregation and the Pareto fit
//!
//! Events are grouped per job in one pass (memory is `O(jobs + tasks)`,
//! never `O(events)`): SUBMIT registers a task and keeps the job's
//! earliest submission, SCHEDULE starts an attempt, EVICT/FAIL/KILL/LOST
//! abandon it, and the first FINISH of each task contributes one duration
//! `finish − schedule`. A job with no completed task (e.g. killed outright)
//! is skipped and counted in [`ConvertSummary::skipped_jobs`].
//!
//! Each surviving job is then fitted the way [`crate::google`] documents —
//! a Pareto distribution matched to the per-job duration statistics, with
//! the deadline a configurable multiple of the mean task time (2× by
//! default, the Figure 4 setting). The fit is by method of moments:
//!
//! * `t_min` = the job's minimum observed task duration,
//! * `β` = `mean / (mean − t_min)`, which makes the fitted mean
//!   `t_min·β/(β−1)` reproduce the observed mean exactly,
//! * a degenerate sample (a single completed task, or zero spread) falls
//!   back to the tight tail index [`DEGENERATE_BETA`].
//!
//! Submission times are rebased so the earliest emitted job submits at
//! `0 s`; jobs keep their original Google job ids (unique because the
//! aggregation groups by id) and are emitted sorted by submission time
//! with ties broken by id. Special boundary timestamps (`0` for "before
//! trace start", `2⁶³−1` for "after trace end") receive no special
//! treatment — a checked-in excerpt should be trimmed to whole jobs.
//!
//! # Errors
//!
//! Every malformed input is a typed [`ConvertError`] naming the 1-based
//! line of the offending event row (and the column for field-level
//! failures), mirroring [`crate::loader::TraceParseError`].
//!
//! # Example
//!
//! ```
//! use chronos_trace::convert::{GoogleClusterTraceConverter, TraceConverter};
//! use chronos_trace::loader::TraceLoader;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One job (id 42), two tasks, durations 8 s and 12 s.
//! let raw = "\
//! 0,,42,0,,0,user,0,0,,,,\n\
//! 0,,42,1,,0,user,0,0,,,,\n\
//! 1000000,,42,0,5,1,user,0,0,0.1,0.1,0.01,0\n\
//! 2000000,,42,1,6,1,user,0,0,0.1,0.1,0.01,0\n\
//! 9000000,,42,0,5,4,user,0,0,,,,\n\
//! 14000000,,42,1,6,4,user,0,0,,,,\n";
//! let mut v1 = Vec::new();
//! let summary = GoogleClusterTraceConverter::new().convert(&mut raw.as_bytes(), &mut v1)?;
//! assert_eq!((summary.jobs, summary.tasks, summary.skipped_jobs), (1, 2, 0));
//!
//! // The emitted file is validated chronos-trace v1: load it back and
//! // check the method-of-moments fit (min 8 s, mean 10 s).
//! let spec = &TraceLoader::from_reader(v1.as_slice())?.load()?[0];
//! assert_eq!(spec.id.raw(), 42);
//! assert_eq!(spec.profile.t_min(), 8.0); // observed minimum
//! assert_eq!(spec.profile.beta(), 5.0); // mean/(mean − t_min) = 10/2
//! assert_eq!(spec.deadline_secs, 20.0); // 2 × fitted mean
//! # Ok(())
//! # }
//! ```

use crate::loader::{TraceWriteError, TraceWriter, MAX_MAP_TASKS};
use chronos_core::{ChronosError, Pareto};
use chronos_sim::prelude::{JobId, JobSpec, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// The command-line label of the 2011 Google cluster-trace format.
pub const GOOGLE_2011_FORMAT: &str = "google-2011";

/// Every foreign format label a [`converter_for`] call recognises.
pub const FORMATS: &[&str] = &[GOOGLE_2011_FORMAT];

/// Tail index assigned when a job's duration sample is degenerate (a
/// single completed task, or all durations equal): a tight Pareto whose
/// mean is only `8/7 ≈ 1.14×` its `t_min`.
pub const DEGENERATE_BETA: f64 = 8.0;

/// The leading `task_events` fields every row must carry (through
/// `event_type`); the real trace appends seven more that are not consumed.
const TASK_EVENT_MIN_FIELDS: usize = 6;

/// Microseconds per second: `task_events` timestamps are integer µs.
const US_PER_SEC: f64 = 1_000_000.0;

/// A typed foreign-trace conversion failure, naming the offending 1-based
/// input line (and 1-based column for field-level failures).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConvertError {
    /// An underlying I/O failure (message form of [`std::io::Error`]).
    Io {
        /// Line being read when the failure occurred.
        line: usize,
        /// The I/O error's message.
        message: String,
    },
    /// A row does not have the shape the foreign schema requires.
    Row {
        /// Offending line.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A field is missing, unparsable or out of its domain.
    Field {
        /// Offending line.
        line: usize,
        /// 1-based column index of the field.
        column: usize,
        /// Field name in the foreign schema.
        name: String,
        /// What was wrong (includes the raw text where useful).
        message: String,
    },
    /// An event type code outside the foreign schema's enumeration.
    UnknownEventType {
        /// Offending line.
        line: usize,
        /// The unrecognised code.
        event_type: u32,
    },
    /// An event referencing a job or task that was never submitted, or a
    /// FINISH without a pending SCHEDULE.
    OrphanEvent {
        /// Offending line.
        line: usize,
        /// The event's job id.
        job_id: u64,
        /// The event's task index.
        task_index: u64,
        /// Why the event cannot be applied.
        message: String,
    },
    /// A task finished at or before the instant it was scheduled: no
    /// positive duration can be derived.
    NonPositiveDuration {
        /// Offending line.
        line: usize,
        /// The task's job id.
        job_id: u64,
        /// The task's index.
        task_index: u64,
    },
    /// A job carries more tasks than a v1 row may declare
    /// ([`MAX_MAP_TASKS`]).
    TooManyTasks {
        /// The oversized job.
        job_id: u64,
        /// Its task count.
        tasks: u64,
    },
    /// Emitting the converted rows failed (the wrapped
    /// [`TraceWriteError`]).
    Write(TraceWriteError),
}

impl ConvertError {
    /// The 1-based input line the error points at (0 for failures that
    /// have no single line, like write-side errors).
    #[must_use]
    pub fn line(&self) -> usize {
        match self {
            ConvertError::TooManyTasks { .. } | ConvertError::Write(_) => 0,
            ConvertError::Io { line, .. }
            | ConvertError::Row { line, .. }
            | ConvertError::Field { line, .. }
            | ConvertError::UnknownEventType { line, .. }
            | ConvertError::OrphanEvent { line, .. }
            | ConvertError::NonPositiveDuration { line, .. } => *line,
        }
    }
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Line 0 means "no single input line" (file open/rename
            // failures): naming it would send users hunting for a line
            // that does not exist.
            ConvertError::Io { line: 0, message } => write!(f, "I/O error: {message}"),
            ConvertError::Io { line, message } => {
                write!(f, "line {line}: I/O error: {message}")
            }
            ConvertError::Row { line, message } => {
                write!(f, "line {line}: malformed event row: {message}")
            }
            ConvertError::Field {
                line,
                column,
                name,
                message,
            } => write!(f, "line {line}, column {column} (`{name}`): {message}"),
            ConvertError::UnknownEventType { line, event_type } => write!(
                f,
                "line {line}: unknown event type {event_type} (the task_events schema defines 0..=8)"
            ),
            ConvertError::OrphanEvent {
                line,
                job_id,
                task_index,
                message,
            } => write!(
                f,
                "line {line}: orphan event for job {job_id} task {task_index}: {message}"
            ),
            ConvertError::NonPositiveDuration {
                line,
                job_id,
                task_index,
            } => write!(
                f,
                "line {line}: job {job_id} task {task_index} finished at or before its schedule instant: no positive duration can be derived"
            ),
            ConvertError::TooManyTasks { job_id, tasks } => write!(
                f,
                "job {job_id} has {tasks} tasks, more than the v1 per-job limit of {MAX_MAP_TASKS}"
            ),
            ConvertError::Write(err) => write!(f, "writing converted trace: {err}"),
        }
    }
}

impl std::error::Error for ConvertError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConvertError::Write(err) => Some(err),
            _ => None,
        }
    }
}

impl From<TraceWriteError> for ConvertError {
    fn from(err: TraceWriteError) -> Self {
        ConvertError::Write(err)
    }
}

/// What a conversion produced, in serializable form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvertSummary {
    /// Foreign event rows consumed (blank lines excluded).
    pub events: u64,
    /// Jobs emitted into the v1 trace.
    pub jobs: u64,
    /// Map tasks across the emitted jobs.
    pub tasks: u64,
    /// Jobs dropped because no task of theirs ever finished (killed or
    /// lost outright) — they carry no duration statistics to fit.
    pub skipped_jobs: u64,
    /// First-to-last submission span of the emitted trace, seconds.
    pub span_secs: f64,
}

/// A streaming, bounded-memory converter from one foreign trace format
/// into validated `chronos-trace` v1.
///
/// Implementations read the foreign file front to back (never holding the
/// raw events), emit through [`TraceWriter`] (inheriting its validation
/// and bit-exact round trip), and report typed [`ConvertError`]s naming
/// the offending input line. The trait is object-safe so front ends like
/// `trace_tool convert` can dispatch on a format label via
/// [`converter_for`].
pub trait TraceConverter {
    /// The format label this converter accepts (e.g. `google-2011`).
    fn format(&self) -> &'static str;

    /// One-line human description of the foreign schema.
    fn description(&self) -> &'static str;

    /// Converts `input` (a foreign trace) into a v1 trace on `output`.
    ///
    /// # Errors
    ///
    /// A [`ConvertError`] naming the first offending input line, or
    /// wrapping the first write-side failure.
    fn convert(
        &self,
        input: &mut dyn BufRead,
        output: &mut dyn Write,
    ) -> Result<ConvertSummary, ConvertError>;

    /// Converts the file at `input` into a v1 trace file at `output`,
    /// buffering both ends. The conversion is staged through an
    /// `<output>.partial` sibling and renamed over `output` only on
    /// success, so a failed conversion never clobbers (or leaves a
    /// half-written file at) an existing path — mirroring the replay
    /// path's "no report on failure" contract.
    ///
    /// # Errors
    ///
    /// [`ConvertError::Io`] when either file cannot be opened (or the
    /// staging file cannot be renamed into place), plus every
    /// [`TraceConverter::convert`] failure.
    fn convert_files(&self, input: &Path, output: &Path) -> Result<ConvertSummary, ConvertError> {
        let source = File::open(input).map_err(|err| ConvertError::Io {
            line: 0,
            message: format!("{}: {err}", input.display()),
        })?;
        let file_name = output.file_name().unwrap_or_default().to_string_lossy();
        let staging = output.with_file_name(format!("{file_name}.partial"));
        let staged = (|| {
            let sink = File::create(&staging).map_err(|err| ConvertError::Io {
                line: 0,
                message: format!("{}: {err}", staging.display()),
            })?;
            let mut reader = BufReader::new(source);
            let mut writer = BufWriter::new(sink);
            let summary = self.convert(&mut reader, &mut writer)?;
            writer.flush().map_err(|err| ConvertError::Io {
                line: 0,
                message: format!("{}: {err}", staging.display()),
            })?;
            Ok(summary)
        })();
        match staged {
            Ok(summary) => {
                std::fs::rename(&staging, output).map_err(|err| ConvertError::Io {
                    line: 0,
                    message: format!(
                        "renaming {} -> {}: {err}",
                        staging.display(),
                        output.display()
                    ),
                })?;
                Ok(summary)
            }
            Err(err) => {
                let _ = std::fs::remove_file(&staging);
                Err(err)
            }
        }
    }
}

/// Looks up the converter registered under a format label (see
/// [`FORMATS`]), configured with its defaults.
#[must_use]
pub fn converter_for(format: &str) -> Option<Box<dyn TraceConverter>> {
    match format {
        GOOGLE_2011_FORMAT => Some(Box::new(GoogleClusterTraceConverter::new())),
        _ => None,
    }
}

/// The `task_events` state-transition codes of the 2011 trace format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventType {
    Submit,
    Schedule,
    Evict,
    Fail,
    Finish,
    Kill,
    Lost,
    UpdatePending,
    UpdateRunning,
}

impl EventType {
    fn from_code(code: u32) -> Option<Self> {
        match code {
            0 => Some(EventType::Submit),
            1 => Some(EventType::Schedule),
            2 => Some(EventType::Evict),
            3 => Some(EventType::Fail),
            4 => Some(EventType::Finish),
            5 => Some(EventType::Kill),
            6 => Some(EventType::Lost),
            7 => Some(EventType::UpdatePending),
            8 => Some(EventType::UpdateRunning),
            _ => None,
        }
    }
}

/// Per-task aggregation state: the in-flight attempt and whether a
/// duration was already collected (only the first completion counts).
#[derive(Debug, Default)]
struct TaskAgg {
    scheduled_at_us: Option<u64>,
    completed: bool,
}

/// Per-job aggregation state: everything the fit needs, nothing more.
#[derive(Debug)]
struct JobAgg {
    first_submit_us: u64,
    tasks: HashMap<u64, TaskAgg>,
    completed: u64,
    sum_duration_us: u64,
    min_duration_us: u64,
}

/// Converter for the 2011 Google cluster-trace `task_events` CSV schema.
/// See the [module docs](self) for the schema, the aggregation rules and
/// the Pareto fit.
#[derive(Debug, Clone, PartialEq)]
pub struct GoogleClusterTraceConverter {
    deadline_factor: f64,
}

impl GoogleClusterTraceConverter {
    /// A converter with the paper's Figure 4 deadline setting: each job's
    /// deadline is twice its fitted mean task time.
    #[must_use]
    pub fn new() -> Self {
        GoogleClusterTraceConverter {
            deadline_factor: 2.0,
        }
    }

    /// Replaces the deadline factor (the multiple of the fitted mean task
    /// time each emitted job gets as its deadline).
    ///
    /// # Errors
    ///
    /// [`ChronosError::InvalidParameter`] unless `factor` is finite and
    /// greater than 1 (a deadline at or below the mean leaves no room for
    /// any strategy).
    pub fn with_deadline_factor(mut self, factor: f64) -> Result<Self, ChronosError> {
        if !(factor.is_finite() && factor > 1.0) {
            return Err(ChronosError::invalid(
                "deadline_factor",
                factor,
                "a finite value > 1",
            ));
        }
        self.deadline_factor = factor;
        Ok(self)
    }

    /// The configured deadline factor.
    #[must_use]
    pub fn deadline_factor(&self) -> f64 {
        self.deadline_factor
    }

    /// Applies one event row to the aggregation state.
    fn consume_event(
        &self,
        text: &str,
        line: usize,
        jobs: &mut HashMap<u64, JobAgg>,
    ) -> Result<(), ConvertError> {
        // Only the first six fields are consumed; splitting lazily into a
        // fixed array keeps the per-event hot loop allocation-free (the
        // real 30-hour trace has ~10⁸ rows).
        let mut split = text.split(',');
        let mut fields = [""; TASK_EVENT_MIN_FIELDS];
        for (index, slot) in fields.iter_mut().enumerate() {
            match split.next() {
                Some(raw) => *slot = raw.trim(),
                None => {
                    return Err(ConvertError::Row {
                        line,
                        message: format!(
                            "row has {index} fields; the task_events schema carries at least \
                             {TASK_EVENT_MIN_FIELDS} (timestamp, missing_info, job_id, task_index, \
                             machine_id, event_type)",
                        ),
                    })
                }
            }
        }
        let parse_u64 = |column: usize, name: &str| -> Result<u64, ConvertError> {
            fields[column]
                .parse::<u64>()
                .map_err(|_| ConvertError::Field {
                    line,
                    column: column + 1,
                    name: name.to_string(),
                    message: format!("`{}` is not a u64", fields[column]),
                })
        };
        let timestamp_us = parse_u64(0, "timestamp")?;
        let job_id = parse_u64(2, "job_id")?;
        let task_index = parse_u64(3, "task_index")?;
        let event_code =
            u32::try_from(parse_u64(5, "event_type")?).map_err(|_| ConvertError::Field {
                line,
                column: 6,
                name: "event_type".to_string(),
                message: format!("`{}` is not a u32", fields[5]),
            })?;
        let event = EventType::from_code(event_code).ok_or(ConvertError::UnknownEventType {
            line,
            event_type: event_code,
        })?;

        if event == EventType::Submit {
            let job = jobs.entry(job_id).or_insert_with(|| JobAgg {
                first_submit_us: timestamp_us,
                tasks: HashMap::new(),
                completed: 0,
                sum_duration_us: 0,
                min_duration_us: u64::MAX,
            });
            job.first_submit_us = job.first_submit_us.min(timestamp_us);
            job.tasks.entry(task_index).or_default();
            return Ok(());
        }

        let orphan = |message: &str| ConvertError::OrphanEvent {
            line,
            job_id,
            task_index,
            message: message.to_string(),
        };
        let job = jobs
            .get_mut(&job_id)
            .ok_or_else(|| orphan("no SUBMIT for this job was seen"))?;
        let task = job
            .tasks
            .get_mut(&task_index)
            .ok_or_else(|| orphan("no SUBMIT for this task was seen"))?;
        match event {
            EventType::Schedule => task.scheduled_at_us = Some(timestamp_us),
            EventType::Evict | EventType::Fail | EventType::Kill | EventType::Lost => {
                // The in-flight attempt is abandoned; a later SCHEDULE may
                // start a fresh one without re-submission.
                task.scheduled_at_us = None;
            }
            EventType::Finish => {
                let started_us = task
                    .scheduled_at_us
                    .take()
                    .ok_or_else(|| orphan("FINISH without a pending SCHEDULE"))?;
                if timestamp_us <= started_us {
                    return Err(ConvertError::NonPositiveDuration {
                        line,
                        job_id,
                        task_index,
                    });
                }
                let first_completion = !task.completed;
                task.completed = true;
                if first_completion {
                    let duration_us = timestamp_us - started_us;
                    job.completed += 1;
                    job.sum_duration_us += duration_us;
                    job.min_duration_us = job.min_duration_us.min(duration_us);
                }
            }
            EventType::UpdatePending | EventType::UpdateRunning => {}
            EventType::Submit => unreachable!("handled before the lookup"),
        }
        Ok(())
    }

    /// Fits, sorts and writes the aggregated jobs; returns the summary.
    fn finalize(
        &self,
        jobs: HashMap<u64, JobAgg>,
        events: u64,
        output: &mut dyn Write,
    ) -> Result<ConvertSummary, ConvertError> {
        let mut skipped = 0u64;
        // (submit_us, job_id, task_count, t_min_secs, beta)
        let mut rows: Vec<(u64, u64, u32, f64, f64)> = Vec::with_capacity(jobs.len());
        for (job_id, agg) in jobs {
            if agg.completed == 0 {
                skipped += 1;
                continue;
            }
            let task_count = u32::try_from(agg.tasks.len())
                .ok()
                .filter(|&count| count <= MAX_MAP_TASKS)
                .ok_or(ConvertError::TooManyTasks {
                    job_id,
                    tasks: agg.tasks.len() as u64,
                })?;
            let (t_min, beta) = fit_pareto(agg.min_duration_us, agg.sum_duration_us, agg.completed);
            rows.push((agg.first_submit_us, job_id, task_count, t_min, beta));
        }
        rows.sort_unstable_by_key(|&(submit_us, job_id, ..)| (submit_us, job_id));

        let base_us = rows.first().map_or(0, |row| row.0);
        let span_secs = rows
            .last()
            .map_or(0.0, |row| (row.0 - base_us) as f64 / US_PER_SEC);
        let mut writer = TraceWriter::new(output, Some(rows.len() as u64))?;
        let mut tasks = 0u64;
        let jobs_written = rows.len() as u64;
        for (submit_us, job_id, task_count, t_min, beta) in rows {
            // Invariant: durations are > 0 (NonPositiveDuration) and `fit_pareto` returns 1 < beta < inf.
            #[allow(clippy::expect_used)]
            let profile = Pareto::new(t_min, beta)
                .expect("fit is valid by construction: t_min > 0 and 1 < beta < inf");
            // Invariant: beta > 1, as above.
            #[allow(clippy::expect_used)]
            let mean = profile.mean().expect("beta > 1 has a finite mean");
            let spec = JobSpec::new(
                JobId::new(job_id),
                SimTime::from_secs((submit_us - base_us) as f64 / US_PER_SEC),
                self.deadline_factor * mean,
                task_count as usize,
            )
            .with_profile(profile);
            writer.write_job(&spec)?;
            tasks += u64::from(task_count);
        }
        writer.finish()?;
        Ok(ConvertSummary {
            events,
            jobs: jobs_written,
            tasks,
            skipped_jobs: skipped,
            span_secs,
        })
    }
}

impl Default for GoogleClusterTraceConverter {
    fn default() -> Self {
        GoogleClusterTraceConverter::new()
    }
}

impl TraceConverter for GoogleClusterTraceConverter {
    fn format(&self) -> &'static str {
        GOOGLE_2011_FORMAT
    }

    fn description(&self) -> &'static str {
        "2011 Google cluster-trace task_events CSV (one row per task state transition)"
    }

    fn convert(
        &self,
        input: &mut dyn BufRead,
        output: &mut dyn Write,
    ) -> Result<ConvertSummary, ConvertError> {
        let mut jobs: HashMap<u64, JobAgg> = HashMap::new();
        let mut line = 0usize;
        let mut events = 0u64;
        let mut buffer = String::new();
        loop {
            buffer.clear();
            let read = input
                .read_line(&mut buffer)
                .map_err(|err| ConvertError::Io {
                    line: line + 1,
                    message: err.to_string(),
                })?;
            if read == 0 {
                break;
            }
            line += 1;
            let text = buffer.trim();
            if text.is_empty() {
                continue;
            }
            events += 1;
            self.consume_event(text, line, &mut jobs)?;
        }
        self.finalize(jobs, events, output)
    }
}

/// Method-of-moments Pareto fit from a job's duration statistics (see the
/// [module docs](self)): `t_min` is the observed minimum, `β` makes the
/// fitted mean reproduce the observed mean, and a degenerate or
/// numerically collapsing sample falls back to [`DEGENERATE_BETA`].
fn fit_pareto(min_duration_us: u64, sum_duration_us: u64, completed: u64) -> (f64, f64) {
    let t_min = min_duration_us as f64 / US_PER_SEC;
    let mean = (sum_duration_us as f64 / completed as f64) / US_PER_SEC;
    let beta = if mean > t_min {
        let fitted = mean / (mean - t_min);
        if fitted.is_finite() {
            fitted
        } else {
            DEGENERATE_BETA
        }
    } else {
        DEGENERATE_BETA
    };
    (t_min, beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::TraceLoader;

    /// Builds a task_events row with the full 13-column shape.
    fn row(timestamp_us: u64, job: u64, task: u64, event: u32) -> String {
        format!("{timestamp_us},,{job},{task},,{event},user,0,0,0.1,0.1,0.01,0")
    }

    fn convert_str(raw: &str) -> Result<(Vec<u8>, ConvertSummary), ConvertError> {
        let mut out = Vec::new();
        let summary = GoogleClusterTraceConverter::new().convert(&mut raw.as_bytes(), &mut out)?;
        Ok((out, summary))
    }

    #[test]
    fn two_jobs_are_fitted_sorted_and_rebased() {
        // Job 9 submits *later* in the input but earlier in time; job 4's
        // durations are 30 s and 60 s (min 30, mean 45, beta = 45/15 = 3).
        let raw = [
            row(5_000_000, 4, 0, 0),
            row(6_000_000, 4, 0, 1),
            row(2_000_000, 9, 0, 0),
            row(3_000_000, 9, 0, 1),
            row(5_000_000, 4, 1, 0),
            row(7_000_000, 4, 1, 1),
            row(36_000_000, 4, 0, 4),
            row(13_000_000, 9, 0, 4), // 10 s, single task: degenerate
            row(67_000_000, 4, 1, 4),
        ]
        .join("\n");
        let (out, summary) = convert_str(&raw).unwrap();
        assert_eq!(
            (summary.jobs, summary.tasks, summary.skipped_jobs),
            (2, 3, 0)
        );
        assert_eq!(summary.events, 9);
        assert_eq!(summary.span_secs, 3.0);

        let specs = TraceLoader::from_reader(out.as_slice())
            .unwrap()
            .load()
            .unwrap();
        assert_eq!(specs.len(), 2);
        // Sorted by submission, rebased to 0: job 9 first.
        assert_eq!(specs[0].id.raw(), 9);
        assert_eq!(specs[0].submit_time, SimTime::ZERO);
        assert_eq!(specs[0].profile.t_min(), 10.0);
        assert_eq!(specs[0].profile.beta(), DEGENERATE_BETA);
        assert_eq!(specs[1].id.raw(), 4);
        assert_eq!(specs[1].submit_time, SimTime::from_secs(3.0));
        assert_eq!(specs[1].profile.t_min(), 30.0);
        assert_eq!(specs[1].profile.beta(), 3.0);
        // Deadline = 2 x fitted mean = 2 x 45 s.
        assert_eq!(specs[1].deadline_secs, 90.0);
    }

    #[test]
    fn eviction_resets_the_attempt_and_resubmits_are_harmless() {
        // Task scheduled, evicted, rescheduled: only the second attempt's
        // 25 s duration counts. A fresh SUBMIT of the same task is a no-op.
        let raw = [
            row(0, 7, 0, 0),
            row(1_000_000, 7, 0, 1),
            row(5_000_000, 7, 0, 2),
            row(2_000_000, 7, 0, 0), // re-submit keeps earliest submit (0)
            row(10_000_000, 7, 0, 1),
            row(35_000_000, 7, 0, 4),
        ]
        .join("\n");
        let (out, summary) = convert_str(&raw).unwrap();
        assert_eq!((summary.jobs, summary.tasks), (1, 1));
        let specs = TraceLoader::from_reader(out.as_slice())
            .unwrap()
            .load()
            .unwrap();
        assert_eq!(specs[0].profile.t_min(), 25.0);
    }

    #[test]
    fn jobs_without_a_completed_task_are_skipped() {
        let raw = [
            row(0, 1, 0, 0),
            row(1_000_000, 1, 0, 1),
            row(2_000_000, 1, 0, 5), // killed
            row(0, 2, 0, 0),
            row(1_000_000, 2, 0, 1),
            row(9_000_000, 2, 0, 4),
        ]
        .join("\n");
        let (out, summary) = convert_str(&raw).unwrap();
        assert_eq!((summary.jobs, summary.skipped_jobs), (1, 1));
        let specs = TraceLoader::from_reader(out.as_slice())
            .unwrap()
            .load()
            .unwrap();
        assert_eq!(specs[0].id.raw(), 2);
    }

    #[test]
    fn only_the_first_completion_of_a_task_counts() {
        // The task finishes (8 s), is resubmitted, runs again (100 s): the
        // second completion must not skew the statistics.
        let raw = [
            row(0, 3, 0, 0),
            row(1_000_000, 3, 0, 1),
            row(9_000_000, 3, 0, 4),
            row(10_000_000, 3, 0, 0),
            row(11_000_000, 3, 0, 1),
            row(111_000_000, 3, 0, 4),
        ]
        .join("\n");
        let (out, summary) = convert_str(&raw).unwrap();
        assert_eq!(summary.tasks, 1);
        let specs = TraceLoader::from_reader(out.as_slice())
            .unwrap()
            .load()
            .unwrap();
        assert_eq!(specs[0].profile.t_min(), 8.0);
    }

    #[test]
    fn empty_input_converts_to_a_header_only_trace() {
        let (out, summary) = convert_str("").unwrap();
        assert_eq!(
            summary,
            ConvertSummary {
                events: 0,
                jobs: 0,
                tasks: 0,
                skipped_jobs: 0,
                span_secs: 0.0,
            }
        );
        let specs = TraceLoader::from_reader(out.as_slice())
            .unwrap()
            .load()
            .unwrap();
        assert!(specs.is_empty());
    }

    #[test]
    fn blank_lines_are_skipped_but_counted_for_line_numbers() {
        let raw = format!("\n{}\n\nnot-a-row\n", row(0, 1, 0, 0));
        let err = convert_str(&raw).unwrap_err();
        assert_eq!(err.line(), 4);
        assert!(matches!(err, ConvertError::Row { .. }), "{err}");
    }

    #[test]
    fn short_rows_and_bad_fields_name_line_and_column() {
        let err = convert_str("1,2,3\n").unwrap_err();
        assert!(matches!(err, ConvertError::Row { line: 1, .. }), "{err}");

        let err = convert_str("abc,,1,0,,0,u,0,0,,,,\n").unwrap_err();
        assert_eq!(
            err,
            ConvertError::Field {
                line: 1,
                column: 1,
                name: "timestamp".into(),
                message: "`abc` is not a u64".into(),
            }
        );
        assert!(err.to_string().contains("line 1"), "{err}");
        assert!(err.to_string().contains("column 1"), "{err}");

        let err = convert_str("0,,x,0,,0,u,0,0,,,,\n").unwrap_err();
        assert!(
            matches!(
                err,
                ConvertError::Field {
                    line: 1,
                    column: 3,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn unknown_event_types_are_rejected() {
        let err = convert_str(&row(0, 1, 0, 9)).unwrap_err();
        assert_eq!(
            err,
            ConvertError::UnknownEventType {
                line: 1,
                event_type: 9
            }
        );
    }

    #[test]
    fn orphan_events_name_the_line_and_reason() {
        // SCHEDULE for a job never submitted.
        let err = convert_str(&row(0, 1, 0, 1)).unwrap_err();
        assert!(
            matches!(
                err,
                ConvertError::OrphanEvent {
                    line: 1,
                    job_id: 1,
                    ..
                }
            ),
            "{err}"
        );
        // SCHEDULE for a task never submitted (job known through task 0).
        let raw = [row(0, 1, 0, 0), row(1_000_000, 1, 5, 1)].join("\n");
        let err = convert_str(&raw).unwrap_err();
        assert!(
            matches!(
                err,
                ConvertError::OrphanEvent {
                    line: 2,
                    task_index: 5,
                    ..
                }
            ),
            "{err}"
        );
        // FINISH without a pending SCHEDULE.
        let raw = [row(0, 1, 0, 0), row(1_000_000, 1, 0, 4)].join("\n");
        let err = convert_str(&raw).unwrap_err();
        assert!(err.to_string().contains("FINISH without"), "{err}");
    }

    #[test]
    fn zero_duration_tasks_are_rejected() {
        let raw = [
            row(0, 1, 0, 0),
            row(1_000_000, 1, 0, 1),
            row(1_000_000, 1, 0, 4),
        ]
        .join("\n");
        let err = convert_str(&raw).unwrap_err();
        assert_eq!(
            err,
            ConvertError::NonPositiveDuration {
                line: 3,
                job_id: 1,
                task_index: 0
            }
        );
    }

    #[test]
    fn deadline_factor_is_validated_and_applied() {
        assert!(GoogleClusterTraceConverter::new()
            .with_deadline_factor(1.0)
            .is_err());
        assert!(GoogleClusterTraceConverter::new()
            .with_deadline_factor(f64::NAN)
            .is_err());
        let converter = GoogleClusterTraceConverter::new()
            .with_deadline_factor(3.0)
            .unwrap();
        assert_eq!(converter.deadline_factor(), 3.0);

        let raw = [
            row(0, 1, 0, 0),
            row(1_000_000, 1, 0, 1),
            row(11_000_000, 1, 0, 4),
        ]
        .join("\n");
        let mut out = Vec::new();
        converter.convert(&mut raw.as_bytes(), &mut out).unwrap();
        let specs = TraceLoader::from_reader(out.as_slice())
            .unwrap()
            .load()
            .unwrap();
        // Degenerate single task: mean = 10 * 8/7, deadline = 3x that.
        let mean = specs[0].profile.mean().unwrap();
        assert_eq!(specs[0].deadline_secs, 3.0 * mean);
    }

    #[test]
    fn fit_matches_the_observed_moments_exactly() {
        // min 30 s, mean 45 s: beta = 45/15 = 3, fitted mean = 30*3/2 = 45.
        let (t_min, beta) = fit_pareto(30_000_000, 90_000_000, 2);
        assert_eq!((t_min, beta), (30.0, 3.0));
        let fitted_mean = Pareto::new(t_min, beta).unwrap().mean().unwrap();
        assert_eq!(fitted_mean, 45.0);
        // Degenerate: all durations equal.
        let (t_min, beta) = fit_pareto(10_000_000, 40_000_000, 4);
        assert_eq!((t_min, beta), (10.0, DEGENERATE_BETA));
    }

    #[test]
    fn converter_registry_knows_its_formats() {
        let converter = converter_for(GOOGLE_2011_FORMAT).unwrap();
        assert_eq!(converter.format(), GOOGLE_2011_FORMAT);
        assert!(!converter.description().is_empty());
        assert!(converter_for("alibaba-2018").is_none());
        assert_eq!(FORMATS, &[GOOGLE_2011_FORMAT]);
    }

    #[test]
    fn convert_files_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("chronos-convert-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("raw.csv");
        let output = dir.join("converted.trace");
        let raw = [
            row(0, 5, 0, 0),
            row(1_000_000, 5, 0, 1),
            row(21_000_000, 5, 0, 4),
        ]
        .join("\n");
        std::fs::write(&input, raw).unwrap();
        let summary = GoogleClusterTraceConverter::new()
            .convert_files(&input, &output)
            .unwrap();
        assert_eq!(summary.jobs, 1);
        let specs = TraceLoader::open(&output).unwrap().load().unwrap();
        assert_eq!(specs[0].profile.t_min(), 20.0);
        std::fs::remove_dir_all(&dir).unwrap();

        let missing = GoogleClusterTraceConverter::new()
            .convert_files(Path::new("/nonexistent/raw.csv"), Path::new("/tmp/x.trace"));
        let err = missing.unwrap_err();
        assert!(matches!(err, ConvertError::Io { line: 0, .. }));
        // No input line to blame: the message must not invent a "line 0".
        assert!(!err.to_string().contains("line 0"), "{err}");
        assert!(err.to_string().contains("I/O error"), "{err}");
    }

    #[test]
    fn failed_conversion_preserves_an_existing_output_file() {
        let dir =
            std::env::temp_dir().join(format!("chronos-convert-stage-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("raw.csv");
        let output = dir.join("converted.trace");

        // First conversion succeeds and lands a good trace at `output`.
        let good = [
            row(0, 5, 0, 0),
            row(1_000_000, 5, 0, 1),
            row(21_000_000, 5, 0, 4),
        ]
        .join("\n");
        std::fs::write(&input, good).unwrap();
        GoogleClusterTraceConverter::new()
            .convert_files(&input, &output)
            .unwrap();
        let good_bytes = std::fs::read(&output).unwrap();
        assert!(!good_bytes.is_empty());

        // A failed re-conversion must leave the good trace untouched and
        // clean up its staging file.
        std::fs::write(&input, "not,a,valid,row\n").unwrap();
        let err = GoogleClusterTraceConverter::new()
            .convert_files(&input, &output)
            .unwrap_err();
        assert!(matches!(err, ConvertError::Row { line: 1, .. }), "{err}");
        assert_eq!(std::fs::read(&output).unwrap(), good_bytes);
        assert!(!dir.join("converted.trace.partial").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
