//! On-disk trace ingestion: the `chronos-trace` v1 file format, its
//! streaming loader and its round-tripping writer.
//!
//! The paper's large-scale evaluation (Figures 3–5) replays a real cluster
//! trace; this module is how such a trace reaches the simulator. A trace
//! file is loaded into validated [`JobSpec`]s either all at once
//! ([`TraceLoader::load`]) or as bounded-memory chunks
//! ([`TraceLoader::stream`]) that feed
//! `chronos_sim::shard::ShardedRunner::run` directly, so a
//! file of millions of jobs is replayed without ever materializing the full
//! spec list.
//!
//! # The v1 on-disk format
//!
//! A trace file is UTF-8 text with three sections:
//!
//! 1. **Line 1 — JSON header.** A single-line JSON object:
//!
//!    ```text
//!    {"format":"chronos-trace","version":1,"jobs":2700,"default_beta":1.5,"default_price":1.0}
//!    ```
//!
//!    `format` must be `"chronos-trace"` and `version` must be a supported
//!    [`FORMAT_VERSION`]. `jobs` (optional) declares the row count: when
//!    present, a file that ends early is rejected as truncated and extra
//!    rows are rejected as trailing. `default_beta` / `default_price`
//!    (optional) supply per-file fallbacks for rows of files that omit the
//!    corresponding optional columns.
//!
//! 2. **Line 2 — CSV column header.** The six **core columns**, required in
//!    exactly this order:
//!
//!    ```text
//!    job_id,submit_time_s,map_tasks,reduce_tasks,mean_task_duration_s,deadline_s
//!    ```
//!
//!    optionally followed (in any order) by the **extended columns**
//!    `price`, `beta`, `t_min_s` and `task_sizes`. Unknown column names are
//!    rejected, not skipped — a typo must not silently drop data.
//!
//! 3. **Lines 3… — one CSV row per job**, sorted by submission time
//!    (non-decreasing; ties allowed). Fields may carry surrounding spaces.
//!    Blank lines are ignored.
//!
//! Column semantics:
//!
//! | column | type | meaning |
//! |---|---|---|
//! | `job_id` | `u64` | caller-assigned id, unique within the trace (enforced on both ends: a repeated id is [`TraceParseError::DuplicateJobId`] on load and [`TraceWriteError::DuplicateJobId`] on write) |
//! | `submit_time_s` | `f64 ≥ 0` | absolute submission instant, seconds |
//! | `map_tasks` | `u32`, 1 ≤ n ≤ [`MAX_MAP_TASKS`] | number of map tasks |
//! | `reduce_tasks` | `u32` | carried for format fidelity; the simulator models the map phase (Section III), so this column is validated but not replayed |
//! | `mean_task_duration_s` | `f64 > 0` | mean task execution time `E[T] = t_min·β/(β−1)` |
//! | `deadline_s` | `f64 > 0` | deadline relative to submission, seconds |
//! | `price` | `f64 ≥ 0` | per-unit-time VM price (default: header `default_price`, else 1) |
//! | `beta` | `f64 > 1` | Pareto tail index (default: header `default_beta`; required one way or the other) |
//! | `t_min_s` | `f64 > 0` | Pareto scale; when present it must be consistent with the mean, when absent it is derived as `mean·(β−1)/β` |
//! | `task_sizes` | `;`-joined `f64 > 0` | per-task split-size factors; empty means all-nominal; count must equal `map_tasks` |
//!
//! # Round-trip guarantee
//!
//! [`TraceWriter`] emits every extended column with Rust's shortest
//! round-trip `f64` formatting, so **write → load is bit-exact**: the loaded
//! [`JobSpec`]s compare equal (`==`) to the written ones, down to the last
//! bit of every float and microsecond of every [`SimTime`] — which is what
//! lets CI diff a file-replayed simulation report against an in-memory one
//! byte for byte. `mean_task_duration_s` is recomputed from `t_min_s` and
//! `beta` on load and cross-checked against the stored column, so a
//! hand-edited file cannot smuggle in an inconsistent profile.
//!
//! # Errors
//!
//! Every parse failure is a typed [`TraceParseError`] naming the 1-based
//! line (and, for field-level failures, the 1-based column) of the offence.
//!
//! # Example
//!
//! ```
//! use chronos_trace::loader::{TraceLoader, TraceWriter};
//! use chronos_trace::prelude::GoogleTraceConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let jobs = GoogleTraceConfig::scaled(50, 7).generate()?.into_jobs();
//! let mut file = Vec::new();
//! let mut writer = TraceWriter::new(&mut file, Some(jobs.len() as u64))?;
//! writer.write_all(&jobs)?;
//! writer.finish()?;
//!
//! let loaded = TraceLoader::from_reader(file.as_slice())?.load()?;
//! assert_eq!(loaded, jobs); // bit-exact round trip
//! # Ok(())
//! # }
//! ```

use chronos_core::Pareto;
use chronos_sim::prelude::{JobId, JobSpec, SimTime, TaskSpec};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// The `format` discriminator every header must carry.
pub const FORMAT_NAME: &str = "chronos-trace";

/// The newest (and currently only) supported on-disk format version.
pub const FORMAT_VERSION: u32 = 1;

/// The most map tasks one job may declare (2^20). The loader builds a
/// job's task list from its `map_tasks` field, so without a cap one short
/// row could demand `u32::MAX` tasks (tens of gigabytes). [`TraceWriter`]
/// refuses larger jobs, so every file it writes still loads.
pub const MAX_MAP_TASKS: u32 = 1 << 20;

/// The six core columns, in the required order.
const CORE_COLUMNS: [&str; 6] = [
    "job_id",
    "submit_time_s",
    "map_tasks",
    "reduce_tasks",
    "mean_task_duration_s",
    "deadline_s",
];

/// The recognised extended columns (any order after the core ones).
const EXTENDED_COLUMNS: [&str; 4] = ["price", "beta", "t_min_s", "task_sizes"];

/// Relative tolerance of the `mean_task_duration_s` vs `t_min_s`/`beta`
/// consistency cross-check (absorbs the last-ulp skew of recomputing the
/// mean, still catches any hand-edit that changes a profile).
const MEAN_CONSISTENCY_RTOL: f64 = 1e-9;

/// A typed trace-file parse failure, naming the offending 1-based line (and
/// 1-based column for field-level failures).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceParseError {
    /// An underlying I/O failure (message form of [`std::io::Error`]).
    Io {
        /// Line being read when the failure occurred.
        line: usize,
        /// The I/O error's message.
        message: String,
    },
    /// The file is empty (no header line).
    EmptyFile,
    /// Line 1 is not a valid `chronos-trace` JSON header.
    MalformedHeader {
        /// Offending line (always 1).
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The header's `version` is not supported by this build.
    UnsupportedVersion {
        /// Offending line (always 1).
        line: usize,
        /// The version the file declared.
        found: u32,
        /// The newest version this build reads.
        supported: u32,
    },
    /// Line 2 is not a valid column header.
    MalformedColumns {
        /// Offending line (always 2).
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The column header names a column this version does not define.
    UnknownColumn {
        /// Offending line (always 2).
        line: usize,
        /// 1-based position of the unknown column.
        column: usize,
        /// The unrecognised name.
        name: String,
    },
    /// A data-row field is missing, unparsable or out of its domain.
    Field {
        /// Offending line.
        line: usize,
        /// 1-based column index of the field.
        column: usize,
        /// Column name.
        name: String,
        /// What was wrong (includes the raw text where useful).
        message: String,
    },
    /// A row's submission time is earlier than its predecessor's.
    NonMonotonicSubmit {
        /// Offending line.
        line: usize,
        /// The previous row's submission time, seconds.
        previous_secs: f64,
        /// This row's (earlier) submission time, seconds.
        found_secs: f64,
    },
    /// A row repeats a `job_id` an earlier row already used: the v1 format
    /// requires job ids unique within the trace.
    DuplicateJobId {
        /// Offending line (the second occurrence).
        line: usize,
        /// The repeated id.
        job_id: u64,
    },
    /// The file ended before yielding the job count the header declared.
    Truncated {
        /// Line at which the end of file was hit.
        line: usize,
        /// Declared job count.
        declared: u64,
        /// Rows actually found.
        found: u64,
    },
    /// The file carries more rows than the header declared.
    TrailingRow {
        /// Line of the first surplus row.
        line: usize,
        /// Declared job count.
        declared: u64,
    },
    /// The caller asked [`TraceLoader::stream`] for a zero chunk size.
    InvalidChunkSize,
    /// A row parsed but assembles into an invalid [`JobSpec`].
    InvalidSpec {
        /// Offending line.
        line: usize,
        /// The spec-level validation failure.
        message: String,
    },
}

impl TraceParseError {
    /// The 1-based line the error points at (0 for [`EmptyFile`], which has
    /// no line to point at).
    ///
    /// [`EmptyFile`]: TraceParseError::EmptyFile
    #[must_use]
    pub fn line(&self) -> usize {
        match self {
            TraceParseError::EmptyFile | TraceParseError::InvalidChunkSize => 0,
            TraceParseError::Io { line, .. }
            | TraceParseError::MalformedHeader { line, .. }
            | TraceParseError::UnsupportedVersion { line, .. }
            | TraceParseError::MalformedColumns { line, .. }
            | TraceParseError::UnknownColumn { line, .. }
            | TraceParseError::Field { line, .. }
            | TraceParseError::NonMonotonicSubmit { line, .. }
            | TraceParseError::DuplicateJobId { line, .. }
            | TraceParseError::Truncated { line, .. }
            | TraceParseError::TrailingRow { line, .. }
            | TraceParseError::InvalidSpec { line, .. } => *line,
        }
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::Io { line, message } => {
                write!(f, "line {line}: I/O error: {message}")
            }
            TraceParseError::EmptyFile => {
                write!(f, "empty trace file (expected a {FORMAT_NAME} JSON header)")
            }
            TraceParseError::MalformedHeader { line, message } => {
                write!(f, "line {line}: malformed trace header: {message}")
            }
            TraceParseError::UnsupportedVersion {
                line,
                found,
                supported,
            } => write!(
                f,
                "line {line}: unsupported {FORMAT_NAME} version {found} (this build reads up to version {supported})"
            ),
            TraceParseError::MalformedColumns { line, message } => {
                write!(f, "line {line}: malformed column header: {message}")
            }
            TraceParseError::UnknownColumn { line, column, name } => write!(
                f,
                "line {line}, column {column}: unknown column `{name}` (core columns: {}; extended: {})",
                CORE_COLUMNS.join(", "),
                EXTENDED_COLUMNS.join(", ")
            ),
            TraceParseError::Field {
                line,
                column,
                name,
                message,
            } => write!(f, "line {line}, column {column} (`{name}`): {message}"),
            TraceParseError::NonMonotonicSubmit {
                line,
                previous_secs,
                found_secs,
            } => write!(
                f,
                "line {line}: non-monotonic submit time: {found_secs} s is earlier than the previous row's {previous_secs} s"
            ),
            TraceParseError::DuplicateJobId { line, job_id } => write!(
                f,
                "line {line}: duplicate job_id {job_id} (v1 requires job ids unique within the trace)"
            ),
            TraceParseError::Truncated {
                line,
                declared,
                found,
            } => write!(
                f,
                "line {line}: truncated trace: header declared {declared} jobs but the file ends after {found}"
            ),
            TraceParseError::TrailingRow { line, declared } => write!(
                f,
                "line {line}: trailing row: header declared {declared} jobs but the file carries more"
            ),
            TraceParseError::InvalidChunkSize => {
                write!(f, "chunk_size must be at least one job per chunk")
            }
            TraceParseError::InvalidSpec { line, message } => {
                write!(f, "line {line}: invalid job specification: {message}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// A typed trace-file write failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceWriteError {
    /// An underlying I/O failure (message form of [`std::io::Error`]).
    Io {
        /// The I/O error's message.
        message: String,
    },
    /// A job's submission time precedes the previously written job's: the
    /// format requires rows sorted by submission time.
    NonMonotonicSubmit {
        /// The offending job.
        job: u64,
        /// The previously written job's submission time, seconds.
        previous_secs: f64,
        /// The offending (earlier) submission time, seconds.
        found_secs: f64,
    },
    /// A job repeats an id a previously written job already used: the v1
    /// format requires job ids unique within the trace, and a file
    /// violating that would be rejected by the loader.
    DuplicateJobId {
        /// The repeated id.
        job: u64,
    },
    /// A job's task-time profile has `β ≤ 1`: its mean task time is
    /// infinite, so the mandatory `mean_task_duration_s` column cannot be
    /// produced.
    InfiniteMean {
        /// The offending job.
        job: u64,
        /// Its tail index.
        beta: f64,
    },
    /// The job has more than [`MAX_MAP_TASKS`] tasks; the loader would
    /// reject its row.
    TooManyTasks {
        /// The offending job.
        job: u64,
        /// Its task count.
        tasks: usize,
    },
    /// The job fails [`JobSpec::validate`]; writing it would produce a file
    /// the loader rejects.
    InvalidSpec {
        /// The offending job.
        job: u64,
        /// The spec-level validation failure.
        message: String,
    },
    /// [`TraceWriter::finish`] was reached with fewer or more jobs written
    /// than the header declared.
    DeclaredCountMismatch {
        /// Declared job count.
        declared: u64,
        /// Jobs actually written.
        written: u64,
    },
}

impl fmt::Display for TraceWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceWriteError::Io { message } => write!(f, "I/O error: {message}"),
            TraceWriteError::NonMonotonicSubmit {
                job,
                previous_secs,
                found_secs,
            } => write!(
                f,
                "job {job}: submit time {found_secs} s is earlier than the previously written row's {previous_secs} s (rows must be sorted by submission time)"
            ),
            TraceWriteError::DuplicateJobId { job } => write!(
                f,
                "job {job}: duplicate job_id (v1 requires job ids unique within the trace)"
            ),
            TraceWriteError::InfiniteMean { job, beta } => write!(
                f,
                "job {job}: tail index beta = {beta} has an infinite mean task time; the trace format requires beta > 1"
            ),
            TraceWriteError::TooManyTasks { job, tasks } => write!(
                f,
                "job {job}: {tasks} tasks exceed the per-job limit of {MAX_MAP_TASKS}"
            ),
            TraceWriteError::InvalidSpec { job, message } => {
                write!(f, "job {job}: invalid job specification: {message}")
            }
            TraceWriteError::DeclaredCountMismatch { declared, written } => write!(
                f,
                "header declared {declared} jobs but {written} were written"
            ),
        }
    }
}

impl std::error::Error for TraceWriteError {}

impl From<std::io::Error> for TraceWriteError {
    fn from(err: std::io::Error) -> Self {
        TraceWriteError::Io {
            message: err.to_string(),
        }
    }
}

/// The raw JSON shape of header line 1 (absent optional keys deserialize to
/// `None` under the vendored serde).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RawHeader {
    format: String,
    version: u32,
    jobs: Option<u64>,
    default_beta: Option<f64>,
    default_price: Option<f64>,
}

/// The validated, version-checked header of a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Format version of the file (≤ [`FORMAT_VERSION`]).
    pub version: u32,
    /// Declared job count, when the producer knew it. Enforced: fewer rows
    /// is [`TraceParseError::Truncated`], more is
    /// [`TraceParseError::TrailingRow`].
    pub jobs: Option<u64>,
    /// Per-file fallback tail index for rows without a `beta` column.
    pub default_beta: Option<f64>,
    /// Per-file fallback price for rows without a `price` column.
    pub default_price: Option<f64>,
}

/// Resolved column layout of a trace file: the field index of each known
/// column, or `None` for absent extended columns.
#[derive(Debug, Clone)]
struct Columns {
    price: Option<usize>,
    beta: Option<usize>,
    t_min_s: Option<usize>,
    task_sizes: Option<usize>,
    /// Total column count (rows must match it exactly).
    count: usize,
}

/// Streaming reader of `chronos-trace` files.
///
/// Construction ([`TraceLoader::open`] / [`TraceLoader::from_reader`])
/// parses and validates the header and column lines; the rows are then
/// consumed either eagerly via [`TraceLoader::load`] or lazily via
/// [`TraceLoader::stream`].
#[derive(Debug)]
pub struct TraceLoader<R> {
    reader: R,
    header: TraceHeader,
    columns: Columns,
    /// 1-based number of the last line read.
    line: usize,
    /// Reused line buffer — row parsing never allocates per line.
    buf: String,
}

impl TraceLoader<BufReader<File>> {
    /// Opens a trace file from disk and validates its header.
    ///
    /// # Errors
    ///
    /// [`TraceParseError::Io`] when the file cannot be opened, plus every
    /// header-level failure of [`TraceLoader::from_reader`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceParseError> {
        let file = File::open(path.as_ref()).map_err(|err| TraceParseError::Io {
            line: 0,
            message: format!("{}: {err}", path.as_ref().display()),
        })?;
        // A generous buffer: traces are a few MB and row parsing is fast
        // enough that the default 8 KiB buffer's refill syscalls show up.
        TraceLoader::from_reader(BufReader::with_capacity(1 << 18, file))
    }
}

impl<R: BufRead> TraceLoader<R> {
    /// Wraps any buffered reader carrying trace-format text and validates
    /// its header and column lines.
    ///
    /// # Errors
    ///
    /// [`TraceParseError::EmptyFile`], [`TraceParseError::MalformedHeader`],
    /// [`TraceParseError::UnsupportedVersion`],
    /// [`TraceParseError::MalformedColumns`] or
    /// [`TraceParseError::UnknownColumn`].
    pub fn from_reader(mut reader: R) -> Result<Self, TraceParseError> {
        let mut line = 0usize;
        let mut buf = String::new();
        let header = match read_line(&mut reader, &mut line, &mut buf)? {
            Some(text) => parse_header(text, line)?,
            None => return Err(TraceParseError::EmptyFile),
        };
        let columns = match read_line(&mut reader, &mut line, &mut buf)? {
            Some(text) => parse_columns(text, line)?,
            None => {
                return Err(TraceParseError::MalformedColumns {
                    line: line + 1,
                    message: "file ends before the column header".into(),
                })
            }
        };
        if columns.beta.is_none() && header.default_beta.is_none() {
            return Err(TraceParseError::MalformedColumns {
                line,
                message: "no `beta` column and no `default_beta` in the header: \
                          task-time profiles cannot be reconstructed"
                    .into(),
            });
        }
        Ok(TraceLoader {
            reader,
            header,
            columns,
            line,
            buf,
        })
    }

    /// The validated file header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Streams the trace as chunks of at most `chunk_size` validated job
    /// specs, in file order, keeping one chunk in memory at a time (plus
    /// the set of job ids seen so far — 8 bytes per job — which enforces
    /// the format's id-uniqueness requirement across chunks).
    ///
    /// The returned iterator yields `Result` items and **fuses after the
    /// first error** — feed it to
    /// `ShardedRunner::run`, which stops pulling and
    /// surfaces the parse error deterministically.
    ///
    /// # Errors
    ///
    /// [`TraceParseError::InvalidChunkSize`] for a zero `chunk_size`;
    /// row-level failures surface through the iterator items instead.
    pub fn stream(self, chunk_size: u32) -> Result<TraceStream<R>, TraceParseError> {
        if chunk_size == 0 {
            return Err(TraceParseError::InvalidChunkSize);
        }
        Ok(TraceStream {
            loader: self,
            chunk_size,
            rows_yielded: 0,
            previous_submit_secs: None,
            seen_job_ids: std::collections::HashSet::with_hasher(SplitmixHash),
            done: false,
        })
    }

    /// Reads and validates the whole trace into one vector.
    ///
    /// # Errors
    ///
    /// The first row-level [`TraceParseError`], if any.
    pub fn load(self) -> Result<Vec<JobSpec>, TraceParseError> {
        let declared = self.header.jobs;
        let mut jobs = Vec::with_capacity(declared.unwrap_or(0).min(1 << 20) as usize);
        for chunk in self.stream(u32::MAX)? {
            jobs.extend(chunk?);
        }
        Ok(jobs)
    }
}

/// Chunked, fallible iterator over a trace file's job specs. Created by
/// [`TraceLoader::stream`]; yields `Ok(chunk)` items in file order and fuses
/// after the first `Err` (or the end of the file).
#[derive(Debug)]
pub struct TraceStream<R> {
    loader: TraceLoader<R>,
    chunk_size: u32,
    rows_yielded: u64,
    previous_submit_secs: Option<f64>,
    seen_job_ids: std::collections::HashSet<u64, SplitmixHash>,
    done: bool,
}

/// Splitmix64-finalizer hasher for the per-stream job-id set: ids are
/// already high-entropy integers, so a SipHash round per row is pure
/// overhead on the replay path.
#[derive(Debug, Default, Clone, Copy)]
struct SplitmixHash;

impl std::hash::BuildHasher for SplitmixHash {
    type Hasher = SplitmixHasher;

    #[inline]
    fn build_hasher(&self) -> SplitmixHasher {
        SplitmixHasher { state: 0 }
    }
}

#[derive(Debug, Default)]
struct SplitmixHasher {
    state: u64,
}

impl std::hash::Hasher for SplitmixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        let mut x = (self.state ^ value).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.state = x ^ (x >> 31);
    }
}

impl<R: BufRead> TraceStream<R> {
    /// Parses the next data row, tracking monotonicity and declared counts.
    /// `Ok(None)` is a clean end of file.
    fn next_spec(&mut self) -> Result<Option<JobSpec>, TraceParseError> {
        let loader = &mut self.loader;
        let text = match read_line(&mut loader.reader, &mut loader.line, &mut loader.buf)? {
            Some(text) => text,
            None => {
                if let Some(declared) = loader.header.jobs {
                    if self.rows_yielded < declared {
                        return Err(TraceParseError::Truncated {
                            line: loader.line + 1,
                            declared,
                            found: self.rows_yielded,
                        });
                    }
                }
                return Ok(None);
            }
        };
        if let Some(declared) = loader.header.jobs {
            if self.rows_yielded >= declared {
                return Err(TraceParseError::TrailingRow {
                    line: loader.line,
                    declared,
                });
            }
        }
        let spec = parse_row(text, loader.line, &loader.columns, &loader.header)?;
        let submit_secs = spec.submit_time.as_secs();
        if let Some(previous) = self.previous_submit_secs {
            if submit_secs < previous {
                return Err(TraceParseError::NonMonotonicSubmit {
                    line: loader.line,
                    previous_secs: previous,
                    found_secs: submit_secs,
                });
            }
        }
        if !self.seen_job_ids.insert(spec.id.raw()) {
            return Err(TraceParseError::DuplicateJobId {
                line: loader.line,
                job_id: spec.id.raw(),
            });
        }
        self.previous_submit_secs = Some(submit_secs);
        self.rows_yielded += 1;
        Ok(Some(spec))
    }
}

impl<R: BufRead> Iterator for TraceStream<R> {
    type Item = Result<Vec<JobSpec>, TraceParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut chunk = Vec::with_capacity(self.chunk_size.min(1 << 16) as usize);
        while (chunk.len() as u32) < self.chunk_size {
            match self.next_spec() {
                Ok(Some(spec)) => chunk.push(spec),
                Ok(None) => {
                    self.done = true;
                    break;
                }
                Err(err) => {
                    self.done = true;
                    return Some(Err(err));
                }
            }
        }
        if chunk.is_empty() {
            None
        } else {
            Some(Ok(chunk))
        }
    }
}

/// Reads the next non-blank line into the reused `buffer`, advancing the
/// 1-based line counter across skipped blanks, and returns the trimmed
/// slice. `Ok(None)` is end of file. Reusing one caller-owned buffer keeps
/// the row loop allocation-free.
fn read_line<'a, R: BufRead>(
    reader: &mut R,
    line: &mut usize,
    buffer: &'a mut String,
) -> Result<Option<&'a str>, TraceParseError> {
    loop {
        buffer.clear();
        let read = reader
            .read_line(buffer)
            .map_err(|err| TraceParseError::Io {
                line: *line + 1,
                message: err.to_string(),
            })?;
        if read == 0 {
            return Ok(None);
        }
        *line += 1;
        if !buffer.trim().is_empty() {
            break;
        }
    }
    Ok(Some(buffer.trim()))
}

/// Parses and validates header line 1.
fn parse_header(text: &str, line: usize) -> Result<TraceHeader, TraceParseError> {
    let raw: RawHeader =
        serde_json::from_str(text).map_err(|err| TraceParseError::MalformedHeader {
            line,
            message: err.to_string(),
        })?;
    if raw.format != FORMAT_NAME {
        return Err(TraceParseError::MalformedHeader {
            line,
            message: format!("format is `{}`, expected `{FORMAT_NAME}`", raw.format),
        });
    }
    if raw.version == 0 || raw.version > FORMAT_VERSION {
        return Err(TraceParseError::UnsupportedVersion {
            line,
            found: raw.version,
            supported: FORMAT_VERSION,
        });
    }
    for (name, value, requirement) in [
        ("default_beta", raw.default_beta, "a finite value > 1"),
        ("default_price", raw.default_price, "a finite value >= 0"),
    ] {
        if let Some(value) = value {
            let ok = value.is_finite()
                && if name == "default_beta" {
                    value > 1.0
                } else {
                    value >= 0.0
                };
            if !ok {
                return Err(TraceParseError::MalformedHeader {
                    line,
                    message: format!("`{name}` is {value}, expected {requirement}"),
                });
            }
        }
    }
    Ok(TraceHeader {
        version: raw.version,
        jobs: raw.jobs,
        default_beta: raw.default_beta,
        default_price: raw.default_price,
    })
}

/// Parses and validates column-header line 2.
fn parse_columns(text: &str, line: usize) -> Result<Columns, TraceParseError> {
    let names: Vec<&str> = text.split(',').map(str::trim).collect();
    if names.len() < CORE_COLUMNS.len() {
        return Err(TraceParseError::MalformedColumns {
            line,
            message: format!(
                "found {} columns, expected at least the {} core columns ({})",
                names.len(),
                CORE_COLUMNS.len(),
                CORE_COLUMNS.join(", ")
            ),
        });
    }
    for (index, expected) in CORE_COLUMNS.iter().enumerate() {
        if names[index] != *expected {
            return Err(TraceParseError::MalformedColumns {
                line,
                message: format!(
                    "column {} is `{}`, expected core column `{expected}` (core order is fixed: {})",
                    index + 1,
                    names[index],
                    CORE_COLUMNS.join(", ")
                ),
            });
        }
    }
    let mut columns = Columns {
        price: None,
        beta: None,
        t_min_s: None,
        task_sizes: None,
        count: names.len(),
    };
    for (index, name) in names.iter().enumerate().skip(CORE_COLUMNS.len()) {
        let slot = match *name {
            "price" => &mut columns.price,
            "beta" => &mut columns.beta,
            "t_min_s" => &mut columns.t_min_s,
            "task_sizes" => &mut columns.task_sizes,
            other => {
                return Err(TraceParseError::UnknownColumn {
                    line,
                    column: index + 1,
                    name: other.to_string(),
                })
            }
        };
        if slot.is_some() {
            return Err(TraceParseError::MalformedColumns {
                line,
                message: format!("duplicate column `{name}`"),
            });
        }
        *slot = Some(index);
    }
    Ok(columns)
}

/// Parses one data row into a validated [`JobSpec`].
fn parse_row(
    text: &str,
    line: usize,
    columns: &Columns,
    header: &TraceHeader,
) -> Result<JobSpec, TraceParseError> {
    // A validated column header has at most the 6 core + 4 extended
    // columns (`parse_columns` rejects unknowns and duplicates), so a row's
    // fields fit a fixed array — no per-row allocation.
    let mut fields: [&str; 10] = [""; 10];
    let mut field_count = 0usize;
    for field in text.split(',') {
        if field_count < fields.len() {
            fields[field_count] = field.trim();
        }
        field_count += 1;
    }
    if field_count != columns.count {
        return Err(TraceParseError::Field {
            line,
            column: field_count.min(columns.count),
            name: "(row)".into(),
            message: format!(
                "row has {field_count} fields, the column header declares {}",
                columns.count
            ),
        });
    }
    let field_err = |column: usize, name: &str, message: String| TraceParseError::Field {
        line,
        column: column + 1,
        name: name.to_string(),
        message,
    };

    let parse_u64 = |column: usize, name: &str| -> Result<u64, TraceParseError> {
        fields[column]
            .parse::<u64>()
            .map_err(|_| field_err(column, name, format!("`{}` is not a u64", fields[column])))
    };
    let parse_u32 = |column: usize, name: &str| -> Result<u32, TraceParseError> {
        fields[column]
            .parse::<u32>()
            .map_err(|_| field_err(column, name, format!("`{}` is not a u32", fields[column])))
    };
    let parse_f64 = |column: usize, name: &str| -> Result<f64, TraceParseError> {
        fields[column].parse::<f64>().map_err(|_| {
            field_err(
                column,
                name,
                format!("`{}` is not a number", fields[column]),
            )
        })
    };

    let job_id = parse_u64(0, "job_id")?;
    let submit_secs = parse_f64(1, "submit_time_s")?;
    if !(submit_secs.is_finite() && submit_secs >= 0.0) {
        return Err(field_err(
            1,
            "submit_time_s",
            format!("{submit_secs} is not a finite value >= 0"),
        ));
    }
    let map_tasks = parse_u32(2, "map_tasks")?;
    if map_tasks == 0 {
        return Err(field_err(
            2,
            "map_tasks",
            "a job needs at least one map task".into(),
        ));
    }
    if map_tasks > MAX_MAP_TASKS {
        return Err(field_err(
            2,
            "map_tasks",
            format!("{map_tasks} exceeds the per-job limit of {MAX_MAP_TASKS} map tasks"),
        ));
    }
    // Validated but not replayed: the simulator models the map phase.
    let _reduce_tasks = parse_u32(3, "reduce_tasks")?;
    let mean_secs = parse_f64(4, "mean_task_duration_s")?;
    if !(mean_secs.is_finite() && mean_secs > 0.0) {
        return Err(field_err(
            4,
            "mean_task_duration_s",
            format!("{mean_secs} is not a finite value > 0"),
        ));
    }
    let deadline_secs = parse_f64(5, "deadline_s")?;
    if !(deadline_secs.is_finite() && deadline_secs > 0.0) {
        return Err(field_err(
            5,
            "deadline_s",
            format!("{deadline_secs} is not a finite value > 0"),
        ));
    }

    let price = match columns.price {
        Some(column) => {
            let price = parse_f64(column, "price")?;
            if !(price.is_finite() && price >= 0.0) {
                return Err(field_err(
                    column,
                    "price",
                    format!("{price} is not a finite value >= 0"),
                ));
            }
            price
        }
        None => header.default_price.unwrap_or(1.0),
    };
    let beta = match columns.beta {
        Some(column) => {
            let beta = parse_f64(column, "beta")?;
            if !(beta.is_finite() && beta > 1.0) {
                return Err(field_err(
                    column,
                    "beta",
                    format!("{beta} is not a finite value > 1 (finite mean task time)"),
                ));
            }
            beta
        }
        // Invariant: opening a trace without a `beta` column requires `default_beta`.
        #[allow(clippy::expect_used)]
        None => header
            .default_beta
            .expect("checked at open: beta column or default_beta"),
    };
    let t_min = match columns.t_min_s {
        Some(column) => {
            let t_min = parse_f64(column, "t_min_s")?;
            if !(t_min.is_finite() && t_min > 0.0) {
                return Err(field_err(
                    column,
                    "t_min_s",
                    format!("{t_min} is not a finite value > 0"),
                ));
            }
            // Cross-check: the mean column must agree with t_min and beta.
            let implied_mean = t_min * beta / (beta - 1.0);
            if (implied_mean - mean_secs).abs() > MEAN_CONSISTENCY_RTOL * mean_secs.abs() {
                return Err(field_err(
                    4,
                    "mean_task_duration_s",
                    format!(
                        "inconsistent profile: t_min_s {t_min} with beta {beta} implies a mean of {implied_mean}, the row says {mean_secs}"
                    ),
                ));
            }
            t_min
        }
        None => mean_secs * (beta - 1.0) / beta,
    };
    let profile = Pareto::new(t_min, beta).map_err(|err| TraceParseError::InvalidSpec {
        line,
        message: err.to_string(),
    })?;

    let sized_tasks = match columns.task_sizes {
        Some(column) if !fields[column].is_empty() => {
            // Every factor takes at least one byte plus its `;`, so the
            // field's length bounds the count before it is checked.
            let mut tasks =
                Vec::with_capacity((map_tasks as usize).min(fields[column].len().div_ceil(2)));
            for raw in fields[column].split(';') {
                let factor = raw.trim().parse::<f64>().map_err(|_| {
                    field_err(
                        column,
                        "task_sizes",
                        format!("`{}` is not a number", raw.trim()),
                    )
                })?;
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(field_err(
                        column,
                        "task_sizes",
                        format!("size factor {factor} is not a finite value > 0"),
                    ));
                }
                tasks.push(TaskSpec::sized(factor));
            }
            if tasks.len() != map_tasks as usize {
                return Err(field_err(
                    column,
                    "task_sizes",
                    format!("{} size factors for {map_tasks} map tasks", tasks.len()),
                ));
            }
            Some(tasks)
        }
        _ => None,
    };

    // `JobSpec::new` builds the nominal task list; a sized row replaces it,
    // so it asks for none.
    let nominal_tasks = if sized_tasks.is_some() {
        0
    } else {
        map_tasks as usize
    };
    let mut spec = JobSpec::new(
        JobId::new(job_id),
        SimTime::from_secs(submit_secs),
        deadline_secs,
        nominal_tasks,
    )
    .with_profile(profile)
    .with_price(price);
    if let Some(tasks) = sized_tasks {
        spec = spec.with_tasks(tasks);
    }
    spec.validate()
        .map_err(|err| TraceParseError::InvalidSpec {
            line,
            message: err.to_string(),
        })?;
    Ok(spec)
}

/// Streaming writer of `chronos-trace` files.
///
/// Emits the header and column lines on construction and one CSV row per
/// [`TraceWriter::write_job`] call, always with the full extended column set
/// (`price`, `beta`, `t_min_s`, `task_sizes`) so any [`JobSpec`] —
/// spot-priced, per-job-profiled, split-jittered — survives the round trip
/// bit-exactly. Floats are formatted with Rust's shortest round-trip
/// representation.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    declared_jobs: Option<u64>,
    written: u64,
    previous_submit_secs: Option<f64>,
    written_job_ids: std::collections::HashSet<u64>,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) a trace file on disk and writes the header.
    ///
    /// # Errors
    ///
    /// [`TraceWriteError::Io`].
    pub fn create(
        path: impl AsRef<Path>,
        declared_jobs: Option<u64>,
    ) -> Result<Self, TraceWriteError> {
        let file = File::create(path.as_ref()).map_err(|err| TraceWriteError::Io {
            message: format!("{}: {err}", path.as_ref().display()),
        })?;
        TraceWriter::new(BufWriter::new(file), declared_jobs)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps any writer, immediately emitting the v1 header and column
    /// lines. Pass the job count as `declared_jobs` when it is known up
    /// front — it lets the loader detect truncated files.
    ///
    /// # Errors
    ///
    /// [`TraceWriteError::Io`].
    pub fn new(mut out: W, declared_jobs: Option<u64>) -> Result<Self, TraceWriteError> {
        match declared_jobs {
            Some(jobs) => writeln!(
                out,
                "{{\"format\":\"{FORMAT_NAME}\",\"version\":{FORMAT_VERSION},\"jobs\":{jobs}}}"
            )?,
            None => writeln!(
                out,
                "{{\"format\":\"{FORMAT_NAME}\",\"version\":{FORMAT_VERSION}}}"
            )?,
        }
        writeln!(
            out,
            "{},{}",
            CORE_COLUMNS.join(","),
            EXTENDED_COLUMNS.join(",")
        )?;
        Ok(TraceWriter {
            out,
            declared_jobs,
            written: 0,
            previous_submit_secs: None,
            written_job_ids: std::collections::HashSet::new(),
        })
    }

    /// Appends one job as a CSV row.
    ///
    /// # Errors
    ///
    /// [`TraceWriteError::InvalidSpec`] when the spec fails validation,
    /// [`TraceWriteError::DuplicateJobId`] when its id was already written
    /// (the loader would reject the file), [`TraceWriteError::TooManyTasks`]
    /// when it has more than [`MAX_MAP_TASKS`] tasks,
    /// [`TraceWriteError::NonMonotonicSubmit`] when it is out of submission
    /// order, [`TraceWriteError::InfiniteMean`] when its profile has `β ≤ 1`,
    /// and [`TraceWriteError::Io`] on write failures.
    pub fn write_job(&mut self, spec: &JobSpec) -> Result<(), TraceWriteError> {
        spec.validate()
            .map_err(|err| TraceWriteError::InvalidSpec {
                job: spec.id.raw(),
                message: err.to_string(),
            })?;
        if spec.task_count() > MAX_MAP_TASKS as usize {
            return Err(TraceWriteError::TooManyTasks {
                job: spec.id.raw(),
                tasks: spec.task_count(),
            });
        }
        if self.written_job_ids.contains(&spec.id.raw()) {
            return Err(TraceWriteError::DuplicateJobId { job: spec.id.raw() });
        }
        let submit_secs = spec.submit_time.as_secs();
        if let Some(previous) = self.previous_submit_secs {
            if submit_secs < previous {
                return Err(TraceWriteError::NonMonotonicSubmit {
                    job: spec.id.raw(),
                    previous_secs: previous,
                    found_secs: submit_secs,
                });
            }
        }
        let mean = spec
            .profile
            .mean()
            .ok_or_else(|| TraceWriteError::InfiniteMean {
                job: spec.id.raw(),
                beta: spec.profile.beta(),
            })?;
        let task_sizes = if spec.tasks.iter().all(|t| t.size_factor == 1.0) {
            String::new()
        } else {
            let factors: Vec<String> = spec
                .tasks
                .iter()
                .map(|t| t.size_factor.to_string())
                .collect();
            factors.join(";")
        };
        writeln!(
            self.out,
            "{},{},{},0,{},{},{},{},{},{}",
            spec.id.raw(),
            submit_secs,
            spec.task_count(),
            mean,
            spec.deadline_secs,
            spec.price,
            spec.profile.beta(),
            spec.profile.t_min(),
            task_sizes,
        )?;
        self.previous_submit_secs = Some(submit_secs);
        self.written_job_ids.insert(spec.id.raw());
        self.written += 1;
        Ok(())
    }

    /// Appends every job of an iterator, in order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TraceWriter::write_job`] failure.
    pub fn write_all<'a>(
        &mut self,
        jobs: impl IntoIterator<Item = &'a JobSpec>,
    ) -> Result<(), TraceWriteError> {
        for job in jobs {
            self.write_job(job)?;
        }
        Ok(())
    }

    /// Number of rows written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer, verifying the declared
    /// job count was honoured.
    ///
    /// # Errors
    ///
    /// [`TraceWriteError::DeclaredCountMismatch`] or
    /// [`TraceWriteError::Io`].
    pub fn finish(mut self) -> Result<W, TraceWriteError> {
        if let Some(declared) = self.declared_jobs {
            if self.written != declared {
                return Err(TraceWriteError::DeclaredCountMismatch {
                    declared,
                    written: self.written,
                });
            }
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes a complete trace to `path` in one call, declaring the job count.
///
/// # Errors
///
/// Propagates [`TraceWriter`] failures.
pub fn write_trace(path: impl AsRef<Path>, jobs: &[JobSpec]) -> Result<(), TraceWriteError> {
    let mut writer = TraceWriter::create(path, Some(jobs.len() as u64))?;
    writer.write_all(jobs)?;
    writer.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::google::GoogleTraceConfig;
    use crate::workload::{Benchmark, TestbedWorkload};

    fn write_to_string(jobs: &[JobSpec]) -> String {
        let mut out = Vec::new();
        let mut writer = TraceWriter::new(&mut out, Some(jobs.len() as u64)).unwrap();
        writer.write_all(jobs).unwrap();
        writer.finish().unwrap();
        String::from_utf8(out).unwrap()
    }

    fn load_str(text: &str) -> Result<Vec<JobSpec>, TraceParseError> {
        TraceLoader::from_reader(text.as_bytes())?.load()
    }

    const HEADER: &str = r#"{"format":"chronos-trace","version":1,"default_beta":1.5}"#;
    const CORE: &str =
        "job_id,submit_time_s,map_tasks,reduce_tasks,mean_task_duration_s,deadline_s";

    #[test]
    fn google_trace_round_trips_bit_exactly() {
        let jobs = GoogleTraceConfig::scaled(200, 13)
            .generate()
            .unwrap()
            .into_jobs();
        let text = write_to_string(&jobs);
        let loaded = load_str(&text).unwrap();
        assert_eq!(loaded, jobs);
    }

    #[test]
    fn jittered_testbed_workload_round_trips_bit_exactly() {
        // WordCount has the widest split jitter: per-task size factors must
        // survive the task_sizes column bit-for-bit.
        let jobs = TestbedWorkload::paper_setup(Benchmark::WordCount, 5)
            .with_jobs(40)
            .generate()
            .unwrap();
        let text = write_to_string(&jobs);
        let loaded = load_str(&text).unwrap();
        assert_eq!(loaded, jobs);
    }

    #[test]
    fn round_trip_through_writer_twice_is_identical_text() {
        let jobs = GoogleTraceConfig::scaled(50, 3)
            .generate()
            .unwrap()
            .into_jobs();
        let text = write_to_string(&jobs);
        let reloaded = load_str(&text).unwrap();
        assert_eq!(write_to_string(&reloaded), text);
    }

    #[test]
    fn minimal_core_only_file_loads() {
        let text = format!("{HEADER}\n{CORE}\n7, 0.5, 3, 2, 60, 120\n8,1.5,1,0,30,90\n");
        let jobs = load_str(&text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id.raw(), 7);
        assert_eq!(jobs[0].task_count(), 3);
        assert_eq!(jobs[0].submit_time, SimTime::from_secs(0.5));
        assert_eq!(jobs[0].price, 1.0); // no default_price -> 1
        assert!((jobs[0].profile.beta() - 1.5).abs() < 1e-12);
        // t_min derived from the mean: 60 * 0.5 / 1.5 = 20.
        assert!((jobs[0].profile.t_min() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn header_defaults_apply() {
        let text = format!(
            "{}\n{CORE}\n0,0,1,0,60,120\n",
            r#"{"format":"chronos-trace","version":1,"default_beta":2.0,"default_price":0.25}"#
        );
        let jobs = load_str(&text).unwrap();
        assert_eq!(jobs[0].price, 0.25);
        assert_eq!(jobs[0].profile.beta(), 2.0);
        assert_eq!(jobs[0].profile.t_min(), 30.0);
    }

    #[test]
    fn stream_chunks_match_load() {
        let jobs = GoogleTraceConfig::scaled(30, 9)
            .generate()
            .unwrap()
            .into_jobs();
        let text = write_to_string(&jobs);
        for chunk_size in [1u32, 4, 7, 30, 1000] {
            let chunks: Vec<Vec<JobSpec>> = TraceLoader::from_reader(text.as_bytes())
                .unwrap()
                .stream(chunk_size)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            assert!(
                chunks.iter().all(|c| c.len() as u32 <= chunk_size),
                "chunk_size {chunk_size}"
            );
            let flat: Vec<JobSpec> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, jobs, "chunk_size {chunk_size}");
        }
    }

    #[test]
    fn stream_rejects_zero_chunk_size() {
        let text = format!("{HEADER}\n{CORE}\n");
        let loader = TraceLoader::from_reader(text.as_bytes()).unwrap();
        assert!(loader.stream(0).is_err());
    }

    #[test]
    fn empty_file_and_missing_columns() {
        assert_eq!(load_str("").unwrap_err(), TraceParseError::EmptyFile);
        let err = load_str(&format!("{HEADER}\n")).unwrap_err();
        assert!(
            matches!(err, TraceParseError::MalformedColumns { line: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn bad_header_version_names_line_1() {
        let text = format!(
            "{}\n{CORE}\n",
            r#"{"format":"chronos-trace","version":9,"default_beta":1.5}"#
        );
        let err = load_str(&text).unwrap_err();
        assert_eq!(
            err,
            TraceParseError::UnsupportedVersion {
                line: 1,
                found: 9,
                supported: FORMAT_VERSION
            }
        );
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn wrong_format_name_is_malformed_header() {
        let err = load_str("{\"format\":\"parquet\",\"version\":1}\n").unwrap_err();
        assert!(
            matches!(err, TraceParseError::MalformedHeader { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn header_without_beta_source_is_rejected_at_open() {
        let text = format!("{}\n{CORE}\n", r#"{"format":"chronos-trace","version":1}"#);
        let err = TraceLoader::from_reader(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, TraceParseError::MalformedColumns { line: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("default_beta"), "{err}");
    }

    #[test]
    fn unknown_column_names_its_position() {
        let text = format!("{HEADER}\n{CORE},walltime\n");
        let err = TraceLoader::from_reader(text.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            TraceParseError::UnknownColumn {
                line: 2,
                column: 7,
                name: "walltime".into()
            }
        );
    }

    #[test]
    fn reordered_core_columns_are_rejected() {
        let text = format!(
            "{HEADER}\nsubmit_time_s,job_id,map_tasks,reduce_tasks,mean_task_duration_s,deadline_s\n"
        );
        let err = TraceLoader::from_reader(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, TraceParseError::MalformedColumns { line: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn truncated_file_names_the_line_after_the_last_row() {
        let text = format!(
            "{}\n{CORE}\n0,0,1,0,60,120\n",
            r#"{"format":"chronos-trace","version":1,"jobs":3,"default_beta":1.5}"#
        );
        let err = load_str(&text).unwrap_err();
        assert_eq!(
            err,
            TraceParseError::Truncated {
                line: 4,
                declared: 3,
                found: 1
            }
        );
    }

    #[test]
    fn trailing_rows_beyond_declared_count_are_rejected() {
        let text = format!(
            "{}\n{CORE}\n0,0,1,0,60,120\n1,1,1,0,60,120\n",
            r#"{"format":"chronos-trace","version":1,"jobs":1,"default_beta":1.5}"#
        );
        let err = load_str(&text).unwrap_err();
        assert_eq!(
            err,
            TraceParseError::TrailingRow {
                line: 4,
                declared: 1
            }
        );
    }

    #[test]
    fn duplicate_job_id_names_the_second_occurrence() {
        let text = format!("{HEADER}\n{CORE}\n7,0,1,0,60,120\n8,1,1,0,60,120\n7,2,1,0,60,120\n");
        let err = load_str(&text).unwrap_err();
        assert_eq!(err, TraceParseError::DuplicateJobId { line: 5, job_id: 7 });
        assert_eq!(err.line(), 5);
        let message = err.to_string();
        assert!(message.contains("line 5"), "{message}");
        assert!(message.contains("duplicate job_id 7"), "{message}");
        assert!(message.contains("unique within the trace"), "{message}");
    }

    #[test]
    fn duplicate_job_id_is_caught_across_chunk_boundaries() {
        let text = format!("{HEADER}\n{CORE}\n7,0,1,0,60,120\n8,1,1,0,60,120\n7,2,1,0,60,120\n");
        let mut stream = TraceLoader::from_reader(text.as_bytes())
            .unwrap()
            .stream(1)
            .unwrap();
        assert!(stream.next().unwrap().is_ok());
        assert!(stream.next().unwrap().is_ok());
        assert_eq!(
            stream.next().unwrap().unwrap_err(),
            TraceParseError::DuplicateJobId { line: 5, job_id: 7 }
        );
        assert!(stream.next().is_none());
    }

    #[test]
    fn writer_rejects_duplicate_job_ids() {
        let a = JobSpec::new(JobId::new(7), SimTime::ZERO, 100.0, 2);
        let b = JobSpec::new(JobId::new(7), SimTime::from_secs(1.0), 100.0, 2);
        let mut writer = TraceWriter::new(Vec::new(), None).unwrap();
        writer.write_job(&a).unwrap();
        let err = writer.write_job(&b).unwrap_err();
        assert_eq!(err, TraceWriteError::DuplicateJobId { job: 7 });
        assert!(err.to_string().contains("duplicate job_id"), "{err}");
        // The rejected row was not written: the declared count still holds.
        assert_eq!(writer.written(), 1);
    }

    #[test]
    fn header_only_trace_round_trips() {
        let text = write_to_string(&[]);
        let loaded = load_str(&text).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(write_to_string(&loaded), text);
        // The declared count of zero is enforced: any data row is trailing.
        let with_row = format!("{text}0,0,1,0,60,120,1,1.5,20,\n");
        let err = load_str(&with_row).unwrap_err();
        assert!(
            matches!(err, TraceParseError::TrailingRow { declared: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn non_monotonic_submit_names_the_line() {
        let text = format!("{HEADER}\n{CORE}\n0,5,1,0,60,120\n1,4.5,1,0,60,120\n");
        let err = load_str(&text).unwrap_err();
        assert_eq!(
            err,
            TraceParseError::NonMonotonicSubmit {
                line: 4,
                previous_secs: 5.0,
                found_secs: 4.5
            }
        );
    }

    #[test]
    fn nan_and_negative_durations_are_field_errors() {
        for (bad_row, column) in [
            ("0,0,1,0,NaN,120", 5usize),
            ("0,0,1,0,-3,120", 5),
            ("0,0,1,0,60,-1", 6),
            ("0,-2,1,0,60,120", 2),
        ] {
            let text = format!("{HEADER}\n{CORE}\n{bad_row}\n");
            let err = load_str(&text).unwrap_err();
            match err {
                TraceParseError::Field {
                    line, column: c, ..
                } => {
                    assert_eq!(line, 3, "{bad_row}");
                    assert_eq!(c, column, "{bad_row}");
                }
                other => panic!("expected Field error for `{bad_row}`, got {other}"),
            }
        }
    }

    #[test]
    fn malformed_fields_name_line_and_column() {
        let text = format!("{HEADER}\n{CORE}\n0,0,zero,0,60,120\n");
        let err = load_str(&text).unwrap_err();
        assert_eq!(
            err,
            TraceParseError::Field {
                line: 3,
                column: 3,
                name: "map_tasks".into(),
                message: "`zero` is not a u32".into()
            }
        );
        let text = format!("{HEADER}\n{CORE}\n0,0,1,0,60\n");
        let err = load_str(&text).unwrap_err();
        assert!(
            matches!(err, TraceParseError::Field { line: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn zero_map_tasks_is_rejected() {
        let text = format!("{HEADER}\n{CORE}\n0,0,0,0,60,120\n");
        let err = load_str(&text).unwrap_err();
        assert!(
            matches!(
                err,
                TraceParseError::Field {
                    line: 3,
                    column: 3,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn map_tasks_above_the_per_job_limit_is_rejected() {
        // One short row must not make the loader allocate without bound.
        for map_tasks in [u64::from(MAX_MAP_TASKS) + 1, u64::from(u32::MAX)] {
            let text = format!("{HEADER}\n{CORE}\n0,0,{map_tasks},0,60,120\n");
            let err = load_str(&text).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceParseError::Field {
                        line: 3,
                        column: 3,
                        ..
                    }
                ),
                "{err}"
            );
            assert!(err.to_string().contains("per-job limit"), "{err}");
        }
        // The limit itself loads, and the writer refuses one task more.
        let text = format!("{HEADER}\n{CORE}\n0,0,{MAX_MAP_TASKS},0,60,120\n");
        let jobs = load_str(&text).unwrap();
        assert_eq!(load_str(&write_to_string(&jobs)).unwrap(), jobs);
        let too_big = jobs[0]
            .clone()
            .with_tasks(vec![TaskSpec::nominal(); MAX_MAP_TASKS as usize + 1]);
        let mut writer = TraceWriter::new(Vec::new(), None).unwrap();
        assert_eq!(
            writer.write_job(&too_big),
            Err(TraceWriteError::TooManyTasks {
                job: 0,
                tasks: MAX_MAP_TASKS as usize + 1
            })
        );
    }

    #[test]
    fn inconsistent_mean_and_t_min_is_rejected() {
        let text = format!(
            "{HEADER}\n{CORE},t_min_s\n0,0,1,0,60,120,25\n" // 25 * 3 = 75 != 60
        );
        let err = load_str(&text).unwrap_err();
        assert!(
            matches!(
                err,
                TraceParseError::Field {
                    line: 3,
                    column: 5,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("inconsistent profile"), "{err}");
    }

    #[test]
    fn task_sizes_count_must_match_map_tasks() {
        let text = format!("{HEADER}\n{CORE},task_sizes\n0,0,3,0,60,120,1.0;1.1\n");
        let err = load_str(&text).unwrap_err();
        assert!(
            matches!(
                err,
                TraceParseError::Field {
                    line: 3,
                    column: 7,
                    ..
                }
            ),
            "{err}"
        );
        let text = format!("{HEADER}\n{CORE},task_sizes\n0,0,2,0,60,120,1.0;-0.5\n");
        let err = load_str(&text).unwrap_err();
        assert!(err.to_string().contains("size factor"), "{err}");
    }

    #[test]
    fn stream_fuses_after_first_error() {
        let text = format!("{HEADER}\n{CORE}\n0,0,1,0,60,120\n1,1,bad,0,60,120\n2,2,1,0,60,120\n");
        let mut stream = TraceLoader::from_reader(text.as_bytes())
            .unwrap()
            .stream(1)
            .unwrap();
        assert!(stream.next().unwrap().is_ok());
        assert!(stream.next().unwrap().is_err());
        assert!(stream.next().is_none());
        assert!(stream.next().is_none());
    }

    #[test]
    fn writer_rejects_out_of_order_and_invalid_jobs() {
        let a = JobSpec::new(JobId::new(0), SimTime::from_secs(10.0), 100.0, 2);
        let b = JobSpec::new(JobId::new(1), SimTime::from_secs(5.0), 100.0, 2);
        let mut writer = TraceWriter::new(Vec::new(), None).unwrap();
        writer.write_job(&a).unwrap();
        let err = writer.write_job(&b).unwrap_err();
        assert!(
            matches!(err, TraceWriteError::NonMonotonicSubmit { job: 1, .. }),
            "{err}"
        );

        let mut writer = TraceWriter::new(Vec::new(), None).unwrap();
        let invalid = JobSpec::new(JobId::new(2), SimTime::ZERO, 100.0, 0);
        assert!(matches!(
            writer.write_job(&invalid).unwrap_err(),
            TraceWriteError::InvalidSpec { job: 2, .. }
        ));

        let mut writer = TraceWriter::new(Vec::new(), None).unwrap();
        let heavy = JobSpec::new(JobId::new(3), SimTime::ZERO, 100.0, 1)
            .with_profile(Pareto::new(10.0, 0.9).unwrap());
        assert!(matches!(
            writer.write_job(&heavy).unwrap_err(),
            TraceWriteError::InfiniteMean { job: 3, .. }
        ));
    }

    #[test]
    fn writer_enforces_declared_count() {
        let jobs = GoogleTraceConfig::scaled(5, 1)
            .generate()
            .unwrap()
            .into_jobs();
        let mut writer = TraceWriter::new(Vec::new(), Some(9)).unwrap();
        writer.write_all(&jobs).unwrap();
        assert_eq!(writer.written(), 5);
        let err = writer.finish().unwrap_err();
        assert_eq!(
            err,
            TraceWriteError::DeclaredCountMismatch {
                declared: 9,
                written: 5
            }
        );
    }

    #[test]
    fn blank_lines_are_skipped_but_counted() {
        let text = format!("{HEADER}\n\n{CORE}\n\n0,0,1,0,60,120\n\n1,1,bad,0,60,120\n");
        let err = load_str(&text).unwrap_err();
        // The bad row is physical line 7.
        assert_eq!(err.line(), 7);
    }

    #[test]
    fn error_display_names_lines_and_columns() {
        let err = TraceParseError::Field {
            line: 12,
            column: 5,
            name: "mean_task_duration_s".into(),
            message: "`NaN` is not a finite value > 0".into(),
        };
        let text = err.to_string();
        assert!(text.contains("line 12"), "{text}");
        assert!(text.contains("column 5"), "{text}");
        assert!(text.contains("mean_task_duration_s"), "{text}");
    }
}
