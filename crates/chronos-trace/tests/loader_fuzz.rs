//! Byte-mutation fuzzing of the v1 trace loader.
//!
//! Each case applies a few random edits to a converted Google trace (byte
//! overwrites, insertions and deletions, runs of digits, duplicated
//! slices) and loads the result. Whatever the bytes, the loader must not
//! panic; a rejection must name a line of the input; an accepted trace must
//! round-trip bit-exactly through [`TraceWriter`]. The vendored proptest
//! seeds each property from its name, so every run explores the same
//! mutants.

mod mutator;

use chronos_sim::prelude::JobSpec;
use chronos_trace::prelude::{TraceLoader, TraceParseError, TraceWriter};
use proptest::prelude::*;

const FIXTURE: &[u8] = include_bytes!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../chronos-bench/tests/golden/google2011_converted.trace"
));

fn load(bytes: &[u8]) -> Result<Vec<JobSpec>, TraceParseError> {
    TraceLoader::from_reader(bytes)?.load()
}

fn write(jobs: &[JobSpec]) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), Some(jobs.len() as u64)).expect("header");
    writer.write_all(jobs).expect("a loaded job writes");
    writer.finish().expect("declared count holds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32_768))]

    #[test]
    fn mutated_traces_are_rejected_by_line_or_round_trip(seed in 0..u64::MAX) {
        let bytes = mutator::mutate(FIXTURE, seed);
        match load(&bytes) {
            Err(err) => {
                // A file without a final newline can be truncated one line
                // past its last.
                let lines = bytes.split(|&b| b == b'\n').count() + 1;
                let line = err.line();
                prop_assert!((1..=lines).contains(&line), "seed {seed}: {err}");
                let shown = err.to_string();
                prop_assert!(
                    shown.starts_with(&format!("line {line}:"))
                        || shown.starts_with(&format!("line {line},")),
                    "seed {seed}: {shown}"
                );
            }
            Ok(jobs) => {
                let written = write(&jobs);
                let reloaded = load(&written).expect("a written trace loads");
                prop_assert_eq!(&reloaded, &jobs, "seed {}", seed);
                prop_assert_eq!(write(&reloaded), written, "seed {}", seed);
            }
        }
    }
}
