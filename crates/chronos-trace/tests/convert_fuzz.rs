//! Byte-mutation fuzzing of the Google cluster-trace converter.
//!
//! Each case applies the loader fuzz test's edits (see `mutator`) to the
//! `task_events` fixture and converts the result in memory. Whatever the
//! bytes, the converter must not panic; a rejection must name a line
//! inside the input (or line 0 for the failures that have none, and then
//! not claim one in its message); an accepted conversion must load through
//! [`TraceLoader`] and round-trip bit-exactly through [`TraceWriter`]. The
//! vendored proptest seeds each property from its name, so every run
//! explores the same mutants.

mod mutator;

use chronos_sim::prelude::JobSpec;
use chronos_trace::prelude::{
    GoogleClusterTraceConverter, TraceConverter, TraceLoader, TraceParseError, TraceWriter,
};
use proptest::prelude::*;

const FIXTURE: &[u8] = include_bytes!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../chronos-bench/tests/fixtures/google2011_task_events.csv"
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
    fn mutated_task_events_are_rejected_by_line_or_convert_to_a_loadable_trace(
        seed in 0..u64::MAX,
    ) {
        let bytes = mutator::mutate(FIXTURE, seed);
        let mut converted = Vec::new();
        match GoogleClusterTraceConverter::new().convert(&mut bytes.as_slice(), &mut converted) {
            Err(err) => {
                let lines = bytes.split(|&b| b == b'\n').count();
                let line = err.line();
                prop_assert!(line <= lines, "seed {seed}: {err}");
                let shown = err.to_string();
                if line == 0 {
                    prop_assert!(!shown.starts_with("line "), "seed {seed}: {shown}");
                } else {
                    prop_assert!(
                        shown.starts_with(&format!("line {line}:"))
                            || shown.starts_with(&format!("line {line},")),
                        "seed {seed}: {shown}"
                    );
                }
            }
            Ok(summary) => {
                let jobs = load(&converted).expect("a converted trace loads");
                prop_assert_eq!(jobs.len() as u64, summary.jobs, "seed {}", seed);
                prop_assert_eq!(write(&jobs), converted, "seed {}", seed);
            }
        }
    }
}
