//! The streamed report writer must emit exactly the bytes `serde_json`
//! produces for the whole report, in both layouts, and `report_digest`
//! must hash exactly the compact ones. Generated reports cover empty, one-
//! and many-job maps, unfinished jobs, jobs without a reported `r`,
//! non-finite floats (serialized as `null`) and policy labels that need
//! escaping or are `+`-joined sets.

use chronos_bench::report_digest;
use chronos_bench::report_json::{write_report_json, JsonStyle};
use chronos_sim::prelude::*;
use proptest::prelude::*;

const POLICIES: [&str; 6] = [
    "",
    "s-resume",
    "clone+s-restart+s-resume",
    "quo\"te",
    "back\\slash+tab\there",
    "line\nbreak+\u{1}ctl+ünï",
];

/// A float that is sometimes NaN or infinite.
fn float(mixed: u64) -> f64 {
    match mixed % 9 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => (mixed % 1_000) as f64,
        4 => 1e17 + (mixed % 7) as f64,
        _ => (mixed % 1_000_000) as f64 / 37.0,
    }
}

/// Expands compact generated parameters into a report. `size` selects 0,
/// 1 or many jobs; ids are sparse and may reach `u64::MAX`.
fn report(size: u8, salt: u64, policy: usize) -> SimulationReport {
    let job_count = match size {
        0 => 0,
        1 => 1,
        _ => 2 + salt % 40,
    };
    let mut report = SimulationReport {
        policy: POLICIES[policy % POLICIES.len()].to_string(),
        events_dispatched: salt % 100_000,
        events_stale: salt % 97,
        ended_at: SimTime::from_micros(salt % 1_000_000_000),
        ..SimulationReport::default()
    };
    let mut id = salt % 5;
    for offset in 0..job_count {
        let mixed = splitmix64(salt.wrapping_add(offset));
        id = if offset + 1 == job_count && mixed % 3 == 0 {
            u64::MAX
        } else {
            id + 1 + mixed % 1_000
        };
        let submitted_at = SimTime::from_micros(mixed % 10_000_000_000);
        let completed_at = (mixed % 4 != 0)
            .then(|| submitted_at + SimDuration::from_secs((mixed % 100_000) as f64 / 8.0));
        let metrics = JobMetrics {
            job: JobId::new(id),
            submitted_at,
            deadline_secs: float(mixed >> 3),
            completed_at,
            met_deadline: mixed % 5 < 3,
            machine_time_secs: float(mixed >> 11),
            cost: float(mixed >> 19),
            attempts_launched: (mixed % 9) as u32,
            attempts_killed: (mixed % 4) as u32,
            chosen_r: (mixed % 3 != 0).then_some((mixed % 6) as u32),
        };
        match metrics.completion_secs() {
            Some(secs) => report.latency.record_secs(secs),
            None => report.latency.record_unfinished(),
        }
        report.jobs.insert(metrics.job, metrics);
    }
    report
}

fn streamed(report: &SimulationReport, style: JsonStyle) -> String {
    let mut bytes = Vec::new();
    write_report_json(report, style, &mut bytes).expect("writing into a Vec cannot fail");
    String::from_utf8(bytes).expect("the writer emits UTF-8")
}

fn fnv_of(text: &str) -> String {
    let mut digest = Digest::default();
    digest.write(text.as_bytes());
    digest.finish_hex()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_bytes_equal_serde_bytes(
        size in 0u8..3,
        salt in 0u64..u64::MAX,
        policy in 0usize..POLICIES.len(),
    ) {
        let report = report(size, salt, policy);
        let compact = serde_json::to_string(&report).unwrap();
        prop_assert_eq!(streamed(&report, JsonStyle::Compact), compact.clone());
        prop_assert_eq!(
            streamed(&report, JsonStyle::Pretty),
            serde_json::to_string_pretty(&report).unwrap()
        );
        prop_assert_eq!(report_digest(&report), fnv_of(&compact));
    }
}

/// The generator reaches every case the property is meant to cover.
#[test]
fn generated_reports_cover_the_edge_cases() {
    let reports: Vec<SimulationReport> = (0..256u64)
        .map(|salt| report((salt % 3) as u8, splitmix64(salt), salt as usize))
        .collect();
    let jobs = || reports.iter().flat_map(|report| report.jobs.values());
    assert!(reports.iter().any(|report| report.jobs.is_empty()));
    assert!(reports.iter().any(|report| report.jobs.len() == 1));
    assert!(reports.iter().any(|report| report.jobs.len() > 10));
    assert!(jobs().any(|job| job.completed_at.is_none()));
    assert!(jobs().any(|job| job.chosen_r.is_none()));
    assert!(jobs().any(|job| job.cost.is_nan()));
    assert!(jobs().any(|job| job.machine_time_secs.is_infinite()));
    assert!(jobs().any(|job| job.job == JobId::new(u64::MAX)));
    for label in POLICIES {
        assert!(reports.iter().any(|report| report.policy == label));
    }
}
