//! Metric names and units, the per-run outcome, and the order statistics
//! the benchmark reports.

use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("pocd", "fraction"),
    ("cost_per_job", "dollar"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. Times are
/// summed over threads; a metric of a layer a workload does not reach reads
/// 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.parse_s", "s"),
    ("trace.jobs", "count"),
    ("trace.bytes", "bytes"),
    ("trace.allocs", "count"),
    ("policy.batch_s", "s"),
    ("policy.batch_calls", "count"),
    ("policy.hook_s", "s"),
    ("policy.hook_calls", "count"),
    ("plan.solves", "count"),
    ("plan.cache_hits", "count"),
    ("plan.hit_rate", "fraction"),
    ("plan.evictions", "count"),
    ("budget.rounds", "count"),
    ("budget.copies_requested", "count"),
    ("budget.copies_granted", "count"),
    ("budget.grant_frac", "fraction"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.merge_s", "s"),
    ("sim.events_dispatched", "count"),
    ("sim.events_stale", "count"),
    ("sim.stale_frac", "fraction"),
    ("sim.events_per_self_s", "1/s"),
    ("sim.attempts_launched", "count"),
    ("sim.attempts_killed", "count"),
    ("sim.kill_frac", "fraction"),
    ("sim.shards", "count"),
    ("sim.allocs", "count"),
    ("proc.cpu_s", "s"),
    ("proc.parallel_eff", "fraction"),
    ("serve.submit_s", "s"),
    ("serve.wait_s", "s"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.requests", "count"),
    ("serve.rejected", "count"),
    ("serve.memo_miss_frac", "fraction"),
    ("serve.allocs_per_request", "count"),
    ("serve.cpu_us_per_request", "us"),
    ("bench.trace_overhead", "fraction"),
];

/// Named metric values of one run.
#[derive(Debug, Clone, Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Records `value` under `name`, which must be one of the declared
    /// metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(known, _)| *known == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The per-metric median over `ledgers`.
    pub fn median_of(ledgers: &[Ledger]) -> Ledger {
        let mut merged: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ledger in ledgers {
            for (&name, &value) in &ledger.0 {
                merged.entry(name).or_default().push(value);
            }
        }
        Ledger(
            merged
                .into_iter()
                .map(|(name, values)| (name, median(&values)))
                .collect(),
        )
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or did not pass their checks.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// End-to-end metrics (`ok_frac` is derived from the counts).
    pub end_to_end: Ledger,
    /// Per-layer metrics of the traced phase.
    pub per_layer: Ledger,
    /// Provenance and check details printed before the result line.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// A run that failed before its first operation.
    pub fn failed(error: String) -> Outcome {
        let mut outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        outcome.fail(error);
        outcome
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Adds a provenance or check note.
    pub fn note(&mut self, key: &'static str, value: String) {
        self.notes.push((key, value));
    }
}

/// How a run splits `--seconds`: all untraced, or an untraced half (the
/// baseline of `bench.trace_overhead`) followed by a traced half.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Measured seconds of the whole run.
    pub seconds: f64,
    /// Whether the run has a traced phase.
    pub trace: bool,
}

impl Phases {
    /// `(traced, seconds)` of each phase, in order.
    pub fn iter(self) -> Vec<(bool, f64)> {
        if self.trace {
            vec![(false, self.seconds / 2.0), (true, self.seconds / 2.0)]
        } else {
            vec![(false, self.seconds)]
        }
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    sorted[lower] + (sorted[upper] - sorted[lower]) * (position - lower as f64)
}

/// The median of `values` (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
