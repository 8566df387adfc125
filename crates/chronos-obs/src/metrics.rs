//! A typed metrics registry that is a commutative monoid.
//!
//! Every aggregate in this workspace (`SimulationReport`,
//! `LatencyHistogram`, `CacheStats`, …) merges associatively and
//! commutatively so sharded runs are bit-identical regardless of worker
//! count. The registry follows the same law: [`MetricsRegistry::merge`] is
//! order-insensitive (counters and gauges add, histogram buckets add
//! element-wise), and the empty registry is the identity. Per-shard or
//! per-worker registries can therefore be folded in any order and still
//! render the same snapshot.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A histogram snapshot: per-bucket counts over finite upper bounds, with
/// an implicit overflow bucket and a (non-hashed, informational) sum.
///
/// `counts.len() == bounds.len() + 1`; the final count is the overflow
/// (`+Inf`) bucket. Bounds must be strictly increasing and finite.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramMetric {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
}

impl HistogramMetric {
    /// Builds a histogram snapshot from finite upper bounds and per-bucket
    /// counts (`counts.len()` must be `bounds.len() + 1`; the last entry
    /// is the overflow bucket).
    ///
    /// # Panics
    ///
    /// Panics if the shape invariant is violated or a bound is not finite
    /// and strictly increasing.
    #[must_use]
    pub fn from_parts(bounds: Vec<f64>, counts: Vec<u64>, sum: f64) -> Self {
        assert_eq!(
            counts.len(),
            bounds.len() + 1,
            "histogram needs one more count than bounds (overflow bucket)"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        HistogramMetric {
            bounds,
            counts,
            sum,
        }
    }

    /// Total number of observations across all buckets.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of observed values (approximate if the producer derived it).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Finite bucket upper bounds, in increasing order.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the final entry is the
    /// overflow (`+Inf`) bucket.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Merges another snapshot into this one, element-wise.
    ///
    /// The empty histogram is the identity. Two non-empty histograms must
    /// share the same bucket bounds — in this workspace every histogram of
    /// a given metric name has the same fixed shape by construction.
    ///
    /// # Panics
    ///
    /// Panics if both histograms are non-empty with different bounds.
    pub fn merge(&mut self, other: &HistogramMetric) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }
}

/// The value of one metric family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotone event count; merges by addition.
    Counter(u64),
    /// Instantaneous level (queue depth, cache entries). Merging adds, so
    /// per-shard gauges report per-shard levels and the merged registry
    /// reports the cluster-wide total.
    Gauge(i64),
    /// Bucketed distribution; merges element-wise.
    Histogram(HistogramMetric),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(mine), MetricValue::Counter(theirs)) => *mine += theirs,
            (MetricValue::Gauge(mine), MetricValue::Gauge(theirs)) => *mine += theirs,
            (MetricValue::Histogram(mine), MetricValue::Histogram(theirs)) => mine.merge(theirs),
            (mine, theirs) => panic!(
                "metric type mismatch on merge: {} vs {}",
                mine.type_name(),
                theirs.type_name()
            ),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct MetricFamily {
    help: String,
    value: MetricValue,
}

/// A registry of named metric families with deterministic iteration order
/// (names sort lexicographically) and monoidal merge.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    families: BTreeMap<String, MetricFamily>,
}

impl MetricsRegistry {
    /// An empty registry (the merge identity).
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Number of metric families registered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// Whether no families are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn counter_add(&mut self, name: &str, help: &str, delta: u64) {
        self.upsert(name, help, MetricValue::Counter(delta));
    }

    /// Adds `delta` to the gauge `name`, creating it at zero first.
    /// Gauges add on merge, so record per-shard levels here and read
    /// cluster-wide totals from the merged registry.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn gauge_add(&mut self, name: &str, help: &str, delta: i64) {
        self.upsert(name, help, MetricValue::Gauge(delta));
    }

    /// Merges `histogram` into the histogram family `name`, creating it
    /// empty first.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type, or on a
    /// bucket-shape mismatch.
    pub fn histogram_merge(&mut self, name: &str, help: &str, histogram: HistogramMetric) {
        self.upsert(name, help, MetricValue::Histogram(histogram));
    }

    /// Looks up a metric family's current value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.families.get(name).map(|family| &family.value)
    }

    /// Iterates families in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.families
            .iter()
            .map(|(name, family)| (name.as_str(), &family.value))
    }

    /// Folds another registry into this one. Commutative and associative;
    /// `MetricsRegistry::new()` is the identity, so per-shard registries
    /// may be merged in any order.
    ///
    /// # Panics
    ///
    /// Panics if the same name carries different metric types.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, family) in &other.families {
            self.upsert(name, &family.help, family.value.clone());
        }
    }

    fn upsert(&mut self, name: &str, help: &str, value: MetricValue) {
        match self.families.get_mut(name) {
            Some(existing) => {
                existing.value.merge(&value);
                if existing.help.is_empty() {
                    existing.help = help.to_string();
                }
            }
            None => {
                self.families.insert(
                    name.to_string(),
                    MetricFamily {
                        help: help.to_string(),
                        value,
                    },
                );
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Output is fully deterministic: families print in name order, bucket
    /// bounds use Rust's shortest-roundtrip float formatting, and nothing
    /// wall-clock-derived is included — the rendering of a merged sharded
    /// run is byte-identical across worker counts.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            if !family.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
            }
            let _ = writeln!(out, "# TYPE {name} {}", family.value.type_name());
            match &family.value {
                MetricValue::Counter(value) => {
                    let _ = writeln!(out, "{name} {value}");
                }
                MetricValue::Gauge(value) => {
                    let _ = writeln!(out, "{name} {value}");
                }
                MetricValue::Histogram(histogram) => {
                    let mut cumulative = 0u64;
                    for (bound, count) in histogram.bounds.iter().zip(&histogram.counts) {
                        cumulative += count;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    let total = histogram.count();
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
                    let _ = writeln!(out, "{name}_sum {}", histogram.sum);
                    let _ = writeln!(out, "{name}_count {total}");
                }
            }
        }
        out
    }

    /// Renders the registry as pretty-printed JSON (same content as the
    /// Prometheus form, structured).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the registry contains only serializable
    /// primitives.
    #[must_use]
    pub fn render_json(&self) -> String {
        // Invariant: the registry holds only strings, integers and finite-or-not f64s, all serializable.
        #[allow(clippy::expect_used)]
        serde_json::to_string_pretty(self).expect("registry serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_histogram(scale: u64) -> HistogramMetric {
        HistogramMetric::from_parts(vec![1.0, 2.0, 4.0], vec![scale, 0, 2 * scale, 1], 7.5)
    }

    #[test]
    fn merge_is_commutative_with_identity() {
        let mut a = MetricsRegistry::new();
        a.counter_add("chronos_events_total", "events", 3);
        a.gauge_add("chronos_entries", "entries", 5);
        a.histogram_merge("chronos_latency", "latency", sample_histogram(1));

        let mut b = MetricsRegistry::new();
        b.counter_add("chronos_events_total", "events", 4);
        b.gauge_add("chronos_entries", "entries", -2);
        b.histogram_merge("chronos_latency", "latency", sample_histogram(2));
        b.counter_add("chronos_only_b_total", "b-only", 1);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        let mut with_identity = ab.clone();
        with_identity.merge(&MetricsRegistry::new());
        assert_eq!(with_identity, ab);

        assert_eq!(
            ab.get("chronos_events_total"),
            Some(&MetricValue::Counter(7))
        );
        assert_eq!(ab.get("chronos_entries"), Some(&MetricValue::Gauge(3)));
        match ab.get("chronos_latency") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.counts(), &[3, 0, 6, 2]);
                assert_eq!(h.count(), 11);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn prometheus_rendering_is_stable() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("chronos_events_total", "events dispatched", 12);
        registry.histogram_merge(
            "chronos_latency_seconds",
            "job latency",
            sample_histogram(1),
        );
        let text = registry.render_prometheus();
        let expected = "\
# HELP chronos_events_total events dispatched
# TYPE chronos_events_total counter
chronos_events_total 12
# HELP chronos_latency_seconds job latency
# TYPE chronos_latency_seconds histogram
chronos_latency_seconds_bucket{le=\"1\"} 1
chronos_latency_seconds_bucket{le=\"2\"} 1
chronos_latency_seconds_bucket{le=\"4\"} 3
chronos_latency_seconds_bucket{le=\"+Inf\"} 4
chronos_latency_seconds_sum 7.5
chronos_latency_seconds_count 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_round_trips() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("chronos_events_total", "events", 2);
        let json = registry.render_json();
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, registry);
    }

    #[test]
    #[should_panic(expected = "metric type mismatch")]
    fn type_mismatch_panics() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("chronos_x", "", 1);
        registry.gauge_add("chronos_x", "", 1);
    }
}
