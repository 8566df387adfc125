//! Span-style phase timing under two clocks.
//!
//! * **Sim-time spans** are ordinary [`TraceEvent::Phase`] records built
//!   from integer sim-time microseconds: deterministic, digest-safe, part
//!   of the decision log.
//! * **Wall-clock spans** (behind the `wallclock` feature) time real
//!   elapsed nanoseconds for profiling. They are *never* hashed, never
//!   merged into digested traces, and never written to golden files —
//!   they render only through `WallProfile::render`.

use crate::trace::TraceEvent;

/// Builds a digest-safe sim-time phase span event. `start_micros` and
/// `end_micros` are integer microseconds of simulation time.
#[must_use]
pub fn sim_span(name: &str, start_micros: u64, end_micros: u64) -> TraceEvent {
    TraceEvent::Phase {
        name: name.to_string(),
        start_micros,
        end_micros,
    }
}

/// A running wall-clock span. Profiling only: readings are
/// nondeterministic and must never feed a digest or golden file.
#[cfg(feature = "wallclock")]
#[derive(Debug)]
pub struct WallSpan {
    name: String,
    started: std::time::Instant,
}

#[cfg(feature = "wallclock")]
impl WallSpan {
    /// Starts timing a named phase on the wall clock.
    #[must_use]
    pub fn start(name: &str) -> Self {
        WallSpan {
            name: name.to_string(),
            started: std::time::Instant::now(),
        }
    }

    /// Stops the span and records it into `profile`.
    pub fn finish(self, profile: &mut WallProfile) {
        let elapsed_nanos = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        profile.spans.push((self.name, elapsed_nanos));
    }
}

/// An append-only collection of finished wall-clock spans.
#[cfg(feature = "wallclock")]
#[derive(Debug, Default)]
pub struct WallProfile {
    spans: Vec<(String, u64)>,
}

#[cfg(feature = "wallclock")]
impl WallProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        WallProfile::default()
    }

    /// Finished spans in completion order, as `(name, elapsed_nanos)`.
    #[must_use]
    pub fn spans(&self) -> &[(String, u64)] {
        &self.spans
    }

    /// Renders one `wall <name> <nanos>ns` line per span. Human-readable
    /// profiling output — not stable, not for goldens.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, nanos) in &self.spans {
            let _ = writeln!(out, "wall {name} {nanos}ns");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_span_is_a_phase_event() {
        let event = sim_span("simulate", 0, 42);
        assert_eq!(
            event,
            TraceEvent::Phase {
                name: "simulate".to_string(),
                start_micros: 0,
                end_micros: 42,
            }
        );
    }

    #[cfg(feature = "wallclock")]
    #[test]
    fn wall_spans_render() {
        let mut profile = WallProfile::new();
        WallSpan::start("noop").finish(&mut profile);
        assert_eq!(profile.spans().len(), 1);
        assert!(profile.render().starts_with("wall noop "));
    }
}
