//! Task attempts: the unit of execution, progress and machine-time billing.
//!
//! Every attempt owns a draw from the task-time distribution (`work_duration`
//! is the time this attempt would need to process the task's *full* split),
//! a JVM launch delay, and a `start_fraction` describing how much of the
//! split was already processed before the attempt began (non-zero only for
//! Speculative-Resume attempts). Progress advances linearly once the JVM is
//! up, exactly as Hadoop's map-phase progress score does.

use crate::ids::{AttemptId, JobId, NodeId, TaskId};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Lifecycle state of an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttemptState {
    /// Created but still waiting for a container.
    Pending,
    /// Running on a container.
    Running,
    /// Finished processing its split successfully.
    Finished,
    /// Killed by the Application Master (pruning, task already done, …).
    Killed,
}

/// A single execution attempt of a task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attempt {
    /// Unique attempt id.
    pub id: AttemptId,
    /// The task this attempt executes.
    pub task: TaskId,
    /// The owning job.
    pub job: JobId,
    /// When the attempt was created (requested a container).
    pub created_at: SimTime,
    /// Fraction of the split already processed before this attempt started
    /// (Speculative-Resume hand-off offset); `0` for ordinary attempts.
    /// [`Attempt::start`] derives the completion instant from it.
    pub start_fraction: f64,
    /// Current lifecycle state.
    pub state: AttemptState,
    /// Node the attempt runs on, once started.
    pub node: Option<NodeId>,
    /// When the container was assigned and the JVM began launching.
    /// [`Attempt::start`] derives the work-start and completion instants
    /// from it.
    pub launched_at: Option<SimTime>,
    /// JVM launch delay in seconds (no useful work happens during it).
    /// [`Attempt::start`] derives the work-start and completion instants
    /// from it.
    pub jvm_delay_secs: f64,
    /// Time, in seconds, this attempt would need to process the entire split
    /// (already including the node slowdown and the task size factor).
    /// [`Attempt::start`] derives the completion instant from it.
    pub work_duration_secs: f64,
    /// When the attempt stopped running (finished or killed).
    pub ended_at: Option<SimTime>,
    /// Next attempt of the same task in creation order — the intrusive
    /// sibling chain headed by
    /// [`TaskRuntime::first_attempt`](crate::job::TaskRuntime::first_attempt).
    pub next_sibling: Option<AttemptId>,
    /// `launched_at + jvm_delay_secs`, set by [`Attempt::start`]; read only
    /// once `launched_at` is set.
    work_start_at: SimTime,
    /// `work_start_at + (1 − start_fraction) · work_duration_secs`, set by
    /// [`Attempt::start`]; read only once `launched_at` is set.
    completes_at: SimTime,
}

impl Attempt {
    /// Creates a pending attempt.
    #[must_use]
    pub fn pending(
        id: AttemptId,
        task: TaskId,
        job: JobId,
        created_at: SimTime,
        start_fraction: f64,
    ) -> Self {
        Attempt {
            id,
            task,
            job,
            created_at,
            start_fraction: start_fraction.clamp(0.0, 0.999_999),
            state: AttemptState::Pending,
            node: None,
            launched_at: None,
            jvm_delay_secs: 0.0,
            work_duration_secs: 0.0,
            ended_at: None,
            next_sibling: None,
            work_start_at: SimTime::ZERO,
            completes_at: SimTime::ZERO,
        }
    }

    /// Marks the attempt as started on `node` at `now` with the given JVM
    /// delay and full-split processing time, and computes the work-start and
    /// completion instants once: the checks read them for every attempt at
    /// every check point. Returns the completion instant.
    pub fn start(
        &mut self,
        node: NodeId,
        now: SimTime,
        jvm_delay_secs: f64,
        work_secs: f64,
    ) -> SimTime {
        debug_assert_eq!(self.state, AttemptState::Pending);
        self.state = AttemptState::Running;
        self.node = Some(node);
        self.launched_at = Some(now);
        self.jvm_delay_secs = jvm_delay_secs.max(0.0);
        self.work_duration_secs = work_secs.max(f64::MIN_POSITIVE);
        self.work_start_at = now + SimDuration::from_secs(self.jvm_delay_secs);
        let remaining = (1.0 - self.start_fraction) * self.work_duration_secs;
        self.completes_at = self.work_start_at + SimDuration::from_secs(remaining);
        self.completes_at
    }

    /// True while the attempt occupies (or waits for) a container.
    #[must_use]
    pub fn is_active(&self) -> bool {
        matches!(self.state, AttemptState::Pending | AttemptState::Running)
    }

    /// True while the attempt is running on a container.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.state == AttemptState::Running
    }

    /// The instant useful work begins (JVM fully launched), if started.
    #[must_use]
    pub fn work_start(&self) -> Option<SimTime> {
        self.launched_at.map(|_| self.work_start_at)
    }

    /// The completion instant this attempt will reach if left alone.
    #[must_use]
    pub fn completion_time(&self) -> Option<SimTime> {
        self.launched_at.map(|_| self.completes_at)
    }

    /// Progress score (fraction of the split processed) at time `now`,
    /// following Hadoop's map-phase definition: the resumed offset counts as
    /// already-processed data.
    #[must_use]
    pub fn progress_at(&self, now: SimTime) -> f64 {
        let Some(work_start) = self.work_start() else {
            return 0.0;
        };
        if now <= work_start {
            // The JVM is still launching; Hadoop reports zero progress until
            // the first record is processed.
            return if self.start_fraction > 0.0 {
                self.start_fraction
            } else {
                0.0
            };
        }
        let elapsed = (now - work_start).as_secs();
        let fraction = self.start_fraction + elapsed / self.work_duration_secs;
        fraction.min(1.0)
    }

    /// Machine time (seconds of container occupancy) accumulated by `now`,
    /// or in total if the attempt has already ended. Pending attempts cost
    /// nothing.
    #[must_use]
    pub fn machine_time_until(&self, now: SimTime) -> f64 {
        let Some(launched) = self.launched_at else {
            return 0.0;
        };
        let end = match self.ended_at {
            Some(ended) => ended.min(now),
            None => now,
        };
        (end.saturating_since(launched)).as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started_attempt(jvm: f64, work: f64, offset: f64) -> Attempt {
        let mut a = Attempt::pending(
            AttemptId::new(1),
            TaskId::new(2),
            JobId::new(3),
            SimTime::from_secs(5.0),
            offset,
        );
        a.start(NodeId::new(0), SimTime::from_secs(10.0), jvm, work);
        a
    }

    #[test]
    fn pending_attempt_defaults() {
        let a = Attempt::pending(
            AttemptId::new(1),
            TaskId::new(2),
            JobId::new(3),
            SimTime::ZERO,
            0.0,
        );
        assert_eq!(a.state, AttemptState::Pending);
        assert!(a.is_active());
        assert!(!a.is_running());
        assert_eq!(a.completion_time(), None);
        assert_eq!(a.progress_at(SimTime::from_secs(100.0)), 0.0);
        assert_eq!(a.machine_time_until(SimTime::from_secs(100.0)), 0.0);
    }

    #[test]
    fn start_fraction_is_clamped() {
        let a = Attempt::pending(
            AttemptId::new(1),
            TaskId::new(2),
            JobId::new(3),
            SimTime::ZERO,
            1.5,
        );
        assert!(a.start_fraction < 1.0);
        let b = Attempt::pending(
            AttemptId::new(1),
            TaskId::new(2),
            JobId::new(3),
            SimTime::ZERO,
            -0.5,
        );
        assert_eq!(b.start_fraction, 0.0);
    }

    #[test]
    fn completion_time_accounts_for_jvm_and_offset() {
        // Launched at 10, JVM 2 s, 40 s of full-split work, starting at 25 %:
        // completes at 10 + 2 + 0.75·40 = 42.
        let a = started_attempt(2.0, 40.0, 0.25);
        assert_eq!(a.completion_time(), Some(SimTime::from_secs(42.0)));
        assert!(a.is_running());
    }

    #[test]
    fn progress_is_linear_after_jvm() {
        let a = started_attempt(2.0, 40.0, 0.0);
        // Before work starts: zero progress.
        assert_eq!(a.progress_at(SimTime::from_secs(11.0)), 0.0);
        // Half the work done at 12 + 20 = 32.
        let p = a.progress_at(SimTime::from_secs(32.0));
        assert!((p - 0.5).abs() < 1e-9);
        // Clamped at 1 after completion.
        assert_eq!(a.progress_at(SimTime::from_secs(500.0)), 1.0);
    }

    #[test]
    fn resumed_attempt_reports_offset_progress_during_jvm() {
        let a = started_attempt(2.0, 40.0, 0.4);
        assert!((a.progress_at(SimTime::from_secs(11.0)) - 0.4).abs() < 1e-12);
        // One second of work adds 1/40 of the split.
        let p = a.progress_at(SimTime::from_secs(13.0));
        assert!((p - (0.4 + 1.0 / 40.0)).abs() < 1e-9);
    }

    #[test]
    fn machine_time_accumulates_and_freezes_at_end() {
        let mut a = started_attempt(2.0, 40.0, 0.0);
        assert!((a.machine_time_until(SimTime::from_secs(20.0)) - 10.0).abs() < 1e-9);
        a.state = AttemptState::Killed;
        a.ended_at = Some(SimTime::from_secs(25.0));
        assert!((a.machine_time_until(SimTime::from_secs(100.0)) - 15.0).abs() < 1e-9);
        // Querying before the end keeps the partial value.
        assert!((a.machine_time_until(SimTime::from_secs(12.0)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn work_start_offset_by_jvm_delay() {
        let a = started_attempt(3.5, 10.0, 0.0);
        assert_eq!(a.work_start(), Some(SimTime::from_secs(13.5)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The instants `start` caches equal the expressions the
            /// accessors evaluated on every call before they were cached:
            /// fresh and resumed attempts, with JVM and work times down to
            /// fractions of a microsecond, probed before, at and after
            /// work start and completion.
            #[test]
            fn cached_instants_match_the_launch_expressions(
                launched_micros in 0u64..10_000_000_000,
                jvm in 0.0f64..30.0,
                work in 0.0f64..2_000.0,
                offset in 0.0f64..1.0,
                kind in 0usize..4,
                probe in 0.0f64..1.5,
            ) {
                // Kinds 0 and 1 are fresh attempts, 2 and 3 resumed ones;
                // odd kinds scale the JVM delay below 0.03 µs and the work
                // time below 2 µs, so rounding to whole microseconds matters.
                let scale = if kind % 2 == 1 { 1e-9 } else { 1.0 };
                let fraction = if kind >= 2 { offset } else { 0.0 };
                let mut a = Attempt::pending(
                    AttemptId::new(1),
                    TaskId::new(2),
                    JobId::new(3),
                    SimTime::ZERO,
                    fraction,
                );
                let launched = SimTime::from_micros(launched_micros);
                a.start(NodeId::new(0), launched, jvm * scale, work * scale);

                let work_start = launched + SimDuration::from_secs(a.jvm_delay_secs);
                let remaining = (1.0 - a.start_fraction) * a.work_duration_secs;
                let completion = launched
                    + SimDuration::from_secs(a.jvm_delay_secs)
                    + SimDuration::from_secs(remaining);
                prop_assert_eq!(a.work_start(), Some(work_start));
                prop_assert_eq!(a.completion_time(), Some(completion));

                let progress = |now: SimTime| {
                    if now <= work_start {
                        if a.start_fraction > 0.0 { a.start_fraction } else { 0.0 }
                    } else {
                        let elapsed = (now - work_start).as_secs();
                        (a.start_fraction + elapsed / a.work_duration_secs).min(1.0)
                    }
                };
                let span = a.jvm_delay_secs + a.work_duration_secs;
                let probes = [
                    launched,
                    work_start,
                    completion,
                    launched + SimDuration::from_secs(probe * span),
                    completion + SimDuration::from_micros(1),
                ];
                for now in probes {
                    prop_assert_eq!(a.progress_at(now).to_bits(), progress(now).to_bits());
                }
            }
        }
    }
}
