//! The discrete-event queue driving the simulation: one sorted FIFO run
//! plus one binary heap.
//!
//! # Ordering contract
//!
//! Events are totally ordered by `(time, sequence number)`: the sequence
//! number is a monotonically increasing tiebreaker so that same-timestamp
//! events pop in insertion order, keeping runs deterministic. The layout is
//! an implementation detail — [`EventQueue::pop`] yields exactly the
//! sequence a binary heap over `(time, seq)` would, which is what lets the
//! determinism pyramid (goldens, bit-identity proptests, the 1M-job scale
//! test) pin the engine.
//!
//! # Layout
//!
//! An event scheduled at or after the time of the run's last entry (or
//! into an empty run) is appended to the run; any other event goes to the
//! heap. Every append carries a higher sequence number than the entry
//! before it, so the run stays sorted by `(time, seq)` with no comparisons
//! beyond the one against its back, and [`EventQueue::pop`] takes the
//! smaller of the run's front and the heap's top.
//!
//! A replay of a time-sorted trace submits each shard's jobs in arrival
//! order before the shard's run starts, so every arrival lands in the run:
//! each is at or after the one before it. A completion or check scheduled while arrivals are pending
//! lies before the last arrival and goes to the heap, which therefore
//! holds only what is in flight; a pop sifts through those entries, never
//! through the pending arrivals.
//!
//! # Lazy deletion and capacity
//!
//! The queue itself never deletes scheduled events: the engine cancels an
//! [`Event::AttemptCompletion`] by killing the attempt and ignoring the
//! event when it pops (*lazy deletion*; such pops are counted as
//! `events_stale`, not dispatched). A fully drained queue therefore holds
//! no residue by construction — every scheduled entry is eventually popped
//! — and [`EventQueue::capacity`] exposes the allocated slot capacity so
//! tests can pin that reschedule-heavy runs leave nothing behind and bound
//! the high-water allocation.

use crate::ids::{AttemptId, JobId};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A job arrives and is submitted to the cluster.
    JobArrival(JobId),
    /// A running attempt reaches its completion time.
    ///
    /// Carries the completion timestamp that was valid when the event was
    /// scheduled; if the attempt was killed or rescheduled in the meantime
    /// the stale event is ignored (lazy deletion).
    AttemptCompletion(AttemptId),
    /// A policy check point (straggler estimation, pruning, periodic
    /// speculation scan) for the given job. `index` counts the job's checks.
    PolicyCheck {
        /// Job being checked.
        job: JobId,
        /// Ordinal of the check for that job (0-based).
        index: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScheduledEvent {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first ordering.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Priority queue of pending events (see the [module docs](self) for the
/// run-plus-heap layout and the ordering contract).
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Entries appended in non-decreasing time order; each carries a higher
    /// seq than the one before it, so the run is sorted by `(time, seq)`.
    run: VecDeque<ScheduledEvent>,
    /// Entries scheduled before the run's back when they arrived.
    heap: BinaryHeap<ScheduledEvent>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = ScheduledEvent { time, seq, event };
        match self.run.back() {
            Some(back) if time < back.time => self.heap.push(entry),
            _ => self.run.push_back(entry),
        }
    }

    /// True when the run's front precedes the heap's top by `(time, seq)`.
    fn run_is_next(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(heap)) => (run.time, run.seq) < (heap.time, heap.seq),
            (run, _) => run.is_some(),
        }
    }

    /// Pops the earliest event (by `(time, seq)`), if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let entry = if self.run_is_next() {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }?;
        Some((entry.time, entry.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue (the sequence
    /// counter). Since every scheduled event is eventually popped exactly
    /// once, a drained queue satisfies
    /// `scheduled_total == dispatched + stale`.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total allocated entry capacity (run plus heap). Bounded by the
    /// high-water mark of *concurrently* pending events — not by the total
    /// ever scheduled — which is what the capacity regression test pins.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.run.capacity() + self.heap.capacity()
    }

    /// The timestamp of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.run_is_next() {
            self.run.front().map(|entry| entry.time)
        } else {
            self.heap.peek().map(|entry| entry.time)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), Event::JobArrival(JobId::new(1)));
        q.schedule(SimTime::from_secs(1.0), Event::JobArrival(JobId::new(2)));
        q.schedule(SimTime::from_secs(3.0), Event::JobArrival(JobId::new(3)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::JobArrival(j) => j.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2.0);
        for i in 0..10 {
            q.schedule(t, Event::AttemptCompletion(AttemptId::new(i)));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::AttemptCompletion(a) => a.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(
            SimTime::from_secs(4.0),
            Event::PolicyCheck {
                job: JobId::new(0),
                index: 0,
            },
        );
        q.schedule(SimTime::from_secs(2.0), Event::JobArrival(JobId::new(0)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_pop_in_time_order() {
        // Times from microseconds to about an hour of simulated time,
        // scheduled out of order and with one duplicate, must pop in exact
        // (time, seq) order.
        let mut q = EventQueue::new();
        let horizon_micros: u64 = 536_870_912; // ≈ 9 simulated minutes
        let times = [
            horizon_micros * 7 + 3,
            5,
            horizon_micros * 2,
            horizon_micros - 1,
            horizon_micros + 1,
            horizon_micros * 7 + 3, // duplicate time: seq breaks the tie
        ];
        for (i, micros) in times.iter().enumerate() {
            q.schedule(
                SimTime::from_micros(*micros),
                Event::AttemptCompletion(AttemptId::new(i as u64)),
            );
        }
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::AttemptCompletion(a) => (t.as_micros(), a.raw()),
                _ => unreachable!(),
            })
            .collect();
        let mut expected: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, micros)| (*micros, i as u64))
            .collect();
        expected.sort_unstable();
        assert_eq!(popped, expected);
    }

    #[test]
    fn late_schedules_behind_the_last_pop_pop_next() {
        // Pop past an instant, then schedule an event before it: it must
        // pop before everything later.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(100.0), Event::JobArrival(JobId::new(0)));
        q.schedule(SimTime::from_secs(200.0), Event::JobArrival(JobId::new(1)));
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(100.0));
        q.schedule(SimTime::from_secs(1.0), Event::JobArrival(JobId::new(2)));
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(1.0));
        assert_eq!(e, Event::JobArrival(JobId::new(2)));
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(200.0));
        assert!(q.pop().is_none());
    }

    /// The queue must reproduce a reference `(time, seq)` sort exactly under
    /// interleaved schedule/pop traffic spanning ties, far-future times and
    /// zero-delay schedules.
    #[test]
    fn matches_reference_order_under_random_interleaving() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (micros, seq)
        let mut seq = 0u64;
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut now = 0u64;
        for round in 0..2_000 {
            let burst = rng.gen_range(0..4);
            for _ in 0..burst {
                // Mix near-future, same-time and far-future (overflow) times,
                // always at or after the last popped instant.
                let jitter: u64 = match rng.gen_range(0..10) {
                    0 => 0,
                    1..=7 => rng.gen_range(0..5_000_000),
                    _ => rng.gen_range(0..(1u64 << 32)),
                };
                let micros = now + jitter;
                q.schedule(
                    SimTime::from_micros(micros),
                    Event::AttemptCompletion(AttemptId::new(seq)),
                );
                reference.push((micros, seq));
                seq += 1;
            }
            if round % 3 != 0 {
                if let Some((t, e)) = q.pop() {
                    now = t.as_micros();
                    let Event::AttemptCompletion(a) = e else {
                        unreachable!()
                    };
                    popped.push((t.as_micros(), a.raw()));
                }
            }
        }
        while let Some((t, e)) = q.pop() {
            let Event::AttemptCompletion(a) = e else {
                unreachable!()
            };
            popped.push((t.as_micros(), a.raw()));
        }
        // Seq equals insertion order here, so the reference order is the
        // stable sort by (time, seq).
        reference.sort_unstable();
        assert_eq!(popped, reference);
    }

    #[test]
    fn drained_queue_leaves_no_residue_and_bounds_capacity() {
        // Reschedule-heavy traffic: many schedule/pop generations, as an
        // evict + re-speculate run produces. At drain the queue must hold
        // nothing (no stale entries in the run or the heap) and
        // its allocated capacity must reflect the concurrent high-water
        // mark, not the 10_000 events that ever flowed through.
        let mut q = EventQueue::new();
        let mut live = 0usize;
        let mut peak = 0usize;
        for generation in 0..100u64 {
            for i in 0..100u64 {
                q.schedule(
                    SimTime::from_micros(generation * 1_000 + i * 7),
                    Event::AttemptCompletion(AttemptId::new(generation * 100 + i)),
                );
                live += 1;
                peak = peak.max(live);
            }
            for _ in 0..100 {
                q.pop().expect("events pending");
                live -= 1;
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        assert!(
            q.run.is_empty() && q.heap.is_empty(),
            "drained queue retained entries"
        );
        // Vec growth doubles, so a generous peak-proportional bound still
        // catches capacity scaling with total throughput (10_000 events).
        assert!(
            q.capacity() <= peak * 8 + 64,
            "capacity {} not bounded by the high-water mark {}",
            q.capacity(),
            peak
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A time-sorted arrival batch (all of it in the run), then
            /// interleaved schedules and pops: schedules at, before and after
            /// the last popped instant, and at arrival instants still in the
            /// run, so heap entries tie with run entries. Every pop, peek and
            /// length must match a `BinaryHeap` over `(time, seq)`.
            #[test]
            fn pops_exactly_as_a_binary_heap_over_time_and_seq(
                salt in 0u64..u64::MAX,
                arrivals in 0usize..600,
                ops in 0usize..2_000,
            ) {
                let mut rng = StdRng::seed_from_u64(salt);
                let mut q = EventQueue::new();
                let mut reference = BinaryHeap::new();
                let mut seq = 0u64;
                let mut schedule = |q: &mut EventQueue,
                                    reference: &mut BinaryHeap<Reverse<(u64, u64)>>,
                                    micros: u64| {
                    q.schedule(
                        SimTime::from_micros(micros),
                        Event::AttemptCompletion(AttemptId::new(seq)),
                    );
                    reference.push(Reverse((micros, seq)));
                    seq += 1;
                };
                let mut arrival_times = Vec::with_capacity(arrivals);
                let mut at = 0u64;
                for _ in 0..arrivals {
                    at += rng.gen_range(0..50u64);
                    arrival_times.push(at);
                    schedule(&mut q, &mut reference, at);
                }
                let mut last_popped = 0u64;
                for _ in 0..ops {
                    if rng.gen_range(0..5) < 2 {
                        let micros = match rng.gen_range(0..5) {
                            0 => last_popped,
                            1 => rng.gen_range(0..=last_popped),
                            2 if !arrival_times.is_empty() => {
                                arrival_times[rng.gen_range(0..arrival_times.len())]
                            }
                            _ => last_popped + rng.gen_range(0..(at + 100)),
                        };
                        schedule(&mut q, &mut reference, micros);
                    } else {
                        let expected = reference.pop().map(|Reverse(entry)| entry);
                        let got = q.pop().map(|(t, e)| match e {
                            Event::AttemptCompletion(a) => (t.as_micros(), a.raw()),
                            _ => unreachable!(),
                        });
                        prop_assert_eq!(got, expected);
                        if let Some((micros, _)) = got {
                            last_popped = micros;
                        }
                    }
                    prop_assert_eq!(q.len(), reference.len());
                    prop_assert_eq!(
                        q.peek_time().map(|t| t.as_micros()),
                        reference.peek().map(|Reverse((micros, _))| *micros)
                    );
                }
                while let Some(Reverse(expected)) = reference.pop() {
                    let got = q.pop().map(|(t, e)| match e {
                        Event::AttemptCompletion(a) => (t.as_micros(), a.raw()),
                        _ => unreachable!(),
                    });
                    prop_assert_eq!(got, Some(expected));
                }
                prop_assert!(q.pop().is_none());
            }
        }
    }
}
