//! The discrete-event simulation engine: the YARN ResourceManager /
//! ApplicationMaster / NodeManager loop distilled to the decision points the
//! Chronos strategies and baselines need.
//!
//! The engine owns jobs, tasks, attempts, containers and the event queue;
//! the plugged-in [`SpeculationPolicy`] only ever sees immutable snapshots
//! and replies with actions. A fixed RNG seed makes every run reproducible.
//!
//! # Hot-loop layout (struct-of-arrays)
//!
//! Event dispatch allocates only when a buffer grows, and work done once
//! per entity is never redone per event:
//!
//! * The [`EventQueue`] appends each job's arrival to a sorted run and
//!   keeps only the in-flight completions and checks in its heap, so a
//!   shard's queue costs two buffers and a pop sifts through what is in
//!   flight, not through every pending arrival.
//! * [`Attempt::start`] computes an attempt's work-start and completion
//!   instants once; the progress, estimation and completion reads at every
//!   check take them from the attempt.
//! * A job's check offsets ([`CheckSchedule::AtOffsets`]) are stored
//!   inline, and the [`ResourceManager`] tracks per-node completions only
//!   for the `DeadlineAware` placement that reads them.
//!
//! All runtime state lives in dense slabs indexed by raw id:
//!
//! * `tasks` and `attempts` are `Vec`s whose index **is** the raw
//!   [`TaskId`] / [`AttemptId`] — the engine allocates ids by slab length,
//!   so an event's id resolves to its state in one bounds-checked index,
//!   with no tree walk and no hashing.
//! * `jobs` is a `Vec` in submission order; caller-chosen job ids resolve
//!   through a `job_slots` hash map (fast multiply-xor hasher — ids are
//!   engine-trusted) once per job-scoped operation. `task_job_slot` maps a
//!   task index straight to its job slot.
//! * A job's tasks form one contiguous id block
//!   ([`JobRuntime::task_range`]); a task's attempts form an intrusive
//!   sibling chain through [`Attempt::next_sibling`], so neither needs a
//!   per-entity `Vec`.
//! * Per-job policy bookkeeping (`chosen_r`, the periodic-check period) are
//!   parallel arrays over job slots. `chosen_r` is the only copy of each
//!   job's `r`: it is set from the final [`SubmitDecision::reported_r`]
//!   (of [`SpeculationPolicy::on_job_submit`] or of a batch override), handed
//!   to the policy in every [`JobView`] and exported as [`JobMetrics::chosen_r`],
//!   so no policy keeps a per-job map of its own. `task_hot` flattens each task's
//!   sampling parameters (Pareto `t_min`, precomputed `1/β`, size factor)
//!   next to its index so starting an attempt — the single hottest
//!   operation — never chases the attempt → task → job pointer chain. [`JobView`] snapshots are built from
//!   pooled scratch buffers that are reclaimed after each
//!   [`SpeculationPolicy::on_check`] call.
//!
//! # Event accounting and lazy deletion
//!
//! Killing a running attempt does not remove its completion event; the pop
//! finds the attempt no longer `Running` and ignores it (the lazy-deletion
//! contract described in [`crate::event`]). Such pops advance simulated
//! time but are counted as `events_stale`, **not** `events_dispatched`:
//! only dispatched events represent simulation work, feed the events/sec
//! metrics, and count against the `max_events` budget (see
//! [`SimError::EventBudgetExhausted`]).

use crate::attempt::{Attempt, AttemptState};
use crate::cluster::{PlacementPolicy, PlacementRequest, ResourceManager};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::event::{Event, EventQueue};
use crate::ids::{AttemptId, FastIdHash, JobId, NodeId, TaskId};
use crate::job::{JobRuntime, JobSpec, TaskRuntime};
use crate::metrics::{JobMetrics, LatencyHistogram, SimulationReport};
use crate::policy::{
    AttemptView, BatchPlan, CheckSchedule, JobSubmitView, JobView, PolicyAction, SpeculationPolicy,
    SubmitDecision, TaskView,
};
use crate::progress::{estimate_completion, estimate_resume_offset};
use crate::time::{SimDuration, SimTime};
use chronos_obs::{DecisionTrace, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// Per-task data for [`Simulation::start_attempt`], flattened at task
/// creation: the owning job's Pareto parameters (with `1/β` precomputed —
/// the same division the former `Pareto::sample` call performed, done once
/// per job instead of once per attempt) and the task's size factor.
/// Work samples computed from this slot are bit-identical to
/// `job.spec.profile.sample(rng) * task.size_factor`.
#[derive(Debug, Clone, Copy)]
struct TaskHot {
    t_min: f64,
    inv_beta: f64,
    size_factor: f64,
}

/// A complete simulation: configuration, cluster state, workload and policy.
///
/// # Examples
///
/// ```
/// use chronos_sim::prelude::*;
///
/// # fn main() -> Result<(), SimError> {
/// let config = SimConfig::default();
/// let mut sim = Simulation::new(config, Box::new(NoSpeculation))?;
/// sim.submit(JobSpec::new(JobId::new(0), SimTime::ZERO, 200.0, 8))?;
/// let report = sim.run()?;
/// assert_eq!(report.job_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    policy: Box<dyn SpeculationPolicy>,
    policy_name: String,
    rng: StdRng,
    events: EventQueue,
    /// Jobs in submission order; `job_slots` maps raw job id → slot.
    jobs: Vec<JobRuntime>,
    job_slots: HashMap<u64, u32, FastIdHash>,
    /// Dense slab indexed by raw [`TaskId`].
    tasks: Vec<TaskRuntime>,
    /// Parallel to `tasks`: the owning job's slot.
    task_job_slot: Vec<u32>,
    /// Parallel to `tasks`: everything [`Simulation::start_attempt`] needs
    /// to price a work sample, pre-flattened so the hottest path reads one
    /// small slot instead of chasing attempt → task → job pointers.
    task_hot: Vec<TaskHot>,
    /// Dense slab indexed by raw [`AttemptId`].
    attempts: Vec<Attempt>,
    /// Per job slot: the `r` the policy reported at submission.
    chosen_r: Vec<Option<u32>>,
    /// Per job slot: the period of a [`CheckSchedule::Periodic`], for
    /// re-arming checks while the job runs.
    job_period: Vec<Option<f64>>,
    rm: ResourceManager,
    now: SimTime,
    events_dispatched: u64,
    events_stale: u64,
    /// Per-job submit overrides from the policy's [`BatchPlan`]s, consumed
    /// at arrival in place of [`SpeculationPolicy::on_job_submit`].
    submit_overrides: HashMap<u64, SubmitDecision, FastIdHash>,
    /// Pooled scratch for [`JobView`] snapshots.
    view_tasks_scratch: Vec<TaskView>,
    attempt_vec_pool: Vec<Vec<AttemptView>>,
    /// Structured decision recording ([`Simulation::enable_decision_trace`]).
    /// `None` (the default) keeps every hot path on a single never-taken
    /// branch — the recorder is zero-cost unless explicitly enabled.
    trace: Option<DecisionTrace>,
}

impl Simulation {
    /// Creates a simulation with the given configuration and policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn new(config: SimConfig, policy: Box<dyn SpeculationPolicy>) -> Result<Self, SimError> {
        config.validate()?;
        let rm = ResourceManager::new(&config.cluster)?;
        let rng = StdRng::seed_from_u64(config.seed);
        let policy_name = policy.name().to_string();
        Ok(Simulation {
            config,
            policy,
            policy_name,
            rng,
            events: EventQueue::new(),
            jobs: Vec::new(),
            job_slots: HashMap::with_hasher(FastIdHash),
            tasks: Vec::new(),
            task_job_slot: Vec::new(),
            task_hot: Vec::new(),
            attempts: Vec::new(),
            chosen_r: Vec::new(),
            job_period: Vec::new(),
            rm,
            now: SimTime::ZERO,
            events_dispatched: 0,
            events_stale: 0,
            submit_overrides: HashMap::with_hasher(FastIdHash),
            view_tasks_scratch: Vec::new(),
            attempt_vec_pool: Vec::new(),
            trace: None,
        })
    }

    /// Turns on structured decision recording. Events (submit overrides,
    /// speculative copy launches/kills, deadline misses, budget
    /// grants/denies, phase spans) are stamped with integer sim-time
    /// microseconds, so a trace is as deterministic as the simulation
    /// itself. `capacity` bounds the ring (`None` = unbounded; once full,
    /// the oldest records are evicted and counted).
    pub fn enable_decision_trace(&mut self, capacity: Option<usize>) {
        self.trace = Some(match capacity {
            Some(capacity) => DecisionTrace::bounded(capacity),
            None => DecisionTrace::new(),
        });
    }

    /// Takes the recorded decision trace, leaving recording disabled.
    /// Returns `None` when tracing was never enabled.
    pub fn take_decision_trace(&mut self) -> Option<DecisionTrace> {
        self.trace.take()
    }

    /// The name of the policy driving this simulation (cached at
    /// construction; no per-call allocation).
    #[must_use]
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queues a job for submission at its `submit_time`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for invalid specs or duplicate
    /// job ids.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), SimError> {
        spec.validate()?;
        let slot = self.jobs.len() as u32;
        match self.job_slots.entry(spec.id.raw()) {
            std::collections::hash_map::Entry::Occupied(_) => {
                return Err(SimError::invalid_config(format!(
                    "duplicate job id {}",
                    spec.id
                )));
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(slot);
            }
        }
        let id = spec.id;
        let submit_time = spec.submit_time;
        self.jobs.push(JobRuntime::new(spec));
        self.chosen_r.push(None);
        self.job_period.push(None);
        self.events.schedule(submit_time, Event::JobArrival(id));
        Ok(())
    }

    /// Queues a batch of jobs, then hands the whole batch to the policy's
    /// [`SpeculationPolicy::on_job_batch`] hook so a batch-level allocator
    /// can plan it jointly (see the hook's docs) before any arrival event
    /// fires. Per-job overrides in the returned [`BatchPlan`] are recorded
    /// and applied at the jobs' arrival events in place of
    /// [`SpeculationPolicy::on_job_submit`].
    ///
    /// # Errors
    ///
    /// Fails on the first invalid or duplicate spec, identifying the
    /// offending spec by its position in the batch and its job id; earlier
    /// jobs in the batch remain queued. Policy batch-planning failures are
    /// propagated with batch context added (the policy names the offending
    /// job id itself, per the hook's contract).
    pub fn submit_all<I>(&mut self, specs: I) -> Result<(), SimError>
    where
        I: IntoIterator<Item = JobSpec>,
    {
        let specs = specs.into_iter();
        let (min_jobs, _) = specs.size_hint();
        self.jobs.reserve(min_jobs);
        self.job_slots.reserve(min_jobs);
        self.chosen_r.reserve(min_jobs);
        self.job_period.reserve(min_jobs);
        let mut views = Vec::with_capacity(min_jobs);
        let mut total_tasks = 0usize;
        for (index, spec) in specs.enumerate() {
            let id = spec.id;
            total_tasks += spec.task_count();
            let view = Self::submit_view_of(&spec);
            self.submit(spec)
                .map_err(|err| err.with_context(format_args!("batch spec #{index} ({id})")))?;
            views.push(view);
        }
        // One task slot and (at least) one attempt slot per task will be
        // claimed as the arrivals dispatch; reserving here keeps the SoA
        // pushes in the hot loop from ever reallocating mid-run.
        self.tasks.reserve(total_tasks);
        self.task_job_slot.reserve(total_tasks);
        self.task_hot.reserve(total_tasks);
        self.attempts.reserve(total_tasks);
        let plan = self.policy.on_job_batch(&views).map_err(|err| {
            err.with_context(format_args!("planning a {}-job batch", views.len()))
        })?;
        if let Some(trace) = self.trace.as_mut() {
            // Budget accounting is part of the batch plan's diagnostics, so
            // grant/deny events need no policy cooperation — and stay
            // deterministic, since planning happens before any event fires.
            let diagnostics = plan.diagnostics;
            if !diagnostics.budget.is_unlimited() {
                trace.record(
                    self.now.as_micros(),
                    TraceEvent::BudgetGrant {
                        jobs: diagnostics.jobs,
                        requested: diagnostics.requested,
                        granted: diagnostics.spent,
                    },
                );
                if diagnostics.spent < diagnostics.requested {
                    trace.record(
                        self.now.as_micros(),
                        TraceEvent::BudgetDeny {
                            jobs: diagnostics.jobs,
                            denied: diagnostics.requested - diagnostics.spent,
                        },
                    );
                }
            }
        }
        self.record_batch_plan(plan)
    }

    /// Stores a [`BatchPlan`]'s overrides for application at arrival time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the plan overrides a job id
    /// the engine does not know — the policy planned a job that was never
    /// queued.
    fn record_batch_plan(&mut self, plan: BatchPlan) -> Result<(), SimError> {
        for (job, decision) in plan.overrides() {
            if !self.job_slots.contains_key(&job.raw()) {
                return Err(SimError::invalid_config(format!(
                    "batch plan overrides unknown job {job}"
                )));
            }
            self.submit_overrides.insert(job.raw(), decision);
        }
        Ok(())
    }

    /// The submit-time snapshot of a spec, as the policy sees it both in
    /// [`SpeculationPolicy::on_job_batch`] and at the arrival event.
    fn submit_view_of(spec: &JobSpec) -> JobSubmitView {
        JobSubmitView {
            job: spec.id,
            task_count: spec.task_count() as u32,
            deadline_secs: spec.deadline_secs,
            price: spec.price,
            profile: spec.profile,
        }
    }

    /// Runs the simulation to completion and returns the aggregated report.
    ///
    /// # Errors
    ///
    /// * [`SimError::EventBudgetExhausted`] when more than `max_events`
    ///   events are *dispatched* (stale lazily-deleted completions advance
    ///   time but do not consume budget).
    /// * [`SimError::InvalidAction`] / [`SimError::UnknownEntity`] when the
    ///   policy produces actions referencing foreign or unknown entities.
    pub fn run(&mut self) -> Result<SimulationReport, SimError> {
        let started_at = self.now;
        while let Some((time, event)) = self.events.pop() {
            debug_assert!(time >= self.now, "event time went backwards");
            self.now = time;
            if let Event::AttemptCompletion(attempt) = event {
                if self.attempts[attempt.raw() as usize].state != AttemptState::Running {
                    // Lazily-deleted completion: the attempt was killed (or
                    // finished through a sibling) after this event was
                    // scheduled. Time has advanced, but no work happens.
                    self.events_stale += 1;
                    continue;
                }
            }
            self.events_dispatched += 1;
            if self.config.max_events > 0 && self.events_dispatched > self.config.max_events {
                return Err(SimError::EventBudgetExhausted {
                    limit: self.config.max_events,
                });
            }
            match event {
                Event::JobArrival(job) => self.handle_job_arrival(job)?,
                Event::AttemptCompletion(attempt) => self.handle_attempt_completion(attempt)?,
                Event::PolicyCheck { job, index } => self.handle_policy_check(job, index)?,
            }
        }
        let report = self.build_report();
        if let Some(trace) = self.trace.as_mut() {
            // A digest-safe sim-time span of the whole event loop; wall
            // clocks never enter the trace (see chronos-obs::span).
            trace.record(
                self.now.as_micros(),
                chronos_obs::span::sim_span(
                    "simulate",
                    started_at.as_micros(),
                    self.now.as_micros(),
                ),
            );
        }
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn handle_job_arrival(&mut self, job_id: JobId) -> Result<(), SimError> {
        let slot = *self
            .job_slots
            .get(&job_id.raw())
            .ok_or_else(|| SimError::unknown(format!("{job_id}")))?;
        let (submit_view, submit_time, task_count) = {
            let job = &self.jobs[slot as usize];
            (
                Self::submit_view_of(&job.spec),
                job.spec.submit_time,
                job.spec.task_count(),
            )
        };

        let decision = if let Some(decision) = self.submit_overrides.remove(&job_id.raw()) {
            // A batch-plan override is the final decision for this job; the
            // policy hears about it through the replay hook.
            self.policy.on_job_submit_replayed(&submit_view, decision);
            if let Some(trace) = self.trace.as_mut() {
                trace.record(
                    self.now.as_micros(),
                    TraceEvent::SubmitOverrideApplied {
                        job: job_id.raw(),
                        extra_clones: decision.extra_clones_per_task,
                        reported_r: decision.reported_r,
                    },
                );
            }
            decision
        } else {
            self.policy.on_job_submit(&submit_view)
        };
        if let Some(r) = decision.reported_r {
            self.chosen_r[slot as usize] = Some(r);
        }

        match self.policy.check_schedule(&submit_view) {
            CheckSchedule::Never => {}
            CheckSchedule::AtOffsets(offsets) => {
                for (index, offset) in (0u32..).zip(offsets.as_slice()) {
                    self.events.schedule(
                        submit_time + SimDuration::from_secs(*offset),
                        Event::PolicyCheck { job: job_id, index },
                    );
                }
            }
            CheckSchedule::Periodic { first, period } => {
                self.job_period[slot as usize] = Some(period);
                self.events.schedule(
                    submit_time + SimDuration::from_secs(first),
                    Event::PolicyCheck {
                        job: job_id,
                        index: 0,
                    },
                );
            }
        }

        // Create the job's contiguous task block and the initial attempts
        // (1 original + clones). When no attempt is waiting for a container
        // the wait queue is provably empty of older work, so a free
        // container can be claimed immediately — same start order and RNG
        // draw order as the enqueue → dispatch round trip, minus the queue
        // traffic.
        self.jobs[slot as usize].first_task = Some(TaskId::new(self.tasks.len() as u64));
        let profile = self.jobs[slot as usize].spec.profile;
        let hot = TaskHot {
            t_min: profile.t_min(),
            inv_beta: 1.0 / profile.beta(),
            size_factor: 1.0,
        };
        for index in 0..task_count {
            let task_id = TaskId::new(self.tasks.len() as u64);
            let spec = self.jobs[slot as usize].spec.tasks[index];
            self.tasks.push(TaskRuntime::new(task_id, job_id, &spec));
            self.task_job_slot.push(slot);
            self.task_hot.push(TaskHot {
                size_factor: self.tasks[task_id.raw() as usize].size_factor,
                ..hot
            });
            for _ in 0..=decision.extra_clones_per_task {
                let attempt_id = self.create_attempt_unqueued(task_id, 0.0)?;
                if !self.rm.has_waiting_work() {
                    if let Some(node) = self.place_attempt(attempt_id) {
                        self.start_attempt(attempt_id, node);
                        continue;
                    }
                }
                self.rm.enqueue_pending(attempt_id);
            }
        }
        self.dispatch_pending();
        Ok(())
    }

    fn handle_attempt_completion(&mut self, attempt_id: AttemptId) -> Result<(), SimError> {
        let (task_id, node, completion) = {
            let attempt = &mut self.attempts[attempt_id.raw() as usize];
            // Stale completions were filtered out by the run loop.
            debug_assert_eq!(attempt.state, AttemptState::Running);
            let completion = attempt.completion_time();
            attempt.state = AttemptState::Finished;
            attempt.ended_at = Some(self.now);
            (attempt.task, attempt.node, completion)
        };
        if let Some(node) = node {
            let at = completion.unwrap_or(self.now).as_micros();
            self.rm.release_scheduled(node, at)?;
        }

        let task_idx = task_id.raw() as usize;
        if self.tasks[task_idx].completed_at.is_none() {
            self.tasks[task_idx].completed_at = Some(self.now);
            // The AM kills the remaining attempts of a committed task.
            let mut cursor = self.tasks[task_idx].first_attempt;
            while let Some(sibling) = cursor {
                cursor = self.attempts[sibling.raw() as usize].next_sibling;
                if sibling != attempt_id {
                    self.kill_attempt(sibling)?;
                }
            }
            let slot = self.task_job_slot[task_idx] as usize;
            self.jobs[slot].record_task_completion(self.now);
        }
        self.dispatch_pending();
        Ok(())
    }

    fn handle_policy_check(&mut self, job_id: JobId, index: u32) -> Result<(), SimError> {
        let Some(&slot) = self.job_slots.get(&job_id.raw()) else {
            return Ok(());
        };
        let slot = slot as usize;
        if !self.jobs[slot].is_completed() {
            let view = self.build_job_view(job_id, slot, index);
            let actions = self.policy.on_check(&view);
            self.reclaim_view(view);
            for action in actions {
                self.apply_action(job_id, action)?;
            }
            self.dispatch_pending();
        }

        // Periodic schedules re-arm while the job is incomplete.
        if let Some(period) = self.job_period[slot] {
            if !self.jobs[slot].is_completed() {
                self.events.schedule(
                    self.now + SimDuration::from_secs(period),
                    Event::PolicyCheck {
                        job: job_id,
                        index: index + 1,
                    },
                );
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Policy action application
    // ------------------------------------------------------------------

    fn apply_action(&mut self, job_id: JobId, action: PolicyAction) -> Result<(), SimError> {
        match action {
            PolicyAction::LaunchExtra {
                task,
                count,
                start_fraction,
            } => {
                let owner = self
                    .tasks
                    .get(task.raw() as usize)
                    .ok_or_else(|| SimError::unknown(format!("{task}")))?;
                if owner.job != job_id {
                    return Err(SimError::invalid_action(format!(
                        "policy for {job_id} tried to launch attempts for {task} owned by {}",
                        owner.job
                    )));
                }
                if owner.is_completed() {
                    // Benign: the task finished between snapshot and action.
                    return Ok(());
                }
                for _ in 0..count {
                    let attempt = self.create_attempt(task, start_fraction)?;
                    if let Some(trace) = self.trace.as_mut() {
                        trace.record(
                            self.now.as_micros(),
                            TraceEvent::CopyLaunched {
                                job: job_id.raw(),
                                task: task.raw(),
                                attempt: attempt.raw(),
                            },
                        );
                    }
                }
                Ok(())
            }
            PolicyAction::Kill { attempt } => {
                let owner = self
                    .attempts
                    .get(attempt.raw() as usize)
                    .ok_or_else(|| SimError::unknown(format!("{attempt}")))?
                    .job;
                if owner != job_id {
                    return Err(SimError::invalid_action(format!(
                        "policy for {job_id} tried to kill {attempt} owned by {owner}"
                    )));
                }
                self.kill_attempt(attempt)
            }
            PolicyAction::KillAllExcept { task, keep } => {
                let owner = self
                    .tasks
                    .get(task.raw() as usize)
                    .ok_or_else(|| SimError::unknown(format!("{task}")))?;
                if owner.job != job_id {
                    return Err(SimError::invalid_action(format!(
                        "policy for {job_id} tried to prune {task} owned by {}",
                        owner.job
                    )));
                }
                let mut cursor = owner.first_attempt;
                while let Some(attempt) = cursor {
                    cursor = self.attempts[attempt.raw() as usize].next_sibling;
                    if attempt != keep {
                        self.kill_attempt(attempt)?;
                    }
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Attempt lifecycle
    // ------------------------------------------------------------------

    fn create_attempt(
        &mut self,
        task_id: TaskId,
        start_fraction: f64,
    ) -> Result<AttemptId, SimError> {
        let attempt_id = self.create_attempt_unqueued(task_id, start_fraction)?;
        self.rm.enqueue_pending(attempt_id);
        Ok(attempt_id)
    }

    /// [`Simulation::create_attempt`] without the wait-queue insertion; the
    /// caller must either enqueue the attempt or start it directly.
    fn create_attempt_unqueued(
        &mut self,
        task_id: TaskId,
        start_fraction: f64,
    ) -> Result<AttemptId, SimError> {
        let task_idx = task_id.raw() as usize;
        let job_id = self
            .tasks
            .get(task_idx)
            .ok_or_else(|| SimError::unknown(format!("{task_id}")))?
            .job;
        let attempt_id = AttemptId::new(self.attempts.len() as u64);
        self.attempts.push(Attempt::pending(
            attempt_id,
            task_id,
            job_id,
            self.now,
            start_fraction,
        ));
        // Append to the task's sibling chain.
        match self.tasks[task_idx].last_attempt {
            Some(last) => self.attempts[last.raw() as usize].next_sibling = Some(attempt_id),
            None => self.tasks[task_idx].first_attempt = Some(attempt_id),
        }
        self.tasks[task_idx].last_attempt = Some(attempt_id);
        Ok(attempt_id)
    }

    /// Starts as many pending attempts as there are free containers.
    fn dispatch_pending(&mut self) {
        loop {
            if self.rm.free_slots() == 0 {
                return;
            }
            let Some(attempt_id) = self.rm.dequeue_pending() else {
                return;
            };
            let still_pending = self
                .attempts
                .get(attempt_id.raw() as usize)
                .map(|a| a.state == AttemptState::Pending)
                .unwrap_or(false);
            if !still_pending {
                continue;
            }
            let Some(node) = self.place_attempt(attempt_id) else {
                // No slot after all; put it back at the front-equivalent
                // position by re-enqueueing and bail out.
                self.rm.enqueue_pending(attempt_id);
                return;
            };
            self.start_attempt(attempt_id, node);
        }
    }

    /// Picks a node for `attempt_id` under the configured placement policy
    /// and records a [`TraceEvent::PlacementDecision`] for non-default
    /// policies. The default `MostFree` policy records nothing so existing
    /// trace digests are untouched.
    fn place_attempt(&mut self, attempt_id: AttemptId) -> Option<NodeId> {
        let placement = self.rm.placement();
        let request = if placement == PlacementPolicy::DeadlineAware {
            self.placement_request(attempt_id)
        } else {
            PlacementRequest::default()
        };
        let choice = self.rm.try_place(request)?;
        if placement != PlacementPolicy::MostFree {
            if let Some(trace) = self.trace.as_mut() {
                trace.record(
                    self.now.as_micros(),
                    TraceEvent::PlacementDecision {
                        node: choice.node.raw(),
                        free_slots: choice.free_slots,
                        score_bucket: u32::from(choice.score_bucket),
                    },
                );
            }
        }
        Some(choice.node)
    }

    /// Causal expected-duration estimate for an attempt: the profile mean
    /// of the remaining work plus the midpoint JVM warm-up, in sim micros.
    /// Uses only the job profile — never the sampled work, which has not
    /// been drawn yet — so the RNG draw order is identical across policies.
    fn placement_request(&self, attempt_id: AttemptId) -> PlacementRequest {
        let attempt = &self.attempts[attempt_id.raw() as usize];
        let hot = self.task_hot[attempt.task.raw() as usize];
        let beta = 1.0 / hot.inv_beta;
        let mean = if beta > 1.0 {
            hot.t_min * beta / (beta - 1.0)
        } else {
            // Infinite-mean Pareto tail: fall back to twice the scale.
            hot.t_min * 2.0
        };
        let remaining = mean * hot.size_factor * (1.0 - attempt.start_fraction);
        let jvm = 0.5 * (self.config.jvm.min_secs + self.config.jvm.max_secs);
        PlacementRequest {
            now_micros: self.now.as_micros(),
            expected_micros: SimDuration::from_secs(remaining.max(0.0) + jvm).as_micros(),
        }
    }

    fn start_attempt(&mut self, attempt_id: AttemptId, node: NodeId) {
        let jvm = if self.config.jvm.max_secs > self.config.jvm.min_secs {
            self.rng
                .gen_range(self.config.jvm.min_secs..=self.config.jvm.max_secs)
        } else {
            self.config.jvm.min_secs
        };
        let slowdown = self.rm.slowdown_of(node).unwrap_or(1.0);
        let attempt_idx = attempt_id.raw() as usize;
        let hot = self.task_hot[self.attempts[attempt_idx].task.raw() as usize];
        // Inverse-CDF Pareto draw, inlined from `Pareto::sample` with the
        // job's precomputed `1/β` — same RNG draw, same operations, same
        // bits as `profile.sample(rng) * size_factor * slowdown`.
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let sample = hot.t_min / (1.0 - u).powf(hot.inv_beta);
        let work = sample * hot.size_factor * slowdown;
        let completion = self.attempts[attempt_idx].start(node, self.now, jvm, work);
        self.rm
            .note_scheduled_completion(node, completion.as_micros());
        self.events
            .schedule(completion, Event::AttemptCompletion(attempt_id));
    }

    fn kill_attempt(&mut self, attempt_id: AttemptId) -> Result<(), SimError> {
        let attempt_idx = attempt_id.raw() as usize;
        let Some(attempt) = self.attempts.get(attempt_idx) else {
            return Err(SimError::unknown(format!("{attempt_id}")));
        };
        let (state, node, completion) = (attempt.state, attempt.node, attempt.completion_time());
        match state {
            AttemptState::Finished | AttemptState::Killed => Ok(()),
            AttemptState::Pending => {
                self.rm.remove_pending(attempt_id);
                let attempt = &mut self.attempts[attempt_idx];
                attempt.state = AttemptState::Killed;
                attempt.ended_at = Some(self.now);
                let (job, task) = (attempt.job, attempt.task);
                self.record_copy_killed(job, task, attempt_id);
                Ok(())
            }
            AttemptState::Running => {
                let attempt = &mut self.attempts[attempt_idx];
                attempt.state = AttemptState::Killed;
                attempt.ended_at = Some(self.now);
                let (job, task) = (attempt.job, attempt.task);
                if let Some(node) = node {
                    // Killed while running: drop the future completion entry
                    // that was registered when the attempt started.
                    let at = completion.unwrap_or(self.now).as_micros();
                    self.rm.release_scheduled(node, at)?;
                }
                self.record_copy_killed(job, task, attempt_id);
                Ok(())
            }
        }
    }

    /// Records a kill into the decision trace, if enabled. Every actual
    /// state transition to `Killed` funnels through [`Simulation::kill_attempt`],
    /// so this is the single choke point for kill events.
    fn record_copy_killed(&mut self, job: JobId, task: TaskId, attempt: AttemptId) {
        if let Some(trace) = self.trace.as_mut() {
            trace.record(
                self.now.as_micros(),
                TraceEvent::CopyKilled {
                    job: job.raw(),
                    task: task.raw(),
                    attempt: attempt.raw(),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Views and reporting
    // ------------------------------------------------------------------

    /// Builds a policy snapshot from pooled scratch buffers; pair with
    /// [`Simulation::reclaim_view`] after the policy callback returns.
    fn build_job_view(&mut self, job_id: JobId, slot: usize, check_index: u32) -> JobView {
        let submitted_at = self.jobs[slot].spec.submit_time;
        let deadline_secs = self.jobs[slot].spec.deadline_secs;
        let task_range = self.jobs[slot].task_range();
        let mut tasks = std::mem::take(&mut self.view_tasks_scratch);
        debug_assert!(tasks.is_empty());
        let mut completed_tasks = 0usize;
        let mut duration_sum = 0.0f64;
        for task_raw in task_range {
            let task_idx = task_raw as usize;
            if let Some(done) = self.tasks[task_idx].completed_at {
                completed_tasks += 1;
                duration_sum += (done.saturating_since(submitted_at)).as_secs();
            }
            let mut attempts = self.attempt_vec_pool.pop().unwrap_or_default();
            debug_assert!(attempts.is_empty());
            let mut cursor = self.tasks[task_idx].first_attempt;
            while let Some(attempt_id) = cursor {
                let attempt = &self.attempts[attempt_id.raw() as usize];
                cursor = attempt.next_sibling;
                attempts.push(AttemptView {
                    attempt: attempt_id,
                    active: attempt.is_active(),
                    running: attempt.is_running(),
                    launched_at: attempt.launched_at,
                    progress: attempt.progress_at(self.now),
                    estimated_completion: estimate_completion(
                        self.config.estimator,
                        attempt,
                        self.now,
                        self.config.progress_report_interval_secs,
                    ),
                    start_fraction: attempt.start_fraction,
                    resume_offset_hint: estimate_resume_offset(
                        attempt,
                        self.now,
                        self.config.progress_report_interval_secs,
                    ),
                });
            }
            tasks.push(TaskView {
                task: TaskId::new(task_raw),
                completed: self.tasks[task_idx].is_completed(),
                attempts,
            });
        }
        let mean_completed_task_duration = if completed_tasks == 0 {
            None
        } else {
            Some(duration_sum / completed_tasks as f64)
        };
        JobView {
            job: job_id,
            submitted_at,
            deadline_secs,
            now: self.now,
            check_index,
            chosen_r: self.chosen_r[slot],
            tasks,
            completed_tasks,
            mean_completed_task_duration,
            free_slots: self.rm.free_slots(),
            cluster_has_waiting_work: self.rm.has_waiting_work(),
        }
    }

    /// Returns a snapshot's buffers to the scratch pools.
    fn reclaim_view(&mut self, mut view: JobView) {
        for task in &mut view.tasks {
            let mut attempts = std::mem::take(&mut task.attempts);
            attempts.clear();
            self.attempt_vec_pool.push(attempts);
        }
        view.tasks.clear();
        self.view_tasks_scratch = view.tasks;
    }

    fn build_report(&mut self) -> SimulationReport {
        // Taken out for the loop below so recording misses does not fight
        // the borrow of `self.jobs`; restored before returning.
        let mut trace = self.trace.take();
        let mut jobs = BTreeMap::new();
        let mut latency = LatencyHistogram::new();
        for (slot, job) in self.jobs.iter().enumerate() {
            let mut machine_time = 0.0;
            let mut launched = 0u32;
            let mut killed = 0u32;
            for task_raw in job.task_range() {
                let mut cursor = self.tasks[task_raw as usize].first_attempt;
                while let Some(attempt_id) = cursor {
                    let attempt = &self.attempts[attempt_id.raw() as usize];
                    cursor = attempt.next_sibling;
                    machine_time += attempt.machine_time_until(self.now);
                    if attempt.launched_at.is_some() {
                        launched += 1;
                    }
                    if attempt.state == AttemptState::Killed {
                        killed += 1;
                    }
                }
            }
            let met_deadline = job.met_deadline().unwrap_or(false);
            if !met_deadline {
                if let Some(trace) = trace.as_mut() {
                    // Stamped at the deadline instant the job blew, not the
                    // end of the run — both are deterministic, but the
                    // deadline reads naturally in a merged log.
                    let deadline_at =
                        job.spec.submit_time + SimDuration::from_secs(job.spec.deadline_secs);
                    trace.record(
                        deadline_at.as_micros(),
                        TraceEvent::DeadlineMissed {
                            job: job.spec.id.raw(),
                        },
                    );
                }
            }
            let entry = JobMetrics {
                job: job.spec.id,
                submitted_at: job.spec.submit_time,
                deadline_secs: job.spec.deadline_secs,
                completed_at: job.completed_at,
                met_deadline,
                machine_time_secs: machine_time,
                cost: machine_time * job.spec.price,
                attempts_launched: launched,
                attempts_killed: killed,
                chosen_r: self.chosen_r[slot],
            };
            match entry.completion_secs() {
                Some(secs) => latency.record_secs(secs),
                None => latency.record_unfinished(),
            }
            jobs.insert(job.spec.id, entry);
        }
        self.trace = trace;
        SimulationReport {
            policy: self.policy_name.clone(),
            jobs,
            events_dispatched: self.events_dispatched,
            events_stale: self.events_stale,
            ended_at: self.now,
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterSpec, EstimatorKind, JvmModel, ShardSpec};
    use crate::policy::{CheckOffsets, NoSpeculation, SubmitDecision};
    use chronos_core::Pareto;

    fn small_config(seed: u64) -> SimConfig {
        SimConfig {
            cluster: ClusterSpec::homogeneous(4, 2),
            jvm: JvmModel::disabled(),
            estimator: EstimatorKind::ChronosJvmAware,
            progress_report_interval_secs: 1.0,
            seed,
            max_events: 0,
            sharding: ShardSpec::default(),
        }
    }

    fn job(id: u64, submit: f64, deadline: f64, tasks: usize) -> JobSpec {
        JobSpec::new(JobId::new(id), SimTime::from_secs(submit), deadline, tasks)
            .with_profile(Pareto::new(10.0, 1.5).unwrap())
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mut sim = Simulation::new(small_config(3), Box::new(NoSpeculation)).unwrap();
        sim.submit(job(0, 0.0, 500.0, 4)).unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.job_count(), 1);
        let metrics = report.jobs.values().next().unwrap();
        assert!(metrics.completed_at.is_some());
        assert_eq!(metrics.attempts_launched, 4);
        assert_eq!(metrics.attempts_killed, 0);
        assert!(metrics.machine_time_secs >= 4.0 * 10.0);
        assert!(report.unfinished_fraction() < 1e-12);
    }

    #[test]
    fn duplicate_job_ids_rejected() {
        let mut sim = Simulation::new(small_config(3), Box::new(NoSpeculation)).unwrap();
        sim.submit(job(0, 0.0, 100.0, 1)).unwrap();
        assert!(sim.submit(job(0, 5.0, 100.0, 1)).is_err());
    }

    #[test]
    fn invalid_spec_rejected_on_submit() {
        let mut sim = Simulation::new(small_config(3), Box::new(NoSpeculation)).unwrap();
        assert!(sim.submit(job(0, 0.0, 100.0, 0)).is_err());
    }

    #[test]
    fn submit_all_identifies_the_failing_spec() {
        // Spec #2 (job-7) has zero tasks: the error must name both the batch
        // position and the job id instead of losing them.
        let mut sim = Simulation::new(small_config(3), Box::new(NoSpeculation)).unwrap();
        let batch = vec![
            job(5, 0.0, 100.0, 2),
            job(6, 1.0, 100.0, 2),
            job(7, 2.0, 100.0, 0),
            job(8, 3.0, 100.0, 2),
        ];
        let err = sim.submit_all(batch).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("batch spec #2"), "{message}");
        assert!(message.contains("job-7"), "{message}");
        // Earlier jobs in the batch remain queued, the failing one does not.
        let report = sim.run().unwrap();
        assert_eq!(report.job_count(), 2);
    }

    /// Records what the batch hook saw; optionally fails on a chosen job,
    /// naming it via `with_context` as the hook contract requires.
    #[derive(Debug, Default)]
    struct BatchProbe {
        batches: std::sync::Arc<std::sync::Mutex<Vec<Vec<JobId>>>>,
        fail_on: Option<JobId>,
    }

    impl SpeculationPolicy for BatchProbe {
        fn name(&self) -> &str {
            "batch-probe"
        }

        fn on_job_batch(&mut self, jobs: &[JobSubmitView]) -> Result<BatchPlan, SimError> {
            if let Some(bad) = self.fail_on {
                if jobs.iter().any(|view| view.job == bad) {
                    return Err(SimError::invalid_config("no plan solves this profile")
                        .with_context(format_args!("planning {bad}")));
                }
            }
            self.batches
                .lock()
                .unwrap()
                .push(jobs.iter().map(|view| view.job).collect());
            Ok(BatchPlan::default())
        }

        fn on_job_submit(&mut self, _job: &JobSubmitView) -> SubmitDecision {
            SubmitDecision::default()
        }

        fn check_schedule(&self, _job: &JobSubmitView) -> CheckSchedule {
            CheckSchedule::Never
        }

        fn on_check(&mut self, _view: &JobView) -> Vec<PolicyAction> {
            Vec::new()
        }
    }

    #[test]
    fn submit_all_hands_the_whole_batch_to_the_policy() {
        let probe = BatchProbe::default();
        let batches = std::sync::Arc::clone(&probe.batches);
        let mut sim = Simulation::new(small_config(3), Box::new(probe)).unwrap();
        sim.submit_all(vec![job(0, 0.0, 400.0, 1), job(1, 1.0, 400.0, 1)])
            .unwrap();
        sim.submit_all(vec![job(2, 2.0, 400.0, 1)]).unwrap();
        assert_eq!(
            *batches.lock().unwrap(),
            vec![vec![JobId::new(0), JobId::new(1)], vec![JobId::new(2)]]
        );
        // The simulation still runs normally after batch planning.
        let report = sim.run().unwrap();
        assert_eq!(report.job_count(), 3);
    }

    #[test]
    fn batch_planning_errors_name_the_job_and_the_batch() {
        let probe = BatchProbe {
            fail_on: Some(JobId::new(1)),
            ..BatchProbe::default()
        };
        let mut sim = Simulation::new(small_config(3), Box::new(probe)).unwrap();
        let err = sim
            .submit_all(vec![job(0, 0.0, 400.0, 1), job(1, 1.0, 400.0, 1)])
            .unwrap_err();
        let message = err.to_string();
        // The policy named the job, the engine named the batch.
        assert!(message.contains("planning job-1"), "{message}");
        assert!(message.contains("2-job batch"), "{message}");
    }

    #[test]
    fn submit_all_identifies_duplicate_ids_in_batch() {
        let mut sim = Simulation::new(small_config(3), Box::new(NoSpeculation)).unwrap();
        let err = sim
            .submit_all(vec![job(0, 0.0, 100.0, 1), job(0, 1.0, 100.0, 1)])
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("batch spec #1"), "{message}");
        assert!(message.contains("duplicate job id"), "{message}");
    }

    #[test]
    fn report_latency_histogram_counts_every_job() {
        let mut sim = Simulation::new(small_config(3), Box::new(NoSpeculation)).unwrap();
        sim.submit_all((0..5).map(|i| job(i, f64::from(i as u32), 500.0, 2)))
            .unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.latency.total(), 5);
        assert_eq!(report.latency.unfinished(), 0);
        let completed = report
            .jobs
            .values()
            .filter_map(JobMetrics::completion_secs)
            .count() as u64;
        assert_eq!(report.latency.completed(), completed);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sim = Simulation::new(small_config(seed), Box::new(NoSpeculation)).unwrap();
            sim.submit_all((0..5).map(|i| job(i, f64::from(i as u32) * 3.0, 400.0, 3)))
                .unwrap();
            sim.run().unwrap()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn container_contention_serializes_attempts() {
        // 1 node × 1 slot and a 3-task job: tasks must run one after another,
        // so the completion time is at least the sum of the two fastest
        // durations plus the third.
        let mut config = small_config(5);
        config.cluster = ClusterSpec::homogeneous(1, 1);
        let mut sim = Simulation::new(config, Box::new(NoSpeculation)).unwrap();
        sim.submit(job(0, 0.0, 10_000.0, 3)).unwrap();
        let report = sim.run().unwrap();
        let metrics = report.jobs.values().next().unwrap();
        // With a single slot the job's turnaround equals its machine time.
        assert!(
            (metrics.completion_secs().unwrap() - metrics.machine_time_secs).abs() < 1e-6,
            "turnaround {} vs machine {}",
            metrics.completion_secs().unwrap(),
            metrics.machine_time_secs
        );
    }

    #[test]
    fn event_budget_enforced() {
        let mut config = small_config(5);
        config.max_events = 2;
        let mut sim = Simulation::new(config, Box::new(NoSpeculation)).unwrap();
        sim.submit(job(0, 0.0, 100.0, 8)).unwrap();
        assert!(matches!(
            sim.run(),
            Err(SimError::EventBudgetExhausted { limit: 2 })
        ));
    }

    /// A test policy that clones every task once and prunes to the best
    /// progress attempt at a fixed offset.
    #[derive(Debug)]
    struct CloneOnce {
        kill_offset: f64,
    }

    impl SpeculationPolicy for CloneOnce {
        fn name(&self) -> &str {
            "clone-once"
        }

        fn on_job_submit(&mut self, _job: &JobSubmitView) -> SubmitDecision {
            SubmitDecision {
                extra_clones_per_task: 1,
                reported_r: Some(1),
            }
        }

        fn check_schedule(&self, _job: &JobSubmitView) -> CheckSchedule {
            CheckSchedule::AtOffsets(CheckOffsets::from([self.kill_offset]))
        }

        fn on_check(&mut self, view: &JobView) -> Vec<PolicyAction> {
            let mut actions = Vec::new();
            for task in view.incomplete_tasks() {
                if let Some(best) = task.best_progress_attempt() {
                    actions.push(PolicyAction::KillAllExcept {
                        task: task.task,
                        keep: best.attempt,
                    });
                }
            }
            actions
        }
    }

    #[test]
    fn cloning_policy_launches_and_prunes() {
        let mut sim =
            Simulation::new(small_config(7), Box::new(CloneOnce { kill_offset: 5.0 })).unwrap();
        sim.submit(job(0, 0.0, 1_000.0, 3)).unwrap();
        let report = sim.run().unwrap();
        let metrics = report.jobs.values().next().unwrap();
        // 3 tasks × 2 attempts launched.
        assert_eq!(metrics.attempts_launched, 6);
        // Every task had one attempt killed (either pruned at 5 s or killed
        // when the sibling finished first).
        assert_eq!(metrics.attempts_killed, 3);
        assert_eq!(metrics.chosen_r, Some(1));
        assert_eq!(report.chosen_r_histogram().get(&1), Some(&1));
    }

    /// Trace-wiring probe: its first check speculates one extra copy per
    /// incomplete task, its second prunes back to the best attempt — so an
    /// observed run records both `CopyLaunched` and `CopyKilled`.
    #[derive(Debug)]
    struct LaunchThenPrune;

    impl SpeculationPolicy for LaunchThenPrune {
        fn name(&self) -> &str {
            "launch-then-prune"
        }

        fn on_job_submit(&mut self, _job: &JobSubmitView) -> SubmitDecision {
            SubmitDecision::default()
        }

        fn check_schedule(&self, _job: &JobSubmitView) -> CheckSchedule {
            CheckSchedule::AtOffsets(CheckOffsets::from([2.0, 6.0]))
        }

        fn on_check(&mut self, view: &JobView) -> Vec<PolicyAction> {
            let mut actions = Vec::new();
            for task in view.incomplete_tasks() {
                if view.check_index == 0 {
                    actions.push(PolicyAction::LaunchExtra {
                        task: task.task,
                        count: 1,
                        start_fraction: 0.0,
                    });
                } else if let Some(best) = task.best_progress_attempt() {
                    actions.push(PolicyAction::KillAllExcept {
                        task: task.task,
                        keep: best.attempt,
                    });
                }
            }
            actions
        }
    }

    #[test]
    fn decision_trace_records_the_speculation_lifecycle_without_perturbing_the_run() {
        let baseline = {
            let mut sim = Simulation::new(small_config(21), Box::new(LaunchThenPrune)).unwrap();
            sim.submit(job(0, 0.0, 1_000.0, 3)).unwrap();
            sim.run().unwrap()
        };

        let mut sim = Simulation::new(small_config(21), Box::new(LaunchThenPrune)).unwrap();
        sim.enable_decision_trace(None);
        sim.submit(job(0, 0.0, 1_000.0, 3)).unwrap();
        let report = sim.run().unwrap();
        // Observation only: the traced run's report is bit-identical.
        assert_eq!(report, baseline);

        let trace = sim.take_decision_trace().expect("trace was enabled");
        let launched = trace
            .records()
            .filter(|record| matches!(record.event, TraceEvent::CopyLaunched { .. }))
            .count() as u64;
        let killed = trace
            .records()
            .filter(|record| matches!(record.event, TraceEvent::CopyKilled { .. }))
            .count() as u64;
        // Every speculative copy beyond the 3 originals was traced at its
        // launch, and `kill_attempt` is a single choke point: policy prunes
        // and sibling-completion kills alike show up.
        assert_eq!(launched, report.total_attempts() - 3);
        assert_eq!(killed, report.total_kills());
        assert!(launched > 0);
        assert!(killed > 0);
        // The run-level `simulate` phase span closes the trace.
        let last = trace.records().last().expect("trace is non-empty");
        assert!(matches!(last.event, TraceEvent::Phase { ref name, .. } if name == "simulate"));
    }

    #[test]
    fn decision_trace_records_batch_overrides() {
        let policy = PlanProbe::new(true, vec![1, 2]);
        let mut sim = Simulation::new(small_config(13), Box::new(policy)).unwrap();
        sim.enable_decision_trace(None);
        sim.submit_all((0..4).map(|i| job(i, f64::from(i as u32), 1_000.0, 2)))
            .unwrap();
        let _report = sim.run().unwrap();
        let trace = sim.take_decision_trace().expect("trace was enabled");
        let overrides: Vec<(u64, u32)> = trace
            .records()
            .filter_map(|record| match record.event {
                TraceEvent::SubmitOverrideApplied {
                    job, extra_clones, ..
                } => Some((job, extra_clones)),
                _ => None,
            })
            .collect();
        assert_eq!(overrides, vec![(1, 7), (2, 7)]);
        // One greppable line per event in the rendered log.
        let log = trace.render_log();
        assert!(
            log.contains("submit-override job=1 extra-clones=7 reported-r=7"),
            "{log}"
        );
    }

    #[test]
    fn clone_reduces_completion_time_versus_baseline() {
        // Cloning takes the min of two Pareto draws per task, so across many
        // jobs the mean completion time must drop.
        let submit_jobs = |sim: &mut Simulation| {
            sim.submit_all((0..40).map(|i| {
                JobSpec::new(
                    JobId::new(i),
                    SimTime::from_secs(f64::from(i as u32) * 200.0),
                    10_000.0,
                    4,
                )
                .with_profile(Pareto::new(10.0, 1.2).unwrap())
            }))
            .unwrap();
        };
        let mut baseline = Simulation::new(small_config(21), Box::new(NoSpeculation)).unwrap();
        submit_jobs(&mut baseline);
        let baseline_report = baseline.run().unwrap();

        let mut cloned =
            Simulation::new(small_config(21), Box::new(CloneOnce { kill_offset: 2.0 })).unwrap();
        submit_jobs(&mut cloned);
        let cloned_report = cloned.run().unwrap();

        assert!(
            cloned_report.mean_completion_secs().unwrap()
                < baseline_report.mean_completion_secs().unwrap()
        );
    }

    #[test]
    fn stale_completions_count_separately_and_skip_the_budget() {
        // CloneOnce kills one running attempt per task at the 5 s check, so
        // each task leaves exactly one lazily-deleted completion event.
        let run_with = |max_events: u64| {
            let mut config = small_config(7);
            config.max_events = max_events;
            let mut sim =
                Simulation::new(config, Box::new(CloneOnce { kill_offset: 5.0 })).unwrap();
            sim.submit(job(0, 0.0, 1_000.0, 3)).unwrap();
            sim.run()
        };
        let report = run_with(0).unwrap();
        assert_eq!(report.events_stale, 3, "one orphaned completion per task");
        assert!(report.events_dispatched > 0);

        // The budget is measured over dispatched events only: a limit equal
        // to the dispatched count succeeds even though dispatched + stale
        // exceeds it, and one less fails.
        let dispatched = report.events_dispatched;
        let ok = run_with(dispatched).unwrap();
        assert_eq!(ok.events_dispatched, dispatched);
        assert_eq!(ok.events_stale, report.events_stale);
        assert!(matches!(
            run_with(dispatched - 1),
            Err(SimError::EventBudgetExhausted { .. })
        ));
    }

    #[test]
    fn heavy_pruning_drains_the_event_queue_completely() {
        // Satellite regression for the lazy-deletion contract: a reschedule-
        // heavy run (clone + prune every task) must pop every scheduled
        // event exactly once — dispatched or stale — and leave no residue.
        let mut sim =
            Simulation::new(small_config(7), Box::new(CloneOnce { kill_offset: 5.0 })).unwrap();
        sim.submit_all((0..10).map(|i| job(i, f64::from(i as u32) * 5.0, 10_000.0, 3)))
            .unwrap();
        let report = sim.run().unwrap();
        assert!(report.events_stale > 0);
        assert!(sim.events.is_empty());
        assert_eq!(
            report.events_dispatched + report.events_stale,
            sim.events.scheduled_total(),
            "every scheduled event is accounted exactly once"
        );
    }

    /// What a [`PlanProbe`] saw during a run.
    #[derive(Debug, Default)]
    struct ProbeLog {
        /// Calls of `on_job_submit`.
        submits: u32,
        /// `(job, extra clones)` of every `on_job_submit_replayed` call.
        replays: Vec<(u64, u32)>,
        /// `(job, view.chosen_r)` of every check.
        checked_r: Vec<(u64, Option<u32>)>,
    }

    /// Clone-style policy that plans every submission through a
    /// `chronos-plan` planner (through its cache, or with uncached solves),
    /// optionally overrides chosen jobs through its [`BatchPlan`], and logs
    /// what the engine asks of it.
    #[derive(Debug)]
    struct PlanProbe {
        planner: chronos_plan::Planner,
        cached: bool,
        override_ids: Vec<u64>,
        override_unknown: bool,
        log: std::sync::Arc<std::sync::Mutex<ProbeLog>>,
    }

    impl PlanProbe {
        fn new(cached: bool, override_ids: Vec<u64>) -> Self {
            PlanProbe {
                planner: chronos_plan::Planner::new(chronos_core::UtilityModel::default()),
                cached,
                override_ids,
                override_unknown: false,
                log: Default::default(),
            }
        }

        /// Algorithm 1's `r` for a submitted job under Clone with
        /// `τ_kill = 5 s`, the probe's only check.
        fn plan_r(&self, job: &JobSubmitView) -> u32 {
            let profile = chronos_core::JobProfile::builder()
                .tasks(job.task_count)
                .t_min(job.profile.t_min())
                .beta(job.profile.beta())
                .deadline(job.deadline_secs)
                .price(job.price)
                .build()
                .unwrap();
            let request = chronos_plan::PlanRequest::new(
                profile,
                chronos_core::StrategyParams::clone_strategy(5.0),
            );
            let outcome = if self.cached {
                self.planner.plan_request(&request)
            } else {
                self.planner
                    .optimizer()
                    .optimize(&request.job, &request.params)
            };
            outcome.unwrap().r
        }
    }

    impl SpeculationPolicy for PlanProbe {
        fn name(&self) -> &str {
            "plan-probe"
        }

        fn on_job_batch(&mut self, jobs: &[JobSubmitView]) -> Result<BatchPlan, SimError> {
            let mut plan = BatchPlan::new();
            if self.override_unknown {
                return Ok(plan.with_override(JobId::new(999), SubmitDecision::default()));
            }
            for view in jobs {
                if self.override_ids.contains(&view.job.raw()) {
                    plan = plan.with_override(
                        view.job,
                        SubmitDecision {
                            extra_clones_per_task: 7,
                            reported_r: Some(7),
                        },
                    );
                }
            }
            plan.diagnostics.jobs = jobs.len() as u32;
            plan.diagnostics.overridden = plan.override_count() as u32;
            Ok(plan)
        }

        fn on_job_submit(&mut self, job: &JobSubmitView) -> SubmitDecision {
            self.log.lock().unwrap().submits += 1;
            let r = self.plan_r(job);
            SubmitDecision {
                extra_clones_per_task: r,
                reported_r: Some(r),
            }
        }

        fn on_job_submit_replayed(&mut self, job: &JobSubmitView, decision: SubmitDecision) {
            self.log
                .lock()
                .unwrap()
                .replays
                .push((job.job.raw(), decision.extra_clones_per_task));
        }

        fn check_schedule(&self, _job: &JobSubmitView) -> CheckSchedule {
            CheckSchedule::AtOffsets(CheckOffsets::from([5.0]))
        }

        fn on_check(&mut self, view: &JobView) -> Vec<PolicyAction> {
            self.log
                .lock()
                .unwrap()
                .checked_r
                .push((view.job.raw(), view.chosen_r));
            Vec::new()
        }
    }

    /// Runs `probe` over `specs` as one batch: the report, what the probe
    /// saw (check-time `r`s sorted by job) and its planner's cache counters.
    fn run_probe(
        probe: PlanProbe,
        specs: Vec<JobSpec>,
    ) -> (SimulationReport, ProbeLog, chronos_plan::CacheStats) {
        let log = std::sync::Arc::clone(&probe.log);
        let cache = std::sync::Arc::clone(probe.planner.cache());
        let mut sim = Simulation::new(small_config(13), Box::new(probe)).unwrap();
        sim.submit_all(specs).unwrap();
        let report = sim.run().unwrap();
        drop(sim);
        let mut log = std::sync::Arc::into_inner(log)
            .unwrap()
            .into_inner()
            .unwrap();
        log.checked_r.sort_unstable();
        (report, log, cache.stats())
    }

    #[test]
    fn submit_memoization_plans_each_profile_once_and_changes_nothing() {
        // Six jobs over two distinct profiles (deadline differs). Every
        // arrival reaches on_job_submit; the plan cache is the only place
        // that deduplicates the planning.
        let specs = || -> Vec<JobSpec> {
            (0..6)
                .map(|i| {
                    let deadline = if i % 2 == 0 { 40.0 } else { 60.0 };
                    job(i, f64::from(i as u32) * 2.0, deadline, 2)
                })
                .collect()
        };
        let (cached, cached_log, cached_stats) =
            run_probe(PlanProbe::new(true, Vec::new()), specs());
        let (direct, direct_log, direct_stats) =
            run_probe(PlanProbe::new(false, Vec::new()), specs());
        assert_eq!(cached_log.submits, 6, "every arrival is submitted");
        assert_eq!(direct_log.submits, 6);
        assert!(cached_log.replays.is_empty() && direct_log.replays.is_empty());
        assert_eq!(
            (cached_stats.misses, cached_stats.hits),
            (2, 4),
            "one solve per profile, a cache hit for every other arrival"
        );
        assert_eq!(direct_stats.lookups(), 0);
        // Every job's check sees the `r` its profile solves to, whether the
        // plan came from the cache or from an uncached solve.
        let reference = PlanProbe::new(false, Vec::new());
        let expected: Vec<(u64, Option<u32>)> = specs()
            .iter()
            .map(|spec| {
                let r = reference.plan_r(&Simulation::submit_view_of(spec));
                (spec.id.raw(), Some(r))
            })
            .collect();
        assert!(expected.iter().any(|&(_, r)| r > Some(0)), "{expected:?}");
        assert_eq!(cached_log.checked_r, expected);
        assert_eq!(direct_log.checked_r, expected);
        // Planning through the cache must not change a single bit of the
        // outcome.
        assert_eq!(cached, direct);
    }

    #[test]
    fn batch_plan_overrides_replace_submit_and_bypass_the_memo() {
        // Four jobs sharing one profile; jobs 1 and 2 are overridden to seven
        // extra clones per task, the others plan through the cache.
        let specs = || -> Vec<JobSpec> {
            (0..4)
                .map(|i| job(i, f64::from(i as u32), 40.0, 2))
                .collect()
        };
        let (report, log, stats) = run_probe(PlanProbe::new(true, vec![1, 2]), specs());

        // Jobs 1 and 2 never reached on_job_submit (their overrides won) and
        // never touched the plan cache; jobs 0 and 3 planned the shared
        // profile once through it.
        assert_eq!(log.submits, 2);
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(
            log.replays,
            vec![(1, 7), (2, 7)],
            "only overrides are replayed, each carrying its own decision"
        );

        let planned =
            PlanProbe::new(false, Vec::new()).plan_r(&Simulation::submit_view_of(&specs()[0]));
        for (id, metrics) in &report.jobs {
            let r = if id.raw() == 1 || id.raw() == 2 {
                7
            } else {
                planned
            };
            // 2 tasks × (1 original + r clones).
            assert_eq!(metrics.attempts_launched, 2 * (1 + r), "{id}");
            assert_eq!(metrics.chosen_r, Some(r), "{id}");
        }
        // The check of every job sees the `r` of its final decision: the
        // override's for jobs 1 and 2, the planned one for jobs 0 and 3.
        assert_eq!(
            log.checked_r,
            vec![
                (0, Some(planned)),
                (1, Some(7)),
                (2, Some(7)),
                (3, Some(planned))
            ]
        );
        // Planning the non-overridden jobs through the cache changes no bit
        // of the outcome.
        let (direct, ..) = run_probe(PlanProbe::new(false, vec![1, 2]), specs());
        assert_eq!(report, direct);
    }

    #[test]
    fn batch_plan_overriding_an_unknown_job_is_rejected() {
        let policy = PlanProbe {
            override_unknown: true,
            ..PlanProbe::new(true, Vec::new())
        };
        let mut sim = Simulation::new(small_config(13), Box::new(policy)).unwrap();
        let err = sim.submit_all(vec![job(0, 0.0, 1_000.0, 1)]).unwrap_err();
        assert!(err.to_string().contains("unknown job job-999"), "{err}");
    }

    /// Policy that misbehaves by targeting a foreign job's task.
    #[derive(Debug)]
    struct Misbehaving;

    impl SpeculationPolicy for Misbehaving {
        fn name(&self) -> &str {
            "misbehaving"
        }

        fn on_job_submit(&mut self, _job: &JobSubmitView) -> SubmitDecision {
            SubmitDecision::default()
        }

        fn check_schedule(&self, job: &JobSubmitView) -> CheckSchedule {
            if job.job == JobId::new(1) {
                CheckSchedule::AtOffsets(CheckOffsets::from([1.0]))
            } else {
                CheckSchedule::Never
            }
        }

        fn on_check(&mut self, _view: &JobView) -> Vec<PolicyAction> {
            // Task 0 belongs to job 0, not job 1.
            vec![PolicyAction::LaunchExtra {
                task: TaskId::new(0),
                count: 1,
                start_fraction: 0.0,
            }]
        }
    }

    #[test]
    fn cross_job_actions_are_rejected() {
        let mut sim = Simulation::new(small_config(9), Box::new(Misbehaving)).unwrap();
        sim.submit(job(0, 0.0, 2_000.0, 1)).unwrap();
        sim.submit(job(1, 0.0, 2_000.0, 1)).unwrap();
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::InvalidAction { .. }));
    }

    #[test]
    fn policy_name_surfaces_in_report() {
        let mut sim = Simulation::new(small_config(3), Box::new(NoSpeculation)).unwrap();
        sim.submit(job(0, 0.0, 100.0, 1)).unwrap();
        assert_eq!(sim.policy_name(), "hadoop-ns");
        let report = sim.run().unwrap();
        assert_eq!(report.policy, "hadoop-ns");
        assert!(report.events_dispatched > 0);
        assert_eq!(report.events_stale, 0);
    }
}
