//! The serving engine: admission control in front of one shared multi-DAG
//! scheduler.
//!
//! # Execution model
//!
//! [`BtsServer::prepare`] prepares each distinct (workload, instance) pair of
//! a batch once, for one machine: circuit built from the registry and
//! lowered, per-op charges resolved by the instance's
//! [`bts_sim::Simulator`] (each job's scratchpad is a private partition;
//! cross-job cache contention is not charged), planned for the scheduler
//! ([`bts_sched::JobPlan`]) and measured for placement. Every job of the pair
//! is admitted through that one shared plan. [`PreparedBatch::serve`] then
//! drives the [`bts_sched::MultiScheduler`] through a private run state, one
//! method per step:
//!
//! 1. `ingest` — due arrivals and retry redrives join the waiting queue; a
//!    new arrival finding a bounded queue full is shed
//!    ([`crate::ShedReason::QueueFull`]);
//! 2. `shed_expired` — waiting jobs whose deadline has passed are shed:
//!    admitting them could only burn machine time on a certain SLO miss;
//! 3. `admit` — while fewer than `max_in_flight` jobs are on the machine and
//!    someone waits, the [`QueuePolicy`] picks the next admission (release
//!    time = admission time);
//! 4. `idle_jump` — a free slot with nobody waiting jumps the clock to the
//!    next arrival;
//! 5. `complete` — otherwise the scheduler interleaves the active jobs' ops
//!    on the shared NTTU/BConvU/element-wise/HBM channels until one job
//!    completes, which advances the clock and frees a slot. If the job's
//!    `(id, attempt)` draws a transient fault from the [`FaultPlan`], the
//!    attempt's work is lost: the job redrives after capped exponential
//!    backoff ([`bts_fault::RetryPolicy`]) until its budget runs out and it
//!    is shed ([`crate::ShedReason::RetryBudgetExhausted`]);
//! 6. `cut` — past a failure time ([`ServeOptions::with_failure_at`]; the
//!    cluster layer sets it per chip) nothing completes: in-flight jobs are
//!    cancelled and reported as [`crate::InterruptedJob`]s alongside
//!    everything still queued, for the cluster layer to migrate;
//! 7. `report` — completed jobs become [`crate::JobOutcome`]s, and the
//!    makespan and utilizations close the [`ServeReport`].
//!
//! Everything is deterministic: one `(jobs, options)` pair always produces
//! the same [`ServeReport`], and a fault-free plan reproduces the plain
//! fault-free run bit for bit.

use std::collections::VecDeque;
use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::Arc;

use bts_fault::{FaultPlan, RetryPolicy};
use bts_params::{CkksInstance, L_BOOT};
use bts_sched::{JobPlan, MachineModel, MultiScheduler, UtilizationFold};
use bts_sim::{BtsConfig, SimReport, Simulator};
use bts_workloads::{standard_registry, WorkloadRegistry};

use crate::error::ServeError;
use crate::job::{validate_batch, JobRequest, QueuedJob};
use crate::policy::QueuePolicy;
use crate::report::{InterruptedJob, JobOutcome, ServeReport, ShedJob, ShedReason};

/// Knobs of one serving run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Hardware configuration of the shared accelerator.
    pub config: BtsConfig,
    /// Queueing policy in front of it.
    pub policy: QueuePolicy,
    /// How many jobs may be co-resident on the accelerator. 1 degenerates to
    /// one-at-a-time service; higher values let ops of different jobs
    /// interleave on the functional units.
    pub max_in_flight: usize,
    /// Bound on the waiting queue (jobs arrived but not admitted). `None`
    /// means unbounded; `Some(n)` sheds arrivals past `n`. Retry redrives
    /// are exempt — they already hold a budget.
    pub queue_capacity: Option<usize>,
    /// Retry budget and backoff for transient job faults.
    pub retry: RetryPolicy,
    /// What goes wrong during the run. The serve layer uses the plan's
    /// transient-fault draws; chip failures matter at the cluster layer.
    pub fault: FaultPlan,
    /// If set, the accelerator dies at this simulated time: work finishing
    /// after it never completes and is reported as interrupted. The cluster
    /// layer sets this per chip from its fault plan.
    pub fail_at_seconds: Option<f64>,
}

impl ServeOptions {
    /// FIFO service of up to `max_in_flight` concurrent jobs on the default
    /// BTS design point, with an unbounded queue and no faults.
    pub fn new(max_in_flight: usize) -> Self {
        Self {
            config: BtsConfig::bts_default(),
            policy: QueuePolicy::Fifo,
            max_in_flight,
            queue_capacity: None,
            retry: RetryPolicy::default(),
            fault: FaultPlan::none(),
            fail_at_seconds: None,
        }
    }

    /// Returns a copy with a different hardware configuration.
    pub fn with_config(mut self, config: BtsConfig) -> Self {
        self.config = config;
        self
    }

    /// Returns a copy with a different queueing policy.
    pub fn with_policy(mut self, policy: QueuePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with a bounded waiting queue of `capacity` jobs.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Returns a copy with a different retry budget/backoff.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns a copy with a fault plan.
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Returns a copy whose accelerator dies at `fail_at_seconds`.
    pub fn with_failure_at(mut self, fail_at_seconds: f64) -> Self {
        self.fail_at_seconds = Some(fail_at_seconds);
        self
    }

    /// Checks the options the way [`BtsConfig::validate`] checks a hardware
    /// configuration: typed errors instead of deadlocks or panics later.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoCapacity`] when `max_in_flight` is 0 (the admission
    /// loop could never start a job), [`ServeError::NoAttempts`] when the
    /// retry budget is 0, [`ServeError::Fault`] for a non-finite or negative
    /// backoff ([`RetryPolicy::validate`]), plus config and fault-plan
    /// validation failures.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_in_flight == 0 {
            return Err(ServeError::NoCapacity);
        }
        if self.retry.max_attempts == 0 {
            return Err(ServeError::NoAttempts);
        }
        self.retry.validate().map_err(ServeError::Fault)?;
        self.config.validate().map_err(ServeError::Config)?;
        // Chip indices are a cluster-level concern; at the serve level any
        // chip id is in range — only rates, times, and windows are checked.
        self.fault.validate(usize::MAX).map_err(ServeError::Fault)?;
        match self.fail_at_seconds {
            Some(t) => bts_fault::check_time(t).map_err(ServeError::Fault),
            None => Ok(()),
        }
    }
}

/// One distinct (workload, instance) pair of a batch, prepared for one
/// machine. Every job of the pair is admitted through its one shared plan.
#[derive(Debug)]
pub struct PreparedPair {
    /// Registry name of the workload.
    pub workload: String,
    /// The instance its circuit was built for.
    pub instance: CkksInstance,
    /// The scheduling plan on the batch's machine.
    pub plan: Arc<JobPlan>,
    /// The oracle serial charge, for the per-job outcome figures.
    pub report: SimReport,
    /// Bootstraps × usable levels × slots of one job.
    pub refreshed_slot_levels: f64,
    /// Online closed-form cost estimate ([`crate::estimate`]): what SJF and
    /// least-loaded placement rank by.
    pub estimate_seconds: f64,
    /// Input-ciphertext bytes: what every dispatch ships.
    pub input_ct_bytes: u64,
    /// Evaluation-key set bytes: what a chip must hold resident.
    pub evk_set_bytes: u64,
}

impl PreparedPair {
    /// Whether `job` runs this pair.
    fn runs(&self, job: &JobRequest) -> bool {
        self.workload == job.workload && self.instance == job.instance
    }
}

/// A batch prepared for one machine by [`BtsServer::prepare`]: one
/// [`PreparedPair`] per distinct (workload, instance). Serving it plans
/// nothing again, so one preparation serves any number of runs on that
/// machine — the cluster layer serves every chip's shard from one.
#[derive(Debug)]
pub struct PreparedBatch {
    config: BtsConfig,
    pairs: Vec<PreparedPair>,
}

impl PreparedBatch {
    /// The prepared pair of each job, in order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unprepared`] for the first job whose (workload,
    /// instance) the batch holds no pair for.
    pub fn pairs(&self, jobs: &[JobRequest]) -> Result<Vec<&PreparedPair>, ServeError> {
        let mut pairs = Vec::with_capacity(jobs.len());
        for job in jobs {
            let pair = self.pairs.iter().find(|p| p.runs(job));
            pairs.push(pair.ok_or_else(|| ServeError::Unprepared {
                job: job.id,
                workload: job.workload.clone(),
            })?);
        }
        Ok(pairs)
    }

    /// Streams `jobs` through the accelerator the batch was prepared for
    /// (arrival times define the stream) and reports per-job latencies plus
    /// the aggregate throughput/utilization/fairness figures.
    /// `options.config` must be the batch's; every other knob is free.
    ///
    /// # Errors
    ///
    /// Before any scheduling: invalid options or jobs (bad arrival or
    /// deadline, duplicate id), [`ServeError::OtherMachine`] for another
    /// configuration, [`ServeError::Unprepared`] for a pair not prepared.
    pub fn serve(
        &self,
        jobs: &[JobRequest],
        options: &ServeOptions,
    ) -> Result<ServeReport, ServeError> {
        options.validate()?;
        validate_batch(jobs)?;
        self.run(jobs, options)
    }

    /// [`PreparedBatch::serve`] of jobs and options already validated.
    fn run(&self, jobs: &[JobRequest], options: &ServeOptions) -> Result<ServeReport, ServeError> {
        if options.config != self.config {
            return Err(ServeError::OtherMachine);
        }
        let machine = MachineModel::from_config(&self.config);
        Run::new(jobs, options, self.pairs(jobs)?, machine).serve()
    }
}

/// A multi-tenant batch server over one simulated BTS accelerator.
#[derive(Debug)]
pub struct BtsServer {
    registry: WorkloadRegistry,
    options: ServeOptions,
}

impl BtsServer {
    /// A server over the five standard paper workloads.
    pub fn new(options: ServeOptions) -> Self {
        Self::with_registry(options, standard_registry())
    }

    /// A server over a custom workload registry.
    pub fn with_registry(options: ServeOptions, registry: WorkloadRegistry) -> Self {
        Self { registry, options }
    }

    /// The run's knobs.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Prepares each distinct (workload, instance) pair of `jobs` once, for
    /// the machine `options().config` describes: bursts repeat a pair, and
    /// lowering, charging and planning are deterministic.
    ///
    /// # Errors
    ///
    /// Fails fast on invalid options or jobs (bad arrival or deadline,
    /// duplicate id, zero capacity or retry budget, bad backoff), an unknown
    /// workload, or a circuit that cannot be built or lowered.
    pub fn prepare(&self, jobs: &[JobRequest]) -> Result<PreparedBatch, ServeError> {
        self.options.validate()?;
        validate_batch(jobs)?;
        let mut pairs: Vec<PreparedPair> = Vec::new();
        for job in jobs {
            if !pairs.iter().any(|p| p.runs(job)) {
                pairs.push(self.prepare_pair(job)?);
            }
        }
        Ok(PreparedBatch {
            config: self.options.config.clone(),
            pairs,
        })
    }

    /// Streams a batch of jobs through the accelerator:
    /// [`BtsServer::prepare`], then [`PreparedBatch::serve`] with the
    /// server's options.
    ///
    /// # Errors
    ///
    /// As [`BtsServer::prepare`], before any scheduling.
    pub fn serve(&self, jobs: &[JobRequest]) -> Result<ServeReport, ServeError> {
        self.prepare(jobs)?.run(jobs, &self.options)
    }

    /// Lowers one request, resolves its per-op charges, plans it for the
    /// server's machine and measures what placement needs.
    fn prepare_pair(&self, job: &JobRequest) -> Result<PreparedPair, ServeError> {
        let workload =
            self.registry
                .get(&job.workload)
                .ok_or_else(|| ServeError::UnknownWorkload {
                    job: job.id,
                    workload: job.workload.clone(),
                })?;
        let lowered = workload
            .lower(&job.instance)
            .map_err(|source| ServeError::Circuit {
                job: job.id,
                source,
            })?;
        let simulator = Simulator::new(self.options.config.clone(), job.instance.clone());
        // Engine per-op events of this sweep land in their own process, named
        // after the (workload, instance) pair being charged.
        let _prep_scope = bts_telemetry::enabled().then(|| {
            bts_telemetry::scope(format!("prep/{}@{}", job.workload, job.instance.name()))
        });
        let (plan, report) = JobPlan::from_trace(&simulator, &lowered.trace).map_err(|source| {
            ServeError::Trace {
                job: job.id,
                source,
            }
        })?;
        let usable_levels = job.instance.max_level().saturating_sub(L_BOOT);
        let trace = &lowered.trace;
        Ok(PreparedPair {
            workload: job.workload.clone(),
            instance: job.instance.clone(),
            plan: Arc::new(plan),
            report,
            refreshed_slot_levels: lowered.bootstrap_count as f64
                * usable_levels as f64
                * job.instance.slots() as f64,
            estimate_seconds: crate::estimate::estimate_trace_seconds(&simulator, trace),
            input_ct_bytes: trace
                .inputs()
                .map(|(_, level)| job.instance.ct_bytes(level))
                .sum(),
            evk_set_bytes: job.instance.evk_set_bytes(trace.rotation_keys()),
        })
    }
}

/// A job execution waiting to happen: attempt 0 is the original arrival,
/// later attempts are retry redrives becoming ready after backoff.
#[derive(Debug, Clone, Copy)]
struct PendingRun {
    j: usize,
    attempt: u32,
    ready_seconds: f64,
}

/// One serving run over a prepared batch: the admission loop's state, with
/// one method per step of the module doc.
struct Run<'a> {
    jobs: &'a [JobRequest],
    options: &'a ServeOptions,
    /// Each job's prepared pair, by submit index.
    pairs: Vec<&'a PreparedPair>,
    /// Keeps no timeline, only utilization sums: nothing here reads
    /// placements back.
    scheduler: MultiScheduler<UtilizationFold>,
    /// Finish of the latest real completion: the makespan of a run that
    /// ends dead, and a floor of any run's.
    last_completion: f64,
    /// Executions not yet due, sorted by (ready, submit index): initially
    /// one attempt-0 entry per job at its arrival; retries re-enter here.
    upcoming: VecDeque<PendingRun>,
    /// Arrived but not admitted, in arrival order.
    waiting: Vec<PendingRun>,
    /// What the queue policy sees of `waiting`, rebuilt per admission.
    candidates: Vec<QueuedJob>,
    admitted_at: Vec<f64>,
    /// Scheduler tags are assigned per admission (a retried job runs under
    /// a fresh tag); tag → (submit index, attempt).
    tag_info: Vec<(usize, u32)>,
    /// Per job: Some((tag, attempt)) while on the machine.
    on_machine: Vec<Option<(u32, u32)>>,
    /// Per job: Some((finish, attempts)) once completed for real.
    completed: Vec<Option<(f64, u32)>>,
    shed: Vec<ShedJob>,
    clock: f64,
    last_tenant: Option<u32>,
    /// Jobs admitted but not yet completed — the real concurrency gauge (a
    /// slot frees at the completion event, not when the last op is placed).
    in_flight: usize,
}

impl<'a> Run<'a> {
    fn new(
        jobs: &'a [JobRequest],
        options: &'a ServeOptions,
        pairs: Vec<&'a PreparedPair>,
        machine: MachineModel,
    ) -> Self {
        let mut upcoming: Vec<PendingRun> = (0..jobs.len())
            .map(|j| PendingRun {
                j,
                attempt: 0,
                ready_seconds: jobs[j].arrival_seconds,
            })
            .collect();
        upcoming.sort_by(|a, b| {
            a.ready_seconds
                .partial_cmp(&b.ready_seconds)
                .expect("validated arrivals")
                .then(a.j.cmp(&b.j))
        });
        let mut scheduler = MultiScheduler::folding(machine);
        if options.fail_at_seconds.is_none() {
            // A machine that cannot die clips nothing: every reservation is
            // summed as it is placed.
            scheduler.settle(f64::INFINITY);
        }
        Self {
            jobs,
            options,
            pairs,
            scheduler,
            last_completion: 0.0,
            upcoming: VecDeque::from(upcoming),
            waiting: Vec::new(),
            candidates: Vec::new(),
            admitted_at: vec![0.0; jobs.len()],
            tag_info: Vec::new(),
            on_machine: vec![None; jobs.len()],
            completed: vec![None; jobs.len()],
            shed: Vec::new(),
            clock: 0.0,
            last_tenant: None,
            in_flight: 0,
        }
    }

    /// The admission loop, steps 1–5 until the run drains or dies, then
    /// steps 6–7.
    fn serve(mut self) -> Result<ServeReport, ServeError> {
        let dead = loop {
            self.ingest();
            self.shed_expired();
            self.admit()?;
            if let Break(dead) = self.idle_jump().unwrap_or_else(|| self.complete()) {
                break dead;
            }
        };
        let interrupted = if dead { self.cut() } else { Vec::new() };
        Ok(self.report(dead, interrupted))
    }

    /// Step 1: due arrivals and redrives join the waiting queue; a new
    /// arrival finding a bounded queue full is shed.
    fn ingest(&mut self) {
        while (self.upcoming.front()).is_some_and(|e| e.ready_seconds <= self.clock) {
            let e = self.upcoming.pop_front().expect("front was just seen");
            let full = (self.options.queue_capacity).is_some_and(|cap| self.waiting.len() >= cap);
            if full && e.attempt == 0 {
                self.drop_job(e.j, e.attempt, e.ready_seconds, ShedReason::QueueFull);
            } else {
                self.waiting.push(e);
            }
        }
    }

    /// Step 2: waiting jobs whose deadline has already passed are shed.
    fn shed_expired(&mut self) {
        let mut i = 0;
        while i < self.waiting.len() {
            let e = self.waiting[i];
            match self.jobs[e.j].deadline_seconds {
                Some(d) if d <= self.clock => {
                    self.waiting.remove(i);
                    let at = d.max(e.ready_seconds);
                    self.drop_job(e.j, e.attempt, at, ShedReason::DeadlineExpired);
                }
                _ => i += 1,
            }
        }
    }

    /// Step 3: admit while there is capacity and someone is waiting. A free
    /// slot with nobody arrived yet waits for the next arrival (step 4):
    /// admission then happens at arrival time, whether or not other jobs are
    /// still mid-flight — a free slot never sits idle past an arrival.
    /// Refused only once the clock has run past the scheduler's range.
    fn admit(&mut self) -> Result<(), ServeError> {
        while self.in_flight < self.options.max_in_flight && !self.waiting.is_empty() {
            let (jobs, pairs) = (self.jobs, &self.pairs);
            self.candidates.clear();
            self.candidates
                .extend(self.waiting.iter().map(|e| QueuedJob {
                    submit_index: e.j,
                    tenant: jobs[e.j].tenant,
                    arrival_seconds: e.ready_seconds,
                    estimate_seconds: pairs[e.j].estimate_seconds,
                }));
            let pick = self
                .options
                .policy
                .select(&self.candidates, self.last_tenant);
            let e = self.waiting.remove(pick);
            let job = &jobs[e.j];
            let release = self.clock.max(e.ready_seconds);
            self.admitted_at[e.j] = release;
            self.last_tenant = Some(job.tenant);
            self.in_flight += 1;
            let tag = u32::try_from(self.tag_info.len()).expect("tag space");
            self.tag_info.push((e.j, e.attempt));
            self.on_machine[e.j] = Some((tag, e.attempt));
            if bts_telemetry::enabled() {
                use bts_telemetry::ArgValue;
                bts_telemetry::emit_instant(
                    "admission",
                    &job.workload,
                    release,
                    &[
                        ("job", ArgValue::U64(job.id)),
                        ("tenant", ArgValue::U64(u64::from(job.tenant))),
                        ("queued_s", ArgValue::F64(release - job.arrival_seconds)),
                        ("attempt", ArgValue::U64(u64::from(e.attempt))),
                    ],
                );
                self.emit_queue(release);
            }
            // The batch was prepared for this run's machine and tags count
            // admissions: only a release past the tick range is refused.
            self.scheduler
                .add_planned(tag, Arc::clone(&self.pairs[e.j].plan), release)
                .map_err(ServeError::Schedule)?;
        }
        Ok(())
    }

    /// Step 4: idle with future work, jump the clock to the next arrival —
    /// unless it lands at/after the failure time, in which case it can never
    /// be served (in-flight completions drain first). `None` when the
    /// machine is not idle: step 5 decides. Steps 4 and 5 break the loop
    /// with whether the run died.
    fn idle_jump(&mut self) -> Option<ControlFlow<bool>> {
        if self.in_flight >= self.options.max_in_flight || !self.waiting.is_empty() {
            return None;
        }
        let next = self.upcoming.front()?.ready_seconds;
        if self.options.fail_at_seconds.is_none_or(|t| next < t) {
            self.clock = self.clock.max(next);
            return Some(Continue(()));
        }
        (self.in_flight == 0).then_some(Break(true))
    }

    /// Step 5: machine full or nothing admittable — advance to the next
    /// completion, which frees a slot and either completes the job or, on a
    /// transient fault, redrives or sheds it. (No completion left implies
    /// nothing is queued either: with a free slot and reachable work, steps
    /// 3/4 would have acted.)
    fn complete(&mut self) -> ControlFlow<bool> {
        let Some(done) = self.scheduler.run_until_completion() else {
            return Break(false);
        };
        if (self.options.fail_at_seconds).is_some_and(|t| done.finish_seconds > t) {
            // Completions come back in finish order: everything still on
            // the machine also finishes after the chip dies. The job stays
            // marked on-machine and is reported interrupted by step 6.
            return Break(true);
        }
        self.clock = self.clock.max(done.finish_seconds);
        self.in_flight -= 1;
        if bts_telemetry::enabled() {
            self.emit_queue(self.clock);
        }
        let (j, attempt) = self.tag_info[done.tag as usize];
        self.on_machine[j] = None;
        if self
            .options
            .fault
            .transient_faults(self.jobs[j].id, attempt)
        {
            self.redrive(j, attempt, done.finish_seconds);
        } else {
            self.completed[j] = Some((done.finish_seconds, attempt + 1));
            self.last_completion = self.last_completion.max(done.finish_seconds);
            if self.options.fail_at_seconds.is_some() {
                // A machine that may die clips at its last real completion,
                // which can only rise: everything ending by it is settled.
                self.scheduler.settle(self.last_completion);
            }
        }
        Continue(())
    }

    /// Step 5's fault branch: the attempt burned its full service time, then
    /// faulted at `finish` (conservative redrive). The job re-enters
    /// `upcoming` after backoff, or is shed once its budget is spent.
    fn redrive(&mut self, j: usize, attempt: u32, finish: f64) {
        let job = &self.jobs[j];
        let used = attempt + 1;
        if bts_telemetry::enabled() {
            use bts_telemetry::ArgValue;
            bts_telemetry::emit_instant(
                "faults",
                "fault",
                finish,
                &[
                    ("job", ArgValue::U64(job.id)),
                    ("tenant", ArgValue::U64(u64::from(job.tenant))),
                    ("attempt", ArgValue::U64(u64::from(attempt))),
                ],
            );
        }
        let retry = self.options.retry;
        if used >= retry.max_attempts {
            self.drop_job(j, used, finish, ShedReason::RetryBudgetExhausted);
            return;
        }
        let ready = finish + retry.backoff_seconds(used);
        let pos = self
            .upcoming
            .partition_point(|p| p.ready_seconds < ready || (p.ready_seconds == ready && p.j < j));
        let e = PendingRun {
            j,
            attempt: used,
            ready_seconds: ready,
        };
        self.upcoming.insert(pos, e);
        if bts_telemetry::enabled() {
            use bts_telemetry::ArgValue;
            bts_telemetry::emit_instant(
                "faults",
                "retry",
                ready,
                &[
                    ("job", ArgValue::U64(job.id)),
                    ("attempt", ArgValue::U64(u64::from(used))),
                    ("backoff_s", ArgValue::F64(retry.backoff_seconds(used))),
                ],
            );
        }
    }

    /// Step 6, a dead run's epilogue: cancel whatever is still on the
    /// machine and classify everything not completed and not shed as
    /// interrupted, in submission order — the cluster layer's migration
    /// work-list.
    fn cut(&mut self) -> Vec<InterruptedJob> {
        let t = self.failure_time();
        if bts_telemetry::enabled() {
            use bts_telemetry::ArgValue;
            bts_telemetry::emit_instant(
                "faults",
                "chip-failure",
                t,
                &[("in_flight", ArgValue::U64(self.in_flight as u64))],
            );
        }
        for &(tag, _) in self.on_machine.iter().flatten() {
            // False when the scheduler already handed the completion out
            // (the one that exposed the death) — its placed ops stay on the
            // books either way.
            self.scheduler.cancel_job(tag);
        }
        let leftovers = self.waiting.iter().chain(self.upcoming.iter());
        let mut cut: Vec<(usize, u32)> = leftovers.map(|e| (e.j, e.attempt)).collect();
        cut.extend(
            self.on_machine
                .iter()
                .enumerate()
                .filter_map(|(j, m)| m.map(|(_, attempt)| (j, attempt + 1))),
        );
        cut.sort_unstable();
        let interrupted = cut.into_iter().map(|(j, attempts)| {
            let job = &self.jobs[j];
            InterruptedJob {
                id: job.id,
                tenant: job.tenant,
                workload: job.workload.clone(),
                arrival_seconds: job.arrival_seconds,
                attempts,
                interrupted_seconds: t,
                deadline_seconds: job.deadline_seconds,
            }
        });
        interrupted.collect()
    }

    /// Step 7: per-job outcomes of the completed jobs, in submission order,
    /// and the run's makespan, utilizations and merged serial reports.
    fn report(self, dead: bool, interrupted: Vec<InterruptedJob>) -> ServeReport {
        let failed_at_seconds = dead.then(|| self.failure_time());
        // A dead run's makespan is the last *real* completion, not the
        // scheduler horizon (which includes work the failure threw away),
        // and its reservations are clipped to it.
        let summary = self
            .scheduler
            .into_summary(dead.then_some(self.last_completion));

        let mut aggregate: Option<SimReport> = None;
        let mut outcomes = Vec::with_capacity(self.jobs.len());
        for (j, job) in self.jobs.iter().enumerate() {
            let Some((finish_seconds, attempts)) = self.completed[j] else {
                continue;
            };
            let pair = self.pairs[j];
            let outcome = JobOutcome {
                id: job.id,
                tenant: job.tenant,
                workload: job.workload.clone(),
                instance: job.instance.name().to_string(),
                arrival_seconds: job.arrival_seconds,
                admitted_seconds: self.admitted_at[j],
                finish_seconds,
                serial_seconds: pair.report.total_seconds,
                critical_path_seconds: pair.plan.critical_path_seconds(),
                refreshed_slot_levels: pair.refreshed_slot_levels,
                ops: pair.plan.len(),
                attempts,
                deadline_seconds: job.deadline_seconds,
            };
            outcome.emit();
            outcomes.push(outcome);
            match &mut aggregate {
                Some(agg) => agg.merge(&pair.report),
                None => aggregate = Some(pair.report.clone()),
            }
        }
        ServeReport {
            policy: self.options.policy,
            max_in_flight: self.options.max_in_flight,
            jobs: outcomes,
            shed: self.shed,
            interrupted,
            failed_at_seconds,
            makespan_seconds: summary.makespan_seconds,
            utilizations: summary.utilizations,
            aggregate,
        }
    }

    /// The failure time of a run that died.
    fn failure_time(&self) -> f64 {
        (self.options.fail_at_seconds).expect("death implies a failure time")
    }

    /// Sheds job `j` at `at` for `reason`, after `attempts` executions.
    fn drop_job(&mut self, j: usize, attempts: u32, at: f64, reason: ShedReason) {
        let shed = ShedJob::new(&self.jobs[j], at, reason, attempts);
        shed.emit();
        self.shed.push(shed);
    }

    /// The queue-depth counter at `at`: jobs waiting, plus executions already
    /// due but not yet ingested — not future arrivals or redrives still in
    /// backoff.
    fn emit_queue(&self, at: f64) {
        let due = (self.upcoming).partition_point(|e| e.ready_seconds <= at);
        bts_telemetry::emit_counter(
            "queue",
            "queue",
            at,
            &[
                ("waiting", (self.waiting.len() + due) as f64),
                ("in_flight", self.in_flight as f64),
            ],
        );
    }
}

/// One-call convenience: serve `jobs` over the standard registry.
///
/// # Errors
///
/// Propagates [`BtsServer::serve`] failures.
pub fn serve(jobs: &[JobRequest], options: ServeOptions) -> Result<ServeReport, ServeError> {
    BtsServer::new(options).serve(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::SyntheticArrivals;
    use bts_params::{BandwidthModel, CkksInstance};
    use bts_workloads::Workload;

    fn options_2tb(max_in_flight: usize) -> ServeOptions {
        ServeOptions::new(max_in_flight)
            .with_config(BtsConfig::bts_default().with_hbm(BandwidthModel::hbm_2tb()))
    }

    #[test]
    fn coscheduled_bootstrap_beats_serial_throughput_at_2tb() {
        // The acceptance criterion of the serving layer: at 2 TB/s, where
        // compute matters, two co-scheduled bootstrap jobs finish sooner
        // than one-at-a-time service.
        let ins = CkksInstance::ins1();
        let jobs = SyntheticArrivals::burst(&ins, "bootstrap", 2);
        let report = serve(&jobs, options_2tb(2)).unwrap();
        assert_eq!(report.job_count(), 2);
        assert!(
            report.coscheduling_speedup() > 1.05,
            "co-scheduling speedup = {}",
            report.coscheduling_speedup()
        );
        assert!(report.throughput_jobs_per_sec() > report.serial_throughput_jobs_per_sec());
        assert!(report.mult_slots_per_sec() > 0.0);
        for j in &report.jobs {
            assert!(j.latency_seconds() >= j.critical_path_seconds - 1e-12);
            assert_eq!(j.attempts, 1);
        }
        assert!(report.shed.is_empty());
        assert!(report.interrupted.is_empty());
        assert_eq!(report.failed_at_seconds, None);
    }

    #[test]
    fn concurrency_one_degenerates_to_back_to_back_service() {
        let ins = CkksInstance::ins1();
        let jobs = SyntheticArrivals::burst(&ins, "bootstrap", 2);
        let report = serve(&jobs, options_2tb(1)).unwrap();
        // Jobs run one at a time; each admission waits for the previous
        // completion, so queue delay shows up on the second job.
        assert!(report.jobs[1].admitted_seconds >= report.jobs[0].finish_seconds - 1e-12);
        assert!(report.jobs[1].queue_seconds() > 0.0);
        // And the co-scheduled run of the same batch is strictly faster.
        let co = serve(&jobs, options_2tb(2)).unwrap();
        assert!(co.makespan_seconds < report.makespan_seconds);
    }

    #[test]
    fn serving_is_deterministic() {
        let jobs = SyntheticArrivals::new(CkksInstance::ins1(), 99)
            .mean_interarrival_seconds(2e-2)
            .tenants(3)
            .generate(6);
        let a = serve(&jobs, options_2tb(3)).unwrap();
        let b = serve(&jobs, options_2tb(3)).unwrap();
        assert!((a.makespan_seconds - b.makespan_seconds).abs() < 1e-18);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert!((x.finish_seconds - y.finish_seconds).abs() < 1e-18);
            assert!((x.admitted_seconds - y.admitted_seconds).abs() < 1e-18);
        }
    }

    #[test]
    fn sjf_admits_the_short_job_first() {
        // A long ResNet job and a short bootstrap job both waiting at t = 0
        // for a single slot: FIFO (submission order) serves the ResNet job
        // first, SJF flips the order.
        let ins = CkksInstance::ins1();
        let jobs = vec![
            JobRequest::new(0, 0, "resnet20", ins.clone(), 0.0),
            JobRequest::new(1, 1, "bootstrap", ins.clone(), 0.0),
        ];
        let fifo = serve(&jobs, ServeOptions::new(1)).unwrap();
        assert!(fifo.jobs[0].admitted_seconds < fifo.jobs[1].admitted_seconds);
        let sjf = serve(
            &jobs,
            ServeOptions::new(1).with_policy(QueuePolicy::ShortestJobFirst),
        )
        .unwrap();
        assert!(sjf.jobs[1].admitted_seconds < sjf.jobs[0].admitted_seconds);
        // The short job's p50 improves under SJF.
        assert!(sjf.jobs[1].latency_seconds() < fifo.jobs[1].latency_seconds());
    }

    #[test]
    fn round_robin_alternates_tenants() {
        // Tenant 0 floods the queue; tenant 1 submits one job last. With a
        // single slot, round-robin serves tenant 1 second instead of last.
        let ins = CkksInstance::ins1();
        let mut jobs: Vec<JobRequest> = (0..3)
            .map(|i| JobRequest::new(i, 0, "bootstrap", ins.clone(), 0.0))
            .collect();
        jobs.push(JobRequest::new(3, 1, "bootstrap", ins.clone(), 0.0));
        let rr = serve(
            &jobs,
            ServeOptions::new(1).with_policy(QueuePolicy::RoundRobin),
        )
        .unwrap();
        let fifo = serve(&jobs, ServeOptions::new(1)).unwrap();
        assert!(rr.jobs[3].finish_seconds < fifo.jobs[3].finish_seconds);
        assert!(rr.tenant_fairness() >= fifo.tenant_fairness());
    }

    #[test]
    fn free_slots_admit_on_arrival_not_on_next_completion() {
        // A long ResNet job holds one of two slots; a bootstrap job arrives
        // at 1 ms while the other slot is free. It must be admitted at its
        // arrival, not when the ResNet job completes hundreds of ms later.
        let ins = CkksInstance::ins1();
        let jobs = vec![
            JobRequest::new(0, 0, "resnet20", ins.clone(), 0.0),
            JobRequest::new(1, 1, "bootstrap", ins.clone(), 1e-3),
        ];
        let report = serve(&jobs, options_2tb(2)).unwrap();
        assert!(
            (report.jobs[1].admitted_seconds - 1e-3).abs() < 1e-12,
            "bootstrap admitted at {} instead of its 1 ms arrival",
            report.jobs[1].admitted_seconds
        );
        assert!(report.jobs[1].finish_seconds < report.jobs[0].finish_seconds);
    }

    #[test]
    fn concurrency_cap_holds_until_completion_events() {
        // Service windows [admitted, finish] may overlap at most
        // max_in_flight deep: a slot frees when a job *completes*, not when
        // its ops happen to all be placed.
        let ins = CkksInstance::ins1();
        let jobs = SyntheticArrivals::new(ins, 7)
            .mean_interarrival_seconds(1e-3)
            .tenants(2)
            .generate(6);
        let cap = 2;
        let report = serve(
            &jobs,
            ServeOptions::new(cap)
                .with_config(BtsConfig::bts_default().with_hbm(BandwidthModel::hbm_2tb())),
        )
        .unwrap();
        let mut events: Vec<(f64, i32)> = Vec::new();
        for j in &report.jobs {
            events.push((j.admitted_seconds, 1));
            events.push((j.finish_seconds, -1));
        }
        // Ends before starts at equal times: a completion frees the slot.
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut depth = 0i32;
        for (_, delta) in events {
            depth += delta;
            assert!(depth <= cap as i32, "concurrency {depth} exceeds cap {cap}");
        }
    }

    #[test]
    fn arrivals_gate_admission() {
        let ins = CkksInstance::ins1();
        let late = 10.0;
        let jobs = vec![
            JobRequest::new(0, 0, "bootstrap", ins.clone(), 0.0),
            JobRequest::new(1, 1, "bootstrap", ins.clone(), late),
        ];
        let report = serve(&jobs, options_2tb(2)).unwrap();
        assert!(report.jobs[1].admitted_seconds >= late);
        assert!(report.jobs[1].queue_seconds() <= 1e-12);
        // The machine idles between the first completion and the late
        // arrival, so the makespan includes the gap.
        assert!(report.makespan_seconds >= late);
    }

    #[test]
    fn a_clock_run_past_the_tick_range_is_a_typed_error() {
        // Arrivals are checked against the simulated clock's range up
        // front; a run whose clock passes it mid-way — the second job is
        // admitted when the first completes, past `MAX_TICKS` — is refused
        // at that admission, not wrapped and not a panic.
        let ins = CkksInstance::ins1();
        let past = vec![JobRequest::new(0, 0, "bootstrap", ins.clone(), 1e300)];
        assert!(matches!(
            serve(&past, ServeOptions::new(1)),
            Err(ServeError::InvalidArrival { job: 0, .. })
        ));
        let edge = bts_sim::ticks::seconds(bts_sim::ticks::MAX_TICKS) - 1e-3;
        let jobs: Vec<JobRequest> = (0..2)
            .map(|i| JobRequest::new(i, 0, "bootstrap", ins.clone(), edge))
            .collect();
        assert!(matches!(
            serve(&jobs, ServeOptions::new(1)),
            Err(ServeError::Schedule(
                bts_sched::ScheduleError::InvalidRelease(_)
            ))
        ));
    }

    #[test]
    fn invalid_batches_fail_fast() {
        let ins = CkksInstance::ins1();
        let unknown = vec![JobRequest::new(0, 0, "nope", ins.clone(), 0.0)];
        assert!(matches!(
            serve(&unknown, ServeOptions::new(1)),
            Err(ServeError::UnknownWorkload { .. })
        ));
        let bad_arrival = vec![JobRequest::new(0, 0, "bootstrap", ins.clone(), -1.0)];
        assert!(matches!(
            serve(&bad_arrival, ServeOptions::new(1)),
            Err(ServeError::InvalidArrival { .. })
        ));
        let bad_deadline =
            vec![JobRequest::new(0, 0, "bootstrap", ins.clone(), 0.0).with_deadline(f64::NAN)];
        assert!(matches!(
            serve(&bad_deadline, ServeOptions::new(1)),
            Err(ServeError::InvalidDeadline { job: 0, .. })
        ));
        let dup = vec![
            JobRequest::new(0, 0, "bootstrap", ins.clone(), 0.0),
            JobRequest::new(0, 1, "bootstrap", ins.clone(), 0.0),
        ];
        assert!(matches!(
            serve(&dup, ServeOptions::new(1)),
            Err(ServeError::DuplicateJobId { .. })
        ));
        // The zero-capacity deadlock is a typed validation error, caught
        // before any scheduling — with or without jobs in the batch.
        assert!(matches!(
            serve(&[], ServeOptions::new(0)),
            Err(ServeError::NoCapacity)
        ));
        assert!(matches!(
            ServeOptions::new(0).validate(),
            Err(ServeError::NoCapacity)
        ));
        let boot = vec![JobRequest::new(0, 0, "bootstrap", ins.clone(), 0.0)];
        assert!(matches!(
            serve(&boot, ServeOptions::new(0)),
            Err(ServeError::NoCapacity)
        ));
        // A zero retry budget could never run anything.
        assert!(matches!(
            ServeOptions::new(1)
                .with_retry(bts_fault::RetryPolicy {
                    max_attempts: 0,
                    ..bts_fault::RetryPolicy::default()
                })
                .validate(),
            Err(ServeError::NoAttempts)
        ));
        // A malformed fault plan is rejected up front.
        assert!(matches!(
            serve(
                &[],
                ServeOptions::new(1).with_fault_plan(FaultPlan::none().with_transient_rate(1.5))
            ),
            Err(ServeError::Fault(_))
        ));
        // A config that fails validation is rejected before any preparation.
        let mut broken = BtsConfig::bts_default();
        broken.lsub = 0;
        assert!(matches!(
            serve(&[], ServeOptions::new(1).with_config(broken)),
            Err(ServeError::Config(bts_sim::ConfigError::ZeroLsub))
        ));
        // A toy instance cannot bootstrap: circuit construction fails.
        let toy = vec![JobRequest::new(
            0,
            0,
            "bootstrap",
            CkksInstance::toy(11, 4, 2),
            0.0,
        )];
        assert!(matches!(
            serve(&toy, ServeOptions::new(1)),
            Err(ServeError::Circuit { .. })
        ));
    }

    #[test]
    fn empty_batches_produce_an_empty_report() {
        let report = serve(&[], ServeOptions::new(2)).unwrap();
        assert_eq!(report.job_count(), 0);
        assert_eq!(report.makespan_seconds, 0.0);
        assert!(report.aggregate.is_none());
        assert_eq!(report.throughput_jobs_per_sec(), 0.0);
        assert!((report.tenant_fairness() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn aggregate_report_sums_per_job_work() {
        let ins = CkksInstance::ins1();
        let jobs = SyntheticArrivals::burst(&ins, "bootstrap", 3);
        let report = serve(&jobs, options_2tb(3)).unwrap();
        let agg = report.aggregate.as_ref().unwrap();
        assert!((agg.total_seconds - report.sum_serial_seconds()).abs() < 1e-12);
        let single = Simulator::new(options_2tb(3).config, ins.clone());
        let lowered = bts_workloads::BootstrapWorkload.lower(&ins).unwrap();
        let one = single.run(&lowered.trace);
        assert_eq!(agg.hbm_bytes, 3 * one.hbm_bytes);
        assert_eq!(
            agg.per_op.values().map(|s| s.count).sum::<usize>(),
            3 * lowered.trace.len()
        );
    }

    #[test]
    fn bounded_queue_sheds_overflow_and_serves_the_rest() {
        // Five simultaneous arrivals, one slot, a queue bound of 2: the
        // queue fills in submission order before any admission happens at
        // that instant, so the last three arrivals are shed at arrival.
        let ins = CkksInstance::ins1();
        let jobs: Vec<JobRequest> = (0..5)
            .map(|i| JobRequest::new(i, i as u32, "bootstrap", ins.clone(), 0.0))
            .collect();
        let report = serve(&jobs, options_2tb(1).with_queue_capacity(2)).unwrap();
        assert_eq!(report.job_count() + report.shed_count(), 5);
        assert_eq!(report.shed_count(), 3);
        for s in &report.shed {
            assert_eq!(s.reason, ShedReason::QueueFull);
            assert_eq!(s.attempts, 0);
            assert!((s.shed_seconds - s.arrival_seconds).abs() < 1e-15);
        }
        let shed_ids: Vec<u64> = report.shed.iter().map(|s| s.id).collect();
        assert_eq!(shed_ids, vec![2, 3, 4]);
        // An unbounded queue serves all five.
        let unbounded = serve(&jobs, options_2tb(1)).unwrap();
        assert_eq!(unbounded.job_count(), 5);
    }

    #[test]
    fn expired_deadlines_shed_queued_jobs_and_late_finishes_miss_slo() {
        let ins = CkksInstance::ins1();
        // Calibrate: one bootstrap alone takes T seconds.
        let solo = serve(
            &[JobRequest::new(9, 0, "bootstrap", ins.clone(), 0.0)],
            options_2tb(1),
        )
        .unwrap();
        let t = solo.makespan_seconds;
        // One slot: job 0 occupies it until T; job 1's deadline expires
        // while it waits; job 2 is admitted at ~T, finishes at ~2T, after
        // its 1.5T deadline; job 3 has a generous deadline and meets it.
        let jobs = vec![
            JobRequest::new(0, 0, "bootstrap", ins.clone(), 0.0),
            JobRequest::new(1, 1, "bootstrap", ins.clone(), 0.0).with_deadline(0.5 * t),
            JobRequest::new(2, 2, "bootstrap", ins.clone(), 0.0).with_deadline(1.5 * t),
            JobRequest::new(3, 3, "bootstrap", ins.clone(), 0.0).with_deadline(1e3),
        ];
        let report = serve(&jobs, options_2tb(1)).unwrap();
        assert_eq!(report.shed_count(), 1);
        assert_eq!(report.shed[0].id, 1);
        assert_eq!(report.shed[0].reason, ShedReason::DeadlineExpired);
        assert_eq!(report.job_count(), 3);
        let late = report.jobs.iter().find(|j| j.id == 2).unwrap();
        assert_eq!(late.deadline_met(), Some(false));
        let ok = report.jobs.iter().find(|j| j.id == 3).unwrap();
        assert_eq!(ok.deadline_met(), Some(true));
        // SLO: 3 deadline-bearing jobs (1 shed, 1 late, 1 met) → 1/3.
        assert!((report.slo_attainment() - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(report.deadline_missed_count(), 2);
    }

    #[test]
    fn transient_faults_redrive_within_budget_and_shed_beyond_it() {
        let ins = CkksInstance::ins1();
        let jobs = SyntheticArrivals::burst(&ins, "bootstrap", 3);
        // Rate 1: every attempt faults, so every job exhausts its budget.
        let all_fail = serve(
            &jobs,
            options_2tb(2)
                .with_fault_plan(FaultPlan::none().with_seed(5).with_transient_rate(0.999)),
        )
        .unwrap();
        assert_eq!(all_fail.job_count(), 0);
        assert_eq!(all_fail.shed_count(), 3);
        for s in &all_fail.shed {
            assert_eq!(s.reason, ShedReason::RetryBudgetExhausted);
            assert_eq!(s.attempts, RetryPolicy::default().max_attempts);
        }
        assert_eq!(
            all_fail.retry_count(),
            3 * u64::from(RetryPolicy::default().max_attempts - 1)
        );
        // A moderate rate: some jobs retry and still complete; the redriven
        // run takes longer than the clean one.
        let clean = serve(&jobs, options_2tb(2)).unwrap();
        let flaky = serve(
            &jobs,
            options_2tb(2).with_fault_plan(FaultPlan::none().with_seed(3).with_transient_rate(0.4)),
        )
        .unwrap();
        let redriven: u32 = flaky.jobs.iter().map(|j| j.attempts - 1).sum::<u32>();
        if redriven > 0 {
            assert!(flaky.makespan_seconds > clean.makespan_seconds);
        }
        assert_eq!(flaky.job_count() + flaky.shed_count(), 3);
    }

    #[test]
    fn zero_fault_plan_reproduces_the_plain_run_bitwise() {
        let ins = CkksInstance::ins1();
        let jobs = SyntheticArrivals::new(ins, 42)
            .mean_interarrival_seconds(5e-3)
            .tenants(2)
            .generate(5);
        let plain = serve(&jobs, options_2tb(2)).unwrap();
        let with_plan = serve(
            &jobs,
            options_2tb(2)
                .with_fault_plan(FaultPlan::none().with_seed(77))
                .with_retry(RetryPolicy::default()),
        )
        .unwrap();
        assert_eq!(
            plain.makespan_seconds.to_bits(),
            with_plan.makespan_seconds.to_bits()
        );
        assert_eq!(plain.jobs.len(), with_plan.jobs.len());
        for (a, b) in plain.jobs.iter().zip(&with_plan.jobs) {
            assert_eq!(a.finish_seconds.to_bits(), b.finish_seconds.to_bits());
            assert_eq!(a.admitted_seconds.to_bits(), b.admitted_seconds.to_bits());
            assert_eq!(a.attempts, b.attempts);
        }
        for (a, b) in plain.utilizations.iter().zip(&with_plan.utilizations) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn a_failing_accelerator_interrupts_unfinished_work() {
        let ins = CkksInstance::ins1();
        let jobs = SyntheticArrivals::new(ins, 11)
            .mean_interarrival_seconds(5e-3)
            .tenants(2)
            .generate(6);
        let healthy = serve(&jobs, options_2tb(2)).unwrap();
        assert_eq!(healthy.job_count(), 6);
        // Kill the accelerator mid-run: some jobs complete, the rest are
        // interrupted at the failure time, none are lost.
        let fail_at = healthy.makespan_seconds * 0.5;
        let report = serve(&jobs, options_2tb(2).with_failure_at(fail_at)).unwrap();
        assert_eq!(report.failed_at_seconds, Some(fail_at));
        assert_eq!(report.job_count() + report.interrupted.len(), 6);
        assert!(!report.interrupted.is_empty(), "half the run must be cut");
        assert!(report.job_count() > 0, "work before the failure completes");
        for j in &report.jobs {
            assert!(j.finish_seconds <= fail_at + 1e-15);
        }
        for i in &report.interrupted {
            assert!((i.interrupted_seconds - fail_at).abs() < 1e-15);
        }
        assert!(report.makespan_seconds <= fail_at + 1e-15);
        // Dying at t = 0 interrupts everything.
        let stillborn = serve(&jobs, options_2tb(2).with_failure_at(0.0)).unwrap();
        assert_eq!(stillborn.job_count(), 0);
        assert_eq!(stillborn.interrupted.len(), 6);
        assert_eq!(stillborn.makespan_seconds, 0.0);
    }

    #[test]
    fn a_prepared_batch_serves_other_options_on_its_machine() {
        let ins = CkksInstance::ins1();
        let jobs = SyntheticArrivals::burst(&ins, "bootstrap", 2);
        let server = BtsServer::new(options_2tb(2));
        let batch = server.prepare(&jobs).unwrap();
        // Serving the preparation with the server's own options is `serve`.
        let plain = batch.serve(&jobs, server.options()).unwrap();
        let served = server.serve(&jobs).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{served:?}"));
        // Any knob but the machine may change between runs of one batch.
        let killed = batch
            .serve(
                &jobs,
                &options_2tb(1).with_failure_at(plain.makespan_seconds * 0.1),
            )
            .unwrap();
        assert!(killed.job_count() < plain.job_count() || !killed.interrupted.is_empty());
        // The original options are untouched.
        assert_eq!(server.options().fail_at_seconds, None);
        // A job whose pair was never prepared, and a machine the batch was
        // not planned for, are typed errors rather than scheduler panics.
        let other = [JobRequest::new(7, 0, "amortized-mult", ins.clone(), 0.0)];
        assert!(matches!(
            batch.serve(&other, server.options()),
            Err(ServeError::Unprepared { job: 7, .. })
        ));
        assert!(matches!(
            batch.serve(&jobs, &ServeOptions::new(2)),
            Err(ServeError::OtherMachine)
        ));
    }

    /// A transiently faulting stream under `retry`'s backoff.
    fn flaky_with_backoff(seconds: f64) -> Result<ServeReport, ServeError> {
        let jobs = SyntheticArrivals::burst(&CkksInstance::ins1(), "bootstrap", 2);
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_seconds: seconds,
            backoff_cap_seconds: seconds,
        };
        let fault = FaultPlan::none().with_seed(1).with_transient_rate(0.5);
        serve(
            &jobs,
            options_2tb(2).with_retry(retry).with_fault_plan(fault),
        )
    }

    #[test]
    fn nan_backoffs_are_rejected_before_serving() {
        // A NaN redrive would sit at the front of the arrivals forever and
        // the idle clock jump would never move past it.
        assert!(matches!(
            flaky_with_backoff(f64::NAN),
            Err(ServeError::Fault(bts_fault::FaultError::InvalidTime { .. }))
        ));
    }

    #[test]
    fn infinite_backoffs_are_rejected_before_serving() {
        // An infinite redrive would be admitted at t = inf, which no
        // scheduler accepts as a release time.
        assert!(matches!(
            flaky_with_backoff(f64::INFINITY),
            Err(ServeError::Fault(bts_fault::FaultError::InvalidTime { seconds }))
                if seconds == f64::INFINITY
        ));
        assert!(flaky_with_backoff(-1e-3).is_err());
        assert!(flaky_with_backoff(1e-3).is_ok());
    }
}
