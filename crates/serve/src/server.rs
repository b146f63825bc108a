//! The serving engine: admission control in front of one shared multi-DAG
//! scheduler.
//!
//! # Execution model
//!
//! Each distinct (workload, instance) pair of the stream is prepared once —
//! workload looked up in the registry, circuit built for the instance,
//! lowered to a trace, per-op charges resolved by that instance's
//! [`bts_sim::Simulator`] (so each job's scratchpad residency is modelled as
//! a private partition; cross-job cache contention is not charged), and
//! planned for the scheduler ([`bts_sched::JobPlan`]); every job of the pair
//! is admitted through that one shared plan. The event loop then drives the
//! [`bts_sched::MultiScheduler`]:
//!
//! 1. arrivals (and retry redrives) that are due join the waiting queue —
//!    unless a bounded queue is full, in which case the new arrival is shed
//!    with [`crate::ShedReason::QueueFull`] (or the whole call fails with
//!    [`ServeError::QueueFull`] under
//!    [`ServeOptions::with_reject_on_full`]);
//! 2. waiting jobs whose deadline has already passed are shed — admitting
//!    them could only burn machine time on a guaranteed SLO miss;
//! 3. while the accelerator holds fewer than `max_in_flight` jobs and the
//!    waiting queue is non-empty, the [`QueuePolicy`] picks the next
//!    admission (release time = admission time);
//! 4. the scheduler interleaves the active jobs' ops on the shared
//!    NTTU/BConvU/element-wise/HBM channels until one job completes;
//! 5. the completion advances the clock and frees a slot. If the job's
//!    `(id, attempt)` draws a transient fault from the [`FaultPlan`], the
//!    attempt's work is lost: the job redrives after capped exponential
//!    backoff ([`bts_fault::RetryPolicy`]) until its budget runs out, at
//!    which point it is shed with
//!    [`crate::ShedReason::RetryBudgetExhausted`].
//!
//! An idle machine jumps the clock to the next arrival. If the run has a
//! failure time ([`ServeOptions::with_failure_at`] — the cluster layer sets
//! it per chip from its [`FaultPlan`]), any work finishing after it never
//! completes: in-flight jobs are cancelled in the scheduler and reported as
//! [`crate::InterruptedJob`]s alongside everything still queued, for the
//! cluster layer to migrate.
//!
//! Everything is deterministic: one `(jobs, options)` pair always produces
//! the same [`ServeReport`], and a fault-free plan reproduces the plain
//! fault-free run bit for bit.

use std::collections::VecDeque;
use std::sync::Arc;

use bts_fault::{FaultPlan, RetryPolicy};
use bts_params::L_BOOT;
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
    /// means unbounded; `Some(n)` sheds (or rejects) arrivals past `n`.
    /// Retry redrives are exempt — they already hold a budget.
    pub queue_capacity: Option<usize>,
    /// On a full bounded queue: `false` (default) sheds the arrival and
    /// keeps serving; `true` fails the whole call with
    /// [`ServeError::QueueFull`].
    pub reject_on_full: bool,
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
            reject_on_full: false,
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

    /// Returns a copy that fails the whole call with
    /// [`ServeError::QueueFull`] instead of shedding when the bounded queue
    /// overflows.
    pub fn with_reject_on_full(mut self) -> Self {
        self.reject_on_full = true;
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
    /// retry budget is 0, plus config and fault-plan validation failures.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_in_flight == 0 {
            return Err(ServeError::NoCapacity);
        }
        if self.retry.max_attempts == 0 {
            return Err(ServeError::NoAttempts);
        }
        self.config.validate().map_err(ServeError::Config)?;
        // Chip indices are a cluster-level concern; at the serve level any
        // chip id is in range — only rates, times, and windows are checked.
        self.fault.validate(usize::MAX).map_err(ServeError::Fault)?;
        if let Some(t) = self.fail_at_seconds {
            if !t.is_finite() || t < 0.0 {
                return Err(ServeError::Fault(bts_fault::FaultError::InvalidTime {
                    seconds: t,
                }));
            }
        }
        Ok(())
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self::new(4)
    }
}

/// A multi-tenant batch server over one simulated BTS accelerator.
pub struct BtsServer {
    registry: WorkloadRegistry,
    options: ServeOptions,
}

impl std::fmt::Debug for BtsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BtsServer")
            .field("registry", &self.registry)
            .field("options", &self.options)
            .finish()
    }
}

/// A prepared (workload, instance) pair: lowered, charged, planned — every
/// job of the pair is admitted through the one shared plan.
struct PreparedJob {
    plan: Arc<JobPlan>,
    report: SimReport,
    refreshed_slot_levels: f64,
    /// Online closed-form cost estimate (`crate::estimate`) — what the SJF
    /// policy ranks by. The oracle serial charge stays in `report` for the
    /// per-job outcome figures.
    estimate_seconds: f64,
}

/// A job execution waiting to happen: attempt 0 is the original arrival,
/// later attempts are retry redrives becoming ready after backoff.
#[derive(Debug, Clone, Copy)]
struct PendingRun {
    j: usize,
    attempt: u32,
    ready_seconds: f64,
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

    /// The workload registry the server resolves job names against.
    pub fn registry(&self) -> &WorkloadRegistry {
        &self.registry
    }

    /// Streams a batch of jobs through the accelerator and reports per-job
    /// latencies plus the aggregate throughput/utilization/fairness figures.
    /// Jobs may be given in any order; arrival times define the stream.
    ///
    /// # Errors
    ///
    /// Fails fast — before any scheduling — if the options or any job is
    /// invalid (unknown workload, bad arrival or deadline, duplicate id,
    /// zero capacity or retry budget) or a job's circuit cannot be built or
    /// lowered for its instance. With
    /// [`ServeOptions::with_reject_on_full`], also fails mid-run on queue
    /// overflow with [`ServeError::QueueFull`].
    pub fn serve(&self, jobs: &[JobRequest]) -> Result<ServeReport, ServeError> {
        self.serve_with(jobs, &self.options)
    }

    /// Like [`BtsServer::serve`] but with explicit options, so one server
    /// (and its registry) can run variations — the cluster layer uses this
    /// to give each chip its own failure time.
    ///
    /// # Errors
    ///
    /// As [`BtsServer::serve`].
    pub fn serve_with(
        &self,
        jobs: &[JobRequest],
        options: &ServeOptions,
    ) -> Result<ServeReport, ServeError> {
        options.validate()?;
        validate_batch(jobs)?;

        // Bursts repeat the same (workload, instance) pair; lowering, the
        // cache-resolution sweep and scheduling plan are deterministic, so
        // identical requests share one prepared pair instead of re-deriving
        // it per copy. `pairs` holds (first job of the pair, its preparation).
        let machine = MachineModel::from_config(&options.config);
        let mut pairs: Vec<(usize, PreparedJob)> = Vec::new();
        let mut pair_of: Vec<usize> = Vec::with_capacity(jobs.len());
        for (j, job) in jobs.iter().enumerate() {
            let twin = pairs.iter().position(|&(first, _)| {
                jobs[first].workload == job.workload && jobs[first].instance == job.instance
            });
            pair_of.push(match twin {
                Some(t) => t,
                None => {
                    pairs.push((j, self.prepare(job, options)?));
                    pairs.len() - 1
                }
            });
        }
        let prepared = |j: usize| &pairs[pair_of[j]].1;

        let fail_at = options.fail_at_seconds;
        let retry = options.retry;

        // Admission loop over the shared scheduler. Nothing here reads the
        // placed timeline back, so it is folded into utilization sums as
        // completions arrive instead of being retained for the whole run.
        let mut scheduler = MultiScheduler::new(machine);
        let mut busy = UtilizationFold::new();
        // Finish of the latest real completion: the makespan of a run that
        // ends dead, and a floor of any run's.
        let mut last_completion = 0.0f64;
        // Executions not yet due, sorted by (ready, submit index): initially
        // one attempt-0 entry per job at its arrival; retries re-enter here.
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
        let mut upcoming = VecDeque::from(upcoming);
        // Arrived but not admitted, in arrival order.
        let mut waiting: Vec<PendingRun> = Vec::new();
        // What the queue policy sees of `waiting`, rebuilt per admission.
        let mut candidates: Vec<QueuedJob> = Vec::new();
        let mut admitted_at = vec![0.0f64; jobs.len()];
        // Scheduler tags are assigned per admission (a retried job runs
        // under a fresh tag); tag → (submit index, attempt).
        let mut tag_info: Vec<(usize, u32)> = Vec::new();
        // Per job: Some((tag, attempt)) while on the machine.
        let mut on_machine: Vec<Option<(u32, u32)>> = vec![None; jobs.len()];
        // Per job: Some((tag, attempts)) once completed for real.
        let mut completed: Vec<Option<(u32, u32)>> = vec![None; jobs.len()];
        let mut shed: Vec<ShedJob> = Vec::new();
        let mut clock = 0.0f64;
        let mut last_tenant: Option<u32> = None;
        // Jobs admitted but not yet completed — the real concurrency gauge.
        // (The scheduler's own active count drops when a job's ops are all
        // *placed*, which can precede its finish; a slot only frees at the
        // completion event.)
        let mut in_flight = 0usize;
        let mut dead = false;

        let drop_job = |e: PendingRun, at: f64, reason: ShedReason, shed: &mut Vec<ShedJob>| {
            let job = &jobs[e.j];
            shed.push(ShedJob {
                id: job.id,
                tenant: job.tenant,
                workload: job.workload.clone(),
                arrival_seconds: job.arrival_seconds,
                shed_seconds: at,
                reason,
                attempts: e.attempt,
                deadline_seconds: job.deadline_seconds,
            });
            if bts_telemetry::enabled() {
                use bts_telemetry::ArgValue;
                bts_telemetry::emit_instant(
                    "faults",
                    "shed",
                    at,
                    &[
                        ("job", ArgValue::U64(job.id)),
                        ("tenant", ArgValue::U64(u64::from(job.tenant))),
                        ("reason", ArgValue::Str(reason.label().to_string())),
                        ("attempts", ArgValue::U64(u64::from(e.attempt))),
                    ],
                );
                bts_telemetry::counter_add("serve.shed", 1);
            }
        };

        'serve: loop {
            // 1. Ingest due arrivals and redrives, bounding the queue.
            while upcoming.front().is_some_and(|e| e.ready_seconds <= clock) {
                let e = upcoming.pop_front().expect("front was just seen");
                let full = options
                    .queue_capacity
                    .is_some_and(|cap| waiting.len() >= cap);
                if full && e.attempt == 0 {
                    let capacity = options.queue_capacity.expect("full implies a bound");
                    if options.reject_on_full {
                        return Err(ServeError::QueueFull {
                            job: jobs[e.j].id,
                            capacity,
                        });
                    }
                    drop_job(e, e.ready_seconds, ShedReason::QueueFull, &mut shed);
                    continue;
                }
                waiting.push(e);
            }
            // 2. Shed waiting jobs whose deadline has already passed.
            let mut i = 0;
            while i < waiting.len() {
                let e = waiting[i];
                if jobs[e.j].deadline_seconds.is_some_and(|d| d <= clock) {
                    waiting.remove(i);
                    let d = jobs[e.j].deadline_seconds.expect("checked above");
                    drop_job(
                        e,
                        d.max(e.ready_seconds),
                        ShedReason::DeadlineExpired,
                        &mut shed,
                    );
                } else {
                    i += 1;
                }
            }
            // 3. Admit while there is capacity and someone is waiting. A
            // free slot with nobody arrived yet waits for the next arrival
            // (the clock jump below): admission then happens at arrival
            // time, whether or not other jobs are still mid-flight — a free
            // slot never sits idle past an arrival.
            while in_flight < options.max_in_flight && !waiting.is_empty() {
                candidates.clear();
                candidates.extend(waiting.iter().map(|e| QueuedJob {
                    submit_index: e.j,
                    tenant: jobs[e.j].tenant,
                    arrival_seconds: e.ready_seconds,
                    estimate_seconds: prepared(e.j).estimate_seconds,
                }));
                let pick = options.policy.select(&candidates, last_tenant);
                let e = waiting.remove(pick);
                let release = clock.max(e.ready_seconds);
                admitted_at[e.j] = release;
                last_tenant = Some(jobs[e.j].tenant);
                in_flight += 1;
                let tag = u32::try_from(tag_info.len()).expect("tag space");
                tag_info.push((e.j, e.attempt));
                on_machine[e.j] = Some((tag, e.attempt));
                if bts_telemetry::enabled() {
                    use bts_telemetry::ArgValue;
                    bts_telemetry::emit_instant(
                        "admission",
                        &jobs[e.j].workload,
                        release,
                        &[
                            ("job", ArgValue::U64(jobs[e.j].id)),
                            ("tenant", ArgValue::U64(u64::from(jobs[e.j].tenant))),
                            (
                                "queued_s",
                                ArgValue::F64(release - jobs[e.j].arrival_seconds),
                            ),
                            ("attempt", ArgValue::U64(u64::from(e.attempt))),
                        ],
                    );
                    bts_telemetry::emit_counter(
                        "queue",
                        "queue",
                        release,
                        &[
                            ("waiting", (waiting.len() + upcoming.len()) as f64),
                            ("in_flight", in_flight as f64),
                        ],
                    );
                    bts_telemetry::gauge_set("serve.in_flight", in_flight as f64);
                }
                scheduler
                    .add_planned(tag, Arc::clone(&prepared(e.j).plan), release)
                    .expect(
                        "plans are prepared for this run's machine, releases are admission \
                         times on a finite non-negative clock, tags count admissions",
                    );
            }
            // 4. Idle with future work: jump the clock to the next arrival —
            // unless it lands at/after the failure time, in which case it
            // can never be served (drain in-flight completions first).
            if in_flight < options.max_in_flight && waiting.is_empty() && !upcoming.is_empty() {
                let next = upcoming[0].ready_seconds;
                if fail_at.is_none_or(|t| next < t) {
                    clock = clock.max(next);
                    continue 'serve;
                }
                if in_flight == 0 {
                    dead = true;
                    break 'serve;
                }
            }
            // 5. Machine full or nothing admittable: advance to the next
            // completion. (`None` implies nothing is queued either — with a
            // free slot and reachable work, steps 3/4 would have acted.)
            match scheduler.run_until_completion() {
                Some(done) => {
                    if fail_at.is_some_and(|t| done.finish_seconds > t) {
                        // Completions come back in finish order: everything
                        // still on the machine also finishes after the chip
                        // dies. The job stays marked on-machine and is
                        // reported interrupted below.
                        dead = true;
                        break 'serve;
                    }
                    clock = clock.max(done.finish_seconds);
                    in_flight -= 1;
                    if bts_telemetry::enabled() {
                        bts_telemetry::emit_counter(
                            "queue",
                            "queue",
                            clock,
                            &[
                                ("waiting", (waiting.len() + upcoming.len()) as f64),
                                ("in_flight", in_flight as f64),
                            ],
                        );
                    }
                    let (j, attempt) = tag_info[done.tag as usize];
                    on_machine[j] = None;
                    if options.fault.transient_faults(jobs[j].id, attempt) {
                        // The attempt burned its full service time, then
                        // faulted at the end (conservative redrive).
                        let used = attempt + 1;
                        if bts_telemetry::enabled() {
                            use bts_telemetry::ArgValue;
                            bts_telemetry::emit_instant(
                                "faults",
                                "fault",
                                done.finish_seconds,
                                &[
                                    ("job", ArgValue::U64(jobs[j].id)),
                                    ("tenant", ArgValue::U64(u64::from(jobs[j].tenant))),
                                    ("attempt", ArgValue::U64(u64::from(attempt))),
                                ],
                            );
                            bts_telemetry::counter_add("serve.faults", 1);
                        }
                        if used >= retry.max_attempts {
                            let e = PendingRun {
                                j,
                                attempt: used,
                                ready_seconds: done.finish_seconds,
                            };
                            drop_job(
                                e,
                                done.finish_seconds,
                                ShedReason::RetryBudgetExhausted,
                                &mut shed,
                            );
                        } else {
                            let ready = done.finish_seconds + retry.backoff_seconds(used);
                            let pos = upcoming.partition_point(|p| {
                                p.ready_seconds < ready || (p.ready_seconds == ready && p.j < j)
                            });
                            upcoming.insert(
                                pos,
                                PendingRun {
                                    j,
                                    attempt: used,
                                    ready_seconds: ready,
                                },
                            );
                            if bts_telemetry::enabled() {
                                use bts_telemetry::ArgValue;
                                bts_telemetry::emit_instant(
                                    "faults",
                                    "retry",
                                    ready,
                                    &[
                                        ("job", ArgValue::U64(jobs[j].id)),
                                        ("attempt", ArgValue::U64(u64::from(used))),
                                        ("backoff_s", ArgValue::F64(retry.backoff_seconds(used))),
                                    ],
                                );
                                bts_telemetry::counter_add("serve.retries", 1);
                            }
                        }
                    } else {
                        completed[j] = Some((done.tag, attempt + 1));
                        last_completion = last_completion.max(done.finish_seconds);
                    }
                    busy.drain(&mut scheduler, last_completion);
                }
                None => break 'serve,
            }
        }

        // A dead run: cancel whatever is still on the machine and classify
        // everything not completed and not shed as interrupted, in
        // submission order — the cluster layer's migration work-list.
        let mut interrupted: Vec<InterruptedJob> = Vec::new();
        if dead {
            let t = fail_at.expect("death implies a failure time");
            if bts_telemetry::enabled() {
                use bts_telemetry::ArgValue;
                bts_telemetry::emit_instant(
                    "faults",
                    "chip-failure",
                    t,
                    &[("in_flight", ArgValue::U64(in_flight as u64))],
                );
            }
            for &(tag, _) in on_machine.iter().flatten() {
                // False when the scheduler already handed the completion
                // out (the one that exposed the death) — its placed ops
                // stay on the books either way.
                scheduler.cancel_job(tag);
            }
            let leftovers = waiting.iter().chain(upcoming.iter());
            let mut cut: Vec<(usize, u32)> = leftovers.map(|e| (e.j, e.attempt)).collect();
            cut.extend(
                on_machine
                    .iter()
                    .enumerate()
                    .filter_map(|(j, m)| m.map(|(_, attempt)| (j, attempt + 1))),
            );
            cut.sort_unstable();
            for (j, attempts) in cut {
                let job = &jobs[j];
                interrupted.push(InterruptedJob {
                    id: job.id,
                    tenant: job.tenant,
                    workload: job.workload.clone(),
                    arrival_seconds: job.arrival_seconds,
                    attempts,
                    interrupted_seconds: t,
                    deadline_seconds: job.deadline_seconds,
                });
            }
        }

        // Per-job stats and the makespan cover the whole run; of the
        // timeline, only what the fold has not taken yet is left.
        let multi = scheduler.finish();

        // A dead run's makespan is the last *real* completion, not the
        // scheduler horizon (which includes work the failure threw away),
        // and its reservations are clipped to it.
        let makespan_seconds = if dead {
            last_completion
        } else {
            multi.makespan_seconds
        };
        let utilizations = busy.finish(&multi, dead.then_some(makespan_seconds));

        let mut aggregate: Option<SimReport> = None;
        let mut outcomes = Vec::with_capacity(jobs.len());
        for (j, job) in jobs.iter().enumerate() {
            let Some((tag, attempts)) = completed[j] else {
                continue;
            };
            let prep = prepared(j);
            let stats = multi.job(tag).expect("completed job has stats");
            let outcome = JobOutcome {
                id: job.id,
                tenant: job.tenant,
                workload: job.workload.clone(),
                instance: job.instance.name().to_string(),
                arrival_seconds: job.arrival_seconds,
                admitted_seconds: admitted_at[j],
                finish_seconds: stats.finish_seconds,
                serial_seconds: prep.report.total_seconds,
                critical_path_seconds: stats.critical_path_seconds,
                refreshed_slot_levels: prep.refreshed_slot_levels,
                ops: prep.plan.len(),
                attempts,
                deadline_seconds: job.deadline_seconds,
            };
            if bts_telemetry::enabled() {
                use bts_telemetry::ArgValue;
                // The lifecycle args carry the exact report floats, so
                // figures derived from the event stream match the report
                // bitwise (see `crate::derived`).
                bts_telemetry::emit_complete(
                    "jobs",
                    &outcome.workload,
                    outcome.arrival_seconds,
                    outcome.latency_seconds(),
                    &[
                        ("job", ArgValue::U64(outcome.id)),
                        ("tenant", ArgValue::U64(u64::from(outcome.tenant))),
                        ("queue_s", ArgValue::F64(outcome.queue_seconds())),
                        ("service_s", ArgValue::F64(outcome.service_seconds())),
                        ("latency_s", ArgValue::F64(outcome.latency_seconds())),
                        ("finish_s", ArgValue::F64(outcome.finish_seconds)),
                        (
                            "critical_path_s",
                            ArgValue::F64(outcome.critical_path_seconds),
                        ),
                        ("attempts", ArgValue::U64(u64::from(outcome.attempts))),
                    ],
                );
                bts_telemetry::counter_add("serve.jobs", 1);
                bts_telemetry::observe("serve.latency_seconds", outcome.latency_seconds());
                bts_telemetry::observe("serve.queue_seconds", outcome.queue_seconds());
                if outcome.deadline_met() == Some(false) {
                    bts_telemetry::emit_instant(
                        "faults",
                        "deadline-miss",
                        outcome.finish_seconds,
                        &[
                            ("job", ArgValue::U64(outcome.id)),
                            (
                                "late_s",
                                ArgValue::F64(
                                    outcome.finish_seconds
                                        - outcome.deadline_seconds.expect("missed implies set"),
                                ),
                            ),
                        ],
                    );
                    bts_telemetry::counter_add("serve.deadline_missed", 1);
                }
            }
            outcomes.push(outcome);
            match &mut aggregate {
                Some(agg) => agg.merge(&prep.report),
                None => aggregate = Some(prep.report.clone()),
            }
        }
        Ok(ServeReport {
            policy: options.policy,
            max_in_flight: options.max_in_flight,
            jobs: outcomes,
            shed,
            interrupted,
            failed_at_seconds: dead.then(|| fail_at.expect("death implies a failure time")),
            makespan_seconds,
            utilizations,
            aggregate,
        })
    }

    /// Lowers one request, resolves its per-op charges and plans it for the
    /// run's machine (the one `options.config` describes).
    fn prepare(&self, job: &JobRequest, options: &ServeOptions) -> Result<PreparedJob, ServeError> {
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
        let simulator = Simulator::new(options.config.clone(), job.instance.clone());
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
        let refreshed_slot_levels =
            lowered.bootstrap_count as f64 * usable_levels as f64 * job.instance.slots() as f64;
        let estimate_seconds = crate::estimate::estimate_trace_seconds(&simulator, &lowered.trace);
        Ok(PreparedJob {
            plan: Arc::new(plan),
            report,
            refreshed_slot_levels,
            estimate_seconds,
        })
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
        // Reject-on-full turns the same overflow into a typed error.
        let rejected = serve(
            &jobs,
            options_2tb(1).with_queue_capacity(2).with_reject_on_full(),
        );
        assert!(matches!(
            rejected,
            Err(ServeError::QueueFull {
                job: 2,
                capacity: 2
            })
        ));
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
    fn serve_with_overrides_the_constructed_options() {
        let ins = CkksInstance::ins1();
        let jobs = SyntheticArrivals::burst(&ins, "bootstrap", 2);
        let server = BtsServer::new(options_2tb(2));
        let plain = server.serve(&jobs).unwrap();
        let killed = server
            .serve_with(
                &jobs,
                &options_2tb(2).with_failure_at(plain.makespan_seconds * 0.1),
            )
            .unwrap();
        assert!(killed.job_count() < plain.job_count() || !killed.interrupted.is_empty());
        // The original options are untouched.
        assert_eq!(server.options().fail_at_seconds, None);
    }
}
