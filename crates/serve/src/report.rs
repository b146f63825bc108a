//! What a serve run reports: per-job latency breakdowns and the aggregate
//! throughput / utilization / fairness figures the BTS evaluation is framed
//! around.

use std::fmt::Write as _;

use bts_sched::FuKind;
use bts_sim::SimReport;

use crate::job::JobRequest;
use crate::policy::QueuePolicy;

/// One served job's lifecycle timestamps and derived figures.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The caller's job id.
    pub id: u64,
    /// Tenant the job belongs to.
    pub tenant: u32,
    /// Workload name.
    pub workload: String,
    /// Name of the CKKS instance the job ran under.
    pub instance: String,
    /// When the job arrived at the service queue.
    pub arrival_seconds: f64,
    /// When the queueing policy admitted it onto the accelerator.
    pub admitted_seconds: f64,
    /// When its last op finished.
    pub finish_seconds: f64,
    /// The cost model's serial charge for the job's trace.
    pub serial_seconds: f64,
    /// The job's own critical path (its latency floor on any machine).
    pub critical_path_seconds: f64,
    /// Mult-slot capacity the job refreshed: bootstraps × usable levels ×
    /// slots — the numerator of the paper's amortized-throughput metric.
    pub refreshed_slot_levels: f64,
    /// Number of ops in the job's lowered trace.
    pub ops: usize,
    /// Total executions the job took (1 = no transient faults; each faulted
    /// attempt redrives the whole trace after backoff).
    pub attempts: u32,
    /// The job's absolute deadline, if it had one.
    pub deadline_seconds: Option<f64>,
}

impl JobOutcome {
    /// Time spent waiting in the queue (`admitted − arrival`).
    pub fn queue_seconds(&self) -> f64 {
        self.admitted_seconds - self.arrival_seconds
    }

    /// Time spent on the accelerator (`finish − admitted`), including any
    /// stretch from sharing the channels with other jobs.
    pub fn service_seconds(&self) -> f64 {
        self.finish_seconds - self.admitted_seconds
    }

    /// End-to-end latency (`finish − arrival`).
    pub fn latency_seconds(&self) -> f64 {
        self.finish_seconds - self.arrival_seconds
    }

    /// Whether the job met its deadline (`None` if it had none).
    pub fn deadline_met(&self) -> Option<bool> {
        self.deadline_seconds.map(|d| self.finish_seconds <= d)
    }

    /// When telemetry is on: the job's lifecycle event on the `jobs` track
    /// (its args carry the exact report floats, so figures derived from the
    /// stream match the report bitwise — see `crate::derived`), and a
    /// `deadline-miss` instant if it finished late.
    pub fn emit(&self) {
        if !bts_telemetry::enabled() {
            return;
        }
        use bts_telemetry::ArgValue;
        let latency = self.latency_seconds();
        bts_telemetry::emit_complete(
            "jobs",
            &self.workload,
            self.arrival_seconds,
            latency,
            &[
                ("job", ArgValue::U64(self.id)),
                ("tenant", ArgValue::U64(u64::from(self.tenant))),
                ("queue_s", ArgValue::F64(self.queue_seconds())),
                ("service_s", ArgValue::F64(self.service_seconds())),
                ("latency_s", ArgValue::F64(latency)),
                ("finish_s", ArgValue::F64(self.finish_seconds)),
                ("critical_path_s", ArgValue::F64(self.critical_path_seconds)),
                ("attempts", ArgValue::U64(u64::from(self.attempts))),
            ],
        );
        if let (Some(false), Some(deadline)) = (self.deadline_met(), self.deadline_seconds) {
            let late = ArgValue::F64(self.finish_seconds - deadline);
            bts_telemetry::emit_instant(
                "faults",
                "deadline-miss",
                self.finish_seconds,
                &[("job", ArgValue::U64(self.id)), ("late_s", late)],
            );
        }
    }
}

/// Why the server dropped a job instead of completing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue was full when the job arrived.
    QueueFull,
    /// The job's deadline passed while it was still queued.
    DeadlineExpired,
    /// Every allowed execution faulted; the retry budget ran out.
    RetryBudgetExhausted,
}

impl ShedReason {
    /// Stable lowercase label (used in telemetry args and figures).
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::DeadlineExpired => "deadline-expired",
            ShedReason::RetryBudgetExhausted => "retry-budget-exhausted",
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A job the server dropped (load shedding, deadline expiry, or retry-budget
/// exhaustion) instead of completing.
#[derive(Debug, Clone)]
pub struct ShedJob {
    /// The caller's job id.
    pub id: u64,
    /// Tenant the job belongs to.
    pub tenant: u32,
    /// Workload name.
    pub workload: String,
    /// When the job arrived at the service queue.
    pub arrival_seconds: f64,
    /// When the server dropped it.
    pub shed_seconds: f64,
    /// Why it was dropped.
    pub reason: ShedReason,
    /// Executions the job consumed before being dropped (0 when shed at
    /// arrival, `max_attempts` when its retry budget ran out).
    pub attempts: u32,
    /// The job's absolute deadline, if it had one.
    pub deadline_seconds: Option<f64>,
}

impl ShedJob {
    /// The record of `job` dropped at `shed_seconds` for `reason` after
    /// `attempts` executions.
    pub fn new(job: &JobRequest, shed_seconds: f64, reason: ShedReason, attempts: u32) -> Self {
        Self {
            id: job.id,
            tenant: job.tenant,
            workload: job.workload.clone(),
            arrival_seconds: job.arrival_seconds,
            shed_seconds,
            reason,
            attempts,
            deadline_seconds: job.deadline_seconds,
        }
    }

    /// When telemetry is on: the `shed` instant on the `faults` track of the
    /// current scope (a chip's process for its own sheds, `cluster` for the
    /// cluster's).
    pub fn emit(&self) {
        if !bts_telemetry::enabled() {
            return;
        }
        use bts_telemetry::ArgValue;
        bts_telemetry::emit_instant(
            "faults",
            "shed",
            self.shed_seconds,
            &[
                ("job", ArgValue::U64(self.id)),
                ("tenant", ArgValue::U64(u64::from(self.tenant))),
                ("reason", ArgValue::Str(self.reason.label().to_string())),
                ("attempts", ArgValue::U64(u64::from(self.attempts))),
            ],
        );
    }
}

/// A job cut short by a chip failure: neither completed nor deliberately
/// shed. The cluster layer migrates these onto surviving chips.
#[derive(Debug, Clone)]
pub struct InterruptedJob {
    /// The caller's job id.
    pub id: u64,
    /// Tenant the job belongs to.
    pub tenant: u32,
    /// Workload name.
    pub workload: String,
    /// When the job arrived at the service queue.
    pub arrival_seconds: f64,
    /// Executions the job had consumed when the chip died (a mid-flight
    /// attempt counts: its work is lost).
    pub attempts: u32,
    /// When the chip failed, in seconds.
    pub interrupted_seconds: f64,
    /// The job's absolute deadline, if it had one.
    pub deadline_seconds: Option<f64>,
}

/// Aggregate result of streaming a batch of jobs through one simulated
/// accelerator.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The queueing policy the run used.
    pub policy: QueuePolicy,
    /// Concurrency limit (jobs co-resident on the accelerator).
    pub max_in_flight: usize,
    /// Per-job outcomes of *completed* jobs, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Jobs dropped instead of completed, in the order they were dropped.
    pub shed: Vec<ShedJob>,
    /// Jobs cut short by a chip failure, in submission order. Empty unless
    /// the run was given a failure time.
    pub interrupted: Vec<InterruptedJob>,
    /// When the accelerator died mid-run, if it did
    /// ([`crate::ServeOptions::with_failure_at`]).
    pub failed_at_seconds: Option<f64>,
    /// Completion time of the last job, from t = 0.
    pub makespan_seconds: f64,
    /// Busy fraction of each functional-unit class over the makespan,
    /// indexed by [`FuKind::index`].
    pub utilizations: [f64; FuKind::COUNT],
    /// Per-job serial cost-model reports merged with [`SimReport::merge`]:
    /// total HBM traffic, energy, op mix, cache statistics across the batch.
    /// `None` when the batch was empty.
    pub aggregate: Option<SimReport>,
}

impl ServeReport {
    /// Number of served jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of jobs submitted, whatever became of them.
    pub fn submitted_count(&self) -> usize {
        self.jobs.len() + self.shed.len() + self.interrupted.len()
    }

    /// Number of jobs dropped (shed, expired, or out of retries).
    pub fn shed_count(&self) -> usize {
        self.shed.len()
    }

    /// Total redriven executions across the run: every attempt beyond each
    /// job's first, whether the job eventually completed or was dropped.
    pub fn retry_count(&self) -> u64 {
        let attempts = self.jobs.iter().map(|j| j.attempts);
        let attempts = attempts.chain(self.shed.iter().map(|s| s.attempts));
        attempts.map(|a| u64::from(a.saturating_sub(1))).sum()
    }

    /// Dropped jobs (shed or interrupted) that carried a deadline: each one
    /// missed it by definition.
    fn dropped_with_deadline(&self) -> usize {
        let shed = self.shed.iter().map(|s| s.deadline_seconds);
        let cut = self.interrupted.iter().map(|i| i.deadline_seconds);
        shed.chain(cut).filter(Option::is_some).count()
    }

    /// Jobs that had a deadline and missed it: completed too late, shed, or
    /// interrupted.
    pub fn deadline_missed_count(&self) -> usize {
        let jobs = &self.jobs;
        let late = jobs.iter().filter(|j| j.deadline_met() == Some(false));
        late.count() + self.dropped_with_deadline()
    }

    /// Fraction of deadline-bearing jobs that met their deadline. 1.0 when
    /// no job had a deadline (a vacuous SLO is always attained).
    pub fn slo_attainment(&self) -> f64 {
        let jobs = &self.jobs;
        let met = jobs.iter().filter(|j| j.deadline_met() == Some(true));
        let completed = jobs.iter().filter(|j| j.deadline_seconds.is_some());
        let with_deadline = completed.count() + self.dropped_with_deadline();
        if with_deadline == 0 {
            1.0
        } else {
            met.count() as f64 / with_deadline as f64
        }
    }

    /// *Completed* jobs per second over the makespan — unlike
    /// [`ServeReport::throughput_jobs_per_sec`] this is already goodput,
    /// since `jobs` holds only completions; the separate name keeps sweep
    /// code honest about what it plots under overload.
    pub fn goodput_jobs_per_sec(&self) -> f64 {
        self.throughput_jobs_per_sec()
    }

    /// Sum of every job's serial charge — what one-at-a-time execution
    /// would spend on the machine.
    pub fn sum_serial_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.serial_seconds).sum()
    }

    /// Served jobs per second over the makespan.
    pub fn throughput_jobs_per_sec(&self) -> f64 {
        self.per_second(self.jobs.len() as f64)
    }

    /// `amount` per second of makespan; 0 for a run with no makespan.
    fn per_second(&self, amount: f64) -> f64 {
        if self.makespan_seconds <= 0.0 {
            0.0
        } else {
            amount / self.makespan_seconds
        }
    }

    /// The one-at-a-time reference: jobs per second if the batch ran
    /// back-to-back at each job's serial charge.
    pub fn serial_throughput_jobs_per_sec(&self) -> f64 {
        let serial = self.sum_serial_seconds();
        if serial <= 0.0 {
            0.0
        } else {
            self.jobs.len() as f64 / serial
        }
    }

    /// Throughput gain of co-scheduling over one-at-a-time execution
    /// (`Σ serial / makespan`). Values above 1 mean the shared machine
    /// overlapped work across jobs; at most weakly above 1 when every job is
    /// HBM-bound (the channels cannot be oversubscribed).
    pub fn coscheduling_speedup(&self) -> f64 {
        if self.makespan_seconds <= 0.0 {
            1.0
        } else {
            self.sum_serial_seconds() / self.makespan_seconds
        }
    }

    /// Sustained amortized mult-slot throughput: refreshed slot-levels per
    /// second across the batch — the serving-layer analogue of the paper's
    /// `T_mult,a/slot` (its inverse, aggregated over tenants).
    pub fn mult_slots_per_sec(&self) -> f64 {
        let slots = self.jobs.iter().map(|j| j.refreshed_slot_levels);
        self.per_second(slots.sum())
    }

    /// Latency at percentile `p` (nearest-rank over end-to-end latencies via
    /// the shared [`bts_telemetry::percentile_nearest_rank`]; `p` in
    /// `[0, 100]`). Returns 0 for an empty batch.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let latencies: Vec<f64> = self.jobs.iter().map(JobOutcome::latency_seconds).collect();
        bts_telemetry::percentile_nearest_rank(&latencies, p)
    }

    /// Mean end-to-end latency. Returns 0 for an empty batch.
    pub fn mean_latency_seconds(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs
            .iter()
            .map(JobOutcome::latency_seconds)
            .sum::<f64>()
            / self.jobs.len() as f64
    }

    /// Jain's fairness index over per-tenant mean latency
    /// ([`bts_telemetry::jain_index`]): 1.0 means every tenant saw the same
    /// mean latency, `1/n` that one tenant absorbed all of it.
    pub fn tenant_fairness(&self) -> f64 {
        bts_telemetry::jain_index(self.jobs.iter().map(|j| (j.tenant, j.latency_seconds())))
    }

    /// Renders the headline figures as a small text block.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} jobs | policy {} | concurrency {} | makespan {:.2} ms (serial {:.2} ms, co-scheduling {:.3}x)",
            self.jobs.len(),
            self.policy,
            self.max_in_flight,
            self.makespan_seconds * 1e3,
            self.sum_serial_seconds() * 1e3,
            self.coscheduling_speedup()
        );
        let _ = writeln!(
            out,
            "throughput {:.1} jobs/s ({:.1} serial) | {:.3e} mult slots/s | latency p50 {:.2} ms p99 {:.2} ms | fairness {:.3}",
            self.throughput_jobs_per_sec(),
            self.serial_throughput_jobs_per_sec(),
            self.mult_slots_per_sec(),
            self.latency_percentile(50.0) * 1e3,
            self.latency_percentile(99.0) * 1e3,
            self.tenant_fairness()
        );
        let _ = writeln!(
            out,
            "utilization: NTTU {:.0}% | BConvU {:.0}% | ModMult/ModAdd {:.0}% | HBM {:.0}%",
            self.utilizations[FuKind::Nttu.index()] * 100.0,
            self.utilizations[FuKind::BConvU.index()] * 100.0,
            self.utilizations[FuKind::Elementwise.index()] * 100.0,
            self.utilizations[FuKind::Hbm.index()] * 100.0
        );
        if !self.shed.is_empty()
            || !self.interrupted.is_empty()
            || self.failed_at_seconds.is_some()
            || self.retry_count() > 0
            || self.jobs.iter().any(|j| j.deadline_seconds.is_some())
        {
            let _ = writeln!(
                out,
                "resilience: shed {} | retried {} | interrupted {} | deadline missed {} | SLO {:.1}%{}",
                self.shed_count(),
                self.retry_count(),
                self.interrupted.len(),
                self.deadline_missed_count(),
                self.slo_attainment() * 100.0,
                match self.failed_at_seconds {
                    Some(t) => format!(" | chip died at {:.2} ms", t * 1e3),
                    None => String::new(),
                }
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, tenant: u32, arrival: f64, admitted: f64, finish: f64) -> JobOutcome {
        JobOutcome {
            id,
            tenant,
            workload: "bootstrap".into(),
            instance: "INS-1".into(),
            arrival_seconds: arrival,
            admitted_seconds: admitted,
            finish_seconds: finish,
            serial_seconds: finish - admitted,
            critical_path_seconds: (finish - admitted) * 0.5,
            refreshed_slot_levels: 1000.0,
            ops: 10,
            attempts: 1,
            deadline_seconds: None,
        }
    }

    fn report(jobs: Vec<JobOutcome>) -> ServeReport {
        let makespan = jobs.iter().map(|j| j.finish_seconds).fold(0.0f64, f64::max);
        ServeReport {
            policy: QueuePolicy::Fifo,
            max_in_flight: 2,
            jobs,
            shed: Vec::new(),
            interrupted: Vec::new(),
            failed_at_seconds: None,
            makespan_seconds: makespan,
            utilizations: [0.5; FuKind::COUNT],
            aggregate: None,
        }
    }

    #[test]
    fn latency_breakdown_adds_up() {
        let j = outcome(0, 0, 1.0, 3.0, 7.0);
        assert!((j.queue_seconds() - 2.0).abs() < 1e-15);
        assert!((j.service_seconds() - 4.0).abs() < 1e-15);
        assert!((j.latency_seconds() - 6.0).abs() < 1e-15);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = report(vec![
            outcome(0, 0, 0.0, 0.0, 1.0),
            outcome(1, 0, 0.0, 0.0, 2.0),
            outcome(2, 0, 0.0, 0.0, 3.0),
            outcome(3, 0, 0.0, 0.0, 4.0),
        ]);
        assert!((r.latency_percentile(50.0) - 2.0).abs() < 1e-15);
        assert!((r.latency_percentile(99.0) - 4.0).abs() < 1e-15);
        assert!((r.latency_percentile(0.0) - 1.0).abs() < 1e-15);
        assert!((r.mean_latency_seconds() - 2.5).abs() < 1e-15);
    }

    #[test]
    fn throughput_compares_against_the_serial_reference() {
        // Two jobs, each 1 s serial, finishing by t = 1.5: co-scheduling
        // packed 2 s of work into 1.5 s.
        let r = report(vec![
            outcome(0, 0, 0.0, 0.0, 1.0),
            outcome(1, 1, 0.0, 0.5, 1.5),
        ]);
        assert!((r.sum_serial_seconds() - 2.0).abs() < 1e-15);
        assert!((r.coscheduling_speedup() - 2.0 / 1.5).abs() < 1e-12);
        assert!(r.throughput_jobs_per_sec() > r.serial_throughput_jobs_per_sec());
        assert!(r.mult_slots_per_sec() > 0.0);
        assert!(!r.summary().is_empty());
    }

    #[test]
    fn fairness_is_one_when_tenants_match_and_drops_when_skewed() {
        let fair = report(vec![
            outcome(0, 0, 0.0, 0.0, 1.0),
            outcome(1, 1, 0.0, 0.0, 1.0),
        ]);
        assert!((fair.tenant_fairness() - 1.0).abs() < 1e-12);
        let skewed = report(vec![
            outcome(0, 0, 0.0, 0.0, 1.0),
            outcome(1, 1, 0.0, 0.0, 9.0),
        ]);
        assert!(skewed.tenant_fairness() < 0.8);
        let single = report(vec![outcome(0, 0, 0.0, 0.0, 1.0)]);
        assert!((single.tenant_fairness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn resilience_counts_cover_shed_retried_and_missed() {
        let mut on_time = outcome(0, 0, 0.0, 0.0, 1.0);
        on_time.deadline_seconds = Some(2.0);
        let mut late = outcome(1, 0, 0.0, 0.5, 3.0);
        late.deadline_seconds = Some(2.0);
        late.attempts = 2; // one redrive
        let mut r = report(vec![on_time, late]);
        r.shed.push(ShedJob {
            id: 2,
            tenant: 1,
            workload: "bootstrap".into(),
            arrival_seconds: 0.1,
            shed_seconds: 0.1,
            reason: ShedReason::QueueFull,
            attempts: 0,
            deadline_seconds: Some(1.0),
        });
        r.shed.push(ShedJob {
            id: 3,
            tenant: 1,
            workload: "bootstrap".into(),
            arrival_seconds: 0.2,
            shed_seconds: 2.5,
            reason: ShedReason::RetryBudgetExhausted,
            attempts: 3,
            deadline_seconds: None,
        });
        assert_eq!(r.submitted_count(), 4);
        assert_eq!(r.shed_count(), 2);
        assert_eq!(r.retry_count(), 1 + 2); // late's redrive + the exhausted job's two
                                            // Deadlines: on_time met; late missed; the queue-full shed had one.
        assert_eq!(r.deadline_missed_count(), 2);
        assert!((r.slo_attainment() - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(r.jobs[0].deadline_met(), Some(true));
        assert_eq!(r.jobs[1].deadline_met(), Some(false));
        assert!((r.goodput_jobs_per_sec() - r.throughput_jobs_per_sec()).abs() < 1e-15);
        let text = r.summary();
        assert!(
            text.contains("resilience:"),
            "summary grows a resilience line"
        );
        assert!(text.contains("shed 2"));
    }

    #[test]
    fn vacuous_slo_is_attained_and_clean_runs_stay_quiet() {
        let r = report(vec![outcome(0, 0, 0.0, 0.0, 1.0)]);
        assert!((r.slo_attainment() - 1.0).abs() < 1e-15);
        assert_eq!(r.deadline_missed_count(), 0);
        assert_eq!(r.retry_count(), 0);
        assert!(
            !r.summary().contains("resilience:"),
            "fault-free, deadline-free summaries keep their old shape"
        );
        assert_eq!(ShedReason::QueueFull.to_string(), "queue-full");
        assert_eq!(ShedReason::DeadlineExpired.label(), "deadline-expired");
    }
}
