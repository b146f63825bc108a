//! The scheduler: list-schedule a *set* of tagged job DAGs onto one shared
//! machine, so ops — of one job or of many — interleave on the
//! NTTU/BConvU/element-wise/HBM channels the way the accelerator keeps its
//! pipelines busy. A single trace ([`crate::ScheduleExt::run_scheduled`]) is
//! the one-job case: tag 0, release 0.
//!
//! # Model
//!
//! Every job is an [`bts_sim::OpTrace`] with per-op charges
//! ([`bts_sim::OpTiming`]) and its own dependency DAG ([`TraceDag`]), plus a
//! *release time* before which none of its ops may start (the serving layer
//! sets it to the job's admission time). Bootstrap-region barriers are
//! **per-job**: a job's refresh pipeline serializes only that job's ops —
//! other tenants keep streaming through the idle units, which is exactly the
//! amortized-throughput story of the paper's evaluation.
//!
//! Each op occupies a latency *window* of exactly its serial engine charge
//! `d = max(compute, hbm)`. Within the window the op reserves each unit class
//! it touches for that class's busy time; the reservation may *float*: it
//! starts at `max(op_start, channel_horizon)` as long as it still ends inside
//! the window. An op can therefore start while a predecessor on some unit is
//! still draining, as long as its own share of that unit fits in what remains
//! of its window — that is how rescales and element-wise tails slide under
//! the evaluation-key streams of neighbouring key-switches.
//!
//! Placement is greedy and deterministic: among the *next* unplaced op of
//! every active job (per-job program order), the scheduler places the op with
//! the earliest feasible start (dependencies, per-job barrier, release time,
//! channel reservations); ties go to the job admitted first.
//!
//! # Guarantees
//!
//! * Per-job program order of placement and all data/barrier dependencies are
//!   respected.
//! * No channel ever holds two overlapping reservations.
//! * `makespan ≤ max(release) + Σ durations` (an op's busy times are ≤ its
//!   duration, so each placement extends the horizon by at most its own
//!   duration beyond its release), and
//!   `makespan ≥ max_j (release_j + critical_path_j)` (the DAG lower bound of
//!   every job). For one job released at 0: `critical_path ≤ makespan ≤ serial`.
//!
//! [`MultiScheduler`] is incremental: jobs can be admitted *while earlier
//! jobs are mid-flight* ([`MultiScheduler::add_job`]), and
//! [`MultiScheduler::run_until_completion`] advances placement just far
//! enough to learn the next job completion time — the hook the `bts-serve`
//! admission loop is built on.
//!
//! # Plans, cursors and the timeline
//!
//! A serving run admits thousands of copies of a handful of traces. What is
//! fixed about a job — op metadata, demands, the DAG, serial and
//! critical-path seconds — lives in an immutable [`JobPlan`] shared by every
//! copy ([`MultiScheduler::add_planned`]); what a running job mutates is a
//! small cursor. The timeline (placed ops and reservations) belongs to the
//! scheduler until someone takes it: a scheduler nobody drains returns all
//! of it from [`MultiScheduler::finish`], while a caller that needs only
//! running figures ([`UtilizationFold`]) drains it as the run goes, so
//! memory follows the jobs in flight rather than the ops ever placed — as a
//! single trace's scheduled run does ([`ScheduleSummary::of_plan`]).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bts_sim::{
    HeOp, OpTiming, OpTrace, SimReport, Simulator, TimelineSegment, TraceError, TracedOp,
};

use crate::dag::{CriticalPath, LongestChain, TraceDag};
use crate::error::ScheduleError;
use crate::report::CriticalOp;
use crate::resources::{FuKind, MachineModel, OpDemand};

/// One op's placement in a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    /// Tag of the job the op belongs to.
    pub job: u32,
    /// Index of the op in its job's program order.
    pub index: usize,
    /// Operation kind.
    pub op: HeOp,
    /// Ciphertext level the op executes at.
    pub level: usize,
    /// Whether the op belongs to its job's bootstrapping region.
    pub in_bootstrap: bool,
    /// Start time in seconds from the start of the schedule.
    pub start_seconds: f64,
    /// End time in seconds.
    pub end_seconds: f64,
}

/// An exclusive reservation of one channel by one placed op of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyInterval {
    /// Index into [`Schedule::ops`] (placement order).
    pub placement: usize,
    /// Which channel of the unit class is held.
    pub channel: usize,
    /// Reservation start in seconds.
    pub start_seconds: f64,
    /// Reservation end in seconds.
    pub end_seconds: f64,
}

/// Aggregate figures of one job inside a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobStats {
    /// The job's tag.
    pub tag: u32,
    /// Earliest time any of the job's ops may start.
    pub release_seconds: f64,
    /// Start of the job's first op (= `release_seconds` for empty jobs).
    pub first_start_seconds: f64,
    /// End of the job's last-finishing op (= `release_seconds` for empty
    /// jobs) — the job's completion time.
    pub finish_seconds: f64,
    /// Sum of the job's op durations (its serial engine charge).
    pub serial_seconds: f64,
    /// The job's own critical path (data edges + its barriers), seconds.
    pub critical_path_seconds: f64,
    /// Number of ops in the job.
    pub ops: usize,
    /// Number of ops actually placed (`== ops` unless the job was
    /// cancelled mid-flight).
    pub placed_ops: usize,
    /// Whether the job was cancelled via [`MultiScheduler::cancel_job`]
    /// before completing. Cancelled jobs keep the machine time their placed
    /// ops already consumed — the chip did the work before it died — but
    /// never complete.
    pub cancelled: bool,
}

impl JobStats {
    /// Time the job spent on the machine (`finish − release`).
    pub fn service_seconds(&self) -> f64 {
        self.finish_seconds - self.release_seconds
    }
}

/// A completed job, as reported by [`MultiScheduler::run_until_completion`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCompletion {
    /// The completed job's tag.
    pub tag: u32,
    /// The job's completion time in seconds.
    pub finish_seconds: f64,
}

/// A complete schedule of a set of tagged jobs over one shared machine:
/// where every op runs, which unit channels it holds and when, and the
/// aggregate figures (makespan, critical path, serial reference, per-unit
/// utilization).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Every placed op, in placement order (the order the greedy scheduler
    /// committed them; per-job subsequences are in program order, so a
    /// one-job schedule is in program order).
    pub ops: Vec<ScheduledOp>,
    /// Per-unit-class busy intervals, in placement order.
    pub busy: [Vec<BusyInterval>; FuKind::COUNT],
    /// Per-job aggregates, in admission order.
    pub jobs: Vec<JobStats>,
    /// Tag → index into `jobs`.
    index: HashMap<u32, usize>,
    /// Completion time of the last job (0 for an empty schedule) — the
    /// pipelined execution time.
    pub makespan_seconds: f64,
    /// Sum of every job's serial charge — what one-at-a-time execution
    /// starting at time 0 would take, and what the serial engine charges.
    pub serial_seconds: f64,
    /// `max_j (release_j + critical_path_j)` over the jobs that ran to
    /// completion: the infinite-resource lower bound on the makespan.
    pub critical_path_seconds: f64,
    /// The machine the schedule was built for.
    pub machine: MachineModel,
}

impl Schedule {
    /// Stats of the job with the given tag.
    pub fn job(&self, tag: u32) -> Option<&JobStats> {
        self.index.get(&tag).map(|&j| &self.jobs[j])
    }

    /// Speedup of the schedule over serial execution. For jobs released at
    /// 0 serial time is an upper bound by construction, so the value is ≥ 1
    /// (clamped there to absorb floating-point rounding of the two
    /// accumulations).
    pub fn parallel_speedup(&self) -> f64 {
        if self.makespan_seconds <= 0.0 {
            1.0
        } else {
            (self.serial_seconds / self.makespan_seconds).max(1.0)
        }
    }

    /// Busy fraction of one unit class over the makespan, computed from the
    /// actual reservation intervals.
    pub fn unit_utilization(&self, kind: FuKind) -> f64 {
        if self.makespan_seconds <= 0.0 {
            return 0.0;
        }
        let reserved: f64 = self.busy[kind.index()]
            .iter()
            .map(|b| b.end_seconds - b.start_seconds)
            .sum();
        reserved / (self.machine.channels(kind) as f64 * self.makespan_seconds)
    }

    /// Utilization of all unit classes, indexed by [`FuKind::index`].
    pub fn utilizations(&self) -> [f64; FuKind::COUNT] {
        FuKind::ALL.map(|kind| self.unit_utilization(kind))
    }

    /// Fig. 8-style timeline of the first `limit` reservations per unit
    /// class, with job-tagged labels (`J2#14 HMult@L23`), ready for the same
    /// rendering as [`bts_sim::hmult_timeline`].
    pub fn timeline(&self, limit: usize) -> Vec<TimelineSegment> {
        let mut segments = Vec::new();
        for kind in FuKind::ALL {
            for b in self.busy[kind.index()].iter().take(limit) {
                let op = &self.ops[b.placement];
                segments.push(TimelineSegment {
                    unit: kind.label(),
                    label: format!("J{}#{} {:?}@L{}", op.job, op.index, op.op, op.level),
                    start_ns: b.start_seconds * 1e9,
                    end_ns: b.end_seconds * 1e9,
                });
            }
        }
        segments
    }

    /// Checks every structural invariant the scheduler guarantees:
    ///
    /// 1. each job's ops were placed in program order, starting no earlier
    ///    than the job's release time (all of them for completed jobs,
    ///    exactly `placed_ops` for cancelled ones),
    /// 2. every op window is well-formed and inside `[0, makespan]`,
    /// 3. every reservation lies inside its op's window on a valid channel,
    /// 4. no channel holds two overlapping reservations,
    /// 5. `critical_path ≤ makespan ≤ max(release) + serial` (up to float
    ///    rounding),
    /// 6. every job's recorded finish is the max end over its ops.
    ///
    /// (Data-edge and barrier respect are checked against the traces by the
    /// property suite, which still holds the [`TraceDag`]s.) The invariants
    /// describe a whole timeline: what [`MultiScheduler::finish`] returns
    /// after [`MultiScheduler::drain_timeline`] took part of it away fails 1.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let eps = 1e-9 * self.serial_seconds.max(1e-12);
        let mut next_index: HashMap<u32, usize> = HashMap::new();
        let mut max_end: HashMap<u32, f64> = HashMap::new();
        for op in &self.ops {
            let job = self
                .job(op.job)
                .ok_or_else(|| format!("op {op:?} references unknown job {}", op.job))?;
            let expected = next_index.entry(op.job).or_insert(0);
            if op.index != *expected {
                return Err(format!(
                    "job {} placed op #{} out of program order (expected #{})",
                    op.job, op.index, expected
                ));
            }
            *expected += 1;
            if op.start_seconds < job.release_seconds - eps {
                return Err(format!(
                    "job {} op #{} starts at {} before its release {}",
                    op.job, op.index, op.start_seconds, job.release_seconds
                ));
            }
            if !(op.start_seconds <= op.end_seconds
                && op.end_seconds <= self.makespan_seconds + eps)
            {
                return Err(format!("op window is malformed: {op:?}"));
            }
            let e = max_end.entry(op.job).or_insert(0.0);
            *e = e.max(op.end_seconds);
        }
        for job in &self.jobs {
            let placed = next_index.get(&job.tag).copied().unwrap_or(0);
            if placed != job.placed_ops {
                return Err(format!(
                    "job {} records {} placed ops but {} were placed",
                    job.tag, job.placed_ops, placed
                ));
            }
            if !job.cancelled && placed != job.ops {
                return Err(format!(
                    "job {} has {} ops but {} were placed",
                    job.tag, job.ops, placed
                ));
            }
            let finish = max_end
                .get(&job.tag)
                .copied()
                .unwrap_or(job.release_seconds);
            if (finish - job.finish_seconds).abs() > eps {
                return Err(format!(
                    "job {} finish {} disagrees with its ops' max end {}",
                    job.tag, job.finish_seconds, finish
                ));
            }
        }
        if self.critical_path_seconds > self.makespan_seconds + eps {
            return Err(format!(
                "critical path {} exceeds makespan {}",
                self.critical_path_seconds, self.makespan_seconds
            ));
        }
        let max_release = self
            .jobs
            .iter()
            .map(|j| j.release_seconds)
            .fold(0.0f64, f64::max);
        if self.makespan_seconds > max_release + self.serial_seconds + eps {
            return Err(format!(
                "makespan {} exceeds max release {} + serial sum {}",
                self.makespan_seconds, max_release, self.serial_seconds
            ));
        }
        for kind in FuKind::ALL {
            let intervals = &self.busy[kind.index()];
            for b in intervals {
                let op = self
                    .ops
                    .get(b.placement)
                    .ok_or_else(|| format!("{} reservation {b:?} dangles", kind.label()))?;
                if b.start_seconds < op.start_seconds - eps || b.end_seconds > op.end_seconds + eps
                {
                    return Err(format!(
                        "{} reservation {b:?} escapes op window [{}, {}]",
                        kind.label(),
                        op.start_seconds,
                        op.end_seconds
                    ));
                }
                if b.channel >= self.machine.channels(kind) {
                    return Err(format!(
                        "{} reservation {b:?} uses non-existent channel",
                        kind.label()
                    ));
                }
            }
            for channel in 0..self.machine.channels(kind) {
                let mut on_channel: Vec<&BusyInterval> =
                    intervals.iter().filter(|b| b.channel == channel).collect();
                on_channel.sort_by(|a, b| {
                    a.start_seconds
                        .partial_cmp(&b.start_seconds)
                        .expect("finite")
                });
                for pair in on_channel.windows(2) {
                    if pair[1].start_seconds < pair[0].end_seconds - eps {
                        return Err(format!(
                            "{} channel {channel} double-booked: {:?} overlaps {:?}",
                            kind.label(),
                            pair[0],
                            pair[1]
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The figures of a [`Schedule`] without its timeline: what a run that
/// drains its scheduler as it places ops keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleSummary {
    /// Completion time of the last op — the pipelined execution time.
    pub makespan_seconds: f64,
    /// Sum of the op durations: the serial engine charge.
    pub serial_seconds: f64,
    /// The infinite-resource lower bound on the makespan.
    pub critical_path_seconds: f64,
    /// Busy fraction of each unit class over the makespan, indexed by
    /// [`FuKind::index`].
    pub utilizations: [f64; FuKind::COUNT],
}

impl ScheduleSummary {
    /// Placements drained per chunk: the timeline a one-job run holds at once.
    const CHUNK: usize = 256;

    /// Schedules `plan` alone, released at 0, folding its timeline chunk by
    /// chunk through a [`UtilizationFold`] instead of keeping it: bit for bit
    /// the figures of the [`Schedule`] [`MultiScheduler::finish`] returns
    /// for the same plan, in memory that does not grow with the plan.
    pub(crate) fn of_plan(plan: Arc<JobPlan>) -> Self {
        let mut scheduler = MultiScheduler::new(plan.machine);
        scheduler
            .add_planned(0, plan, 0.0)
            .expect("a fresh scheduler admits a plan for its own machine at 0");
        // The fold and the scheduler swap buffers at every drain: both sets
        // are sized once.
        let mut fold = UtilizationFold::new();
        for (ops, busy) in [
            (&mut scheduler.ops, &mut scheduler.busy),
            (&mut fold.ops, &mut fold.busy),
        ] {
            ops.reserve_exact(Self::CHUNK);
            busy.iter_mut().for_each(|b| b.reserve_exact(Self::CHUNK));
        }
        let telemetry_on = bts_telemetry::enabled();
        while let Some(best) = scheduler.best_candidate() {
            scheduler.place(best, telemetry_on);
            if scheduler.ops.len() == Self::CHUNK {
                // Reservations end inside their ops' windows, so the chunk
                // settles at the makespan so far; one that rounds past it
                // waits in the fold's tail, still summed in order.
                let settled = scheduler.makespan;
                fold.drain(&mut scheduler, settled);
            }
        }
        let rest = scheduler.finish();
        Self {
            makespan_seconds: rest.makespan_seconds,
            serial_seconds: rest.serial_seconds,
            critical_path_seconds: rest.critical_path_seconds,
            utilizations: fold.finish(&rest, None),
        }
    }
}

/// Everything about a job that is fixed before it runs: op metadata, per-op
/// resource demands on one machine, the dependency DAG, and the serial and
/// critical-path charges. Immutable, so every admission of the same
/// (trace, timings) pair can share one plan behind an [`Arc`]
/// ([`MultiScheduler::add_planned`]); the scheduler keeps only a small
/// cursor per running job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    machine: MachineModel,
    /// Per op: kind, level and bootstrap-region flag.
    ops: Vec<(HeOp, u32, bool)>,
    demands: Vec<OpDemand>,
    dag: TraceDag,
    serial: f64,
    critical_path: CriticalPath,
}

impl JobPlan {
    /// Plans a trace for `machine`: builds the dependency DAG and resolves
    /// every op's demand from the caller's per-op charges (resolve them with
    /// [`bts_sim::Simulator::op_timings`] against the job's own instance).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Trace`] if the trace has a structural defect, and
    /// [`ScheduleError::TimingCount`] if `timings` does not cover exactly
    /// its ops.
    pub fn new(
        machine: &MachineModel,
        trace: &OpTrace,
        timings: &[OpTiming],
    ) -> Result<Self, ScheduleError> {
        trace.validate().map_err(ScheduleError::Trace)?;
        if timings.len() != trace.len() {
            return Err(ScheduleError::TimingCount(trace.len(), timings.len()));
        }
        let mut planner = Planner::new(*machine, trace.len());
        for (op, timing) in trace.ops().zip(timings) {
            planner.push(trace, &op, timing);
        }
        Ok(planner.finish())
    }

    /// Resolves the per-op charges of a trace on `sim` (one cache sweep,
    /// under the scratchpad's reuse-code policy) and plans it for `sim`'s
    /// machine in the same pass: each op's demand, DAG edges and critical
    /// path step are taken as the sweep hands the op over, and no timing
    /// outlives its op. Returns the plan next to the sweep's
    /// serial-accounting report.
    ///
    /// # Errors
    ///
    /// Returns the trace's first structural defect.
    pub fn from_trace(sim: &Simulator, trace: &OpTrace) -> Result<(Self, SimReport), TraceError> {
        let mut planner = Planner::new(MachineModel::from_config(sim.config()), trace.len());
        let report = sim.run_indexed(trace, |op, timing| planner.push(trace, op, timing))?;
        Ok((planner.finish(), report))
    }

    /// Number of ops in the job.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the job has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Sum of the op durations (the job's serial engine charge).
    pub fn serial_seconds(&self) -> f64 {
        self.serial
    }

    /// The job's own critical path (data edges + its barriers), seconds.
    pub fn critical_path_seconds(&self) -> f64 {
        self.critical_path.seconds
    }

    /// Op indices of one longest chain, earliest first.
    pub fn critical_path_ops(&self) -> &[usize] {
        &self.critical_path.ops
    }

    /// The machine the plan's demands were resolved for.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// The ops of [`JobPlan::critical_path_ops`] with their latency windows.
    pub(crate) fn critical_ops(&self) -> impl Iterator<Item = CriticalOp> + '_ {
        self.critical_path.ops.iter().map(|&index| {
            let (op, level, _) = self.ops[index];
            CriticalOp {
                index,
                op,
                level: level as usize,
                seconds: self.demands[index].duration,
            }
        })
    }
}

/// A [`JobPlan`] in the making: ops added in program order, each with its
/// demand, extending the DAG and its longest chain as they come.
struct Planner {
    machine: MachineModel,
    ops: Vec<(HeOp, u32, bool)>,
    demands: Vec<OpDemand>,
    dag: TraceDag,
    chain: LongestChain,
}

impl Planner {
    fn new(machine: MachineModel, ops: usize) -> Self {
        Self {
            machine,
            ops: Vec::with_capacity(ops),
            demands: Vec::with_capacity(ops),
            dag: TraceDag::with_capacity(ops),
            chain: LongestChain::with_capacity(ops),
        }
    }

    /// Adds `op`, the next op of `trace`, charged `timing`.
    fn push(&mut self, trace: &OpTrace, op: &TracedOp<'_>, timing: &OpTiming) {
        let demand = self.machine.demand(timing);
        self.dag.push(trace, op);
        self.chain.push(&self.dag, demand.duration);
        // Lossless: a plan's trace passed validation, so levels are within
        // the instance's budget.
        self.ops.push((op.op, op.level as u32, op.in_bootstrap));
        self.demands.push(demand);
    }

    fn finish(self) -> JobPlan {
        JobPlan {
            machine: self.machine,
            ops: self.ops,
            serial: self.demands.iter().map(|d| d.duration).sum(),
            demands: self.demands,
            dag: self.dag,
            critical_path: self.chain.finish(),
        }
    }
}

/// The mutable cursor of one admitted job over its shared [`JobPlan`].
#[derive(Debug, Clone)]
struct JobState {
    tag: u32,
    release: f64,
    plan: Arc<JobPlan>,
    /// Next unplaced op (program-order cursor).
    next: usize,
    /// Finish time of each placed op; released once the job can place no
    /// further op (its last op is placed, or it is cancelled).
    finish: Vec<f64>,
    /// Earliest start of op `next` as far as this job alone is concerned —
    /// release, barrier and producers. It changes only when the job itself
    /// advances, so it is cached here instead of being recomputed for every
    /// placement of any job.
    ready: f64,
    /// Barrier bookkeeping: the max finish over the ops of earlier segments,
    /// a running max snapshotted at each segment boundary.
    barrier: f64,
    running_max_finish: f64,
    max_end: f64,
    first_start: Option<f64>,
    cancelled: bool,
}

impl JobState {
    /// Dependency/barrier/release-ready time of op `next`.
    fn ready_time(&self) -> f64 {
        let i = self.next;
        let dag = &self.plan.dag;
        let barrier = if i > 0 && dag.segment(i) != dag.segment(i - 1) {
            self.running_max_finish
        } else {
            self.barrier
        };
        let mut ready = self.release.max(barrier);
        for &d in dag.deps(i) {
            ready = ready.max(self.finish[d as usize]);
        }
        ready
    }
}

/// The next placement the greedy rule picks.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    start: f64,
    /// Position in `MultiScheduler::active`.
    pos: usize,
    /// Per unit class, the channel that frees first and when.
    free: [(usize, f64); FuKind::COUNT],
}

/// Incremental list scheduler for a set of tagged job DAGs over one shared
/// [`MachineModel`]: per-job program order, data edges, bootstrap barriers
/// and release times are respected while all jobs compete for the same
/// channels, with
/// `max_j (release_j + critical_path_j) ≤ makespan ≤ max(release) + Σ serial`
/// guaranteed structurally (see the module-level docs above).
///
/// The scheduler retains the whole timeline (every placed op and
/// reservation) for [`MultiScheduler::finish`] unless its caller takes it
/// away piecewise with [`MultiScheduler::drain_timeline`].
#[derive(Debug, Clone)]
pub struct MultiScheduler {
    machine: MachineModel,
    horizons: [Vec<f64>; FuKind::COUNT],
    busy: [Vec<BusyInterval>; FuKind::COUNT],
    ops: Vec<ScheduledOp>,
    jobs: Vec<JobState>,
    /// Tag → index into `jobs`.
    index: HashMap<u32, usize>,
    /// Indices into `jobs` with unplaced ops, in admission order.
    active: Vec<usize>,
    /// Completions of empty jobs, reported on the next
    /// [`MultiScheduler::run_until_completion`] call.
    pending: VecDeque<JobCompletion>,
    makespan: f64,
}

impl MultiScheduler {
    /// A scheduler packing jobs onto the given machine.
    pub fn new(machine: MachineModel) -> Self {
        Self {
            machine,
            horizons: std::array::from_fn(|k| vec![0.0; machine.channels(FuKind::ALL[k])]),
            busy: std::array::from_fn(|_| Vec::new()),
            ops: Vec::new(),
            jobs: Vec::new(),
            index: HashMap::new(),
            active: Vec::new(),
            pending: VecDeque::new(),
            makespan: 0.0,
        }
    }

    /// Admits a job: plans the trace ([`JobPlan::new`]) and admits the plan
    /// ([`MultiScheduler::add_planned`]). Callers admitting the same
    /// (trace, timings) pair many times should build the plan once.
    ///
    /// # Errors
    ///
    /// Those of [`JobPlan::new`] and [`MultiScheduler::add_planned`]; a
    /// refused job leaves the scheduler as it was.
    pub fn add_job(
        &mut self,
        tag: u32,
        trace: &OpTrace,
        timings: &[OpTiming],
        release_seconds: f64,
    ) -> Result<(), ScheduleError> {
        let plan = JobPlan::new(&self.machine, trace, timings)?;
        self.add_planned(tag, Arc::new(plan), release_seconds)
    }

    /// Admits a planned job: its ops become candidates for placement, none
    /// starting before `release_seconds`. Costs a constant number of
    /// allocations however long the plan is shared.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::MachineMismatch`] if the plan was built for another
    /// machine, [`ScheduleError::InvalidRelease`] if `release_seconds` is
    /// negative or non-finite, [`ScheduleError::DuplicateTag`] if `tag` was
    /// already admitted; a refused job leaves the scheduler as it was.
    pub fn add_planned(
        &mut self,
        tag: u32,
        plan: Arc<JobPlan>,
        release_seconds: f64,
    ) -> Result<(), ScheduleError> {
        if plan.machine != self.machine {
            return Err(ScheduleError::MachineMismatch);
        }
        if !(release_seconds.is_finite() && release_seconds >= 0.0) {
            return Err(ScheduleError::InvalidRelease(release_seconds));
        }
        let j = self.jobs.len();
        match self.index.entry(tag) {
            Entry::Occupied(_) => return Err(ScheduleError::DuplicateTag(tag)),
            Entry::Vacant(slot) => slot.insert(j),
        };
        let ops = plan.len();
        let mut job = JobState {
            tag,
            release: release_seconds,
            plan,
            next: 0,
            finish: vec![0.0; ops],
            ready: release_seconds,
            barrier: 0.0,
            running_max_finish: 0.0,
            max_end: release_seconds,
            first_start: None,
            cancelled: false,
        };
        if ops == 0 {
            self.pending.push_back(JobCompletion {
                tag,
                finish_seconds: release_seconds,
            });
            self.makespan = self.makespan.max(release_seconds);
        } else {
            job.ready = job.ready_time();
            self.active.push(j);
        }
        self.jobs.push(job);
        Ok(())
    }

    /// Number of admitted jobs that still have unplaced ops.
    pub fn active_jobs(&self) -> usize {
        self.active.len()
    }

    /// Cancels a job mid-flight: its remaining ops will never be placed and
    /// its completion will never be reported. Ops already placed keep their
    /// channel reservations — the machine did that work before the
    /// cancellation (a dying chip does not refund the cycles it burned).
    ///
    /// Returns `true` if the job was still in flight (unplaced ops remaining,
    /// or fully placed with its completion not yet reported); `false` if the
    /// tag is unknown, already cancelled, or its completion was already
    /// handed out by [`MultiScheduler::run_until_completion`].
    pub fn cancel_job(&mut self, tag: u32) -> bool {
        let Some(&j) = self.index.get(&tag) else {
            return false;
        };
        if self.jobs[j].cancelled {
            return false;
        }
        if let Some(pos) = self.active.iter().position(|&a| a == j) {
            self.active.remove(pos);
            self.jobs[j].cancelled = true;
            self.jobs[j].finish = Vec::new();
            return true;
        }
        if let Some(pos) = self.pending.iter().position(|c| c.tag == tag) {
            self.pending.remove(pos);
            self.jobs[j].cancelled = true;
            return true;
        }
        false
    }

    /// Places ops greedily until the next job completion is known, and
    /// reports it. Completions come back in *finish-time* order, not
    /// placement order: a job whose last op happens to be placed early but
    /// end late is held back while any still-active job could finish sooner
    /// (an op's earliest start lower-bounds every later end, so placement
    /// continues until no active job can beat the earliest pending finish).
    /// Returns `None` once every admitted job has completed.
    pub fn run_until_completion(&mut self) -> Option<JobCompletion> {
        let telemetry_on = bts_telemetry::enabled();
        loop {
            let min_finish = self
                .pending
                .iter()
                .map(|c| c.finish_seconds)
                .fold(f64::INFINITY, f64::min);
            // The candidate has the smallest start of any active job, so it
            // alone decides whether anyone could still beat `min_finish`.
            let best = self.best_candidate();
            if min_finish.is_finite() {
                if !best.is_some_and(|b| b.start < min_finish) {
                    let pos = self
                        .pending
                        .iter()
                        .position(|c| c.finish_seconds == min_finish)
                        .expect("min over non-empty pending");
                    return self.pending.remove(pos);
                }
            } else if best.is_none() {
                return None;
            }
            self.place(
                best.expect("an active job can still be placed"),
                telemetry_on,
            );
        }
    }

    /// Places every remaining op.
    pub fn run_to_end(&mut self) {
        let telemetry_on = bts_telemetry::enabled();
        while let Some(best) = self.best_candidate() {
            self.place(best, telemetry_on);
        }
        self.pending.clear();
    }

    /// Takes the part of the timeline committed since the last call — ops
    /// and per-unit reservations in placement order, `placement` indexing
    /// the `ops` handed out with them — leaving it in `ops` and `busy`,
    /// whose previous contents are dropped and whose buffers the scheduler
    /// reuses for what it places next. A caller that needs only running
    /// figures (see [`UtilizationFold`]) drains as it goes and the timeline
    /// never accumulates; [`MultiScheduler::finish`] then returns only the
    /// part nobody took.
    pub fn drain_timeline(
        &mut self,
        ops: &mut Vec<ScheduledOp>,
        busy: &mut [Vec<BusyInterval>; FuKind::COUNT],
    ) {
        ops.clear();
        std::mem::swap(ops, &mut self.ops);
        for (mine, theirs) in self.busy.iter_mut().zip(busy) {
            theirs.clear();
            std::mem::swap(mine, theirs);
        }
    }

    /// Drains remaining ops and builds the final [`Schedule`]: the
    /// whole timeline, or — after [`MultiScheduler::drain_timeline`] — the
    /// part of it not yet taken (per-job stats and the makespan always cover
    /// the whole run).
    pub fn finish(mut self) -> Schedule {
        self.run_to_end();
        let jobs: Vec<JobStats> = self
            .jobs
            .iter()
            .map(|j| JobStats {
                tag: j.tag,
                release_seconds: j.release,
                first_start_seconds: j.first_start.unwrap_or(j.release),
                finish_seconds: j.max_end,
                serial_seconds: j.plan.serial,
                critical_path_seconds: j.plan.critical_path.seconds,
                ops: j.plan.len(),
                placed_ops: j.next,
                cancelled: j.cancelled,
            })
            .collect();
        Schedule {
            ops: self.ops,
            busy: self.busy,
            index: self.index,
            makespan_seconds: self.makespan,
            // Not `sum()`: a float sum of nothing is −0.0.
            serial_seconds: jobs.iter().fold(0.0, |sum, j| sum + j.serial_seconds),
            // A cancelled job never ran its full DAG, so its critical path
            // does not lower-bound the makespan.
            critical_path_seconds: jobs
                .iter()
                .filter(|j| !j.cancelled)
                .map(|j| j.release_seconds + j.critical_path_seconds)
                .fold(0.0, f64::max),
            jobs,
            machine: self.machine,
        }
    }

    /// The active op with the earliest feasible start (dependencies, per-job
    /// barrier, release time, channel reservations); ties go to the job
    /// admitted first. `None` when no job has an unplaced op.
    fn best_candidate(&self) -> Option<Candidate> {
        if self.active.is_empty() {
            return None;
        }
        let free: [(usize, f64); FuKind::COUNT] =
            std::array::from_fn(|k| min_horizon(&self.horizons[k]));
        let mut best: Option<(f64, usize)> = None; // (start, position in self.active)
        for (pos, &j) in self.active.iter().enumerate() {
            let job = &self.jobs[j];
            let demand = &job.plan.demands[job.next];
            let mut start = job.ready;
            for (k, &(_, h)) in free.iter().enumerate() {
                if demand.busy[k] <= 0.0 {
                    continue;
                }
                start = start.max(h + demand.busy[k] - demand.duration);
            }
            if best.is_none_or(|(s, _)| start < s) {
                best = Some((start, pos));
            }
        }
        best.map(|(start, pos)| Candidate { start, pos, free })
    }

    /// Commits a candidate: the op's window, its channel reservations, and
    /// the job's cursor — and, if `telemetry_on` (the caller's one read of
    /// [`bts_telemetry::enabled`] for all it places), their events.
    fn place(&mut self, Candidate { start, pos, free }: Candidate, telemetry_on: bool) {
        let j = self.active[pos];
        let job = &mut self.jobs[j];
        let plan = &*job.plan;
        let i = job.next;
        let demand = plan.demands[i];
        if i > 0 && plan.dag.segment(i) != plan.dag.segment(i - 1) {
            job.barrier = job.running_max_finish;
        }
        let end = start + demand.duration;
        let (op, level, in_bootstrap) = plan.ops[i];
        let level = level as usize;
        job.finish[i] = end;
        job.running_max_finish = job.running_max_finish.max(end);
        job.max_end = job.max_end.max(end);
        if job.first_start.is_none() {
            job.first_start = Some(start);
        }
        job.next += 1;
        let completed = job.next == plan.len();
        if completed {
            job.finish = Vec::new();
        } else {
            job.ready = job.ready_time();
        }
        let completion = JobCompletion {
            tag: job.tag,
            finish_seconds: job.max_end,
        };
        let placement = self.ops.len();
        self.ops.push(ScheduledOp {
            job: completion.tag,
            index: i,
            op,
            level,
            in_bootstrap,
            start_seconds: start,
            end_seconds: end,
        });
        for kind in FuKind::ALL {
            let k = kind.index();
            if demand.busy[k] <= 0.0 {
                continue;
            }
            let (channel, h) = free[k];
            let res_start = start.max(h);
            let res_end = res_start + demand.busy[k];
            self.horizons[k][channel] = res_end;
            self.busy[k].push(BusyInterval {
                placement,
                channel,
                start_seconds: res_start,
                end_seconds: res_end,
            });
            if telemetry_on {
                use bts_telemetry::ArgValue;
                // The start/end args carry the exact reservation floats so
                // utilization derived from the event stream sums the same
                // values in the same order as `unit_utilization`.
                bts_telemetry::emit_complete(
                    &format!("{}.{}", kind.label(), channel),
                    &format!("J{}#{} {:?}@L{}", completion.tag, i, op, level),
                    res_start,
                    res_end - res_start,
                    &[
                        ("job", ArgValue::U64(u64::from(completion.tag))),
                        ("op_index", ArgValue::U64(i as u64)),
                        ("level", ArgValue::U64(level as u64)),
                        ("channel", ArgValue::U64(channel as u64)),
                        ("start_s", ArgValue::F64(res_start)),
                        ("end_s", ArgValue::F64(res_end)),
                    ],
                );
            }
        }
        self.makespan = self.makespan.max(end);
        if completed {
            self.active.remove(pos);
            self.pending.push_back(completion);
            if telemetry_on {
                use bts_telemetry::ArgValue;
                bts_telemetry::emit_instant(
                    "sched",
                    "job-complete",
                    completion.finish_seconds,
                    &[
                        ("job", ArgValue::U64(u64::from(completion.tag))),
                        ("critical_path_s", ArgValue::F64(plan.critical_path.seconds)),
                        ("serial_s", ArgValue::F64(plan.serial)),
                    ],
                );
            }
        }
    }
}

/// Index and value of the smallest horizon (first wins ties, so the choice
/// is deterministic).
fn min_horizon(horizons: &[f64]) -> (usize, f64) {
    let mut best = 0usize;
    for (i, &h) in horizons.iter().enumerate() {
        if h < horizons[best] {
            best = i;
        }
    }
    (best, horizons[best])
}

/// Per-unit utilizations of a run whose timeline nobody retains: drains a
/// [`MultiScheduler`] as the run goes and keeps only running busy-second
/// sums — the same float additions, in the same placement order, as
/// [`Schedule::unit_utilization`] over the full timeline, so the result
/// is bit-identical to the retained one.
///
/// The sums may have to be *clipped*: a machine that dies throws away the
/// work past its last real completion, and that surviving makespan is known
/// only at the end. A reservation is therefore summed only once it is known
/// to lie inside any possible final makespan (it ends at or before the
/// latest real completion so far — clipping could not touch it); the first
/// reservation that does not, and everything placed after it, waits in a
/// short tail that [`UtilizationFold::finish`] sums clipped.
#[derive(Debug, Clone)]
pub struct UtilizationFold {
    /// `Iterator::sum` over `f64` starts from −0.0, and so do these.
    reserved: [f64; FuKind::COUNT],
    /// Drained `(start, end)` reservations not yet summed, placement order.
    tail: [VecDeque<(f64, f64)>; FuKind::COUNT],
    settled: f64,
    ops: Vec<ScheduledOp>,
    busy: [Vec<BusyInterval>; FuKind::COUNT],
}

impl Default for UtilizationFold {
    fn default() -> Self {
        Self {
            reserved: [-0.0; FuKind::COUNT],
            tail: std::array::from_fn(|_| VecDeque::new()),
            settled: 0.0,
            ops: Vec::new(),
            busy: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl UtilizationFold {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes everything `scheduler` placed since the last call
    /// ([`MultiScheduler::drain_timeline`]) and sums, per unit class, the
    /// reservations up to the first one ending after `settled_seconds` — a
    /// time the run's final makespan is known to reach (the latest real
    /// completion), never decreasing from call to call.
    pub fn drain(&mut self, scheduler: &mut MultiScheduler, settled_seconds: f64) {
        debug_assert!(settled_seconds >= self.settled);
        self.settled = settled_seconds;
        scheduler.drain_timeline(&mut self.ops, &mut self.busy);
        for ((reserved, tail), chunk) in
            self.reserved.iter_mut().zip(&mut self.tail).zip(&self.busy)
        {
            while let Some(&(start, end)) = tail.front() {
                if end > settled_seconds {
                    break;
                }
                *reserved += end - start;
                tail.pop_front();
            }
            let mut summed = 0;
            if tail.is_empty() {
                for b in chunk {
                    if b.end_seconds > settled_seconds {
                        break;
                    }
                    *reserved += b.end_seconds - b.start_seconds;
                    summed += 1;
                }
            }
            tail.extend(
                chunk[summed..]
                    .iter()
                    .map(|b| (b.start_seconds, b.end_seconds)),
            );
        }
    }

    /// Sums what is left — the held-back tail, then `rest`, the schedule
    /// [`MultiScheduler::finish`] returned — and turns the sums into
    /// utilizations, indexed by [`FuKind::index`]. For a machine that lived
    /// (`None`) this is [`Schedule::utilizations`] of the never-drained
    /// schedule; for one that died, every reservation is clipped to its
    /// surviving makespan, which the utilizations are then taken over.
    pub fn finish(
        self,
        rest: &Schedule,
        surviving_makespan_seconds: Option<f64>,
    ) -> [f64; FuKind::COUNT] {
        let makespan = surviving_makespan_seconds.unwrap_or(rest.makespan_seconds);
        let clip = surviving_makespan_seconds.unwrap_or(f64::INFINITY);
        debug_assert!(self.settled <= makespan);
        let mut out = [0.0; FuKind::COUNT];
        if makespan <= 0.0 {
            return out;
        }
        for kind in FuKind::ALL {
            let k = kind.index();
            let left = self.tail[k].iter().copied().chain(
                rest.busy[k]
                    .iter()
                    .map(|b| (b.start_seconds, b.end_seconds)),
            );
            let reserved = left.fold(self.reserved[k], |sum, (start, end)| {
                sum + (end.min(clip) - start.min(clip))
            });
            out[k] = reserved / (rest.machine.channels(kind) as f64 * makespan);
        }
        out
    }
}

/// One-shot convenience: admits every `(tag, trace, timings, release)` job up
/// front and schedules all of them to completion.
///
/// # Panics
///
/// Panics on the first job [`MultiScheduler::add_job`] refuses: the jobs are
/// the caller's own, so a refusal is a bug at the call site.
pub fn schedule_jobs(
    machine: MachineModel,
    jobs: &[(u32, &OpTrace, &[OpTiming], f64)],
) -> Schedule {
    let mut scheduler = MultiScheduler::new(machine);
    for &(tag, trace, timings, release) in jobs {
        if let Err(e) = scheduler.add_job(tag, trace, timings, release) {
            panic!("schedule_jobs: {e}");
        }
    }
    scheduler.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_params::CkksInstance;
    use bts_sim::{BtsConfig, Simulator, TraceBuilder};

    fn keyswitch_heavy(ins: &CkksInstance, mults: usize) -> OpTrace {
        let mut b = TraceBuilder::new(ins);
        let x = b.fresh_ct(ins.max_level());
        let mut cur = x;
        for _ in 0..mults {
            cur = b.hmult_at(cur, cur, ins.max_level());
        }
        b.build()
    }

    fn machine_and_timings(
        ins: &CkksInstance,
        config: BtsConfig,
        trace: &OpTrace,
    ) -> (MachineModel, Vec<OpTiming>) {
        let sim = Simulator::new(config, ins.clone());
        let timings = sim.op_timings(trace).unwrap();
        (MachineModel::from_config(sim.config()), timings)
    }

    #[test]
    fn two_jobs_interleave_and_beat_back_to_back_when_compute_matters() {
        // At 2 TB/s an HMult chain leaves NTTU/BConvU slack; a second job's
        // key-switches stream their evks while the first job computes, so the
        // merged makespan beats running the jobs back to back.
        let ins = CkksInstance::ins1();
        let config = BtsConfig::bts_default().with_hbm(bts_params::BandwidthModel::hbm_2tb());
        let trace = keyswitch_heavy(&ins, 6);
        let (machine, timings) = machine_and_timings(&ins, config, &trace);
        let multi = schedule_jobs(
            machine,
            &[(0, &trace, &timings, 0.0), (1, &trace, &timings, 0.0)],
        );
        multi.check_invariants().unwrap();
        let serial_sum = multi.serial_seconds;
        assert!(
            multi.makespan_seconds < serial_sum * 0.98,
            "no co-scheduling overlap: makespan {} vs serial {}",
            multi.makespan_seconds,
            serial_sum
        );
        // Both jobs' stats are recorded and consistent.
        for tag in [0, 1] {
            let j = multi.job(tag).unwrap();
            assert!(j.finish_seconds <= multi.makespan_seconds + 1e-15);
            assert!(j.critical_path_seconds <= j.serial_seconds + 1e-15);
        }
    }

    #[test]
    fn release_times_hold_ops_back() {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 2);
        let (machine, timings) = machine_and_timings(&ins, BtsConfig::bts_default(), &trace);
        let release = 1.0;
        let multi = schedule_jobs(
            machine,
            &[(0, &trace, &timings, 0.0), (1, &trace, &timings, release)],
        );
        multi.check_invariants().unwrap();
        for op in multi.ops.iter().filter(|o| o.job == 1) {
            assert!(op.start_seconds >= release - 1e-15);
        }
        assert!(
            multi.job(1).unwrap().finish_seconds
                >= release + multi.job(1).unwrap().critical_path_seconds - 1e-12
        );
    }

    #[test]
    fn barriers_stay_per_job() {
        // Job 0: a chain of cheap element-wise ops — only the first pays an
        // HBM miss, the rest are forwarded compute. Job 1: two HMults
        // separated by a bootstrap barrier. The barrier serializes job 1's
        // ops only; job 0's chain keeps flowing through the element-wise
        // unit while job 1 sits at its own barrier.
        let ins = CkksInstance::ins1();
        let mut b0 = TraceBuilder::new(&ins);
        let z = b0.fresh_ct(27);
        let mut cur = b0.cmult(z, 27);
        for _ in 0..5 {
            cur = b0.cmult(cur, 27);
        }
        let t0 = b0.build();

        let mut b1 = TraceBuilder::new(&ins);
        let x = b1.fresh_ct(27);
        b1.hmult_at(x, x, 27);
        b1.set_bootstrap_region(true);
        let y = b1.fresh_ct(27);
        b1.hmult_at(y, y, 27);
        let t1 = b1.build();

        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let machine = MachineModel::from_config(sim.config());
        let tm0 = sim.op_timings(&t0).unwrap();
        let tm1 = sim.op_timings(&t1).unwrap();
        let multi = schedule_jobs(machine, &[(0, &t0, &tm0, 0.0), (1, &t1, &tm1, 0.0)]);
        multi.check_invariants().unwrap();
        // Job 1's post-barrier HMult waits for its own first op…
        let j1: Vec<_> = multi.ops.iter().filter(|o| o.job == 1).collect();
        assert!(j1[1].start_seconds >= j1[0].end_seconds - 1e-15);
        // …but job 0's chain is untouched by job 1's barrier: its last op
        // starts (and finishes) well before job 1's second HMult begins.
        let j0_last = multi.ops.iter().rev().find(|o| o.job == 0).unwrap();
        assert!(
            j0_last.end_seconds < j1[1].start_seconds,
            "job 0 chain (ends {}) was serialized behind job 1's barrier (starts {})",
            j0_last.end_seconds,
            j1[1].start_seconds
        );
    }

    #[test]
    fn empty_jobs_complete_at_their_release() {
        let ins = CkksInstance::ins1();
        let empty = TraceBuilder::new(&ins).build();
        let mut scheduler = MultiScheduler::new(MachineModel::default());
        scheduler.add_job(7, &empty, &[], 0.25).unwrap();
        assert_eq!(scheduler.active_jobs(), 0);
        let done = scheduler.run_until_completion().unwrap();
        assert_eq!(done.tag, 7);
        assert!((done.finish_seconds - 0.25).abs() < 1e-15);
        assert_eq!(scheduler.run_until_completion(), None);
        let multi = scheduler.finish();
        multi.check_invariants().unwrap();
        assert_eq!(multi.jobs.len(), 1);
        assert!((multi.makespan_seconds - 0.25).abs() < 1e-15);
    }

    #[test]
    fn incremental_admission_reports_completions_in_order() {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 3);
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let timings = sim.op_timings(&trace).unwrap();
        let mut scheduler = MultiScheduler::new(MachineModel::from_config(sim.config()));
        scheduler.add_job(0, &trace, &timings, 0.0).unwrap();
        let first = scheduler.run_until_completion().unwrap();
        assert_eq!(first.tag, 0);
        // Admit the next job only after the first completed, as a serving
        // loop with max_in_flight = 1 would.
        scheduler
            .add_job(1, &trace, &timings, first.finish_seconds)
            .unwrap();
        let second = scheduler.run_until_completion().unwrap();
        assert_eq!(second.tag, 1);
        assert!(second.finish_seconds >= first.finish_seconds);
        let multi = scheduler.finish();
        multi.check_invariants().unwrap();
        // Back-to-back admission degenerates to serial execution.
        assert!(
            (multi.makespan_seconds - multi.serial_seconds).abs() < 1e-9 * multi.serial_seconds
        );
    }

    #[test]
    fn completions_come_back_in_finish_order_not_placement_order() {
        // Job 0: one long HMult, fully placed first (admission-order tie
        // win). Job 1: one tiny low-level CMult on a second HBM channel,
        // placed later but finishing two orders of magnitude earlier. The
        // scheduler must report job 1's completion first.
        let ins = CkksInstance::ins1();
        let mut b0 = TraceBuilder::new(&ins);
        let x = b0.fresh_ct(27);
        b0.hmult_at(x, x, 27);
        let t0 = b0.build();
        let mut b1 = TraceBuilder::new(&ins);
        let y = b1.fresh_ct(0);
        b1.cmult(y, 0);
        let t1 = b1.build();

        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let tm0 = sim.op_timings(&t0).unwrap();
        let tm1 = sim.op_timings(&t1).unwrap();
        let machine = MachineModel::from_config(sim.config()).with_channels(FuKind::Hbm, 2);
        let mut scheduler = MultiScheduler::new(machine);
        scheduler.add_job(0, &t0, &tm0, 0.0).unwrap();
        scheduler.add_job(1, &t1, &tm1, 0.0).unwrap();
        let first = scheduler.run_until_completion().unwrap();
        let second = scheduler.run_until_completion().unwrap();
        assert_eq!(first.tag, 1, "short job must complete first");
        assert_eq!(second.tag, 0);
        assert!(first.finish_seconds < second.finish_seconds);
        assert_eq!(scheduler.run_until_completion(), None);
        scheduler.finish().check_invariants().unwrap();
    }

    #[test]
    fn cancelled_jobs_never_complete_and_invariants_still_hold() {
        let ins = CkksInstance::ins1();
        let long = keyswitch_heavy(&ins, 6);
        let short = keyswitch_heavy(&ins, 1);
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let tm_long = sim.op_timings(&long).unwrap();
        let tm_short = sim.op_timings(&short).unwrap();
        let mut scheduler = MultiScheduler::new(MachineModel::from_config(sim.config()));
        scheduler.add_job(0, &long, &tm_long, 0.0).unwrap();
        scheduler.add_job(1, &short, &tm_short, 0.0).unwrap();
        // Cancel the long job before any placement: only the short one runs.
        assert!(scheduler.cancel_job(0));
        assert!(!scheduler.cancel_job(0), "double cancel must be a no-op");
        assert!(!scheduler.cancel_job(99), "unknown tag must be a no-op");
        let done = scheduler.run_until_completion().unwrap();
        assert_eq!(done.tag, 1);
        assert_eq!(scheduler.run_until_completion(), None);
        let multi = scheduler.finish();
        multi.check_invariants().unwrap();
        let j0 = multi.job(0).unwrap();
        assert!(j0.cancelled);
        assert_eq!(j0.placed_ops, 0);
        assert_eq!(j0.finish_seconds, 0.0); // never started: finish = release
        let j1 = multi.job(1).unwrap();
        assert!(!j1.cancelled);
        assert_eq!(j1.placed_ops, j1.ops);
    }

    #[test]
    fn cancelling_a_partially_placed_job_keeps_its_burned_time() {
        let ins = CkksInstance::ins1();
        let long = keyswitch_heavy(&ins, 6);
        let short = keyswitch_heavy(&ins, 1);
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let tm_long = sim.op_timings(&long).unwrap();
        let tm_short = sim.op_timings(&short).unwrap();
        let mut scheduler = MultiScheduler::new(MachineModel::from_config(sim.config()));
        scheduler.add_job(0, &long, &tm_long, 0.0).unwrap();
        scheduler.add_job(1, &short, &tm_short, 0.0).unwrap();
        // Drive until the short job completes; the long one is mid-flight.
        let first = scheduler.run_until_completion().unwrap();
        assert_eq!(first.tag, 1);
        assert!(
            scheduler.cancel_job(0),
            "mid-flight job must be cancellable"
        );
        assert_eq!(scheduler.run_until_completion(), None);
        let multi = scheduler.finish();
        multi.check_invariants().unwrap();
        let j0 = multi.job(0).unwrap();
        assert!(j0.cancelled);
        assert!(j0.placed_ops < j0.ops, "cancel must stop further placement");
        // Whatever was placed stays on the books.
        let placed = multi.ops.iter().filter(|o| o.job == 0).count();
        assert_eq!(placed, j0.placed_ops);
    }

    #[test]
    fn cancelling_a_reported_completion_is_refused() {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 1);
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let timings = sim.op_timings(&trace).unwrap();
        let mut scheduler = MultiScheduler::new(MachineModel::from_config(sim.config()));
        scheduler.add_job(0, &trace, &timings, 0.0).unwrap();
        let done = scheduler.run_until_completion().unwrap();
        assert_eq!(done.tag, 0);
        assert!(
            !scheduler.cancel_job(0),
            "a completion already handed out cannot be revoked"
        );
        scheduler.finish().check_invariants().unwrap();
    }

    #[test]
    fn drained_chunks_and_the_rest_make_up_the_retained_timeline() {
        let ins = CkksInstance::ins1();
        let long = keyswitch_heavy(&ins, 5);
        let short = keyswitch_heavy(&ins, 2);
        let (machine, tm_long) = machine_and_timings(&ins, BtsConfig::bts_default(), &long);
        let (_, tm_short) = machine_and_timings(&ins, BtsConfig::bts_default(), &short);
        let admit_all = |s: &mut MultiScheduler| {
            s.add_job(0, &long, &tm_long, 0.0).unwrap();
            s.add_job(1, &short, &tm_short, 0.0).unwrap();
            s.add_job(2, &short, &tm_short, 1e-3).unwrap();
        };
        let mut retained = MultiScheduler::new(machine);
        admit_all(&mut retained);
        let retained = retained.finish();
        retained.check_invariants().unwrap();

        let mut drained = MultiScheduler::new(machine);
        admit_all(&mut drained);
        let mut ops = Vec::new();
        let mut busy: [Vec<BusyInterval>; FuKind::COUNT] = Default::default();
        let mut all_ops: Vec<ScheduledOp> = Vec::new();
        let mut all_busy: [Vec<BusyInterval>; FuKind::COUNT] = Default::default();
        let mut append = |ops: &[ScheduledOp], busy: &[Vec<BusyInterval>]| {
            // `placement` counts from the start of each chunk.
            let base = all_ops.len();
            all_ops.extend_from_slice(ops);
            for (all, chunk) in all_busy.iter_mut().zip(busy) {
                all.extend(chunk.iter().map(|b| BusyInterval {
                    placement: b.placement + base,
                    ..*b
                }));
            }
        };
        while drained.run_until_completion().is_some() {
            drained.drain_timeline(&mut ops, &mut busy);
            assert!(!ops.is_empty(), "a completion places at least one op");
            append(&ops, &busy);
        }
        let rest = drained.finish();
        append(&rest.ops, &rest.busy);
        assert_eq!(all_ops, retained.ops);
        assert_eq!(all_busy, retained.busy);
        // Stats and makespan cover the whole run either way.
        assert_eq!(rest.jobs, retained.jobs);
        assert_eq!(rest.makespan_seconds, retained.makespan_seconds);
    }

    #[test]
    fn folded_utilizations_match_the_retained_ones_bitwise_even_for_idle_units() {
        // CMult chains never touch the NTTU or the BConvU: those classes sum
        // nothing, and a float sum of nothing is −0.0.
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let z = b.fresh_ct(27);
        let mut cur = b.cmult(z, 27);
        for _ in 0..3 {
            cur = b.cmult(cur, 27);
        }
        let trace = b.build();
        let (machine, timings) = machine_and_timings(&ins, BtsConfig::bts_default(), &trace);
        let retained = schedule_jobs(
            machine,
            &[(0, &trace, &timings, 0.0), (1, &trace, &timings, 0.0)],
        );
        assert!(retained.busy[FuKind::Nttu.index()].is_empty());

        let mut scheduler = MultiScheduler::new(machine);
        scheduler.add_job(0, &trace, &timings, 0.0).unwrap();
        scheduler.add_job(1, &trace, &timings, 0.0).unwrap();
        let mut fold = UtilizationFold::new();
        while let Some(done) = scheduler.run_until_completion() {
            fold.drain(&mut scheduler, done.finish_seconds);
        }
        let rest = scheduler.finish();
        assert!(rest.ops.is_empty(), "everything was drained");
        let folded = fold.finish(&rest, None);
        for (f, r) in folded.iter().zip(retained.utilizations()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
        assert!(folded[FuKind::Hbm.index()] > 0.0);
    }

    #[test]
    fn plans_are_bound_to_their_machine() {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 1);
        let (machine, timings) = machine_and_timings(&ins, BtsConfig::bts_default(), &trace);
        let plan = Arc::new(JobPlan::new(&machine, &trace, &timings).unwrap());
        assert_eq!(plan.len(), trace.len());
        assert!(plan.critical_path_seconds() <= plan.serial_seconds() + 1e-15);
        let mut s = MultiScheduler::new(machine.with_channels(FuKind::Hbm, 2));
        let mismatch = Err(ScheduleError::MachineMismatch);
        assert_eq!(s.add_planned(0, plan, 0.0), mismatch);
        // `add_job` plans for the scheduler's own machine: it never mismatches.
        assert_eq!(s.add_job(0, &trace, &timings, 0.0), Ok(()));
    }

    #[test]
    fn duplicate_tags_are_rejected() {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 1);
        let (machine, timings) = machine_and_timings(&ins, BtsConfig::bts_default(), &trace);
        let plan = Arc::new(JobPlan::new(&machine, &trace, &timings).unwrap());
        let mut s = MultiScheduler::new(machine);
        s.add_job(3, &trace, &timings, 0.0).unwrap();
        let duplicate = Err(ScheduleError::DuplicateTag(3));
        assert_eq!(s.add_job(3, &trace, &timings, 0.0), duplicate);
        assert_eq!(s.add_planned(3, plan, 0.5), duplicate);
        // The refusals left the first admission as it was.
        assert_eq!(s.run_until_completion().map(|c| c.tag), Some(3));
        assert_eq!(s.run_until_completion(), None);
        let schedule = s.finish();
        schedule.check_invariants().unwrap();
        assert_eq!(schedule.jobs.len(), 1);
    }

    #[test]
    fn negative_or_non_finite_releases_are_rejected() {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 1);
        let (machine, timings) = machine_and_timings(&ins, BtsConfig::bts_default(), &trace);
        let plan = Arc::new(JobPlan::new(&machine, &trace, &timings).unwrap());
        let mut s = MultiScheduler::new(machine);
        for (tag, release) in [(1, -1e-9), (2, f64::NAN), (3, f64::INFINITY)] {
            for refused in [
                s.add_planned(tag, Arc::clone(&plan), release),
                s.add_job(tag, &trace, &timings, release),
            ] {
                let Err(ScheduleError::InvalidRelease(t)) = refused else {
                    panic!("release {release} was admitted: {refused:?}");
                };
                assert_eq!(t.to_bits(), release.to_bits());
            }
        }
        // A refused tag stays free.
        assert_eq!(s.add_planned(1, plan, 0.0), Ok(()));
        assert_eq!(s.active_jobs(), 1);
    }

    #[test]
    fn timings_must_cover_the_trace() {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 3);
        let (machine, timings) = machine_and_timings(&ins, BtsConfig::bts_default(), &trace);
        let short = ScheduleError::TimingCount(3, 2);
        assert_eq!(
            JobPlan::new(&machine, &trace, &timings[..2]),
            Err(short.clone())
        );
        let mut s = MultiScheduler::new(machine);
        assert_eq!(s.add_job(0, &trace, &timings[..2], 0.0), Err(short));
        assert_eq!(s.active_jobs(), 0);
    }

    #[test]
    fn defective_traces_are_not_planned() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.hmult_at(x, 4242, 27);
        let trace = b.build();
        let defect = trace.validate().unwrap_err();
        let machine = MachineModel::default();
        let timings = [OpTiming::default()];
        let refused = ScheduleError::Trace(defect);
        assert_eq!(
            JobPlan::new(&machine, &trace, &timings),
            Err(refused.clone())
        );
        let mut s = MultiScheduler::new(machine);
        assert_eq!(s.add_job(0, &trace, &timings, 0.0), Err(refused));
    }
}
