//! The scheduler: list-schedule a *set* of tagged job DAGs onto one shared
//! machine, so ops — of one job or of many — interleave on the
//! NTTU/BConvU/element-wise/HBM channels the way the accelerator keeps its
//! pipelines busy. A single trace ([`crate::ScheduleExt::run_scheduled`]) is
//! the one-job case: tag 0, release 0.
//!
//! # Model
//!
//! Every job is an [`bts_sim::OpTrace`] with per-op charges
//! ([`bts_sim::OpTiming`]) — the trace is its own dependency DAG, read off
//! its ciphertext slots by the crate's one readiness rule — plus a
//! *release time* before which none of its ops may start (the serving layer
//! sets it to the job's admission time). Bootstrap-region barriers are
//! **per-job**: a job's refresh pipeline serializes only that job's ops —
//! other tenants keep streaming through the idle units, which is exactly the
//! amortized-throughput story of the paper's evaluation.
//!
//! Each op occupies a latency *window* of exactly its serial engine charge
//! `d = max(compute, hbm)`. Within the window the op reserves each unit class
//! it touches for that class's busy time; the reservation may *float*: it
//! starts at `max(op_start, unit_horizon)` as long as it still ends inside
//! the window. An op can therefore start while a predecessor on some unit is
//! still draining, as long as its own share of that unit fits in what remains
//! of its window — that is how rescales and element-wise tails slide under
//! the evaluation-key streams of neighbouring key-switches.
//!
//! Placement is greedy and deterministic: among the *next* unplaced op of
//! every active job (per-job program order), the scheduler places the op with
//! the earliest feasible start (dependencies, per-job barrier, release time,
//! unit reservations); ties go to the job admitted first. Successive
//! candidates are ops of different kinds, so both choices — which unit
//! horizons bound a candidate's start, and which candidate wins — are
//! selects rather than jumps a branch predictor would keep losing.
//!
//! # Guarantees
//!
//! * Per-job program order of placement and all data/barrier dependencies are
//!   respected.
//! * No unit class ever holds two overlapping reservations.
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
//! # Plans, cursors and what is kept
//!
//! A serving run admits thousands of copies of a handful of traces. What is
//! fixed about a job — op metadata, demands, each op's operand and output
//! cells ([`bts_sim::OpTrace::cell`]), serial and critical-path seconds —
//! lives in an immutable [`JobPlan`] shared by every copy
//! ([`MultiScheduler::add_planned`]). A plan keeps each distinct op *shape*
//! (kind, level, bootstrap flag, demand) once — the engine charges by kind,
//! level and scratchpad outcome, so a trace has a few hundred at most — and
//! per op three `u32`s beside its operand cells: its shape, its output cell
//! and where its operands end. What a running job mutates is a small
//! cursor: its next op and one finish time per cell, a ring over the trace's
//! read window plus its inputs. That clock goes back to the scheduler when
//! the job has placed its last op or is cancelled, and the next admission
//! resets it instead of allocating one. What the scheduler keeps of what
//! it places is its type parameter ([`Keep`]), fixed when it is built:
//! [`MultiScheduler::new`] keeps the [`Timeline`] — every placed op and
//! reservation — that [`MultiScheduler::finish`] returns as a [`Schedule`];
//! [`MultiScheduler::folding`] keeps a [`UtilizationFold`] that adds each
//! reservation to its unit's busy seconds as it is placed and builds no
//! timeline, so memory follows the jobs in flight rather than the ops ever
//! placed. Serving folds.
//!
//! # One job, placed as it is charged
//!
//! With one job released at 0 the greedy rule has one candidate, the job's
//! next op, so program order is placement order and each op can be placed
//! the moment the engine's sweep charges it. A single trace's scheduled run
//! ([`crate::ScheduleExt::run_scheduled`]) does exactly that: the sweep's
//! sink is the scheduler, on the same unit channels and [`UtilizationFold`]
//! as here, and no plan is built. A caller that wants the plan — for its
//! timeline, or its critical chain — builds it with [`JobPlan::from_trace`].

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bts_sim::ticks::{self, MAX_TICKS};
use bts_sim::{FuKind, HeOp, OpTiming, OpTrace, SimReport, Simulator, TraceError, TracedOp};
use bts_telemetry::TimelineSegment;

use crate::clock::{Clock, Link};
use crate::error::ScheduleError;
use crate::resources::{MachineModel, OpDemand};

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

/// An exclusive reservation of one unit class by one placed op of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyInterval {
    /// Index into [`Schedule::ops`] (placement order).
    pub placement: usize,
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

/// A completed job, as reported by [`MultiScheduler::run_until_completion`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCompletion {
    /// The completed job's tag.
    pub tag: u32,
    /// The job's completion time in seconds.
    pub finish_seconds: f64,
}

/// A complete schedule of a set of tagged jobs over one shared machine:
/// where every op runs, when it holds each unit class, and the aggregate
/// figures (makespan, critical path, serial reference, per-unit
/// utilization).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Every placed op, in placement order (the order the greedy scheduler
    /// committed them; per-job subsequences are in program order, so a
    /// one-job schedule is in program order).
    pub ops: Vec<ScheduledOp>,
    /// Per-unit-class reservations, in placement order.
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
    /// Per unit class, the ticks reserved: what its utilization is taken
    /// from, as a folding scheduler takes it.
    reserved: [u64; FuKind::COUNT],
}

impl Schedule {
    /// Stats of the job with the given tag.
    pub fn job(&self, tag: u32) -> Option<&JobStats> {
        self.index.get(&tag).map(|&j| &self.jobs[j])
    }

    /// Speedup of the schedule over serial execution. For jobs released at
    /// 0 serial time is an upper bound by construction, so the value is
    /// ≥ 1; later releases can push the makespan past the serial sum, and
    /// the value is clamped at 1.
    pub fn parallel_speedup(&self) -> f64 {
        if self.makespan_seconds <= 0.0 {
            1.0
        } else {
            (self.serial_seconds / self.makespan_seconds).max(1.0)
        }
    }

    /// Busy fraction of one unit class over the makespan: the ticks of its
    /// reservations over the makespan's, as a folding scheduler reports it.
    pub fn unit_utilization(&self, kind: FuKind) -> f64 {
        share(self.reserved[kind.index()], self.makespan_seconds)
    }

    /// Utilization of all unit classes, indexed by [`FuKind::index`].
    pub fn utilizations(&self) -> [f64; FuKind::COUNT] {
        FuKind::ALL.map(|kind| self.unit_utilization(kind))
    }

    /// Fig. 8-style timeline of the first `limit` reservations per unit
    /// class, with job-tagged labels (`J2#14 HMult@L23`), in the segment
    /// shape `figures` renders Fig. 8's key-switch schedule with.
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
    /// 3. every reservation lies inside its op's window,
    /// 4. a unit class's reservations follow one another in placement
    ///    order, so none overlap,
    /// 5. `critical_path ≤ makespan ≤ max(release) + serial` (up to float
    ///    rounding),
    /// 6. every job's recorded finish is the max end over its ops.
    ///
    /// (Data-edge and barrier respect need the traces, which a schedule does
    /// not hold: the property suites check them by ciphertext id.)
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
            }
            for pair in intervals.windows(2) {
                if pair[1].start_seconds < pair[0].end_seconds - eps {
                    return Err(format!(
                        "{} double-booked: {:?} overlaps {:?}",
                        kind.label(),
                        pair[0],
                        pair[1]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The figures of a [`Schedule`] without its timeline: what a folding
/// scheduler returns ([`MultiScheduler::into_summary`]), and what a
/// scheduled run returns ([`crate::ScheduledRun::schedule`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleSummary {
    /// Completion time of the last op — the pipelined execution time — or,
    /// for a machine that died, its surviving makespan.
    pub makespan_seconds: f64,
    /// Sum of the admitted jobs' op durations: the serial engine charge.
    pub serial_seconds: f64,
    /// The infinite-resource lower bound on the makespan.
    pub critical_path_seconds: f64,
    /// Busy fraction of each unit class over the makespan, indexed by
    /// [`FuKind::index`].
    pub utilizations: [f64; FuKind::COUNT],
}

/// One op on the critical path, for "what limits this workload" reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalOp {
    /// Index of the op in program order.
    pub index: usize,
    /// Operation kind.
    pub op: HeOp,
    /// Ciphertext level.
    pub level: usize,
    /// The op's latency window in seconds.
    pub seconds: f64,
}

/// Everything about a job that is fixed before it runs: op metadata, per-op
/// resource demands on one machine, the value cells each op reads and
/// writes — the trace is its own dependency DAG (`clock.rs`) — and
/// the serial and critical-path charges. Immutable, so every admission of
/// the same (trace, timings) pair can share one plan behind an [`Arc`]
/// ([`MultiScheduler::add_planned`]); the scheduler keeps only a small
/// cursor per running job, whose readiness clock it hands on to the next
/// job it admits once this one is done.
///
/// An op's kind, level, bootstrap-region flag and demand — its *shape* —
/// depend on what it does, not on where it sits, and the engine charges by
/// kind, level and scratchpad outcome, so a trace of tens of thousands of
/// ops has a few hundred shapes at most. The plan keeps each distinct shape
/// once, in order of first appearance, and per op three `u32`s: its shape,
/// its output cell and the end of its operand cells.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    machine: MachineModel,
    /// Each distinct op shape once.
    shapes: Vec<OpShape>,
    ops: Vec<PlannedOp>,
    /// Every op's operand cells ([`OpTrace::cell`]), in program order (CSR:
    /// one arena for the whole plan instead of a vector per op).
    operands: Vec<u32>,
    /// The trace's cell count ([`OpTrace::cells`]): what a cursor's clock
    /// holds.
    cells: usize,
    /// Serial and critical-path charges, in ticks.
    serial: u64,
    critical_path: u64,
    /// Op indices of one longest chain, earliest first.
    critical_ops: Vec<usize>,
}

/// What a [`JobPlan`] keeps of an op once per distinct value: kind, level,
/// bootstrap-region flag and demand.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpShape {
    op: HeOp,
    level: usize,
    in_bootstrap: bool,
    demand: OpDemand,
    /// The planner's chain link ([`ShapeIndex`]): the next shape of the
    /// same hash bucket, as index + 1 (0 ends the chain). It fits in the
    /// padding, and the plan's table may be the planner's index itself.
    next: u32,
}

impl OpShape {
    /// Every field but the link: two shapes are one shape only if these are
    /// equal.
    fn bits(&self) -> [u64; 8] {
        let [ntt, bconv, elementwise, hbm] = self.demand.busy;
        [
            self.op as u64,
            // Lossless: `usize` is at most 64 bits wide.
            self.level as u64,
            u64::from(self.in_bootstrap),
            self.demand.duration,
            ntt,
            bconv,
            elementwise,
            hbm,
        ]
    }
}

/// One op of a [`JobPlan`]: its shape and cells.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlannedOp {
    /// Index into `JobPlan::shapes`.
    shape: u32,
    /// The cell of the op's output, or [`NO_OUTPUT`].
    output: u32,
    /// The op's operand cells end here in `JobPlan::operands`, and start
    /// where the previous op's end.
    operands_end: u32,
}

/// [`PlannedOp::output`] of an op without one. No cell is `u32::MAX`: an
/// output cell is at most its op's index, and an `OpTrace` has fewer ops.
const NO_OUTPUT: u32 = u32::MAX;

impl PlannedOp {
    fn output(&self) -> Option<u32> {
        (self.output != NO_OUTPUT).then_some(self.output)
    }
}

impl JobPlan {
    /// Plans a trace for `machine`: resolves every op's demand from the
    /// caller's per-op charges (resolve them with
    /// [`bts_sim::Simulator::op_timings`] against the job's own instance)
    /// and the critical path from the trace's cells.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Trace`] if the trace has a structural defect,
    /// [`ScheduleError::TimingCount`] if `timings` does not cover exactly
    /// its ops, and [`ScheduleError::InvalidTiming`] for the first op whose
    /// duration or unit busy time is past [`bts_sim::ticks::MAX_TICKS`].
    pub fn new(
        machine: &MachineModel,
        trace: &OpTrace,
        timings: &[OpTiming],
    ) -> Result<Self, ScheduleError> {
        trace.validate().map_err(ScheduleError::Trace)?;
        if timings.len() != trace.len() {
            return Err(ScheduleError::TimingCount(trace.len(), timings.len()));
        }
        let mut planner = Planner::new(*machine, trace);
        for (index, (op, timing)) in trace.ops().zip(timings).enumerate() {
            let charged = [
                timing.ticks,
                timing.cost.ntt_ticks,
                timing.cost.bconv_ticks,
                timing.cost.elementwise_charged_ticks,
                timing.hbm_ticks,
            ];
            if let Some(&past) = charged.iter().find(|&&t| t > MAX_TICKS) {
                let seconds = ticks::seconds(past);
                return Err(ScheduleError::InvalidTiming { op: index, seconds });
            }
            planner.push(&op, timing);
        }
        Ok(planner.finish())
    }

    /// Resolves the per-op charges of a trace on `sim` (one cache sweep,
    /// under the scratchpad's reuse-code policy) and plans it for `sim`'s
    /// machine in the same pass: each op's demand, cells and critical path
    /// step are taken as the sweep hands the op over, and no timing
    /// outlives its op. Returns the plan next to the sweep's
    /// serial-accounting report.
    ///
    /// # Errors
    ///
    /// Returns the trace's first structural defect.
    pub fn from_trace(sim: &Simulator, trace: &OpTrace) -> Result<(Self, SimReport), TraceError> {
        let mut planner = Planner::new(MachineModel::from_config(sim.config()), trace);
        let mut sink = |op: &TracedOp<'_>, timing: &OpTiming| planner.push(op, timing);
        let report = sim.run_sunk(trace, &mut sink)?;
        Ok((planner.finish(), report))
    }

    /// The shape of op `i`.
    fn shape(&self, i: usize) -> &OpShape {
        &self.shapes[self.ops[i].shape as usize]
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
        ticks::seconds(self.serial)
    }

    /// The job's own critical path (data edges + its barriers), seconds.
    pub fn critical_path_seconds(&self) -> f64 {
        ticks::seconds(self.critical_path)
    }

    /// Op indices of one longest chain, earliest first.
    pub fn critical_path_ops(&self) -> &[usize] {
        &self.critical_ops
    }

    /// The machine the plan's demands were resolved for.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// The `n` largest ops on the critical path — the ops a latency
    /// optimization would have to attack first.
    pub fn top_critical_ops(&self, n: usize) -> Vec<CriticalOp> {
        let mut ops: Vec<CriticalOp> = self
            .critical_ops
            .iter()
            .map(|&index| {
                let shape = self.shape(index);
                CriticalOp {
                    index,
                    op: shape.op,
                    level: shape.level,
                    seconds: ticks::seconds(shape.demand.duration),
                }
            })
            .collect();
        ops.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        ops.truncate(n);
        ops
    }

    /// When op `i` of a job released at `release` may start as far as the
    /// job allows, on its cursor's `clock`: called once per op, in program
    /// order, after every earlier op was placed.
    fn ready(&self, i: usize, clock: &mut Clock<u64>, release: u64) -> u64 {
        let start = i.checked_sub(1).map_or(0, |p| self.ops[p].operands_end);
        let operands = &self.operands[start as usize..self.ops[i].operands_end as usize];
        let in_bootstrap = self.shape(i).in_bootstrap;
        release.max(clock.ready(in_bootstrap, operands.iter().copied()))
    }
}

/// Buckets of the planner's shape index.
const SHAPE_BUCKETS: usize = 1 << 10;

/// Shapes the planner's index starts with room for, or an eighth of the
/// trace's op count if that is more: no registry plan has over 189 shapes.
const SHAPE_ROOM: usize = 256;

/// The planner's shape index: every distinct shape so far, chained from a
/// fixed array of hash buckets through [`OpShape::next`]. It starts with
/// room for [`SHAPE_ROOM`] shapes or one per eight ops, whichever is more,
/// and grows at most once, to one per op, the most a trace can have. So
/// with the plan's table ([`ShapeIndex::into_table`]) it makes two
/// allocations whatever the number of shapes.
struct ShapeIndex {
    shapes: Vec<OpShape>,
    /// The trace's op count: what the index grows to.
    ops: usize,
    grown: bool,
    /// Per bucket, the last shape hashed to it, as index + 1 (0: none).
    heads: [u32; SHAPE_BUCKETS],
}

impl ShapeIndex {
    fn new(ops: usize) -> Self {
        Self {
            shapes: Vec::with_capacity(ops.min(SHAPE_ROOM.max(ops / 8))),
            ops,
            grown: false,
            heads: [0; SHAPE_BUCKETS],
        }
    }

    /// The id of `shape`, interned if it is new.
    fn intern(&mut self, shape: OpShape) -> u32 {
        let bits = shape.bits();
        let hash = bits.iter().fold(0u64, |h, &b| {
            (h ^ b).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23)
        });
        let head = &mut self.heads[(hash >> (64 - SHAPE_BUCKETS.trailing_zeros())) as usize];
        let mut link = *head;
        while let Some(id) = link.checked_sub(1) {
            let known = &self.shapes[id as usize];
            if known.bits() == bits {
                return id;
            }
            link = known.next;
        }
        if self.shapes.len() == self.shapes.capacity() {
            // Once: no trace has more shapes than ops.
            debug_assert!(!self.grown);
            self.shapes.reserve_exact(self.ops - self.shapes.len());
            self.grown = true;
        }
        // Lossless: a trace has fewer than `u32::MAX` ops, each of at most
        // one new shape.
        let id = self.shapes.len() as u32;
        self.shapes.push(OpShape {
            next: *head,
            ..shape
        });
        *head = id + 1;
        id
    }

    /// The plan's table: a copy at the shape count, or if the index grew,
    /// the index itself — a third allocation to trim it would make the
    /// count depend on the shapes, and a trace with that many shapes keeps
    /// at most 56 bytes per op there.
    fn into_table(self) -> Vec<OpShape> {
        if self.grown {
            self.shapes
        } else {
            self.shapes.as_slice().to_vec()
        }
    }
}

/// A [`JobPlan`] in the making: ops added in program order, each with its
/// shape and cells, the longest chain extended as they come.
struct Planner<'t> {
    plan: JobPlan,
    /// The trace, whose slots the plan stores as cells.
    trace: &'t OpTrace,
    /// The distinct shapes so far; the plan keeps them once planning ends.
    shapes: ShapeIndex,
    /// Per cell, the earliest finish of the op writing it on the critical
    /// path, and that op.
    clock: Clock<Link>,
    /// Per op, the op its longest chain arrives through ([`Link::op`]).
    best_pred: Vec<u32>,
}

impl<'t> Planner<'t> {
    fn new(machine: MachineModel, trace: &'t OpTrace) -> Self {
        let ops = trace.len();
        Self {
            plan: JobPlan {
                machine,
                shapes: Vec::new(),
                ops: Vec::with_capacity(ops),
                // Most ops read one or two ciphertexts.
                operands: Vec::with_capacity(2 * ops),
                cells: trace.cells(),
                serial: 0,
                critical_path: 0,
                critical_ops: Vec::new(),
            },
            trace,
            shapes: ShapeIndex::new(ops),
            clock: Clock::new(trace.cells()),
            best_pred: Vec::with_capacity(ops),
        }
    }

    /// Adds `op`, the next op of a validated trace, charged `timing`.
    fn push(&mut self, op: &TracedOp<'_>, timing: &OpTiming) {
        let plan = &mut self.plan;
        let trace = self.trace;
        let shape = OpShape {
            op: op.op,
            level: op.level,
            in_bootstrap: op.in_bootstrap,
            demand: plan.machine.demand(timing),
            next: 0,
        };
        let first = plan.operands.len();
        plan.operands
            .extend(op.operands.iter().map(|&slot| trace.cell(slot)));
        let cells = plan.operands[first..].iter().copied();
        let ready = self.clock.ready(op.in_bootstrap, cells);
        let at = Link {
            ticks: ready.ticks.saturating_add(shape.demand.duration),
            op: op.index + 1,
        };
        let output = op.output.map(|slot| trace.cell(slot));
        self.clock.finish(output, at);
        self.best_pred.push(ready.op);
        plan.ops.push(PlannedOp {
            shape: self.shapes.intern(shape),
            output: output.unwrap_or(NO_OUTPUT),
            // Lossless: an `OpTrace` refuses more operand accesses.
            operands_end: plan.operands.len() as u32,
        });
    }

    fn finish(self) -> JobPlan {
        let mut plan = self.plan;
        plan.shapes = self.shapes.into_table();
        let durations = plan
            .ops
            .iter()
            .map(|op| plan.shapes[op.shape as usize].demand.duration);
        plan.serial = durations.fold(0, u64::saturating_add);
        let Link { ticks, op: last } = self.clock.latest();
        plan.critical_path = ticks;
        // Walked twice, so the chain is allocated once, at its length.
        let best_pred = &self.best_pred;
        let chain = |mut op: u32| {
            std::iter::from_fn(move || {
                let index = op.checked_sub(1)? as usize;
                op = best_pred[index];
                Some(index)
            })
        };
        plan.critical_ops = Vec::with_capacity(chain(last).count());
        plan.critical_ops.extend(chain(last));
        plan.critical_ops.reverse();
        plan
    }
}

/// The mutable cursor of one admitted job over its shared [`JobPlan`];
/// its times are ticks.
#[derive(Debug, Clone)]
struct JobState {
    tag: u32,
    release: u64,
    plan: Arc<JobPlan>,
    /// Next unplaced op (program-order cursor).
    next: usize,
    /// Per cell, the finish of the placed op writing it; handed back to the
    /// scheduler's pool once the job can place no further op (its last op
    /// is placed, or it is cancelled).
    clock: Clock<u64>,
    max_end: u64,
    first_start: Option<u64>,
    cancelled: bool,
}

/// A job's next op, as the greedy rule reads it, in ticks. The rows of all
/// active jobs sit side by side, so choosing a placement touches no plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Next {
    /// Index into `MultiScheduler::jobs`.
    job: usize,
    /// Earliest start of the op as far as its job alone is concerned —
    /// release, barrier and producers. It changes only when the job itself
    /// advances, so it is kept here instead of being recomputed for every
    /// placement of any job.
    ready: u64,
    /// The op's latency window.
    duration: u64,
    /// Per unit class, how long the window outlasts the op's busy time on
    /// it (`duration − busy`), or `u64::MAX` for a unit it leaves idle: the
    /// op's start bound on a unit that frees at `h` is then
    /// `h − slack`, saturating at 0, on every unit — 0, which bounds
    /// nothing, where it is idle.
    slack: [u64; FuKind::COUNT],
}

impl Next {
    pub(crate) fn new(job: usize, ready: u64, demand: &OpDemand) -> Self {
        let duration = demand.duration;
        Self {
            job,
            ready,
            duration,
            slack: demand
                .busy
                .map(|busy| if busy > 0 { duration - busy } else { u64::MAX }),
        }
    }
}

/// Who placed a reservation, for its telemetry event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Owner {
    pub(crate) job: u32,
    pub(crate) index: usize,
    pub(crate) op: HeOp,
    pub(crate) level: usize,
}

/// The machine's unit channels as the placement rule sees them — when each
/// unit class frees — and what is kept of the reservations made on them.
/// Both drivers of the rule hold one: [`MultiScheduler`], which picks among
/// every active job's next op, and a scheduled run's one job, placed op by
/// op as the engine's sweep charges it (`report.rs`).
#[derive(Debug, Clone, Default)]
pub(crate) struct Channels<K> {
    /// Per unit class, when its one channel frees, in ticks.
    pub(crate) horizons: [u64; FuKind::COUNT],
    pub(crate) keep: K,
}

impl<K: Keep> Channels<K> {
    /// The earliest start of `next` that its job and every unit allow.
    #[inline]
    pub(crate) fn earliest_start(&self, next: &Next) -> u64 {
        let mut start = next.ready;
        for (&h, &slack) in self.horizons.iter().zip(&next.slack) {
            // A reservation of `busy` ticks on a unit that frees at `h`
            // must end inside the window: start ≥ h + busy − d = h − slack.
            start = start.max(h.saturating_sub(slack));
        }
        start
    }

    /// Reserves each unit class for the op placed at `start` whose busy
    /// ticks are `busy`; tells `keep` of every class and, with an `owner`,
    /// emits each reservation as an event on its unit's track.
    #[inline]
    pub(crate) fn reserve(
        &mut self,
        start: u64,
        busy: &[u64; FuKind::COUNT],
        owner: Option<Owner>,
    ) {
        for (k, kind) in FuKind::ALL.into_iter().enumerate() {
            let h = self.horizons[k];
            let res_start = start.max(h);
            let res_end = res_start.saturating_add(busy[k]);
            // The reservation ends at or after `h`; a unit the op leaves
            // idle keeps its horizon.
            self.horizons[k] = if busy[k] > 0 { res_end } else { h };
            self.keep.reserve(k, busy[k], res_start, res_end);
            if let Some(owner) = owner.filter(|_| busy[k] > 0) {
                use bts_telemetry::ArgValue;
                // The tick args are the exact reservation, so utilization
                // derived from the event stream sums what the scheduler's
                // fold sums.
                let (start_s, end_s) = (ticks::seconds(res_start), ticks::seconds(res_end));
                bts_telemetry::emit_complete(
                    &format!("{}.0", kind.label()),
                    &format!(
                        "J{}#{} {:?}@L{}",
                        owner.job, owner.index, owner.op, owner.level
                    ),
                    start_s,
                    end_s - start_s,
                    &[
                        ("job", ArgValue::U64(u64::from(owner.job))),
                        ("op_index", ArgValue::U64(owner.index as u64)),
                        ("level", ArgValue::U64(owner.level as u64)),
                        ("channel", ArgValue::U64(0)),
                        ("start_s", ArgValue::F64(start_s)),
                        ("end_s", ArgValue::F64(end_s)),
                        ("start_ticks", ArgValue::U64(res_start)),
                        ("end_ticks", ArgValue::U64(res_end)),
                    ],
                );
            }
        }
    }
}

/// A unit's busy fraction: `busy` ticks over a makespan of
/// `makespan_seconds`, 0 over none. Every utilization the crate reports is
/// this quotient.
pub(crate) fn share(busy: u64, makespan_seconds: f64) -> f64 {
    if makespan_seconds > 0.0 {
        ticks::seconds(busy) / makespan_seconds
    } else {
        0.0
    }
}

/// The `job-complete` instant of a job whose last op was just placed; times
/// in ticks.
pub(crate) fn emit_job_complete(tag: u32, finish: u64, critical_path: u64, serial: u64) {
    use bts_telemetry::ArgValue;
    bts_telemetry::emit_instant(
        "sched",
        "job-complete",
        ticks::seconds(finish),
        &[
            ("job", ArgValue::U64(u64::from(tag))),
            (
                "critical_path_s",
                ArgValue::F64(ticks::seconds(critical_path)),
            ),
            ("serial_s", ArgValue::F64(ticks::seconds(serial))),
        ],
    );
}

/// The next placement the greedy rule picks.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    start: u64,
    /// Position in `MultiScheduler::active`.
    pos: usize,
}

/// What a [`MultiScheduler`] keeps of the ops it places. It is the
/// scheduler's type parameter, so the choice costs nothing per placement:
/// [`Timeline`] keeps every op and reservation, [`UtilizationFold`] only
/// per-unit busy ticks.
pub trait Keep: Default {
    /// An op was placed; `op` builds its record.
    fn op(&mut self, op: impl FnOnce() -> ScheduledOp);

    /// Unit class `k`'s share of the op placed last, in ticks
    /// ([`bts_sim::ticks`]): the reservation `[start, end]` if the op keeps
    /// the class busy (`busy > 0`), nothing otherwise.
    fn reserve(&mut self, k: usize, busy: u64, start: u64, end: u64);
}

/// The whole timeline of a run: every placed op and, per unit class, every
/// reservation, in placement order — what [`MultiScheduler::finish`]
/// returns in a [`Schedule`].
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    ops: Vec<ScheduledOp>,
    busy: [Vec<BusyInterval>; FuKind::COUNT],
    /// Per unit class, the ticks reserved.
    reserved: [u64; FuKind::COUNT],
}

impl Keep for Timeline {
    fn op(&mut self, op: impl FnOnce() -> ScheduledOp) {
        self.ops.push(op());
    }

    fn reserve(&mut self, k: usize, busy: u64, start: u64, end: u64) {
        if busy > 0 {
            self.reserved[k] += end - start;
            self.busy[k].push(BusyInterval {
                placement: self.ops.len() - 1,
                start_seconds: ticks::seconds(start),
                end_seconds: ticks::seconds(end),
            });
        }
    }
}

/// Per-unit busy ticks of a run whose timeline nobody keeps: each
/// reservation is added to its unit's sum as it is placed — the integer sum
/// [`Schedule::unit_utilization`] takes over the kept timeline, so the
/// result is identical to it.
///
/// The sums may have to be *clipped*: a machine that dies throws away the
/// work past its last real completion, and that surviving makespan is known
/// only at the end. A reservation is therefore summed at once only if it
/// ends by the *settled* bound — a time the caller knows the final makespan
/// reaches ([`MultiScheduler::settle`]), so clipping cannot touch it. The
/// first one that does not, and every later one of its unit, is held back
/// until the bound passes it, or until [`MultiScheduler::into_summary`] sums
/// it clipped. The bound starts at 0; a run that cannot die raises it past
/// every time before it places anything and holds nothing back.
#[derive(Debug, Clone)]
pub struct UtilizationFold {
    reserved: [u64; FuKind::COUNT],
    /// Held-back `(start, end)` reservations, placement order.
    held: [VecDeque<(u64, u64)>; FuKind::COUNT],
    settled: u64,
}

impl Default for UtilizationFold {
    fn default() -> Self {
        Self {
            reserved: [0; FuKind::COUNT],
            held: std::array::from_fn(|_| VecDeque::new()),
            settled: 0,
        }
    }
}

impl Keep for UtilizationFold {
    fn op(&mut self, _: impl FnOnce() -> ScheduledOp) {}

    fn reserve(&mut self, k: usize, busy: u64, start: u64, end: u64) {
        if self.held[k].is_empty() && end <= self.settled {
            // A class the op leaves idle adds `end − start` = 0.
            self.reserved[k] += end - start;
        } else if busy > 0 {
            self.held[k].push_back((start, end));
        }
    }
}

impl UtilizationFold {
    /// Raises the settled bound to `ticks` and sums, per unit, the held
    /// reservations it now covers, up to the first it does not.
    pub(crate) fn settle(&mut self, ticks: u64) {
        debug_assert!(ticks >= self.settled);
        self.settled = ticks;
        for (reserved, held) in self.reserved.iter_mut().zip(&mut self.held) {
            while let Some(&(start, end)) = held.front() {
                if end > ticks {
                    break;
                }
                *reserved += end - start;
                held.pop_front();
            }
        }
    }

    /// Adds `busy` ticks per unit, summed at once: reservations a settled
    /// bound past every time ([`u64::MAX`]) already covers.
    pub(crate) fn add(&mut self, busy: &[u64; FuKind::COUNT]) {
        debug_assert_eq!(self.settled, u64::MAX);
        for (reserved, busy) in self.reserved.iter_mut().zip(busy) {
            *reserved += busy;
        }
    }

    /// The ticks summed so far per unit.
    pub(crate) fn reserved(&self) -> [u64; FuKind::COUNT] {
        self.reserved
    }

    /// Busy fractions over `makespan_seconds`, the held reservations summed
    /// clipped to `clip` ticks.
    pub(crate) fn utilizations(&self, makespan_seconds: f64, clip: u64) -> [f64; FuKind::COUNT] {
        debug_assert!(self.settled <= clip);
        std::array::from_fn(|k| {
            let held = self.held[k].iter();
            let clipped = held.map(|&(start, end)| end.min(clip) - start.min(clip));
            share(clipped.sum::<u64>() + self.reserved[k], makespan_seconds)
        })
    }
}

/// Incremental list scheduler for a set of tagged job DAGs over one shared
/// [`MachineModel`]: per-job program order, data edges, bootstrap barriers
/// and release times are respected while all jobs compete for the same
/// unit classes, with
/// `max_j (release_j + critical_path_j) ≤ makespan ≤ max(release) + Σ serial`
/// guaranteed structurally (see the module-level docs above).
///
/// `K` is what it keeps of what it places: the [`Timeline`]
/// ([`MultiScheduler::new`], [`MultiScheduler::finish`]) or a
/// [`UtilizationFold`] ([`MultiScheduler::folding`],
/// [`MultiScheduler::into_summary`]).
#[derive(Debug, Clone)]
pub struct MultiScheduler<K = Timeline> {
    machine: MachineModel,
    channels: Channels<K>,
    jobs: Vec<JobState>,
    /// Tag → index into `jobs`.
    index: HashMap<u32, usize>,
    /// The next op of every job with unplaced ops, in admission order.
    active: Vec<Next>,
    /// Completions not yet reported, as (tag, finish in ticks).
    pending: VecDeque<(u32, u64)>,
    /// Clocks of jobs that can place no further op, each reset for the next
    /// admission instead of a new one allocated.
    clocks: Vec<Clock<u64>>,
    /// In ticks.
    makespan: u64,
}

/// `seconds` as a bound in ticks: the nearest tick, or past every tick for
/// a time beyond the range (`+∞` among them).
fn bound(seconds: f64) -> u64 {
    ticks::from_seconds(seconds).unwrap_or(if seconds > 0.0 { u64::MAX } else { 0 })
}

impl MultiScheduler {
    /// A scheduler packing jobs onto the given machine that keeps the whole
    /// timeline.
    pub fn new(machine: MachineModel) -> Self {
        Self::keeping(machine)
    }

    /// Places every remaining op and builds the final [`Schedule`]: the
    /// whole timeline, per-job stats and the figures.
    pub fn finish(mut self) -> Schedule {
        self.run_to_end();
        let jobs: Vec<JobStats> = self
            .jobs
            .iter()
            .map(|j| JobStats {
                tag: j.tag,
                release_seconds: ticks::seconds(j.release),
                first_start_seconds: ticks::seconds(j.first_start.unwrap_or(j.release)),
                finish_seconds: ticks::seconds(j.max_end),
                serial_seconds: j.plan.serial_seconds(),
                critical_path_seconds: j.plan.critical_path_seconds(),
                ops: j.plan.len(),
                placed_ops: j.next,
                cancelled: j.cancelled,
            })
            .collect();
        Schedule {
            serial_seconds: self.serial_seconds(),
            critical_path_seconds: self.critical_path_seconds(),
            ops: self.channels.keep.ops,
            busy: self.channels.keep.busy,
            reserved: self.channels.keep.reserved,
            index: self.index,
            makespan_seconds: ticks::seconds(self.makespan),
            jobs,
            machine: self.machine,
        }
    }
}

impl MultiScheduler<UtilizationFold> {
    /// A scheduler packing jobs onto the given machine that keeps no
    /// timeline, only per-unit busy seconds. It holds every reservation
    /// back until [`MultiScheduler::settle`] raises its settled bound.
    pub fn folding(machine: MachineModel) -> Self {
        Self::keeping(machine)
    }

    /// Raises the settled bound to `seconds`: a time the run's final
    /// makespan is known to reach — `+∞` for a machine that cannot die, its
    /// latest real completion for one that may. Reservations ending by it
    /// (in ticks, the nearest) are summed as they are placed; later ones
    /// wait. Never lower it.
    pub fn settle(&mut self, seconds: f64) {
        self.channels.keep.settle(bound(seconds));
    }

    /// Places every remaining op and returns the run's figures. For a
    /// machine that lived (`None`) they are those of the kept timeline;
    /// for one that died, the makespan is `surviving_makespan_seconds` —
    /// which must not be below the settled bound — and every reservation is
    /// clipped to it.
    pub fn into_summary(mut self, surviving_makespan_seconds: Option<f64>) -> ScheduleSummary {
        self.run_to_end();
        let makespan = surviving_makespan_seconds.unwrap_or(ticks::seconds(self.makespan));
        let clip = surviving_makespan_seconds.map_or(u64::MAX, bound);
        ScheduleSummary {
            makespan_seconds: makespan,
            serial_seconds: self.serial_seconds(),
            critical_path_seconds: self.critical_path_seconds(),
            utilizations: self.channels.keep.utilizations(makespan, clip),
        }
    }
}

impl<K: Keep> MultiScheduler<K> {
    fn keeping(machine: MachineModel) -> Self {
        Self {
            machine,
            channels: Channels::default(),
            jobs: Vec::new(),
            index: HashMap::new(),
            active: Vec::new(),
            pending: VecDeque::new(),
            clocks: Vec::new(),
            makespan: 0,
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
    /// allocations however long the plan is shared; its readiness clock is
    /// one a finished or cancelled job gave back, if there is one.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidRelease`] if `release_seconds` is negative,
    /// not finite or past [`bts_sim::ticks::MAX_TICKS`],
    /// [`ScheduleError::DuplicateTag`] if `tag` was already admitted; a
    /// refused job leaves the scheduler as it was.
    pub fn add_planned(
        &mut self,
        tag: u32,
        plan: Arc<JobPlan>,
        release_seconds: f64,
    ) -> Result<(), ScheduleError> {
        let Some(release) = ticks::from_seconds(release_seconds) else {
            return Err(ScheduleError::InvalidRelease(release_seconds));
        };
        let j = self.jobs.len();
        match self.index.entry(tag) {
            Entry::Occupied(_) => return Err(ScheduleError::DuplicateTag(tag)),
            Entry::Vacant(slot) => slot.insert(j),
        };
        let mut clock = Clock::default();
        if !plan.is_empty() {
            clock = self.clocks.pop().unwrap_or_default();
            clock.reset(plan.cells);
        }
        let mut job = JobState {
            tag,
            release,
            clock,
            plan,
            next: 0,
            max_end: release,
            first_start: None,
            cancelled: false,
        };
        if job.plan.is_empty() {
            self.pending.push_back((tag, release));
            self.makespan = self.makespan.max(release);
        } else {
            let ready = job.plan.ready(0, &mut job.clock, release);
            self.active
                .push(Next::new(j, ready, &job.plan.shape(0).demand));
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
    /// reservations — the machine did that work before the cancellation (a
    /// dying chip does not refund the cycles it burned).
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
        if let Some(pos) = self.active.iter().position(|a| a.job == j) {
            self.active.remove(pos);
            self.jobs[j].cancelled = true;
            self.clocks.push(std::mem::take(&mut self.jobs[j].clock));
            return true;
        }
        if let Some(pos) = self.pending.iter().position(|&(t, _)| t == tag) {
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
            // The earliest pending finish, the first of equals.
            let first = (0..self.pending.len()).min_by_key(|&pos| self.pending[pos].1);
            // The candidate has the smallest start of any active job, so it
            // alone decides whether anyone could still beat that finish.
            let best = self.best_candidate();
            if let Some(pos) = first {
                if best.is_none_or(|b| b.start >= self.pending[pos].1) {
                    let (tag, finish) = self.pending.remove(pos)?;
                    let finish_seconds = ticks::seconds(finish);
                    return Some(JobCompletion {
                        tag,
                        finish_seconds,
                    });
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

    /// Sum of every admitted job's serial charge.
    fn serial_seconds(&self) -> f64 {
        let serial = self.jobs.iter().map(|j| j.plan.serial);
        ticks::seconds(serial.fold(0, u64::saturating_add))
    }

    /// `max_j (release_j + critical_path_j)` over the jobs not cancelled: a
    /// cancelled job never ran its full DAG, so its critical path does not
    /// lower-bound the makespan.
    fn critical_path_seconds(&self) -> f64 {
        let completed = self.jobs.iter().filter(|j| !j.cancelled);
        let bounds = completed.map(|j| j.release.saturating_add(j.plan.critical_path));
        ticks::seconds(bounds.max().unwrap_or(0))
    }

    /// The active op with the earliest feasible start (dependencies, per-job
    /// barrier, release time, unit reservations); ties go to the job
    /// admitted first. `None` when no job has an unplaced op.
    fn best_candidate(&self) -> Option<Candidate> {
        if self.active.is_empty() {
            return None;
        }
        let mut best = Candidate {
            start: u64::MAX,
            pos: 0,
        };
        for (pos, next) in self.active.iter().enumerate() {
            let start = self.channels.earliest_start(next);
            // Strictly earlier only, so a tie stays with the job admitted
            // first.
            let earlier = start < best.start;
            best.start = if earlier { start } else { best.start };
            best.pos = if earlier { pos } else { best.pos };
        }
        Some(best)
    }

    /// Commits a candidate: the op's window, its unit reservations, and the
    /// job's cursor — and, if `telemetry_on` (the caller's one read of
    /// [`bts_telemetry::enabled`] for all it places), their events.
    fn place(&mut self, Candidate { start, pos }: Candidate, telemetry_on: bool) {
        let next = &mut self.active[pos];
        let job = &mut self.jobs[next.job];
        let plan = &*job.plan;
        let i = job.next;
        let shape = *plan.shape(i);
        let end = start.saturating_add(next.duration);
        job.clock.finish(plan.ops[i].output(), end);
        job.max_end = job.max_end.max(end);
        if job.first_start.is_none() {
            job.first_start = Some(start);
        }
        job.next += 1;
        let completed = job.next == plan.len();
        if completed {
            self.clocks.push(std::mem::take(&mut job.clock));
        } else {
            let ready = plan.ready(i + 1, &mut job.clock, job.release);
            *next = Next::new(next.job, ready, &plan.shape(i + 1).demand);
        }
        let (tag, finish) = (job.tag, job.max_end);
        self.channels.keep.op(|| ScheduledOp {
            job: tag,
            index: i,
            op: shape.op,
            level: shape.level,
            in_bootstrap: shape.in_bootstrap,
            start_seconds: ticks::seconds(start),
            end_seconds: ticks::seconds(end),
        });
        let owner = telemetry_on.then_some(Owner {
            job: tag,
            index: i,
            op: shape.op,
            level: shape.level,
        });
        self.channels.reserve(start, &shape.demand.busy, owner);
        self.makespan = self.makespan.max(end);
        if completed {
            self.active.remove(pos);
            self.pending.push_back((tag, finish));
            if telemetry_on {
                emit_job_complete(tag, finish, plan.critical_path, plan.serial);
            }
        }
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

    /// The plan of `trace` when op `i` takes `durations[i]` ticks.
    fn plan_with(trace: &OpTrace, durations: &[u64]) -> JobPlan {
        let timings: Vec<OpTiming> = durations
            .iter()
            .map(|&ticks| OpTiming {
                ticks,
                ..OpTiming::default()
            })
            .collect();
        JobPlan::new(&MachineModel, trace, &timings).unwrap()
    }

    #[test]
    fn critical_path_takes_the_longer_branch() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let l = b.hrot(x, 1, 27); // op 0
        let r = b.hrot(x, 2, 27); // op 1 — independent of op 0
        let j = b.hadd(l, r, 27); // op 2 — joins both
        b.hrescale_at(j, 27); // op 3 — chain
        let plan = plan_with(&b.build(), &[1, 5, 2, 3]);
        assert_eq!(plan.critical_path_seconds(), ticks::seconds(10));
        assert_eq!(plan.critical_path_ops(), &[1, 2, 3]);
    }

    #[test]
    fn bootstrap_transitions_are_barriers() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let y = b.fresh_ct(27);
        b.hmult_at(x, x, 27); // op 0, segment 0
        b.set_bootstrap_region(true);
        b.hrot(y, 1, 27); // op 1, segment 1 — data-independent of op 0
        b.set_bootstrap_region(false);
        b.hmult_at(y, y, 27); // op 2, segment 2
                              // The barriers serialize the chain: 1 + 1 + 1, not max-width 1.
        let plan = plan_with(&b.build(), &[1; 3]);
        assert_eq!(plan.critical_path_seconds(), ticks::seconds(3));
        assert_eq!(plan.critical_path_ops(), &[0, 1, 2]);
    }

    /// Random timings for `trace`: each op's five charges drawn by `draw`
    /// from a splitmix64 stream.
    fn random_timings(
        trace: &OpTrace,
        seed: u64,
        draw: impl Fn(&mut dyn FnMut() -> u64) -> [u64; 5],
    ) -> Vec<OpTiming> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..trace.len())
            .map(|_| {
                let [ticks, hbm_ticks, ntt, bconv, elementwise] = draw(&mut next);
                let mut t = OpTiming {
                    ticks,
                    hbm_ticks,
                    ..OpTiming::default()
                };
                t.cost.ntt_ticks = ntt;
                t.cost.bconv_ticks = bconv;
                t.cost.elementwise_charged_ticks = elementwise;
                t
            })
            .collect()
    }

    /// Interning is lossless: on random timings — each op's drawn from four
    /// with zero charges among them (shapes repeat), all distinct,
    /// or for a one-op plan — every op's kind, level, bootstrap flag and
    /// demand read back through the plan bit-equal `MachineModel::demand`
    /// of its own timing, its cells are the trace's, and the serial and
    /// critical-path seconds equal the fold over a demand per op.
    #[test]
    fn interned_shapes_read_back_bit_for_bit() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let mut x = b.fresh_ct(27);
        let y = b.fresh_ct(27);
        // Each (kind, level, flag) twenty times over, and all distinct
        // timings give more shapes than the planner's index starts with
        // room for: both ways to the plan's table are taken.
        for round in 0..80 {
            b.set_bootstrap_region(round % 4 < 2);
            let level = 27 - round % 2;
            let r = b.hrot(x, 1, level);
            let m = b.hmult_at(r, y, level);
            let s = b.hadd(m, x, level);
            x = b.hrescale_at(s, level);
        }
        b.cmult(x, 19);
        let long = b.build();
        let mut one = TraceBuilder::new(&ins);
        let z = one.fresh_ct(3);
        one.hrot(z, 2, 3);
        let one = one.build();

        // Three `u32`s per op.
        assert_eq!(std::mem::size_of::<PlannedOp>(), 12);
        let pool = [
            [6_000_000, 0, 0, 0, 3_000_000],
            [0, 0, 0, 0, 0],
            // The one above but for one tick of its duration.
            [1, 0, 0, 0, 0],
            [15_000_000, 15_000_000, 6_000_000, 18_000_000, 0],
        ];
        let repeated = |next: &mut dyn FnMut() -> u64| pool[(next() % 4) as usize];
        // 40 random bits: no two draws of a run coincide.
        let distinct = |next: &mut dyn FnMut() -> u64| [(); 5].map(|()| next() >> 24);
        let machine = MachineModel;
        for (trace, seed) in [(&long, 1), (&long, 2), (&one, 3)] {
            for all_distinct in [false, true] {
                let timings = if all_distinct {
                    random_timings(trace, seed, distinct)
                } else {
                    random_timings(trace, seed, repeated)
                };
                let plan = JobPlan::new(&machine, trace, &timings).unwrap();
                let mut clock = Clock::<Link>::new(trace.cells());
                let mut serial = Vec::new();
                for (op, timing) in trace.ops().zip(&timings) {
                    let i = op.index as usize;
                    let demand = machine.demand(timing);
                    let own = OpShape {
                        op: op.op,
                        level: op.level,
                        in_bootstrap: op.in_bootstrap,
                        demand,
                        next: 0,
                    };
                    assert_eq!(plan.shape(i).bits(), own.bits(), "op {i}");
                    let cells: Vec<u32> = op.operands.iter().map(|&s| trace.cell(s)).collect();
                    let start = i.checked_sub(1).map_or(0, |p| plan.ops[p].operands_end);
                    let end = plan.ops[i].operands_end;
                    assert_eq!(plan.operands[start as usize..end as usize], cells[..]);
                    let output = op.output.map(|slot| trace.cell(slot));
                    assert_eq!(plan.ops[i].output(), output);
                    let ready = clock.ready(op.in_bootstrap, cells.into_iter());
                    let at = Link {
                        ticks: ready.ticks + demand.duration,
                        op: op.index + 1,
                    };
                    clock.finish(output, at);
                    serial.push(demand.duration);
                }
                let serial: u64 = serial.into_iter().sum();
                assert_eq!(plan.serial, serial);
                assert_eq!(plan.critical_path, clock.latest().ticks);
                if all_distinct {
                    assert_eq!(plan.shapes.len(), trace.len());
                    assert_eq!(trace.len() > SHAPE_ROOM, trace == &long);
                } else if trace.len() > 1 {
                    assert!(plan.shapes.len() < trace.len(), "nothing was shared");
                }
            }
        }
    }

    #[test]
    fn empty_trace_has_empty_critical_path() {
        let ins = CkksInstance::ins1();
        let plan = plan_with(&TraceBuilder::new(&ins).build(), &[]);
        assert!(plan.is_empty());
        assert_eq!(plan.critical_path_seconds(), 0.0);
        assert!(plan.critical_path_ops().is_empty());
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
        let mut scheduler = MultiScheduler::new(MachineModel);
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
        // Job 0: an HMult, then a rescale of its product — NTT work on an
        // operand already on chip, so the HBM unit is free again while it
        // runs. Job 1: one tiny low-level CMult that waits for the HMult's
        // stream, is placed after the rescale (admission-order tie win), and
        // streams its operand while the rescale computes. The scheduler must
        // report job 1's completion first.
        let ins = CkksInstance::ins1();
        let mut b0 = TraceBuilder::new(&ins);
        let x = b0.fresh_ct(27);
        let m = b0.hmult_at(x, x, 27);
        b0.hrescale_at(m, 27);
        let t0 = b0.build();
        let mut b1 = TraceBuilder::new(&ins);
        let y = b1.fresh_ct(0);
        b1.cmult(y, 0);
        let t1 = b1.build();

        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let tm0 = sim.op_timings(&t0).unwrap();
        let tm1 = sim.op_timings(&t1).unwrap();
        let mut scheduler = MultiScheduler::new(MachineModel::from_config(sim.config()));
        scheduler.add_job(0, &t0, &tm0, 0.0).unwrap();
        scheduler.add_job(1, &t1, &tm1, 0.0).unwrap();
        let first = scheduler.run_until_completion().unwrap();
        let second = scheduler.run_until_completion().unwrap();
        assert_eq!(first.tag, 1, "short job must complete first");
        assert_eq!(second.tag, 0);
        assert!(first.finish_seconds < second.finish_seconds);
        assert_eq!(scheduler.run_until_completion(), None);
        let schedule = scheduler.finish();
        schedule.check_invariants().unwrap();
        let last_placed = |tag| schedule.ops.iter().rposition(|o| o.job == tag).unwrap();
        assert!(
            last_placed(0) < last_placed(1),
            "job 0 completes last but was placed first"
        );
    }

    #[test]
    fn ties_go_to_the_job_admitted_first() {
        // Two copies of one plan released together tie at every step; the
        // job admitted first (tag 5, not the smaller tag 3) places first.
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 2);
        let (machine, timings) = machine_and_timings(&ins, BtsConfig::bts_default(), &trace);
        let plan = Arc::new(JobPlan::new(&machine, &trace, &timings).unwrap());
        let mut scheduler = MultiScheduler::new(machine);
        scheduler.add_planned(5, Arc::clone(&plan), 0.0).unwrap();
        scheduler.add_planned(3, plan, 0.0).unwrap();
        let schedule = scheduler.finish();
        schedule.check_invariants().unwrap();
        let first = schedule.ops[0];
        assert_eq!((first.job, first.index), (5, 0));
        assert_eq!(first.start_seconds, 0.0);
        let second = schedule.ops.iter().find(|o| o.job == 3).unwrap();
        assert!(second.start_seconds >= first.start_seconds);
        assert!(schedule.job(5).unwrap().finish_seconds <= schedule.job(3).unwrap().finish_seconds);
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
        // The short job is released when the long one's second op ends, and
        // admitted first, so it wins that tie and starts there.
        let release = ticks::seconds(tm_long[0].ticks + tm_long[1].ticks);
        scheduler.add_job(1, &short, &tm_short, release).unwrap();
        scheduler.add_job(0, &long, &tm_long, 0.0).unwrap();
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
        assert!(j0.placed_ops > 0, "the long job started before the cancel");
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
    fn folding_and_keeping_schedulers_place_alike() {
        let ins = CkksInstance::ins1();
        let long = keyswitch_heavy(&ins, 5);
        let short = keyswitch_heavy(&ins, 2);
        let (machine, tm_long) = machine_and_timings(&ins, BtsConfig::bts_default(), &long);
        let (_, tm_short) = machine_and_timings(&ins, BtsConfig::bts_default(), &short);
        fn run<K: Keep>(
            s: &mut MultiScheduler<K>,
            jobs: [(&OpTrace, &[OpTiming], f64); 3],
        ) -> Vec<JobCompletion> {
            for (tag, (trace, timings, release)) in (0..).zip(jobs) {
                s.add_job(tag, trace, timings, release).unwrap();
            }
            std::iter::from_fn(|| s.run_until_completion()).collect()
        }
        let jobs = [
            (&long, tm_long.as_slice(), 0.0),
            (&short, tm_short.as_slice(), 0.0),
            (&short, tm_short.as_slice(), 1e-3),
        ];
        let mut kept = MultiScheduler::new(machine);
        let mut folded = MultiScheduler::folding(machine);
        folded.settle(f64::INFINITY);
        // The same completions, in the same order, at the same times…
        assert_eq!(run(&mut kept, jobs), run(&mut folded, jobs));
        let kept = kept.finish();
        kept.check_invariants().unwrap();
        // …and the same figures, bit for bit.
        let summary = folded.into_summary(None);
        let bits = |makespan: f64, serial: f64, critical: f64, util: [f64; FuKind::COUNT]| {
            let mut bits = vec![makespan.to_bits(), serial.to_bits(), critical.to_bits()];
            bits.extend(util.map(f64::to_bits));
            bits
        };
        assert_eq!(
            bits(
                summary.makespan_seconds,
                summary.serial_seconds,
                summary.critical_path_seconds,
                summary.utilizations
            ),
            bits(
                kept.makespan_seconds,
                kept.serial_seconds,
                kept.critical_path_seconds,
                kept.utilizations()
            )
        );
    }

    #[test]
    fn folded_utilizations_match_the_retained_ones_bitwise_even_for_idle_units() {
        // CMult chains never touch the NTTU or the BConvU: those classes sum
        // no ticks.
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

        // Summed as placed (a bound at +∞) or held back until the end (the
        // bound raised only to each completion), alike.
        for eager in [true, false] {
            let mut scheduler = MultiScheduler::folding(machine);
            if eager {
                scheduler.settle(f64::INFINITY);
            }
            scheduler.add_job(0, &trace, &timings, 0.0).unwrap();
            scheduler.add_job(1, &trace, &timings, 0.0).unwrap();
            while let Some(done) = scheduler.run_until_completion() {
                if !eager {
                    scheduler.settle(done.finish_seconds);
                }
            }
            let folded = scheduler.into_summary(None).utilizations;
            for (f, r) in folded.iter().zip(retained.utilizations()) {
                assert_eq!(f.to_bits(), r.to_bits());
            }
            assert_eq!(folded[FuKind::Nttu.index()].to_bits(), 0.0f64.to_bits());
            assert!(folded[FuKind::Hbm.index()] > 0.0);
        }
    }

    /// One op of a three-op trace charged `ticks` for its duration and,
    /// separately, for one unit's busy time: both are refused.
    fn refuses_timing(ticks: u64) {
        let ins = CkksInstance::ins1();
        let trace = keyswitch_heavy(&ins, 3);
        let (machine, timings) = machine_and_timings(&ins, BtsConfig::bts_default(), &trace);
        let charges: [fn(&mut OpTiming, u64); 2] =
            [|t, n| t.ticks = n, |t, n| t.cost.ntt_ticks = n];
        for charge in charges {
            let mut bad = timings.clone();
            charge(&mut bad[1], ticks);
            let Err(ScheduleError::InvalidTiming { op, seconds }) =
                JobPlan::new(&machine, &trace, &bad)
            else {
                panic!("{ticks} ticks were planned");
            };
            assert_eq!((op, seconds), (1, super::ticks::seconds(ticks)));
            let mut s = MultiScheduler::new(machine);
            assert!(s.add_job(0, &trace, &bad, 0.0).is_err());
            assert_eq!(s.active_jobs(), 0);
        }
    }

    #[test]
    fn timings_past_the_tick_range_are_refused() {
        refuses_timing(MAX_TICKS + 1);
    }

    #[test]
    fn infinite_timings_are_refused() {
        // What a saturating conversion makes of an infinite charge.
        refuses_timing(u64::MAX);
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
        // The last two are finite but past the tick range.
        let past = ticks::seconds(MAX_TICKS) * 1.001;
        let releases = [-1e-9, f64::NAN, f64::INFINITY, past, 1e300];
        for (tag, release) in (1..).zip(releases) {
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
        let machine = MachineModel;
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
