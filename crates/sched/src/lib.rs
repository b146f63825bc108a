//! # bts-sched
//!
//! Dependency-aware execution of BTS op traces: instead of charging every
//! traced op serially (a sum-of-costs upper bound), this crate executes the
//! trace as a **DAG over bounded functional units** so independent work
//! overlaps the way the accelerator's pipelines do — rescales and
//! element-wise tails slide under the evaluation-key streams of neighbouring
//! key-switches, the pattern behind the paper's Fig. 8 and the massive
//! residue-polynomial parallelism its evaluation exploits.
//!
//! A trace is its own DAG: an op depends on the producers of its operand
//! slots, and every bootstrap-region entry or exit is a full barrier. One
//! readiness rule (`clock`) reads that off the trace — per value cell
//! ([`bts_sim::OpTrace::cell`]: a ring over the trace's read window, plus
//! the inputs) the finish of the op that wrote it, plus a barrier
//! snapshotted whenever `in_bootstrap` flips — and builds no edge list. On
//! top of it:
//!
//! 1. [`MachineModel`] (`resources`) — one exclusive channel each for the
//!    NTTU, BConvU, element-wise units and the HBM stream, with per-op
//!    occupancy taken from the engine's [`bts_sim::OpCost`] breakdowns.
//! 2. [`MultiScheduler`] / [`Schedule`] (`multi`) — the one list scheduler:
//!    a *set* of tagged jobs (each an immutable [`JobPlan`]: demands, cells
//!    and the critical path)
//!    with per-job barriers and release times, every op placed at the
//!    earliest start compatible with its dependencies, barriers and unit
//!    reservations, so ops of one job overlap and ops of different jobs
//!    interleave on the units, with
//!    `critical_path ≤ makespan ≤ max(release) + serial` a structural
//!    guarantee. Its type decides what is kept ([`Keep`]):
//!    [`MultiScheduler::new`] keeps the [`Timeline`] that
//!    [`MultiScheduler::finish`] returns (per-op windows, per-unit busy
//!    intervals, a Fig. 8-style timeline); `bts-serve` uses
//!    [`MultiScheduler::folding`], which sums utilizations as it places ops
//!    and keeps figures ([`ScheduleSummary`]). Bad input is refused as a
//!    [`ScheduleError`] (`error`).
//!
//! [`ScheduleExt::run_scheduled`] (`report`) is the one-job case, filling in
//! the [`bts_sim::SimReport`]'s `scheduled_seconds` /
//! `critical_path_seconds`. One job released at 0 is placed in program
//! order, so the run places each op, under the scheduler's one placement
//! rule, as soon as the engine's sweep has charged it, and builds no plan;
//! a replayed copy of the trace's repeated ops that region flips bracket is
//! placed as its cache record's first placement, shifted.
//!
//! Every time the crate keeps is integer ticks ([`bts_sim::ticks`]), so
//! maxima and sums are exact and a placement entered at a barrier shifts
//! by whole ticks with it. The public surface converts at the edge:
//! releases and settled bounds in, completions, schedules and summaries
//! out, in seconds.
//!
//! ```
//! use std::sync::Arc;
//!
//! use bts_params::CkksInstance;
//! use bts_sched::{JobPlan, MultiScheduler, ScheduleExt};
//! use bts_sim::{BtsConfig, Simulator, TraceBuilder};
//!
//! let ins = CkksInstance::ins1();
//! let mut b = TraceBuilder::new(&ins);
//! let x = b.fresh_ct(ins.max_level());
//! // Independent rotations of one ciphertext (a BSGS stage): their compute
//! // overlaps the evaluation-key streaming of their neighbours.
//! let r1 = b.hrot(x, 1, ins.max_level());
//! let r2 = b.hrot(x, 2, ins.max_level());
//! let s = b.hadd(r1, r2, ins.max_level());
//! b.hrescale_at(s, ins.max_level());
//!
//! let sim = Simulator::new(BtsConfig::bts_default(), ins);
//! let trace = b.build();
//! let run = sim.run_scheduled(&trace);
//! let speedup = run.report.parallel_speedup().unwrap();
//! assert!(speedup >= 1.0);
//! assert!(run.schedule.makespan_seconds <= run.report.total_seconds);
//!
//! // The run kept figures, not placements. For the timeline, plan the job
//! // and admit the plan to a scheduler that keeps what it places.
//! let (plan, _) = JobPlan::from_trace(&sim, &trace)?;
//! let mut scheduler = MultiScheduler::new(*plan.machine());
//! scheduler.add_planned(0, Arc::new(plan), 0.0)?;
//! let timeline = scheduler.finish();
//! assert_eq!(timeline.makespan_seconds, run.schedule.makespan_seconds);
//! assert_eq!(timeline.ops.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod error;
mod multi;
mod report;
mod resources;

// The unit classes live beside the key-switch schedule whose phases they
// label; `bts_sched::FuKind` is the same type.
pub use bts_sim::FuKind;
pub use error::ScheduleError;
pub use multi::{
    schedule_jobs, BusyInterval, CriticalOp, JobCompletion, JobPlan, JobStats, Keep,
    MultiScheduler, Schedule, ScheduleSummary, ScheduledOp, Timeline, UtilizationFold,
};
pub use report::{ScheduleExt, ScheduledRun};
pub use resources::{MachineModel, OpDemand};
