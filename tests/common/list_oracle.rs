//! The single-trace list scheduler `run_scheduled` used to ride, kept as a
//! test oracle: one forward pass that places every op of one trace, in
//! program order, at the earliest start its producers, its bootstrap barrier
//! and the unit channels allow. `#[path]`-included by the suites that hold
//! `ScheduleExt::run_scheduled` (one job placed as the sweep charges it) and
//! the multi-job scheduler bit-equal to it.
//!
//! It reads the trace's dependences by ciphertext id ([`crate::deps`], which
//! every suite including this file includes as `deps`), not through the
//! per-cell rule the scheduler runs on, and computes its own critical path,
//! in ticks as the scheduler does: each time is converted to seconds once,
//! by `bts::sim::ticks::seconds`, where it meets a schedule's.
//!
//! A scheduled run keeps figures, not a timeline, and builds no plan, so the
//! timeline the oracle is compared with is the retained one [`timeline`]
//! takes: the trace's plan admitted alone at 0 to a scheduler that keeps
//! what it places. That timeline's figures are the run's, bit for bit
//! ([`check_summary`]).

use std::sync::Arc;

use bts::sched::{FuKind, JobPlan, MachineModel, MultiScheduler, Schedule, ScheduleSummary};
use bts::sim::{ticks, OpTiming, OpTrace, Simulator};

use crate::deps::Deps;

/// The whole timeline of `trace` scheduled alone on `sim`: its plan
/// admitted at 0 and every placement kept ([`MultiScheduler::finish`]).
pub fn timeline(sim: &Simulator, trace: &OpTrace) -> Schedule {
    let (plan, _) = JobPlan::from_trace(sim, trace).expect("the trace validates");
    let mut scheduler = MultiScheduler::new(*plan.machine());
    scheduler
        .add_planned(0, Arc::new(plan), 0.0)
        .expect("a fresh scheduler admits a plan for its own machine at 0");
    scheduler.finish()
}

/// Holds a run's figures bit-equal to those of its retained timeline:
/// makespan, critical path, serial seconds and every unit's utilization.
pub fn check_summary(summary: &ScheduleSummary, retained: &Schedule) -> Result<(), String> {
    let figures = |makespan: f64, critical: f64, serial: f64, util: [f64; FuKind::COUNT]| {
        let mut bits = vec![makespan.to_bits(), critical.to_bits(), serial.to_bits()];
        bits.extend(util.map(f64::to_bits));
        bits
    };
    let folded = figures(
        summary.makespan_seconds,
        summary.critical_path_seconds,
        summary.serial_seconds,
        summary.utilizations,
    );
    let kept = figures(
        retained.makespan_seconds,
        retained.critical_path_seconds,
        retained.serial_seconds,
        retained.utilizations(),
    );
    if folded == kept {
        Ok(())
    } else {
        Err(format!(
            "the run's figures {summary:?} differ from its retained timeline's (bits {folded:?} vs {kept:?})"
        ))
    }
}

/// What the oracle computes for one trace, in ticks.
#[derive(Debug)]
pub struct ListSchedule {
    /// Per op, in program order: `(start, end)` of its latency window.
    pub windows: Vec<(u64, u64)>,
    /// Per unit class, in placement order: `(op, start, end)`.
    pub busy: [Vec<(usize, u64, u64)>; FuKind::COUNT],
    pub makespan: u64,
    pub serial: u64,
    pub critical_path: u64,
}

pub fn list_schedule(
    machine: &MachineModel,
    trace: &OpTrace,
    timings: &[OpTiming],
) -> ListSchedule {
    assert_eq!(timings.len(), trace.len(), "one timing per op");
    let deps = Deps::of(trace);
    // When each unit class's one channel frees.
    let mut horizons = [0u64; FuKind::COUNT];
    let mut busy: [Vec<(usize, u64, u64)>; FuKind::COUNT] = Default::default();
    let mut windows = Vec::with_capacity(trace.len());
    // Per op, its finish in the schedule and its earliest finish on the
    // critical path, given unbounded units.
    let mut finish = vec![0u64; trace.len()];
    let mut earliest = vec![0u64; trace.len()];
    let (mut serial, mut makespan, mut critical_path) = (0u64, 0u64, 0u64);
    // The max of each over all ops of earlier segments: a running max
    // snapshotted at segment boundaries.
    let (mut barrier, mut chain_barrier) = (0u64, 0u64);
    for (i, timing) in timings.iter().enumerate() {
        let demand = machine.demand(timing);
        serial += demand.duration;
        if i > 0 && deps.segment[i] != deps.segment[i - 1] {
            (barrier, chain_barrier) = (makespan, critical_path);
        }
        let producers = deps.producers[i].iter().map(|&d| d as usize);
        let chain = producers
            .clone()
            .fold(chain_barrier, |t, d| t.max(earliest[d]));
        earliest[i] = chain + demand.duration;
        critical_path = critical_path.max(earliest[i]);
        let mut start = producers.fold(barrier, |t, d| t.max(finish[d]));
        // The unit frees at h, and the op's reservation of b ticks must end
        // within the window [s, s + d], so s ≥ h + b − d.
        for k in (0..FuKind::COUNT).filter(|&k| demand.busy[k] > 0) {
            start = start.max((horizons[k] + demand.busy[k]).saturating_sub(demand.duration));
        }
        let end = start + demand.duration;
        for k in (0..FuKind::COUNT).filter(|&k| demand.busy[k] > 0) {
            let res_start = start.max(horizons[k]);
            let res_end = res_start + demand.busy[k];
            horizons[k] = res_end;
            busy[k].push((i, res_start, res_end));
        }
        finish[i] = end;
        makespan = makespan.max(end);
        windows.push((start, end));
    }
    ListSchedule {
        windows,
        busy,
        makespan,
        serial,
        critical_path,
    }
}

/// Holds a one-job `schedule` bit-equal to the oracle: every window, every
/// reservation, makespan, serial and critical-path seconds.
pub fn check_equal(schedule: &Schedule, oracle: &ListSchedule) -> Result<(), String> {
    let seconds = |(start, end): (u64, u64)| (ticks::seconds(start), ticks::seconds(end));
    let windows: Vec<(f64, f64)> = schedule
        .ops
        .iter()
        .map(|o| (o.start_seconds, o.end_seconds))
        .collect();
    let expected: Vec<(f64, f64)> = oracle.windows.iter().map(|&w| seconds(w)).collect();
    if windows != expected {
        return Err("op windows differ from the list-scheduler oracle".into());
    }
    if schedule
        .ops
        .iter()
        .enumerate()
        .any(|(i, o)| o.job != 0 || o.index != i)
    {
        return Err("a one-job schedule is not tag 0 in program order".into());
    }
    for kind in FuKind::ALL {
        let placed: Vec<(usize, f64, f64)> = schedule.busy[kind.index()]
            .iter()
            .map(|b| (b.placement, b.start_seconds, b.end_seconds))
            .collect();
        let expected: Vec<(usize, f64, f64)> = oracle.busy[kind.index()]
            .iter()
            .map(|&(op, start, end)| (op, ticks::seconds(start), ticks::seconds(end)))
            .collect();
        if placed != expected {
            return Err(format!(
                "{} reservations differ from the oracle",
                kind.label()
            ));
        }
    }
    for (what, got, want) in [
        ("makespan", schedule.makespan_seconds, oracle.makespan),
        ("serial", schedule.serial_seconds, oracle.serial),
        (
            "critical path",
            schedule.critical_path_seconds,
            oracle.critical_path,
        ),
    ] {
        let want = ticks::seconds(want);
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "{what} seconds {got:e} differ from the oracle's {want:e}"
            ));
        }
    }
    Ok(())
}
