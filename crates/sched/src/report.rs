//! Scheduled execution as a simulator entry point: `run_scheduled` runs the
//! trace as one job, tag 0, released at 0, and returns the familiar
//! [`SimReport`] with the schedule-derived fields filled in, next to the
//! schedule's figures ([`ScheduleSummary`]).
//!
//! With one job the list scheduler's greedy rule has one candidate — the
//! job's next op in program order — so the run schedules *inside* the sweep
//! that charges the trace: [`Simulator::run_indexed`] hands each op and its
//! timing to [`OneJob`], which places the op on the unit channels at once,
//! folds its reservations into the utilizations and extends the critical
//! path. No plan is built and no timing outlives its op: what the run keeps
//! is two times per ciphertext slot, the finish of the op that produced it
//! in the schedule and on the critical path, under the crate's one
//! readiness rule (`clock.rs`). A caller that wants the timeline or the
//! critical chain builds the job's plan ([`crate::JobPlan::from_trace`])
//! and admits it to a [`crate::MultiScheduler`].

use bts_sim::{OpTiming, OpTrace, SimReport, Simulator, TraceError, TracedOp};

use crate::clock::Clock;
use crate::multi::{emit_job_complete, Channels, Next, Owner, ScheduleSummary, UtilizationFold};
use crate::resources::MachineModel;

/// Result of a scheduled run: the serial-accounting [`SimReport`] with
/// `scheduled_seconds` / `critical_path_seconds` filled in, and the one-job
/// schedule's figures (tag 0, released at 0).
#[derive(Debug, Clone)]
pub struct ScheduledRun {
    /// The simulator report; `total_seconds` is still the serial charge,
    /// `scheduled_seconds` the pipelined makespan.
    pub report: SimReport,
    /// Makespan, critical path, serial seconds and per-unit utilizations.
    pub schedule: ScheduleSummary,
}

/// Scheduled execution for [`Simulator`]: the `run_scheduled` entry point the
/// serial `run`/`try_run` pair grows once `bts-sched` is linked in.
pub trait ScheduleExt {
    /// Checks the trace, resolves per-op charges, and executes the trace as a
    /// dependency DAG over the bounded functional units of the
    /// configuration's [`crate::MachineModel`].
    ///
    /// # Errors
    ///
    /// Returns the first structural defect found in the trace.
    fn try_run_scheduled(&self, trace: &OpTrace) -> Result<ScheduledRun, TraceError>;

    /// Panicking convenience over [`ScheduleExt::try_run_scheduled`],
    /// mirroring [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics if the trace fails [`OpTrace::validate`].
    fn run_scheduled(&self, trace: &OpTrace) -> ScheduledRun {
        match self.try_run_scheduled(trace) {
            Ok(run) => run,
            Err(e) => panic!("invalid op trace: {e}"),
        }
    }
}

impl ScheduleExt for Simulator {
    fn try_run_scheduled(&self, trace: &OpTrace) -> Result<ScheduledRun, TraceError> {
        let mut job = OneJob::new(MachineModel::from_config(self.config()), trace);
        let mut report = self.run_indexed(trace, |op, timing| job.place(op, timing))?;
        let schedule = job.finish();
        report.scheduled_seconds = Some(schedule.makespan_seconds);
        report.critical_path_seconds = Some(schedule.critical_path_seconds);
        Ok(ScheduledRun { report, schedule })
    }
}

/// One job released at 0, placed op by op in program order as the sweep
/// charges it: the same placement, float for float, as the job's plan alone
/// on a folding [`crate::MultiScheduler`], which would pick each of these ops
/// as its only candidate.
struct OneJob {
    machine: MachineModel,
    channels: Channels<UtilizationFold>,
    /// Per slot, of the op producing it: its finish in the schedule and its
    /// earliest finish on the critical path. The latest of each is the
    /// makespan and the critical path so far.
    clock: Clock<[f64; 2]>,
    serial: f64,
    ops: usize,
    /// Read once per run, like the scheduler's one read per placement loop.
    telemetry_on: bool,
}

impl OneJob {
    fn new(machine: MachineModel, trace: &OpTrace) -> Self {
        let mut channels = Channels::<UtilizationFold>::default();
        // One job run to its end: nothing it places is ever clipped.
        channels.keep.settle(f64::INFINITY);
        Self {
            machine,
            channels,
            clock: Clock::new(trace.slot_count()),
            serial: 0.0,
            ops: trace.len(),
            telemetry_on: bts_telemetry::enabled(),
        }
    }

    /// Places `op`, the next op of a validated trace, charged `timing`.
    fn place(&mut self, op: &TracedOp<'_>, timing: &OpTiming) {
        let demand = self.machine.demand(timing);
        let [ready, chain] = self.clock.ready(op.in_bootstrap, op.operands);
        let next = Next::new(0, ready, &demand);
        let start = self.channels.earliest_start(&next);
        let end = start + demand.duration;
        let earliest = chain + demand.duration;
        let index = op.index as usize;
        let owner = self.telemetry_on.then_some(Owner {
            job: 0,
            index,
            op: op.op,
            level: op.level,
        });
        self.channels.reserve(start, &next, &demand.busy, owner);
        self.clock.finish(op.output, [end, earliest]);
        self.serial += demand.duration;
        if self.telemetry_on && index + 1 == self.ops {
            let [makespan, critical_path] = self.clock.latest();
            emit_job_complete(0, makespan, critical_path, self.serial);
        }
    }

    fn finish(self) -> ScheduleSummary {
        let [makespan, critical_path] = self.clock.latest();
        ScheduleSummary {
            makespan_seconds: makespan,
            serial_seconds: self.serial,
            critical_path_seconds: critical_path,
            utilizations: self.channels.keep.utilizations(makespan, f64::INFINITY),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::multi::{JobPlan, MultiScheduler, Schedule};
    use crate::resources::FuKind;
    use bts_params::CkksInstance;
    use bts_sim::{BtsConfig, TraceBuilder};

    /// The whole timeline of `trace` run on `sim`: its plan admitted alone at
    /// 0 and kept — whose figures the streamed run's equal bit for bit.
    fn timeline_of(sim: &Simulator, trace: &OpTrace) -> Schedule {
        let (plan, _) = JobPlan::from_trace(sim, trace).unwrap();
        let mut scheduler = MultiScheduler::new(*plan.machine());
        scheduler.add_planned(0, Arc::new(plan), 0.0).unwrap();
        let timeline = scheduler.finish();
        let run = sim.run_scheduled(trace);
        let bits = |makespan: f64, critical: f64, serial: f64, util: [f64; FuKind::COUNT]| {
            let mut bits = vec![makespan.to_bits(), critical.to_bits(), serial.to_bits()];
            bits.extend(util.map(f64::to_bits));
            bits
        };
        let s = &run.schedule;
        assert_eq!(
            bits(
                s.makespan_seconds,
                s.critical_path_seconds,
                s.serial_seconds,
                s.utilizations
            ),
            bits(
                timeline.makespan_seconds,
                timeline.critical_path_seconds,
                timeline.serial_seconds,
                timeline.utilizations()
            )
        );
        timeline
    }

    fn bsgs_like_trace(ins: &CkksInstance) -> OpTrace {
        // A baby-step/giant-step-shaped stage: independent rotations of one
        // ciphertext, each followed by a plaintext product and folded into an
        // accumulator — the overlap pattern of C2S/S2C and convolutions.
        let mut b = TraceBuilder::new(ins);
        let x = b.fresh_ct(27);
        let mut acc = b.pmult(x, 27);
        for r in 1..6 {
            let rot = b.hrot(x, r, 27);
            let prod = b.pmult(rot, 27);
            acc = b.hadd(acc, prod, 27);
        }
        b.hrescale_at(acc, 27);
        b.build()
    }

    #[test]
    fn run_scheduled_fills_the_report_fields() {
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let trace = bsgs_like_trace(&ins);
        let run = sim.run_scheduled(&trace);
        timeline_of(&sim, &trace).check_invariants().unwrap();
        let serial = sim.run(&trace);
        assert!((run.report.total_seconds - serial.total_seconds).abs() < 1e-15);
        let scheduled = run.report.scheduled_seconds.unwrap();
        assert!(scheduled <= serial.total_seconds);
        assert!(run.report.critical_path_seconds.unwrap() <= scheduled + 1e-15);
        assert!(run.report.parallel_speedup().unwrap() >= 1.0);
    }

    #[test]
    fn bsgs_stage_shows_real_overlap_when_bandwidth_allows() {
        let ins = CkksInstance::ins1();
        // At the paper's 1 TB/s design point the machine is evk-streaming
        // bound: the schedule matches serial almost exactly and HBM stays
        // saturated over the makespan.
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let run = sim.run_scheduled(&bsgs_like_trace(&ins));
        assert!(run.schedule.utilizations[FuKind::Hbm.index()] > 0.9);
        // The Fig. 9 2 TB/s ablation makes compute matter, and the scheduler
        // overlaps it with the key streams of neighbouring rotations.
        let fast = Simulator::new(
            BtsConfig::bts_default().with_hbm(bts_params::BandwidthModel::hbm_2tb()),
            ins.clone(),
        );
        let run2 = fast.run_scheduled(&bsgs_like_trace(&ins));
        timeline_of(&fast, &bsgs_like_trace(&ins))
            .check_invariants()
            .unwrap();
        assert!(
            run2.report.parallel_speedup().unwrap() > 1.05,
            "speedup = {:?}",
            run2.report.parallel_speedup()
        );
    }

    #[test]
    fn top_critical_ops_are_sorted_and_on_the_path() {
        // The run builds no plan; the chain comes from the job's plan.
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let trace = bsgs_like_trace(&ins);
        let (plan, _) = JobPlan::from_trace(&sim, &trace).unwrap();
        let top = plan.top_critical_ops(3);
        assert!(!top.is_empty() && top.len() <= 3);
        for pair in top.windows(2) {
            assert!(pair[0].seconds >= pair[1].seconds);
        }
        for op in &top {
            assert!(plan.critical_path_ops().contains(&op.index));
        }
        let all = plan.top_critical_ops(usize::MAX);
        assert_eq!(all.len(), plan.critical_path_ops().len());
        assert!(!timeline_of(&sim, &trace).timeline(8).is_empty());
    }

    fn schedule_of(trace: &OpTrace, config: BtsConfig) -> Schedule {
        timeline_of(&Simulator::new(config, trace.instance().clone()), trace)
    }

    #[test]
    fn dependent_chain_degenerates_to_serial() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let mut cur = b.hmult(x, x);
        for _ in 0..4 {
            cur = b.hmult_at(cur, cur, 27);
        }
        let trace = b.build();
        let s = schedule_of(&trace, BtsConfig::bts_default());
        s.check_invariants().unwrap();
        // A pure key-switch chain is HBM-bound back to back: no overlap.
        assert!((s.makespan_seconds - s.serial_seconds).abs() < 1e-12 * s.serial_seconds);
        assert!((s.critical_path_seconds - s.serial_seconds).abs() < 1e-12 * s.serial_seconds);
        assert!((s.parallel_speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_mixed_ops_overlap() {
        // Rescales and additions on ciphertexts unrelated to a string of
        // HMults: their compute hides under the HMults' evk streaming.
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let y = b.fresh_ct(27);
        for _ in 0..4 {
            b.hmult_at(x, x, 27);
            b.hrescale_at(y, 27);
            b.hadd(y, y, 27);
        }
        let trace = b.build();
        let s = schedule_of(&trace, BtsConfig::bts_default());
        s.check_invariants().unwrap();
        assert!(
            s.parallel_speedup() > 1.1,
            "speedup = {}",
            s.parallel_speedup()
        );
        assert!(s.makespan_seconds >= s.critical_path_seconds);
    }

    #[test]
    fn schedules_are_deterministic() {
        let ins = CkksInstance::ins2();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(39);
        let r = b.hrot(x, 5, 39);
        let m = b.hmult_at(r, x, 39);
        b.hrescale_at(m, 39);
        b.hadd(r, m, 39);
        let trace = b.build();
        let a = schedule_of(&trace, BtsConfig::bts_default());
        let b2 = schedule_of(&trace, BtsConfig::bts_default());
        assert_eq!(a, b2);
    }

    #[test]
    fn barriers_serialize_segments_even_without_data_edges() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let y = b.fresh_ct(27);
        b.hrescale_at(x, 27); // segment 0
        b.set_bootstrap_region(true);
        b.hrescale_at(y, 27); // segment 1, independent data-wise
        let trace = b.build();
        let s = schedule_of(&trace, BtsConfig::bts_default());
        s.check_invariants().unwrap();
        assert!(s.ops[1].start_seconds >= s.ops[0].end_seconds - 1e-18);
    }

    #[test]
    fn reservations_float_inside_the_window() {
        // op0: HMult (NTTU busy ~76% of window, HBM full). op1: rescale of
        // op0's output — its NTTU reservation must wait for op0's NTTU to
        // drain only, not for a whole extra window.
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let m = b.hmult(x, x);
        b.hrescale_at(m, 27);
        let trace = b.build();
        let s = schedule_of(&trace, BtsConfig::bts_default());
        s.check_invariants().unwrap();
        // Dependent: rescale starts exactly when the HMult finishes.
        assert!((s.ops[1].start_seconds - s.ops[0].end_seconds).abs() < 1e-15);
    }

    #[test]
    fn the_streamed_run_emits_the_events_of_its_plan_run_alone() {
        // Both runs emit the engine track from their one sweep and the unit
        // tracks from the one placement rule; only the interleaving of
        // tracks differs, and the exporter orders events by track, stably.
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(
            BtsConfig::bts_default().with_hbm(bts_params::BandwidthModel::hbm_2tb()),
            ins.clone(),
        );
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let m = b.hmult(x, x);
        b.set_bootstrap_region(true);
        let r = b.hrot(x, 3, 27);
        b.hadd(r, m, 27);
        let trace = b.build();
        let by_track = |run: bts_telemetry::Capture| {
            let mut events = run.finish().events;
            events.sort_by(|a, b| (&a.process, &a.track).cmp(&(&b.process, &b.track)));
            events
        };
        let planned = bts_telemetry::capture();
        let (plan, _) = JobPlan::from_trace(&sim, &trace).unwrap();
        let mut scheduler = MultiScheduler::folding(*plan.machine());
        scheduler.settle(f64::INFINITY);
        scheduler.add_planned(0, Arc::new(plan), 0.0).unwrap();
        scheduler.run_to_end();
        let planned = by_track(planned);
        let streamed = bts_telemetry::capture();
        sim.run_scheduled(&trace);
        let streamed = by_track(streamed);
        for track in ["engine", "NTTU.0", "HBM.0", "sched"] {
            assert!(
                streamed.iter().any(|e| e.track == track),
                "no {track} event"
            );
        }
        assert_eq!(streamed, planned);
    }

    #[test]
    fn invalid_traces_are_rejected() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.hmult(x, 4242);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        assert!(sim.try_run_scheduled(&b.build()).is_err());
    }

    #[test]
    fn an_invalid_config_is_refused_not_scheduled() {
        // A zero clock would schedule every op at infinite seconds.
        let ins = CkksInstance::ins1();
        let trace = bsgs_like_trace(&ins);
        let mut config = BtsConfig::bts_default();
        config.frequency_hz = 0.0;
        let refused = TraceError::InvalidConfig(config.validate().unwrap_err());
        let sim = Simulator::new(config, ins);
        assert_eq!(sim.try_run_scheduled(&trace).err(), Some(refused));
    }
}
