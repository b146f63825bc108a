//! Scheduled execution as a simulator entry point: `run_scheduled` plans the
//! trace as one job ([`JobPlan`]: the engine's per-op timings plus the trace
//! DAG), runs it through the [`crate::MultiScheduler`] and returns the familiar
//! [`SimReport`] with the schedule-derived fields filled in, next to the
//! schedule's figures ([`ScheduleSummary`]). The run keeps numbers, not a
//! timeline: a caller that wants per-op placements admits the run's plan to a
//! scheduler and takes [`crate::MultiScheduler::finish`].

use std::sync::Arc;

use bts_sim::{HeOp, OpTrace, SimReport, Simulator, TraceError};

use crate::multi::{JobPlan, ScheduleSummary};

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

/// Result of a scheduled run: the serial-accounting [`SimReport`] with
/// `scheduled_seconds` / `critical_path_seconds` filled in, the one-job
/// schedule's figures (tag 0, released at 0) and the plan it ran.
#[derive(Debug, Clone)]
pub struct ScheduledRun {
    /// The simulator report; `total_seconds` is still the serial charge,
    /// `scheduled_seconds` the pipelined makespan.
    pub report: SimReport,
    /// Makespan, critical path, serial seconds and per-unit utilizations.
    pub schedule: ScheduleSummary,
    plan: Arc<JobPlan>,
}

impl ScheduledRun {
    /// The plan the run scheduled — admit it to a scheduler at 0 and
    /// [`crate::MultiScheduler::finish`] it for the run's whole timeline.
    pub fn plan(&self) -> &Arc<JobPlan> {
        &self.plan
    }

    /// The `n` largest ops on the critical path — the ops a latency
    /// optimization would have to attack first.
    pub fn top_critical_ops(&self, n: usize) -> Vec<CriticalOp> {
        let mut ops: Vec<CriticalOp> = self.plan.critical_ops().collect();
        ops.sort_by(|a, b| b.seconds.partial_cmp(&a.seconds).expect("finite durations"));
        ops.truncate(n);
        ops
    }
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
        let (plan, mut report) = JobPlan::from_trace(self, trace)?;
        let plan = Arc::new(plan);
        let schedule = ScheduleSummary::of_plan(Arc::clone(&plan));
        report.scheduled_seconds = Some(schedule.makespan_seconds);
        report.critical_path_seconds = Some(schedule.critical_path_seconds);
        Ok(ScheduledRun {
            report,
            schedule,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::{MultiScheduler, Schedule};
    use crate::resources::FuKind;
    use bts_params::CkksInstance;
    use bts_sim::{BtsConfig, TraceBuilder};

    /// The run's whole timeline: its plan admitted alone at 0, and kept.
    fn timeline_of(run: &ScheduledRun) -> Schedule {
        let mut scheduler = MultiScheduler::new(*run.plan().machine());
        scheduler
            .add_planned(0, Arc::clone(run.plan()), 0.0)
            .unwrap();
        scheduler.finish()
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
        timeline_of(&run).check_invariants().unwrap();
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
        timeline_of(&run2).check_invariants().unwrap();
        assert!(
            run2.report.parallel_speedup().unwrap() > 1.05,
            "speedup = {:?}",
            run2.report.parallel_speedup()
        );
    }

    #[test]
    fn top_critical_ops_are_sorted_and_on_the_path() {
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let run = sim.run_scheduled(&bsgs_like_trace(&ins));
        let top = run.top_critical_ops(3);
        assert!(!top.is_empty() && top.len() <= 3);
        for pair in top.windows(2) {
            assert!(pair[0].seconds >= pair[1].seconds);
        }
        for op in &top {
            assert!(run.plan().critical_path_ops().contains(&op.index));
        }
        assert!(!timeline_of(&run).timeline(8).is_empty());
    }

    fn schedule_of(trace: &OpTrace, config: BtsConfig) -> Schedule {
        timeline_of(&Simulator::new(config, trace.instance().clone()).run_scheduled(trace))
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
    fn invalid_traces_are_rejected() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.hmult(x, 4242);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        assert!(sim.try_run_scheduled(&b.build()).is_err());
    }
}
