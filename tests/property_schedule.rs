//! Property-based tests of the `bts-sched` scheduler invariants: for random
//! valid traces, `critical_path ≤ makespan ≤ serial`, schedules are
//! deterministic for a fixed trace/config, no functional-unit channel is
//! double-booked in any interval, scheduled runs are never slower than
//! serial — and `run_scheduled`, one job placed as the engine's sweep
//! charges it, and the multi-job scheduler running that job's plan alone are
//! both bit-equal to the single-trace list scheduler (`common/list_oracle.rs`).
//!
//! `run_scheduled` keeps figures, not a timeline, and builds no plan: every
//! timeline property below is checked on the retained schedule of the
//! trace's plan (`list_oracle::timeline`), whose figures the run's equal bit
//! for bit.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use bts::params::{BandwidthModel, CkksInstance};
use bts::sched::{FuKind, JobPlan, MachineModel, ScheduleExt};
use bts::sim::{ticks, BtsConfig, OpTrace, Simulator, TraceBuilder};

mod common;
#[path = "common/deps.rs"]
mod deps;
#[path = "common/list_oracle.rs"]
mod list_oracle;

use deps::Deps;

/// Random valid traces with this suite's historical shape (bootstrap toggles
/// every ~11 ops, live pool of 24).
fn random_trace(ins: &CkksInstance, seed: u64, ops: usize) -> OpTrace {
    common::random_trace(ins, seed, ops, 11, 24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn critical_path_le_makespan_le_serial(seed in any::<u64>(), ops in 5usize..80) {
        let ins = CkksInstance::ins1();
        let trace = random_trace(&ins, seed, ops);
        prop_assert!(trace.validate().is_ok());
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let run = sim.try_run_scheduled(&trace).unwrap();
        let s = &run.schedule;
        let eps = 1e-9 * s.serial_seconds.max(1e-12);
        prop_assert!(s.critical_path_seconds <= s.makespan_seconds + eps,
            "cp {} > makespan {}", s.critical_path_seconds, s.makespan_seconds);
        prop_assert!(s.makespan_seconds <= s.serial_seconds + eps,
            "makespan {} > serial {}", s.makespan_seconds, s.serial_seconds);
        // The serial reference the schedule carries is the engine's total.
        prop_assert!((s.serial_seconds - run.report.total_seconds).abs() <= eps);
        prop_assert!(run.report.parallel_speedup().unwrap() >= 1.0);
        // And the retained timeline's structural checker agrees.
        list_oracle::timeline(&sim, &trace).check_invariants().unwrap();
    }

    #[test]
    fn schedules_are_deterministic(seed in any::<u64>(), ops in 5usize..60) {
        let ins = CkksInstance::ins2();
        let trace = random_trace(&ins, seed, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let a = sim.try_run_scheduled(&trace).unwrap();
        let b = sim.try_run_scheduled(&trace).unwrap();
        prop_assert_eq!(a.schedule, b.schedule);
        prop_assert_eq!(
            list_oracle::timeline(&sim, &trace),
            list_oracle::timeline(&sim, &trace)
        );
    }

    #[test]
    fn no_unit_channel_is_double_booked(seed in any::<u64>(), ops in 5usize..80) {
        let ins = CkksInstance::ins1();
        let trace = random_trace(&ins, seed, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let schedule = list_oracle::timeline(&sim, &trace);
        for kind in FuKind::ALL {
            let mut intervals: Vec<(f64, f64)> = schedule.busy[kind.index()]
                .iter()
                .map(|b| (b.start_seconds, b.end_seconds))
                .collect();
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for pair in intervals.windows(2) {
                prop_assert!(
                    pair[1].0 >= pair[0].1 - 1e-18,
                    "{:?} overlap: {:?} then {:?}",
                    kind, pair[0], pair[1]
                );
            }
        }
    }

    #[test]
    fn dependencies_and_barriers_are_respected(seed in any::<u64>(), ops in 5usize..60) {
        let ins = CkksInstance::ins1();
        let trace = random_trace(&ins, seed, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let s = list_oracle::timeline(&sim, &trace);
        let deps = Deps::of(&trace);
        let eps = 1e-12 * s.serial_seconds.max(1e-12);
        for i in 0..trace.len() {
            for &d in &deps.producers[i] {
                prop_assert!(
                    s.ops[i].start_seconds >= s.ops[d as usize].end_seconds - eps,
                    "op {} starts before its producer {}", i, d
                );
            }
            for j in 0..i {
                if deps.segment[j] < deps.segment[i] {
                    prop_assert!(
                        s.ops[i].start_seconds >= s.ops[j].end_seconds - eps,
                        "op {} crosses the barrier before op {}", i, j
                    );
                }
            }
        }
    }

    #[test]
    fn run_scheduled_equals_the_list_scheduler_oracle(seed in any::<u64>(), ops in 0usize..80) {
        for ins in [CkksInstance::ins1(), CkksInstance::ins2()] {
            let trace = random_trace(&ins, seed, ops);
            let sim = Simulator::new(BtsConfig::bts_default(), ins);
            let machine = MachineModel::from_config(sim.config());
            let timings = sim.op_timings(&trace).unwrap();
            let oracle = list_oracle::list_schedule(&machine, &trace, &timings);
            let run = sim.try_run_scheduled(&trace).unwrap();
            let timeline = list_oracle::timeline(&sim, &trace);
            list_oracle::check_equal(&timeline, &oracle).map_err(TestCaseError::Fail)?;
            list_oracle::check_summary(&run.schedule, &timeline).map_err(TestCaseError::Fail)?;
            prop_assert_eq!(run.report.scheduled_seconds, Some(ticks::seconds(oracle.makespan)));
            prop_assert_eq!(
                run.report.critical_path_seconds,
                Some(ticks::seconds(oracle.critical_path))
            );
            // The witness chain the top-critical-ops report draws from: its
            // ops' charges add up to the critical path, tick for tick.
            let plan = JobPlan::new(&machine, &trace, &timings).unwrap();
            prop_assert_eq!(&plan, &JobPlan::from_trace(&sim, &trace).unwrap().0);
            let chain = plan.critical_path_ops();
            let chain_ticks: u64 = chain.iter().map(|&i| timings[i].ticks).sum();
            prop_assert_eq!(chain_ticks, oracle.critical_path);
            let top = plan.top_critical_ops(usize::MAX);
            prop_assert_eq!(top.len(), chain.len());
            prop_assert!(top.iter().all(|op| chain.contains(&op.index)));
            prop_assert!(top.iter().all(|op| op.seconds == timings[op.index].seconds()));
        }
    }

    /// The plan's critical chain is a chain of the trace: each op on it
    /// follows the one before through a data edge or a barrier, read off the
    /// trace by id — so the witness `top_critical_ops` reports is real.
    #[test]
    fn the_critical_witness_is_a_chain_of_the_trace(
        seed in any::<u64>(),
        ops in 0usize..200,
        fast in any::<bool>(),
    ) {
        let ins = CkksInstance::ins1();
        let trace = random_trace(&ins, seed, ops);
        let hbm = if fast { BandwidthModel::hbm_2tb() } else { BandwidthModel::hbm_1tb() };
        let sim = Simulator::new(BtsConfig::bts_default().with_hbm(hbm), ins);
        let (plan, _) = JobPlan::from_trace(&sim, &trace).unwrap();
        let deps = Deps::of(&trace);
        let chain = plan.critical_path_ops();
        prop_assert_eq!(chain.is_empty(), trace.is_empty());
        for pair in chain.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let data = deps.producers[b].contains(&(a as u32));
            let barrier = deps.segment[a] < deps.segment[b];
            prop_assert!(data || barrier, "ops {} and {} are not linked", a, b);
        }
    }

    /// The run places each op as the sweep charges it, from per-cell finish
    /// times rather than the plan's DAG; long traces cross many barrier
    /// segments, and at 2 TB/s reservations float inside their windows, so
    /// the two drivers of the placement rule meet every shape of placement.
    #[test]
    fn run_scheduled_summary_equals_the_retained_schedule(
        seed in any::<u64>(),
        ops in 0usize..1_500,
        fast in any::<bool>(),
    ) {
        let ins = CkksInstance::ins1();
        let trace = random_trace(&ins, seed, ops);
        let hbm = if fast { BandwidthModel::hbm_2tb() } else { BandwidthModel::hbm_1tb() };
        let sim = Simulator::new(BtsConfig::bts_default().with_hbm(hbm), ins);
        let run = sim.try_run_scheduled(&trace).unwrap();
        let timeline = list_oracle::timeline(&sim, &trace);
        list_oracle::check_summary(&run.schedule, &timeline).map_err(TestCaseError::Fail)?;
    }
}

#[test]
fn an_empty_trace_schedules_to_all_zeros() {
    let ins = CkksInstance::ins1();
    let trace = TraceBuilder::new(&ins).build();
    let sim = Simulator::new(BtsConfig::bts_default(), ins);
    let run = sim.try_run_scheduled(&trace).unwrap();
    let summary = &run.schedule;
    assert_eq!(
        (
            summary.makespan_seconds,
            summary.serial_seconds,
            summary.critical_path_seconds
        ),
        (0.0, 0.0, 0.0)
    );
    assert_eq!(run.report.parallel_speedup(), Some(1.0));
    assert_eq!(summary.utilizations, [0.0; FuKind::COUNT]);
    assert_eq!(run.report.scheduled_seconds, Some(0.0));
    let s = list_oracle::timeline(&sim, &trace);
    s.check_invariants().unwrap();
    assert!(s.ops.is_empty() && s.busy.iter().all(Vec::is_empty));
    assert!(s.timeline(8).is_empty());
    list_oracle::check_summary(summary, &s).unwrap();
    let oracle = list_oracle::list_schedule(&s.machine, &trace, &[]);
    list_oracle::check_equal(&s, &oracle).unwrap();
}
