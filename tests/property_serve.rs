//! Property-based tests of the multi-DAG scheduling invariants behind
//! `bts-serve`: for any job mix, (a) per-job program order and bootstrap
//! barriers are respected, (b) no resource channel is oversubscribed,
//! (c) the merged makespan is at most the sum of serial runtimes (burst
//! arrivals) and at least the largest single-job critical path; plus release
//! respect under random arrivals, and determinism of full serve runs.
//!
//! And of the two things serving does to keep its cost linear in jobs:
//! (d) admitting copies of one trace through a shared `JobPlan` schedules
//! exactly like planning each copy afresh, and (e) utilizations a folding
//! scheduler sums as it places ops equal, bit for bit, the ones computed from
//! the timeline a keeping scheduler retains — live or clipped at a dead
//! machine's surviving makespan, at the scheduler and through `serve`.

use std::sync::Arc;

use proptest::prelude::*;

use bts::fault::FaultPlan;
use bts::params::CkksInstance;
use bts::sched::{
    schedule_jobs, FuKind, JobCompletion, JobPlan, Keep, MachineModel, MultiScheduler,
    ScheduleError,
};
use bts::serve::{serve, JobRequest, QueuePolicy, ServeOptions, ServeReport, SyntheticArrivals};
use bts::sim::{ticks, BtsConfig, OpTiming, OpTrace, Simulator};
use bts::telemetry::{self, Event};

mod common;
#[path = "common/deps.rs"]
mod deps;
use common::random_trace;
use deps::Deps;

/// A random mix of 1–4 jobs with per-job op counts derived from the seed.
fn random_job_mix(ins: &CkksInstance, seed: u64, jobs: usize, ops: usize) -> Vec<OpTrace> {
    (0..jobs)
        .map(|j| {
            let salt = (j as u64).wrapping_mul(0x9e3779b97f4a7c15);
            random_trace(ins, seed.wrapping_add(salt), ops, 9, 16)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn program_order_and_barriers_hold_for_any_job_mix(
        seed in any::<u64>(), jobs in 1usize..5, ops in 4usize..40
    ) {
        let ins = CkksInstance::ins1();
        let traces = random_job_mix(&ins, seed, jobs, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let timings: Vec<_> = traces.iter().map(|t| sim.op_timings(t).unwrap()).collect();
        let spec: Vec<_> = traces
            .iter()
            .zip(&timings)
            .enumerate()
            .map(|(j, (t, tm))| (j as u32, t, tm.as_slice(), 0.0))
            .collect();
        let multi = schedule_jobs(MachineModel::from_config(sim.config()), &spec);
        multi.check_invariants().unwrap();

        let eps = 1e-12 * multi.serial_seconds.max(1e-12);
        for (j, trace) in traces.iter().enumerate() {
            let deps = Deps::of(trace);
            let placed: Vec<_> = multi.ops.iter().filter(|o| o.job == j as u32).collect();
            prop_assert_eq!(placed.len(), trace.len());
            for (i, op) in placed.iter().enumerate() {
                // (a) per-job program order of placement…
                prop_assert_eq!(op.index, i);
                // …data dependencies…
                for &d in &deps.producers[i] {
                    prop_assert!(
                        op.start_seconds >= placed[d as usize].end_seconds - eps,
                        "job {} op {} starts before its producer {}", j, i, d
                    );
                }
                // …and per-job bootstrap barriers.
                for (k, earlier) in placed.iter().enumerate().take(i) {
                    if deps.segment[k] < deps.segment[i] {
                        prop_assert!(
                            op.start_seconds >= earlier.end_seconds - eps,
                            "job {} op {} crosses its barrier before op {}", j, i, k
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_channel_is_oversubscribed_across_jobs(
        seed in any::<u64>(), jobs in 2usize..5, ops in 4usize..40
    ) {
        let ins = CkksInstance::ins1();
        let traces = random_job_mix(&ins, seed, jobs, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let timings: Vec<_> = traces.iter().map(|t| sim.op_timings(t).unwrap()).collect();
        let spec: Vec<_> = traces
            .iter()
            .zip(&timings)
            .enumerate()
            .map(|(j, (t, tm))| (j as u32, t, tm.as_slice(), 0.0))
            .collect();
        let multi = schedule_jobs(MachineModel::from_config(sim.config()), &spec);
        for kind in FuKind::ALL {
            let mut intervals: Vec<(f64, f64)> = multi.busy[kind.index()]
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
    fn makespan_is_bracketed_by_critical_path_and_serial_sum(
        seed in any::<u64>(), jobs in 1usize..5, ops in 4usize..40
    ) {
        let ins = CkksInstance::ins1();
        let traces = random_job_mix(&ins, seed, jobs, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let timings: Vec<_> = traces.iter().map(|t| sim.op_timings(t).unwrap()).collect();
        let spec: Vec<_> = traces
            .iter()
            .zip(&timings)
            .enumerate()
            .map(|(j, (t, tm))| (j as u32, t, tm.as_slice(), 0.0))
            .collect();
        let multi = schedule_jobs(MachineModel::from_config(sim.config()), &spec);
        let serial_sum = multi.serial_seconds;
        let eps = 1e-9 * serial_sum.max(1e-12);
        prop_assert!(
            multi.makespan_seconds <= serial_sum + eps,
            "makespan {} exceeds serial sum {}", multi.makespan_seconds, serial_sum
        );
        let max_cp = multi
            .jobs
            .iter()
            .map(|j| j.critical_path_seconds)
            .fold(0.0f64, f64::max);
        prop_assert!(
            multi.makespan_seconds >= max_cp - eps,
            "makespan {} below the largest critical path {}", multi.makespan_seconds, max_cp
        );
    }

    #[test]
    fn release_times_are_respected(
        seed in any::<u64>(), jobs in 2usize..4, ops in 4usize..24,
        release_ms in 0.0f64..50.0
    ) {
        let ins = CkksInstance::ins1();
        let traces = random_job_mix(&ins, seed, jobs, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let timings: Vec<_> = traces.iter().map(|t| sim.op_timings(t).unwrap()).collect();
        // Staggered releases: job j may not start before j · release_ms.
        let spec: Vec<_> = traces
            .iter()
            .zip(&timings)
            .enumerate()
            .map(|(j, (t, tm))| (j as u32, t, tm.as_slice(), j as f64 * release_ms * 1e-3))
            .collect();
        let multi = schedule_jobs(MachineModel::from_config(sim.config()), &spec);
        multi.check_invariants().unwrap();
        for op in &multi.ops {
            let release = multi.job(op.job).unwrap().release_seconds;
            prop_assert!(op.start_seconds >= release - 1e-15);
        }
        let max_release = multi.jobs.iter().map(|j| j.release_seconds).fold(0.0f64, f64::max);
        prop_assert!(multi.makespan_seconds <= max_release + multi.serial_seconds + 1e-9);
    }
}

proptest! {
    // Full serve runs lower real bootstrap circuits, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn serve_runs_are_deterministic_and_consistent(
        seed in any::<u64>(), policy_idx in 0usize..3
    ) {
        let ins = CkksInstance::ins1();
        let policy = QueuePolicy::ALL[policy_idx];
        let jobs = SyntheticArrivals::new(ins, seed)
            .mean_interarrival_seconds(5e-3)
            .tenants(2)
            .generate(4);
        let options = ServeOptions::new(2).with_policy(policy);
        let a = serve(&jobs, options.clone()).unwrap();
        let b = serve(&jobs, options).unwrap();
        prop_assert!((a.makespan_seconds - b.makespan_seconds).abs() < 1e-18);
        let max_admit = a.jobs.iter().map(|j| j.admitted_seconds).fold(0.0f64, f64::max);
        prop_assert!(a.makespan_seconds <= max_admit + a.sum_serial_seconds() + 1e-9);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            prop_assert!((x.finish_seconds - y.finish_seconds).abs() < 1e-18);
            // Lifecycle ordering: arrival ≤ admission ≤ finish, and a job is
            // never faster than its own critical path.
            prop_assert!(x.admitted_seconds >= x.arrival_seconds - 1e-15);
            prop_assert!(x.finish_seconds >= x.admitted_seconds - 1e-15);
            prop_assert!(
                x.service_seconds() >= x.critical_path_seconds - 1e-12,
                "job {} served below its critical path", x.id
            );
        }
        let fairness = a.tenant_fairness();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&fairness));
    }
}

/// A few distinct random traces on one machine, with their charges — the
/// "distinct (workload, instance) pairs" of a stream.
struct Pairs {
    machine: MachineModel,
    traces: Vec<OpTrace>,
    timings: Vec<Vec<OpTiming>>,
}

impl Pairs {
    fn random(seed: u64, distinct: usize, ops: usize) -> Self {
        let ins = CkksInstance::ins1();
        let traces = random_job_mix(&ins, seed, distinct, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let timings = traces.iter().map(|t| sim.op_timings(t).unwrap()).collect();
        Self {
            machine: MachineModel::from_config(sim.config()),
            traces,
            timings,
        }
    }

    fn plans(&self) -> Vec<Arc<JobPlan>> {
        let planned = self.traces.iter().zip(&self.timings);
        planned
            .map(|(trace, timings)| {
                Arc::new(JobPlan::new(&self.machine, trace, timings).expect("one timing per op"))
            })
            .collect()
    }
}

/// Drives `scheduler` the way a serving loop does — `cap` jobs in flight, job
/// `j` (a copy of pair `j % distinct`) admitted through `admit(tag, pair,
/// release)` when a completion frees a slot — and hands every completion to
/// `on_completion`. After `stop_after` completions (if the stream gets that
/// far) the machine "dies": everything still in flight is cancelled, as
/// `serve` does at a failure time. Returns the scheduler, to be finished.
fn drive<K: Keep>(
    mut scheduler: MultiScheduler<K>,
    jobs: u32,
    cap: u32,
    stop_after: usize,
    mut admit: impl FnMut(&mut MultiScheduler<K>, u32, f64) -> Result<(), ScheduleError>,
    mut on_completion: impl FnMut(&mut MultiScheduler<K>, JobCompletion),
) -> MultiScheduler<K> {
    let mut reported = vec![false; jobs as usize];
    let mut next = 0u32;
    while next < jobs.min(cap) {
        admit(&mut scheduler, next, 1e-4 * f64::from(next)).expect("fresh tags, valid releases");
        next += 1;
    }
    let mut completions = 0usize;
    while let Some(done) = scheduler.run_until_completion() {
        reported[done.tag as usize] = true;
        completions += 1;
        if completions > stop_after {
            // The completion that exposes the death is not a real one.
            for tag in (0..next).filter(|&t| !reported[t as usize]) {
                assert!(scheduler.cancel_job(tag), "job {tag} was in flight");
            }
            break;
        }
        on_completion(&mut scheduler, done);
        if next < jobs {
            admit(&mut scheduler, next, done.finish_seconds).expect("fresh tags, valid releases");
            next += 1;
        }
    }
    scheduler
}

/// Busy fractions over `makespan` seconds with every reservation, in ticks,
/// clipped to it — the utilizations of a machine that died at its last
/// real completion. Ticks convert as the scheduler converts them
/// (`bts::sim::ticks`): the clip to the nearest tick, the busy sum once.
fn clipped_utilizations(busy: &[Vec<(u64, u64)>], makespan: f64) -> Vec<f64> {
    let clip = ticks::from_seconds(makespan).expect("a makespan in range");
    FuKind::ALL
        .iter()
        .map(|&kind| {
            if makespan <= 0.0 {
                return 0.0;
            }
            let reserved: u64 = busy[kind.index()]
                .iter()
                .map(|&(start, end)| end.min(clip) - start.min(clip))
                .sum();
            ticks::seconds(reserved) / makespan
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shared_plans_schedule_exactly_like_per_job_plans(
        seed in any::<u64>(), distinct in 1usize..4, jobs in 1u32..10, ops in 4usize..40,
        cap in 1u32..5, stop_after in 0usize..12
    ) {
        let pairs = Pairs::random(seed, distinct, ops);
        let plans = pairs.plans();
        let through_plans = drive(
            MultiScheduler::new(pairs.machine), jobs, cap, stop_after,
            |s, tag, release| {
                s.add_planned(tag, Arc::clone(&plans[tag as usize % distinct]), release)
            },
            |_, _| (),
        )
        .finish();
        let through_add_job = drive(
            MultiScheduler::new(pairs.machine), jobs, cap, stop_after,
            |s, tag, release| {
                let pair = tag as usize % distinct;
                s.add_job(tag, &pairs.traces[pair], &pairs.timings[pair], release)
            },
            |_, _| (),
        )
        .finish();
        through_plans.check_invariants().unwrap();
        // Timeline, per-job stats and makespan alike.
        prop_assert_eq!(&through_plans, &through_add_job);
        // The plans outlive every job that ran on them, and only the plans:
        // no scheduler state holds on to one.
        drop((through_plans, through_add_job));
        for plan in &plans {
            prop_assert_eq!(Arc::strong_count(plan), 1);
        }
    }

    #[test]
    fn utilizations_folded_at_placement_match_the_retained_timeline(
        seed in any::<u64>(), distinct in 1usize..4, jobs in 1u32..10, ops in 4usize..40,
        cap in 1u32..5, stop_after in 0usize..12, faulted in 0u64..4
    ) {
        let pairs = Pairs::random(seed, distinct, ops);
        let plans = pairs.plans();
        let plan = |tag: u32| Arc::clone(&plans[tag as usize % distinct]);
        // A transient fault makes a completion unreal: it frees its slot but
        // does not move the surviving makespan.
        let real = |done: &JobCompletion| (seed ^ u64::from(done.tag)) % 4 >= faulted;

        let retained = drive(
            MultiScheduler::new(pairs.machine), jobs, cap, stop_after,
            |s, tag, release| s.add_planned(tag, plan(tag), release),
            |_, _| (),
        )
        .finish();
        retained.check_invariants().unwrap();

        // A machine that cannot die: everything summed as it is placed.
        let mut eager = MultiScheduler::folding(pairs.machine);
        eager.settle(f64::INFINITY);
        let eager = drive(
            eager, jobs, cap, stop_after,
            |s, tag, release| s.add_planned(tag, plan(tag), release),
            |_, _| (),
        )
        .into_summary(None);
        prop_assert_eq!(bits(&eager.utilizations), bits(&retained.utilizations()));
        prop_assert_eq!(
            bits(&[eager.makespan_seconds, eager.serial_seconds, eager.critical_path_seconds]),
            bits(&[
                retained.makespan_seconds,
                retained.serial_seconds,
                retained.critical_path_seconds,
            ])
        );

        // A machine that may die: the bound follows the latest real
        // completion, and reservations ending after it are held back.
        let mut last_real = 0.0f64;
        let settling = drive(
            MultiScheduler::folding(pairs.machine), jobs, cap, stop_after,
            |s, tag, release| s.add_planned(tag, plan(tag), release),
            |s, done| {
                if real(&done) {
                    last_real = last_real.max(done.finish_seconds);
                    s.settle(last_real);
                }
            },
        );
        // It lived after all: nothing is clipped.
        let live = settling.clone().into_summary(None);
        prop_assert_eq!(bits(&live.utilizations), bits(&retained.utilizations()));
        prop_assert_eq!(live.makespan_seconds.to_bits(), retained.makespan_seconds.to_bits());

        // It died: every reservation clipped at the last real completion,
        // thrown-away placements and faulted completions included.
        let tick = |seconds: f64| ticks::from_seconds(seconds).expect("a time in range");
        let reservations: Vec<Vec<(u64, u64)>> = retained
            .busy
            .iter()
            .map(|unit| unit.iter().map(|b| (tick(b.start_seconds), tick(b.end_seconds))).collect())
            .collect();
        let dead = settling.into_summary(Some(last_real));
        prop_assert_eq!(dead.makespan_seconds.to_bits(), last_real.to_bits());
        prop_assert_eq!(
            bits(&dead.utilizations),
            bits(&clipped_utilizations(&reservations, last_real))
        );
    }
}

/// Serves `jobs` inside its own telemetry capture. The scheduler emits one
/// event per reservation, carrying its exact ticks, in placement order —
/// the record of the timeline that `serve` itself no longer retains.
fn serve_recorded(
    jobs: &[JobRequest],
    options: ServeOptions,
) -> (ServeReport, Vec<Vec<(u64, u64)>>) {
    let run = telemetry::capture();
    let report = serve(jobs, options).unwrap();
    let run = run.finish();
    assert_eq!(run.dropped, 0, "stream must be complete");
    let on_unit = |ev: &Event, kind: FuKind| {
        ev.track
            .strip_prefix(kind.label())
            .is_some_and(|channel| channel.starts_with('.'))
    };
    let reservations = FuKind::ALL
        .iter()
        .map(|&kind| {
            let of_kind = run.events.iter().filter(|ev| on_unit(ev, kind));
            of_kind
                .map(|ev| {
                    (
                        ev.arg_u64("start_ticks").unwrap(),
                        ev.arg_u64("end_ticks").unwrap(),
                    )
                })
                .collect()
        })
        .collect();
    (report, reservations)
}

proptest! {
    // Full serve runs lower real circuits, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn serve_reports_the_utilizations_of_the_timeline_it_no_longer_keeps(
        seed in any::<u64>(), die_at in 0.05f64..0.95
    ) {
        let jobs = SyntheticArrivals::new(CkksInstance::ins1(), seed)
            .mean_interarrival_seconds(4e-3)
            .tenants(2)
            .mix(vec![("bootstrap".to_string(), 2.0), ("amortized-mult".to_string(), 1.0)])
            .generate(6);
        let options = ServeOptions::new(2)
            .with_fault_plan(FaultPlan::none().with_seed(seed).with_transient_rate(0.3));

        // A run that lives: the plain busy sums over the scheduler's makespan.
        let (healthy, reservations) = serve_recorded(&jobs, options.clone());
        prop_assert_eq!(healthy.failed_at_seconds, None);
        let makespan = healthy.makespan_seconds;
        let expected: Vec<f64> = FuKind::ALL
            .iter()
            .map(|&kind| {
                let unit = &reservations[kind.index()];
                let reserved: u64 = unit.iter().map(|&(start, end)| end - start).sum();
                ticks::seconds(reserved) / makespan
            })
            .collect();
        prop_assert!(makespan > 0.0);
        prop_assert_eq!(bits(&healthy.utilizations), bits(&expected));

        // The same stream on a chip that dies mid-run: clipped at the last
        // real completion, thrown-away placements included.
        let (dead, reservations) =
            serve_recorded(&jobs, options.with_failure_at(die_at * makespan));
        prop_assert!(dead.failed_at_seconds.is_some());
        prop_assert_eq!(
            bits(&dead.utilizations),
            bits(&clipped_utilizations(&reservations, dead.makespan_seconds))
        );
    }
}
