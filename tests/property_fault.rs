//! Property-based tests of the fault-injection layer (`bts-fault`) and its
//! integration into `bts-serve` and `bts-cluster`: (a) fault plans and whole
//! faulted runs are seed-deterministic down to the bit, (b) a zero-fault plan
//! is observationally invisible — reports match the fault-free run bitwise,
//! (c) every submitted job resolves to exactly one of completed/shed, never
//! both, (d) the telemetry stream of a faulted run is itself reproducible
//! event for event, and (e) failover is causal: a chip that dies is served
//! once, with everything it held at the time — what it shed stays shed, what
//! it cut is re-placed once, and its report is plain serving of its shard
//! (`BtsServer::serve` with the chip's failure time).

use std::collections::HashSet;

use proptest::prelude::*;

use bts::cluster::{
    serve_cluster, ChipSpec, ClusterOptions, FaultPlan, Interconnect, PlacementPolicy, RetryPolicy,
};
use bts::params::CkksInstance;
use bts::serve::{
    serve, BtsServer, JobRequest, ServeOptions, ServeReport, ShedReason, SyntheticArrivals,
};
use bts::sim::ArchPreset;
use bts::telemetry::{self, Event};

/// A seeded multi-tenant stream mixing bootstrap and amortized-mult jobs.
fn random_stream(seed: u64, jobs: usize, tenants: u32) -> Vec<JobRequest> {
    SyntheticArrivals::new(CkksInstance::ins1(), seed)
        .mean_interarrival_seconds(4e-3)
        .tenants(tenants)
        .mix(vec![
            ("bootstrap".to_string(), 2.0),
            ("amortized-mult".to_string(), 1.0),
        ])
        .generate(jobs)
}

/// Bitwise equality of two serve reports over everything fault injection can
/// perturb: completions (ids, admission, finish), sheds, and the makespan.
fn assert_reports_bitwise_equal(a: &ServeReport, b: &ServeReport) {
    assert_eq!(a.makespan_seconds.to_bits(), b.makespan_seconds.to_bits());
    assert_eq!(a.jobs.len(), b.jobs.len());
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(ja.id, jb.id);
        assert_eq!(ja.attempts, jb.attempts);
        assert_eq!(ja.admitted_seconds.to_bits(), jb.admitted_seconds.to_bits());
        assert_eq!(ja.finish_seconds.to_bits(), jb.finish_seconds.to_bits());
    }
    assert_eq!(a.shed.len(), b.shed.len());
    for (sa, sb) in a.shed.iter().zip(&b.shed) {
        assert_eq!(sa.id, sb.id);
        assert_eq!(sa.reason, sb.reason);
        assert_eq!(sa.shed_seconds.to_bits(), sb.shed_seconds.to_bits());
    }
    for (ua, ub) in a.utilizations.iter().zip(&b.utilizations) {
        assert_eq!(ua.to_bits(), ub.to_bits());
    }
}

/// A BTS NVLink fleet with tenant-affinity placement — the failover drills'
/// configuration.
fn affinity_fleet(chips: usize) -> ClusterOptions {
    let spec =
        ChipSpec::preset(ArchPreset::Bts, chips).with_interconnect(Interconnect::nvlink_class());
    ClusterOptions::new(spec).with_placement(PlacementPolicy::TenantAffinity)
}

proptest! {
    // Every case lowers real bootstrap circuits, so keep case counts small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed, same horizon: `FaultPlan::random` is a pure function, and
    /// a serve run under the plan is bitwise reproducible.
    #[test]
    fn same_seed_reproduces_the_plan_and_the_faulted_run(
        seed in any::<u64>(), chips in 1usize..5, jobs in 3usize..7
    ) {
        let plan_a = FaultPlan::random(seed, chips, 0.2);
        let plan_b = FaultPlan::random(seed, chips, 0.2);
        prop_assert_eq!(&plan_a, &plan_b);

        let stream = random_stream(seed, jobs, 3);
        let options = || ServeOptions::new(2)
            .with_fault_plan(FaultPlan::none().with_seed(seed).with_transient_rate(0.3));
        let a = serve(&stream, options()).unwrap();
        let b = serve(&stream, options()).unwrap();
        assert_reports_bitwise_equal(&a, &b);
    }

    /// A zero-fault plan (and the default retry policy that comes with it)
    /// leaves no trace: the run matches the plain fault-free serve bitwise.
    #[test]
    fn zero_fault_plans_are_observationally_invisible(
        seed in any::<u64>(), jobs in 3usize..7, tenants in 1u32..4
    ) {
        let stream = random_stream(seed, jobs, tenants);
        let plain = serve(&stream, ServeOptions::new(2)).unwrap();
        let planned = serve(
            &stream,
            ServeOptions::new(2)
                .with_fault_plan(FaultPlan::none().with_seed(seed))
                .with_retry(RetryPolicy::default()),
        )
        .unwrap();
        assert_reports_bitwise_equal(&plain, &planned);
        prop_assert!(plain.shed.is_empty());
        prop_assert!(plain.failed_at_seconds.is_none());
    }

    /// Under any mix of overload shedding, transient faults, and a chip
    /// failure, every submitted job ends in exactly one bucket: completed,
    /// shed, or interrupted-by-the-dead-chip — never more than one.
    #[test]
    fn no_job_is_both_shed_and_completed(
        seed in any::<u64>(), jobs in 4usize..8, rate in 0.0f64..0.9,
        queue_cap in 1usize..4
    ) {
        let stream = random_stream(seed, jobs, 3);
        let report = serve(
            &stream,
            ServeOptions::new(2)
                .with_queue_capacity(queue_cap)
                .with_fault_plan(
                    FaultPlan::none().with_seed(seed).with_transient_rate(rate),
                ),
        )
        .unwrap();
        let completed: HashSet<u64> = report.jobs.iter().map(|j| j.id).collect();
        let shed: HashSet<u64> = report.shed.iter().map(|s| s.id).collect();
        prop_assert!(completed.is_disjoint(&shed), "jobs both shed and completed");
        prop_assert_eq!(completed.len() + shed.len(), stream.len());
    }

    /// The same partition law holds across a whole cluster with a mid-run
    /// chip failure: completions, sheds and migrations never overlap, and a
    /// wounded fleet still accounts for every submitted job.
    #[test]
    fn cluster_failover_accounts_for_every_job(
        seed in any::<u64>(), jobs in 4usize..8, kill_chip in 0usize..3
    ) {
        let stream = random_stream(seed, jobs, 3);
        let spec = ChipSpec::preset(ArchPreset::Bts, 3)
            .with_interconnect(Interconnect::nvlink_class());
        let healthy = serve_cluster(
            &stream,
            ClusterOptions::new(spec.clone()).with_placement(PlacementPolicy::TenantAffinity),
        )
        .unwrap();
        let kill_at = healthy.makespan_seconds() * 0.5;
        let options = || ClusterOptions::new(spec.clone())
            .with_placement(PlacementPolicy::TenantAffinity)
            .with_fault_plan(FaultPlan::none().with_chip_failure(kill_chip, kill_at));
        let wounded = serve_cluster(&stream, options()).unwrap();
        let completed: HashSet<u64> = wounded.jobs.iter().map(|j| j.id).collect();
        let shed: HashSet<u64> = wounded.shed.iter().map(|s| s.id).collect();
        prop_assert!(completed.is_disjoint(&shed));
        prop_assert_eq!(completed.len() + shed.len(), stream.len());
        // Nothing completes on the dead chip after its failure time.
        for j in &wounded.jobs {
            if j.chip == kill_chip {
                prop_assert!(j.finish_seconds <= kill_at + 1e-12);
            }
        }
        // And the wounded run is itself seed-deterministic.
        let again = serve_cluster(&stream, options()).unwrap();
        prop_assert_eq!(
            wounded.makespan_seconds().to_bits(),
            again.makespan_seconds().to_bits()
        );
        prop_assert_eq!(wounded.migration_count(), again.migration_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Two chips of four die at different times (0.3 and 0.6 of the healthy
    /// makespan), so refugees of the first can land on the second and be cut
    /// again. Every chip is still served once: each dispatch shows up in
    /// exactly one chip report, nothing outlives its chip, and a migrated job
    /// is admitted only after the failure that moved it.
    #[test]
    fn staggered_deaths_account_for_every_dispatch(
        seed in any::<u64>(), jobs in 10usize..16, first in 0usize..4, gap in 1usize..4
    ) {
        let stream = random_stream(seed, jobs, 4);
        let healthy = serve_cluster(&stream, affinity_fleet(4)).unwrap();
        let horizon = healthy.makespan_seconds();
        let deaths = [(first, 0.3 * horizon), ((first + gap) % 4, 0.6 * horizon)];
        let options = || {
            let plan = deaths
                .iter()
                .fold(FaultPlan::none(), |plan, &(chip, at)| plan.with_chip_failure(chip, at));
            affinity_fleet(4).with_fault_plan(plan)
        };
        let wounded = serve_cluster(&stream, options()).unwrap();

        let completed: HashSet<u64> = wounded.jobs.iter().map(|j| j.id).collect();
        let shed: HashSet<u64> = wounded.shed.iter().map(|s| s.id).collect();
        prop_assert!(completed.is_disjoint(&shed));
        prop_assert_eq!(completed.len() + shed.len(), stream.len());

        // Every dispatch — first placements plus re-placements — is one
        // chip's completion, shed or interruption.
        let dispatched: usize = wounded.chips.iter().map(|c| c.report.submitted_count()).sum();
        prop_assert_eq!(dispatched as u64, stream.len() as u64 + wounded.migration_count());
        let interrupted: usize = wounded.chips.iter().map(|c| c.report.interrupted.len()).sum();
        prop_assert_eq!(interrupted as u64, wounded.migration_count());

        for &(chip, at) in &deaths {
            for j in &wounded.chips[chip].report.jobs {
                prop_assert!(j.finish_seconds <= at, "job {} outlived chip {chip}", j.id);
            }
        }
        for j in wounded.jobs.iter().filter(|j| j.migrations > 0) {
            // The chips that cut this job; the last of them moved it to
            // where it completed.
            let moved_at = deaths
                .iter()
                .filter(|&&(chip, _)| {
                    wounded.chips[chip].report.interrupted.iter().any(|i| i.id == j.id)
                })
                .map(|&(_, at)| at)
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(moved_at.is_finite(), "job {} migrated without being cut", j.id);
            prop_assert!(j.admitted_seconds >= moved_at);
            prop_assert!(deaths.iter().all(|&(chip, at)| chip != j.chip || j.finish_seconds <= at));
        }

        let again = serve_cluster(&stream, options()).unwrap();
        prop_assert_eq!(format!("{wounded:?}"), format!("{again:?}"));
    }
}

/// A dead chip stops resurrecting the jobs it shed: four same-tenant jobs at
/// t = 0 on a chip with one slot and a one-deep queue. Jobs 2 and 3 are shed
/// `QueueFull` when they reach the chip, well before it dies halfway through
/// the first admitted job — and that is where they stay. (A re-run of the
/// dead chip without the two jobs it lost would find the queue empty, admit
/// 2 and 3, cut them and shed them a second time on the survivor.)
#[test]
fn jobs_shed_before_a_failure_stay_shed() {
    let ins = CkksInstance::ins1();
    let jobs: Vec<JobRequest> = (0..4)
        .map(|i| JobRequest::new(i, 0, "bootstrap", ins.clone(), 0.0))
        .collect();
    let options = affinity_fleet(2)
        .with_max_in_flight(1)
        .with_queue_capacity(1);
    let healthy = serve_cluster(&jobs, options.clone()).unwrap();
    let first = healthy
        .jobs
        .iter()
        .min_by(|a, b| a.admitted_seconds.total_cmp(&b.admitted_seconds))
        .expect("the healthy fleet serves");
    let (home, survivor) = (first.chip, 1 - first.chip);
    let kill_at = 0.5 * (first.admitted_seconds + first.finish_seconds);
    let wounded = serve_cluster(
        &jobs,
        options.with_fault_plan(FaultPlan::none().with_chip_failure(home, kill_at)),
    )
    .unwrap();

    let shed: Vec<u64> = wounded.shed.iter().map(|s| s.id).collect();
    assert_eq!(shed, [2, 3]);
    for (s, h) in wounded.shed.iter().zip(&healthy.shed) {
        assert_eq!(s.reason, ShedReason::QueueFull);
        assert!(
            s.shed_seconds < kill_at,
            "job {} shed after the failure",
            s.id
        );
        assert_eq!(s.shed_seconds.to_bits(), h.shed_seconds.to_bits());
    }
    let completed: Vec<u64> = wounded.jobs.iter().map(|j| j.id).collect();
    assert_eq!(completed, [0, 1]);
    for j in &wounded.jobs {
        assert_eq!((j.chip, j.migrations), (survivor, 1), "job {}", j.id);
    }
    assert_eq!(wounded.migration_count(), 2);
}

/// A dead chip's report is plain serving of what was shipped to it: serve
/// the jobs the report lists (completed, shed, interrupted), in submission
/// order, at the chip-local arrivals it records, on a server with the chip's
/// failure time — and the same report comes back, bit for bit.
#[test]
fn a_dead_chips_report_is_plain_serving_of_its_shard() {
    let stream = random_stream(2024, 16, 4);
    let healthy = serve_cluster(&stream, affinity_fleet(4)).unwrap();
    let (dead, kill_at) = (1, 0.5 * healthy.makespan_seconds());
    let options = affinity_fleet(4)
        .with_queue_capacity(2)
        .with_fault_plan(FaultPlan::none().with_chip_failure(dead, kill_at));
    let wounded = serve_cluster(&stream, options.clone()).unwrap();
    let report = &wounded.chips[dead].report;
    assert!(!report.jobs.is_empty() && !report.interrupted.is_empty());
    assert_eq!(report.failed_at_seconds, Some(kill_at));

    // id → chip-local arrival, from the three lists of the report.
    let completed = report.jobs.iter().map(|j| (j.id, j.arrival_seconds));
    let shed = report.shed.iter().map(|s| (s.id, s.arrival_seconds));
    let cut = report.interrupted.iter().map(|i| (i.id, i.arrival_seconds));
    let local: std::collections::HashMap<u64, f64> = completed.chain(shed).chain(cut).collect();
    assert_eq!(local.len(), report.submitted_count());
    let shard: Vec<JobRequest> = stream
        .iter()
        .filter_map(|job| {
            let mut shipped = job.clone();
            shipped.arrival_seconds = *local.get(&job.id)?;
            Some(shipped)
        })
        .collect();
    let chip_options = ServeOptions::new(options.max_in_flight)
        .with_config(options.spec.config.clone())
        .with_queue_capacity(2)
        .with_failure_at(kill_at);
    let plain = BtsServer::new(chip_options).serve(&shard).unwrap();
    assert_eq!(format!("{report:?}"), format!("{plain:?}"));
}

/// Serves one faulted stream inside its own telemetry capture and returns
/// the run's simulated-time events (wall-clock spans differ run to run).
fn captured_faulted_events() -> Vec<Event> {
    let stream = random_stream(2024, 6, 3);
    let run = telemetry::capture();
    serve(
        &stream,
        ServeOptions::new(2)
            .with_queue_capacity(2)
            .with_fault_plan(FaultPlan::none().with_seed(7).with_transient_rate(0.5)),
    )
    .expect("faulted stream serves");
    let run = run.finish();
    assert_eq!(run.dropped, 0, "stream must be complete");
    let simulated = run.events.into_iter().filter(|e| e.process != "realtime");
    simulated.collect()
}

/// Two faulted runs with the same seed emit the same telemetry stream event
/// for event — faults, retries and sheds included.
#[test]
fn faulted_runs_emit_identical_telemetry_streams() {
    let a = captured_faulted_events();
    let b = captured_faulted_events();
    assert!(!a.is_empty());
    assert!(
        a.iter()
            .any(|e| e.name == "fault" || e.name == "retry" || e.name == "shed"),
        "expected fault/retry/shed instants in the stream"
    );
    assert_eq!(a.len(), b.len());
    for (i, (ea, eb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ea, eb, "event {i} differs between identical faulted runs");
    }
}
