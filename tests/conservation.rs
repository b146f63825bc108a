//! Conservation laws of the serving stack, held exactly.
//!
//! * **Interconnect.** Every byte a fleet moves is one `transfer` event: the
//!   events' bytes sum to `ClusterReport::interconnect_bytes()` and, per
//!   chip, to that chip's `interconnect_bytes`, and a job has at most one
//!   transfer per dispatch — one per chip it was shipped to (a refugee only
//!   ever moves to a chip that dies later, so it never lands on one twice),
//!   never more than its first placement plus its migrations.
//!   The fleet's other counts are events too: one `migrate` instant per
//!   re-placement and one `shed` instant per shed job, a chip's or the
//!   cluster's.
//! * **HBM.** A serve report's `aggregate.hbm_bytes` is the HBM traffic of
//!   the jobs it completed, each charged on its own: the sum, over completed
//!   jobs, of an independent `Simulator::try_run` of the job's lowered trace.
//!   Faulted attempts, sheds and interruptions add nothing.

use std::collections::HashMap;

use bts::cluster::{
    serve_cluster, ChipSpec, ClusterOptions, FaultPlan, Interconnect, PlacementPolicy,
};
use bts::params::CkksInstance;
use bts::serve::{serve, JobRequest, ServeOptions, ServeReport, SyntheticArrivals};
use bts::sim::{ArchPreset, BtsConfig, Simulator};
use bts::telemetry::{self, Event};
use bts::workloads::standard_registry;

/// A seeded three-tenant stream over two pairs, every job with a deadline.
fn stream(jobs: usize) -> Vec<JobRequest> {
    SyntheticArrivals::new(CkksInstance::ins1(), 2024)
        .mean_interarrival_seconds(3e-3)
        .tenants(3)
        .mix(vec![
            ("bootstrap".to_string(), 2.0),
            ("amortized-mult".to_string(), 1.0),
        ])
        .generate(jobs)
        .into_iter()
        .map(|job| {
            let deadline = job.arrival_seconds + 0.1;
            job.with_deadline(deadline)
        })
        .collect()
}

/// A 4-chip fleet that loses chips 1 and 2 at different times, under
/// transient faults and a degraded link.
fn wounded_fleet(horizon: f64) -> ClusterOptions {
    let spec = ChipSpec::preset(ArchPreset::Bts, 4).with_interconnect(Interconnect::nvlink_class());
    let plan = FaultPlan::none()
        .with_seed(3)
        .with_transient_rate(0.2)
        .with_chip_failure(1, 0.3 * horizon)
        .with_chip_failure(2, 0.6 * horizon)
        .with_link_degradation(0.1 * horizon, 0.5 * horizon, 0.25);
    ClusterOptions::new(spec)
        .with_placement(PlacementPolicy::RoundRobin)
        .with_queue_capacity(4)
        .with_fault_plan(plan)
}

#[test]
fn every_interconnect_byte_is_one_transfer_of_one_dispatch() {
    let jobs = stream(16);
    let horizon = jobs.last().expect("a non-empty stream").arrival_seconds;
    let run = telemetry::capture();
    let report = serve_cluster(&jobs, wounded_fleet(horizon)).expect("the fleet serves");
    let events = run.finish();
    assert_eq!(events.dropped, 0, "the stream must be complete");
    assert!(report.migration_count() > 0, "the dying chips held work");

    let named = |name: &'static str| move |e: &&Event| e.name == name;
    let transfers: Vec<&Event> = events.events.iter().filter(named("transfer")).collect();
    let arg = |e: &Event, key: &str| e.arg_u64(key).expect("transfers carry job, chip, bytes");
    let moved: u64 = transfers.iter().map(|e| arg(e, "bytes")).sum();
    assert!(moved > 0);
    assert_eq!(moved, report.interconnect_bytes());
    for chip in &report.chips {
        let to_chip = transfers
            .iter()
            .filter(|e| arg(e, "chip") == chip.chip as u64);
        let bytes: u64 = to_chip.map(|e| arg(e, "bytes")).sum();
        assert_eq!(bytes, chip.interconnect_bytes, "chip {}", chip.chip);
    }

    let mut per_dispatch: HashMap<(u64, u64), usize> = HashMap::new();
    let mut per_job: HashMap<u64, usize> = HashMap::new();
    for e in &transfers {
        *per_dispatch
            .entry((arg(e, "job"), arg(e, "chip")))
            .or_default() += 1;
        *per_job.entry(arg(e, "job")).or_default() += 1;
    }
    assert!(
        per_dispatch.values().all(|&n| n == 1),
        "a chip charged a job twice"
    );
    let count = |name| events.events.iter().filter(named(name)).count();
    assert_eq!(count("migrate") as u64, report.migration_count());
    assert!(report.shed_count() > 0, "the bounded queues shed");
    assert_eq!(count("shed"), report.shed_count());

    let mut dispatches: HashMap<u64, usize> = jobs.iter().map(|j| (j.id, 1)).collect();
    for e in events.events.iter().filter(named("migrate")) {
        *dispatches.get_mut(&arg(e, "job")).expect("a submitted job") += 1;
    }
    for (job, transfers) in per_job {
        assert!(
            transfers <= dispatches[&job],
            "job {job}: {transfers} transfers"
        );
    }
}

/// Σ over `report`'s completed jobs of each job's trace simulated alone.
fn independent_hbm_bytes(report: &ServeReport, config: &BtsConfig) -> u64 {
    let registry = standard_registry();
    let ins = CkksInstance::ins1();
    let mut alone: HashMap<&str, u64> = HashMap::new();
    for job in &report.jobs {
        alone.entry(job.workload.as_str()).or_insert_with(|| {
            let workload = registry.get(&job.workload).expect("a registered workload");
            let lowered = workload.lower(&ins).expect("INS-1 lowers the workload");
            let simulator = Simulator::new(config.clone(), ins.clone());
            let run = simulator.try_run(&lowered.trace).expect("a valid trace");
            run.hbm_bytes
        });
    }
    report.jobs.iter().map(|j| alone[j.workload.as_str()]).sum()
}

fn aggregate_hbm_bytes(report: &ServeReport) -> u64 {
    report.aggregate.as_ref().map_or(0, |a| a.hbm_bytes)
}

#[test]
fn aggregate_hbm_traffic_is_the_sum_of_the_completed_jobs_alone() {
    let jobs = stream(12);
    let config = BtsConfig::bts_default();
    let options = ServeOptions::new(2)
        .with_config(config.clone())
        .with_queue_capacity(3)
        .with_fault_plan(FaultPlan::none().with_seed(5).with_transient_rate(0.3));
    let report = serve(&jobs, options).expect("the stream serves");
    assert!(report.job_count() > 0 && report.retry_count() > 0);
    assert_eq!(
        aggregate_hbm_bytes(&report),
        independent_hbm_bytes(&report, &config)
    );

    // The same law on every chip of a wounded fleet, dead chips included.
    let horizon = jobs.last().expect("a non-empty stream").arrival_seconds;
    let fleet = serve_cluster(&jobs, wounded_fleet(horizon)).expect("the fleet serves");
    for chip in &fleet.chips {
        let expected = independent_hbm_bytes(&chip.report, &ArchPreset::Bts.config());
        assert_eq!(
            aggregate_hbm_bytes(&chip.report),
            expected,
            "chip {}",
            chip.chip
        );
    }
}
