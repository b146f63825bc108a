//! A fleet prepares each distinct (workload, instance) pair once.
//!
//! `ClusterServer::serve` prepares the batch once (`BtsServer::prepare`) and
//! serves every chip's shard from that one `PreparedBatch`, so however many
//! chips the fleet has and however many of them die, the stream's circuits
//! are compiled once per pair — counted here as `circuit.compile` spans in a
//! telemetry capture — and the engine sweeps that charge them land in one
//! `prep/<pair>` process, never in a per-chip `chipN/prep/<pair>` copy.

use std::collections::BTreeSet;

use bts::cluster::{
    serve_cluster, ChipSpec, ClusterOptions, FaultPlan, Interconnect, PlacementPolicy,
};
use bts::params::CkksInstance;
use bts::serve::{JobRequest, SyntheticArrivals};
use bts::sim::ArchPreset;
use bts::telemetry;

/// The `cluster_failover` stream's shape, shortened: bootstrap-heavy over
/// two pairs, twelve tenants, every job with a deadline.
fn stream() -> Vec<JobRequest> {
    SyntheticArrivals::new(CkksInstance::ins1(), 14)
        .mean_interarrival_seconds(4e-3)
        .tenants(12)
        .mix(vec![
            ("bootstrap".to_string(), 3.0),
            ("amortized-mult".to_string(), 1.0),
        ])
        .generate(24)
        .into_iter()
        .map(|job| {
            let deadline = job.arrival_seconds + 0.5;
            job.with_deadline(deadline)
        })
        .collect()
}

fn fleet(chips: usize) -> ClusterOptions {
    let spec =
        ChipSpec::preset(ArchPreset::Bts, chips).with_interconnect(Interconnect::nvlink_class());
    ClusterOptions::new(spec)
        .with_placement(PlacementPolicy::TenantAffinity)
        .with_queue_capacity(256)
}

/// Serves `jobs` inside a capture; returns the number of `circuit.compile`
/// spans and the names of the processes the run emitted into.
fn compiles_and_processes(
    jobs: &[JobRequest],
    options: ClusterOptions,
) -> (usize, BTreeSet<String>) {
    let run = telemetry::capture();
    let report = serve_cluster(jobs, options).expect("the fleet serves");
    let run = run.finish();
    assert_eq!(run.dropped, 0, "the stream must be complete");
    assert_eq!(report.submitted_count(), jobs.len());
    let compiles = run.events.iter().filter(|e| e.name == "circuit.compile");
    let processes = run.events.iter().map(|e| e.process.clone()).collect();
    (compiles.count(), processes)
}

#[test]
fn a_fleet_compiles_each_pair_once_whatever_its_size_or_losses() {
    let jobs = stream();
    let pairs: BTreeSet<&str> = jobs.iter().map(|j| j.workload.as_str()).collect();
    assert_eq!(pairs.len(), 2, "the stream draws both workloads");
    let horizon = jobs.last().expect("a non-empty stream").arrival_seconds;
    let wounded = fleet(4).with_fault_plan(
        FaultPlan::none()
            .with_seed(14)
            .with_transient_rate(0.02)
            .with_chip_failure(1, 0.3 * horizon)
            .with_chip_failure(2, 0.6 * horizon)
            .with_link_degradation(0.2 * horizon, 0.5 * horizon, 0.25),
    );
    let runs = [
        ("1 chip", fleet(1)),
        ("2 chips", fleet(2)),
        ("4 chips", fleet(4)),
        ("4 chips, 2 dying", wounded),
    ];
    for (label, options) in runs {
        let (compiles, processes) = compiles_and_processes(&jobs, options);
        assert_eq!(compiles, pairs.len(), "{label}: compiled {compiles} times");
        let preps: Vec<&String> = processes.iter().filter(|p| p.contains("prep/")).collect();
        assert_eq!(
            preps,
            ["prep/amortized-mult@INS-1", "prep/bootstrap@INS-1"],
            "{label}: one preparation process per pair, none per chip"
        );
    }
}
