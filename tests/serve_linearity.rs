//! `BtsServer::serve`'s cost in heap allocations and retained bytes, held
//! linear in the job count by counts.
//!
//! A stream of 10⁴ jobs over two distinct (workload, instance) pairs must
//! cost work per *op placed*, not per job admitted: one scheduling plan per
//! pair, a constant handful of allocations per job, and nothing the size of
//! a plan, a per-op vector or a stretch of timeline kept per job. A timer on
//! a shared VM would only show noise; the process's allocator counts exactly.
//! Like `crates/telemetry/tests/zero_alloc.rs` this is a single-test binary
//! with a counting allocator, so nothing else allocates while it counts.

use bts::params::CkksInstance;
use bts::sched::{JobPlan, MachineModel};
use bts::serve::{BtsServer, JobRequest, ServeOptions, SyntheticArrivals};
use bts::sim::{BtsConfig, Simulator};
use bts::workloads::standard_registry;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{cost_of, live_bytes, Cost, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `serve_steady`'s shape: a below-saturation stream over two pairs.
fn two_pair_stream(count: usize) -> Vec<JobRequest> {
    SyntheticArrivals::new(CkksInstance::ins1(), 14)
        .mean_interarrival_seconds(18e-3)
        .tenants(8)
        .mix(vec![
            ("bootstrap".to_string(), 3.0),
            ("amortized-mult".to_string(), 1.0),
        ])
        .generate(count)
}

/// What one `serve` of `jobs` allocates.
fn serve_cost(server: &BtsServer, jobs: &[JobRequest]) -> Cost {
    cost_of(|| {
        let report = server.serve(jobs).expect("stream serves");
        assert_eq!(
            report.job_count(),
            jobs.len(),
            "steady serving sheds nothing"
        );
        report
    })
}

/// Heap bytes of one bootstrap plan on INS-1 — the yardstick for "nothing
/// plan-sized is kept per job".
fn bootstrap_plan_bytes() -> u64 {
    let ins = CkksInstance::ins1();
    let registry = standard_registry();
    let bootstrap = registry.get("bootstrap").expect("bootstrap is registered");
    let lowered = bootstrap.lower(&ins).expect("bootstrap lowers");
    let simulator = Simulator::new(BtsConfig::bts_default(), ins);
    let timings = simulator.op_timings(&lowered.trace).expect("trace times");
    let machine = MachineModel::from_config(simulator.config());
    let before = live_bytes();
    let plan = JobPlan::new(&machine, &lowered.trace, &timings).expect("one timing per op");
    let bytes = live_bytes() - before;
    assert!(!plan.is_empty());
    bytes
}

#[test]
fn serve_costs_a_constant_per_job_and_keeps_one_plan_per_pair() {
    // `BTS_TELEMETRY=1 cargo test` must not give this thread a root collector
    // (every reservation would allocate an event): clear the environment
    // before the process's one read of it, which `enabled()` performs.
    for key in ["BTS_TRACE", "BTS_TELEMETRY"] {
        std::env::remove_var(key);
    }
    assert!(!bts::telemetry::enabled());

    let server = BtsServer::new(ServeOptions::new(4));
    let stream = two_pair_stream(8_000);
    // One job of each pair: what preparing the two pairs costs on its own.
    let amortized = stream
        .iter()
        .find(|j| j.workload == "amortized-mult")
        .expect("the mix draws both workloads");
    assert_eq!(stream[0].workload, "bootstrap");
    let pairs_only = serve_cost(&server, &[stream[0].clone(), amortized.clone()]);

    let cost_500 = serve_cost(&server, &stream[..500]);
    let cost_2000 = serve_cost(&server, &stream[..2_000]);
    let cost_8000 = serve_cost(&server, &stream);

    // Allocations: a constant handful per job beyond the per-pair set-up,
    // the same at every stream length. A job's readiness clock is one a
    // finished job gave back, so measured: 2.05 / 2.02 per job at 500 /
    // 2 000 jobs and 4 190 in all at 2 000 (a clock per admission made it
    // 3.04 / 3.01 and 6 183; rebuilding the plan per admission ~420 per
    // job).
    let per_job = |cost: &Cost, jobs: u64| {
        cost.allocations.saturating_sub(pairs_only.allocations) as f64 / jobs as f64
    };
    let (at_500, at_2000) = (per_job(&cost_500, 500), per_job(&cost_2000, 2_000));
    eprintln!(
        "serve: {at_500:.3} / {at_2000:.3} allocations per job at 500 / 2000 jobs, {} in all at 2000",
        cost_2000.allocations
    );
    assert!(
        cost_2000.allocations <= 3 * 2_000,
        "serve of 2000 jobs made {} allocations, over 3 per job",
        cost_2000.allocations
    );
    assert!(
        (at_500 - at_2000).abs() <= 1.0,
        "allocations per job moved with the stream length: {at_500:.2} at 500, {at_2000:.2} at 2000"
    );

    // Retention: going from 2 000 to 8 000 jobs adds under 1 KiB of peak
    // heap per job, and under an eighth of a bootstrap plan — a job's
    // per-op finish times are a few KiB, its stretch of the timeline tens
    // of KiB, so neither is alive per job, nor a plan: the plans alive are
    // the two the pairs share. Measured: 251 bytes per job; the plan 13 764
    // bytes (30 000 with a demand per op).
    let plan_bytes = bootstrap_plan_bytes();
    let per_job_bytes = cost_8000.peak_bytes.saturating_sub(cost_2000.peak_bytes) / 6_000;
    eprintln!("serve: {per_job_bytes} bytes per job retained, a bootstrap plan {plan_bytes} bytes");
    assert!(
        per_job_bytes <= 1024 && per_job_bytes <= plan_bytes / 8,
        "each job keeps {per_job_bytes} bytes alive until the end of the run (a plan: {plan_bytes})"
    );
}
