//! Multi-tenant serving demo: streams a seeded batch of bootstrapping jobs
//! from three tenants through one simulated BTS accelerator, comparing
//! one-at-a-time service against co-scheduled service (ops of different jobs
//! interleaved on the NTTU/BConvU/element-wise/HBM channels by the
//! `bts-sched` multi-DAG scheduler), then the three queueing policies under
//! the same arrival stream.
//!
//! Run with: `cargo run --release --example serving_demo`
//!
//! The run records a telemetry trace (set `BTS_TRACE=path.json` to choose
//! where; defaults to `target/serving_demo.trace.json`) — load it at
//! <https://ui.perfetto.dev> to see the queue depth, admissions and per-job
//! lifecycle spans next to the functional-unit lanes.

use bts::params::{BandwidthModel, CkksInstance};
use bts::serve::{serve, QueuePolicy, ServeOptions, SyntheticArrivals};
use bts::sim::BtsConfig;
use bts::telemetry;

fn main() {
    let run = telemetry::capture();
    let ins = CkksInstance::ins1();
    // The Fig. 9 2 TB/s point: compute matters, so co-scheduling has slack
    // to reclaim (at 1 TB/s the machine is evk-streaming bound end to end).
    let config = BtsConfig::bts_default().with_hbm(BandwidthModel::hbm_2tb());

    println!(
        "=== bts-serve: one accelerator, many tenants ({}, 2 TB/s HBM) ===\n",
        ins.name()
    );

    // 1. Burst of bootstrap jobs: serial service vs co-scheduled service.
    let burst = SyntheticArrivals::burst(&ins, "bootstrap", 4);
    let serial =
        serve(&burst, ServeOptions::new(1).with_config(config.clone())).expect("INS-1 bootstraps");
    let co =
        serve(&burst, ServeOptions::new(4).with_config(config.clone())).expect("INS-1 bootstraps");
    println!("4-job bootstrap burst:");
    println!(
        "  one at a time : makespan {:>7.2} ms | {:>6.1} jobs/s | {:.2e} mult slots/s",
        serial.makespan_seconds * 1e3,
        serial.throughput_jobs_per_sec(),
        serial.mult_slots_per_sec(),
    );
    println!(
        "  co-scheduled  : makespan {:>7.2} ms | {:>6.1} jobs/s | {:.2e} mult slots/s  ({:.3}x)",
        co.makespan_seconds * 1e3,
        co.throughput_jobs_per_sec(),
        co.mult_slots_per_sec(),
        serial.makespan_seconds / co.makespan_seconds,
    );

    // 2. A sustained seeded stream across three tenants, under each policy.
    let stream = SyntheticArrivals::new(ins, 2024)
        .mean_interarrival_seconds(3e-3)
        .tenants(3)
        .mix(vec![
            ("bootstrap".to_string(), 3.0),
            ("amortized-mult".to_string(), 1.0),
        ])
        .generate(9);
    println!("\n9-job mixed stream (3 tenants, 3 ms mean interarrival, concurrency 3):");
    for policy in QueuePolicy::ALL {
        let report = serve(
            &stream,
            ServeOptions::new(3)
                .with_policy(policy)
                .with_config(config.clone()),
        )
        .expect("mixed stream serves");
        println!(
            "  {:<12} p50 {:>6.2} ms | p99 {:>6.2} ms | fairness {:.3} | co-scheduling {:.3}x",
            policy.label(),
            report.latency_percentile(50.0) * 1e3,
            report.latency_percentile(99.0) * 1e3,
            report.tenant_fairness(),
            report.coscheduling_speedup(),
        );
    }

    // 3. Per-job lifecycle under FIFO, plus the batch's aggregate work.
    let report = serve(&stream, ServeOptions::new(3).with_config(config)).expect("fifo");
    println!("\nper-job lifecycle (fifo):");
    println!(
        "  {:<4} {:<7} {:<15} {:>9} {:>9} {:>9} {:>9}",
        "job", "tenant", "workload", "arrive", "queued", "service", "latency"
    );
    for j in &report.jobs {
        println!(
            "  {:<4} {:<7} {:<15} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>7.2}ms",
            j.id,
            j.tenant,
            j.workload,
            j.arrival_seconds * 1e3,
            j.queue_seconds() * 1e3,
            j.service_seconds() * 1e3,
            j.latency_seconds() * 1e3,
        );
    }
    if let Some(agg) = &report.aggregate {
        println!(
            "\naggregate: {:.1} GB streamed from HBM, {:.2} J, {} ops across {} jobs",
            agg.hbm_bytes as f64 / 1e9,
            agg.energy_j,
            agg.per_op.values().map(|s| s.count).sum::<usize>(),
            report.job_count(),
        );
    }
    println!("{}", report.summary());

    // Export the trace and check it really is complete, non-empty,
    // well-formed Chrome trace JSON before pointing anyone at it: the trace
    // is the run's only record, so one lost past the buffer cap is a failure.
    let run = run.finish();
    assert_eq!(run.dropped, 0, "trace must hold every event");
    let path = telemetry::trace_path().unwrap_or_else(|| "target/serving_demo.trace.json".into());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("trace directory creatable");
    }
    let text = telemetry::chrome_trace_json(&run.events);
    std::fs::write(&path, &text).expect("trace export writes");
    let check = telemetry::validate_chrome_trace(&text).expect("trace must be schema-valid");
    assert!(check.events > 0, "trace must record events");
    println!(
        "\ntelemetry: {} events on {} tracks across {} processes -> {} (open in https://ui.perfetto.dev)",
        check.events,
        check.tracks,
        check.processes,
        path.display(),
    );
}
