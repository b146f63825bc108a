//! Cluster serving demo: streams one seeded batch of jobs from three tenants
//! through two different fleets — two BTS chips vs four FAB chips — behind
//! tenant-affinity placement and an NVLink-class fabric, then shows what the
//! placement policy is worth on the BTS fleet.
//!
//! A single chip at 1 TB/s is evaluation-key-streaming bound, so a
//! bootstrapping service scales out, not up: the cluster layer charges every
//! ciphertext (and the first copy of each tenant's ~10 GiB evk set per chip)
//! that crosses the interconnect, which is why placement matters.
//!
//! Run with: `cargo run --release --example cluster_demo`
//!
//! Pass `--kill-chip N` to also inject a chip failure into a 4-chip BTS
//! fleet halfway through the run: chip N dies, its queued and in-flight
//! jobs migrate to the survivors (paying the wire again after backoff), and
//! the resilience summary shows goodput degrading gracefully instead of
//! collapsing.
//!
//! The run records a telemetry trace (set `BTS_TRACE=path.json` to choose
//! where; defaults to `target/cluster_demo.trace.json`) — load it at
//! <https://ui.perfetto.dev> to see per-chip functional-unit lanes, queue
//! depths, interconnect transfers and (with `--kill-chip`) the
//! `chip-failure`/`migrate` fault instants.

use bts::cluster::{
    serve_cluster, ChipSpec, ClusterOptions, FaultPlan, Interconnect, PlacementPolicy,
};
use bts::params::CkksInstance;
use bts::serve::SyntheticArrivals;
use bts::sim::ArchPreset;
use bts::telemetry;

fn main() {
    let mut kill_chip: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--kill-chip" => {
                let Some(chip) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--kill-chip needs a chip index");
                    std::process::exit(1);
                };
                kill_chip = Some(chip);
            }
            other => {
                eprintln!("unknown argument '{other}' (usage: cluster_demo [--kill-chip N])");
                std::process::exit(1);
            }
        }
    }
    let run = telemetry::capture();
    let ins = CkksInstance::ins1();
    // 12 jobs from 3 tenants: mostly bootstrap refreshes with some amortized
    // multiplication batches mixed in, arriving every ~4 ms.
    let stream = SyntheticArrivals::new(ins, 2024)
        .mean_interarrival_seconds(4e-3)
        .tenants(3)
        .mix(vec![
            ("bootstrap".to_string(), 3.0),
            ("amortized-mult".to_string(), 1.0),
        ])
        .generate(12);

    println!("=== bts-cluster: one job stream, two fleets (INS-1) ===\n");

    // 1. BTS x2 vs FAB x4, side by side, on the same stream.
    let fleets = [
        ChipSpec::preset(ArchPreset::Bts, 2).with_interconnect(Interconnect::nvlink_class()),
        ChipSpec::preset(ArchPreset::Fab, 4).with_interconnect(Interconnect::nvlink_class()),
    ];
    for spec in fleets {
        let report = serve_cluster(
            &stream,
            ClusterOptions::new(spec).with_placement(PlacementPolicy::TenantAffinity),
        )
        .expect("the stream serves on every fleet");
        println!("{}", report.summary());
        println!(
            "  {:<4} {:<7} {:<15} {:>5} {:>9} {:>9} {:>9}",
            "job", "tenant", "workload", "chip", "arrive", "wire", "latency"
        );
        for j in &report.jobs {
            println!(
                "  {:<4} {:<7} {:<15} {:>5} {:>7.2}ms {:>7.2}ms {:>7.2}ms",
                j.id,
                j.tenant,
                j.workload,
                j.chip,
                j.arrival_seconds * 1e3,
                j.transfer_seconds * 1e3,
                j.latency_seconds() * 1e3,
            );
        }
        println!();
    }

    // 2. What placement buys on the BTS x2 fleet: pinning a tenant's keys to
    // one chip versus spreading its jobs (and re-shipping its keys).
    println!("placement policies on BTS x2 (same stream):");
    let spec = ChipSpec::preset(ArchPreset::Bts, 2).with_interconnect(Interconnect::nvlink_class());
    for placement in PlacementPolicy::ALL {
        let report = serve_cluster(
            &stream,
            ClusterOptions::new(spec.clone()).with_placement(placement),
        )
        .expect("the stream serves under every placement");
        println!(
            "  {:<16} {:>6.1} jobs/s | moved {:>6.2} GiB | p99 {:>7.2} ms | fairness {:.3}",
            placement.label(),
            report.throughput_jobs_per_sec(),
            report.interconnect_bytes() as f64 / (1u64 << 30) as f64,
            report.latency_percentile(99.0) * 1e3,
            report.tenant_fairness(),
        );
    }

    // 3. Optional failover drill: kill one chip of a BTS x4 fleet halfway
    // through the healthy run and watch the fleet degrade gracefully.
    if let Some(chip) = kill_chip {
        let spec =
            ChipSpec::preset(ArchPreset::Bts, 4).with_interconnect(Interconnect::nvlink_class());
        let options =
            || ClusterOptions::new(spec.clone()).with_placement(PlacementPolicy::TenantAffinity);
        let healthy = serve_cluster(&stream, options()).expect("the healthy fleet serves");
        let kill_at = healthy.makespan_seconds() * 0.5;
        let wounded = serve_cluster(
            &stream,
            options().with_fault_plan(FaultPlan::none().with_chip_failure(chip, kill_at)),
        )
        .expect("the wounded fleet still serves");
        println!(
            "\nfailover drill: BTS x4, chip {chip} dies at {:.2} ms",
            kill_at * 1e3
        );
        println!("{}", wounded.summary());
        println!(
            "  goodput {:.1} -> {:.1} jobs/s ({:.0}% of healthy); {} migrated, {} shed",
            healthy.goodput_jobs_per_sec(),
            wounded.goodput_jobs_per_sec(),
            100.0 * wounded.goodput_jobs_per_sec() / healthy.goodput_jobs_per_sec(),
            wounded.migration_count(),
            wounded.shed_count(),
        );
    }

    // Export the trace and prove it is what we claim: well-formed Chrome
    // trace JSON with at least the per-chip unit lanes, the queue/admission
    // lanes and the interconnect lane — every event of them, none lost past
    // the buffer cap, since the trace is the run's only record.
    let run = run.finish();
    assert_eq!(run.dropped, 0, "trace must hold every event");
    let path = telemetry::trace_path().unwrap_or_else(|| "target/cluster_demo.trace.json".into());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("trace directory creatable");
    }
    let text = telemetry::chrome_trace_json(&run.events);
    std::fs::write(&path, &text).expect("trace export writes");
    let check = telemetry::validate_chrome_trace(&text).expect("trace must be schema-valid");
    assert!(
        check.tracks >= 3,
        "expected >= 3 distinct tracks, got {}",
        check.tracks
    );
    println!(
        "\ntelemetry: {} events on {} tracks across {} processes -> {} (open in https://ui.perfetto.dev)",
        check.events,
        check.tracks,
        check.processes,
        path.display(),
    );
}
