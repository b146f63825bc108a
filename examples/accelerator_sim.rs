//! Simulates one CKKS bootstrapping and the amortized-mult microbenchmark on
//! the BTS accelerator model for the three Table 4 instances, printing the
//! per-op breakdown, the headline `T_mult,a/slot`, and the serial-vs-scheduled
//! comparison of the `bts-sched` dependency-aware scheduler. Both workloads
//! travel the circuit pipeline: `CkksInstance → Workload → HeCircuit →
//! TraceBackend → Simulator` — with the trace either charged serially
//! (`Simulator::run`) or executed as a DAG over the functional units
//! (`run_scheduled`).
//!
//! Run with: `cargo run --release --example accelerator_sim`

use bts::circuit::Workload;
use bts::params::CkksInstance;
use bts::sched::{JobPlan, ScheduleExt};
use bts::sim::{BtsConfig, Simulator};
use bts::workloads::{amortized_mult_per_slot, BootstrapWorkload};

fn main() {
    for instance in CkksInstance::evaluation_set() {
        let config = BtsConfig::bts_default();
        let sim = Simulator::new(config, instance.clone());

        let lowered = BootstrapWorkload
            .lower(&instance)
            .expect("paper instances can bootstrap");
        let boot_report = sim.run(&lowered.trace);
        println!(
            "=== {} (N = 2^{}, L = {}, dnum = {}) ===",
            instance.name(),
            instance.log_n(),
            instance.max_level(),
            instance.dnum()
        );
        println!(
            "bootstrapping: {:.2} ms over {} ops ({} key-switches), {:.1} GB streamed from HBM",
            boot_report.total_seconds * 1e3,
            lowered.trace.len(),
            lowered.trace.key_switch_count(),
            boot_report.hbm_bytes as f64 / 1e9
        );
        for (op, stats) in &boot_report.per_op {
            println!(
                "  {:<10?} {:>5} ops, {:>8.2} ms",
                op,
                stats.count,
                stats.seconds * 1e3
            );
        }
        // The scratchpad is replaced on the compiler's 2-bit reuse code;
        // beside it, the paper's LRU.
        let lru = sim.try_run_lru(&lowered.trace).expect("validated above");
        println!(
            "scratchpad hit rate: LRU {:.1}% -> reuse code {:.1}% ({:.2} ms under LRU)",
            lru.cache_hit_rate() * 100.0,
            boot_report.cache_hit_rate() * 100.0,
            lru.total_seconds * 1e3
        );
        assert!(lru.cache_hit_rate() <= boot_report.cache_hit_rate());

        // Dependency-aware schedule of the same trace: independent BSGS
        // rotations overlap, rescales slide under neighbouring evk streams.
        let run = sim.run_scheduled(&lowered.trace);
        println!(
            "scheduled: {:.2} ms (critical path {:.2} ms) — speedup {:.3}x over serial",
            run.schedule.makespan_seconds * 1e3,
            run.schedule.critical_path_seconds * 1e3,
            run.report.parallel_speedup().expect("scheduled run"),
        );
        // The run builds no plan; the critical chain is read off one.
        let (plan, _) = JobPlan::from_trace(&sim, &lowered.trace).expect("validated above");
        println!("top critical-path ops (what a latency optimization must attack):");
        for c in plan.top_critical_ops(3) {
            println!(
                "  #{:<5} {:<10?} at level {:<3} {:>8.1} µs",
                c.index,
                c.op,
                c.level,
                c.seconds * 1e6
            );
        }

        let (t_mult, report) = amortized_mult_per_slot(&sim);
        println!(
            "T_mult,a/slot = {:.1} ns | NTTU util {:.0}% | HBM util {:.0}% | ct-cache hit rate {:.0}%\n",
            t_mult * 1e9,
            report.ntt_utilization * 100.0,
            report.hbm_utilization * 100.0,
            report.cache_hit_rate() * 100.0
        );
    }
}
