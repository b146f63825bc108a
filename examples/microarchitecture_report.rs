//! Microarchitecture report: prints the BTS hardware-design quantities the
//! paper derives in §4–§5 — the minimum NTTU count of Eq. 10, the 3D-NTT
//! epoch schedule and its inter-PE exchange volumes, the crossbar NoC
//! bandwidths, the twiddle-factor storage with on-the-fly twiddling, the
//! scratchpad split between key-switch temporaries and the ciphertext cache,
//! and the function-level schedule of one HMult key-switch (the Fig. 8
//! timeline) — for all three Table 4 instances.
//!
//! Run with: `cargo run --release --example microarchitecture_report`

use bts::math::{Ntt3dPlan, TransposePhase};
use bts::params::{min_nttu_count, BandwidthModel, CkksInstance};
use bts::sim::{
    BtsConfig, FuKind, KeySwitchSchedule, PeMemNoc, PePeNoc, ProcessingElement, Simulator,
    TwiddleStorage,
};
use bts::workloads::BaselineSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = BtsConfig::bts_default();
    let pe = ProcessingElement::from_config(&config);
    let noc = PePeNoc::bts_default();
    let mem = PeMemNoc::bts_default();

    println!("== PE array and NoC (N = 2^17, 64×32 grid) ==");
    let plan = Ntt3dPlan::bts_default(1 << 17)?;
    let (local, vertical, horizontal) = plan.stage_split();
    println!(
        "3D-NTT stage split: {local} local + {vertical} vertical + {horizontal} horizontal \
         stages, epoch = {} cycles",
        plan.epoch_cycles()
    );
    println!(
        "transpose volume per PE: vertical {} words, horizontal {} words (hidden: {})",
        plan.exchange_words_per_pe(TransposePhase::Vertical),
        plan.exchange_words_per_pe(TransposePhase::Horizontal),
        noc.transposes_hidden(&plan)
    );
    println!(
        "PE-PE NoC bisection bandwidth: {:.1} TB/s; PE-Mem regions: {} × {} PEs",
        noc.bisection_bytes_per_sec() / 1e12,
        mem.regions(),
        mem.pes_per_region()
    );
    println!(
        "minimum NTTU count (Eq. 10, INS-1 @ 1 TB/s): {:.0}  → BTS provisions {}",
        min_nttu_count(
            &CkksInstance::ins1(),
            config.frequency_hz,
            BandwidthModel::hbm_1tb()
        ),
        config.pe_count
    );

    println!("\n== Twiddle-factor storage with on-the-fly twiddling ==");
    for ins in CkksInstance::evaluation_set() {
        let tw = TwiddleStorage::for_instance(&ins);
        println!(
            "{:>5}: full tables {:>4} MiB → OT tables {:>5.2} MiB ({}x smaller), \
             {}-word broadcast per epoch",
            ins.name(),
            tw.full_table_bytes() / (1024 * 1024),
            tw.ot_table_bytes() as f64 / (1024.0 * 1024.0),
            tw.reduction_factor() as u64,
            tw.broadcast_words_per_epoch()
        );
    }

    println!("\n== Scratchpad split (512 MiB, §5.3 priority) ==");
    for ins in CkksInstance::evaluation_set() {
        let sim = Simulator::new(config.clone(), ins.clone());
        println!(
            "{:>5}: key-switch temporaries {:>4} MiB, ct cache {:>4} MiB \
             (≈ {} resident max-level ciphertexts)",
            ins.name(),
            sim.temp_data_bytes() / (1024 * 1024),
            sim.cache_capacity() / (1024 * 1024),
            sim.cache_capacity() / ins.ct_bytes(ins.max_level())
        );
    }

    println!("\n== HMult key-switch schedule at the top level (Fig. 8) ==");
    for ins in CkksInstance::evaluation_set() {
        let sched = KeySwitchSchedule::build(&config, &ins, ins.max_level(), true);
        println!(
            "{:>5}: latency {:>7.1} µs ({}), NTTU busy {:>4.0}%, BConvU busy {:>4.0}%, \
             evk stream {:>6.1} µs",
            ins.name(),
            sched.latency * 1e6,
            if sched.is_memory_bound() {
                "memory-bound"
            } else {
                "compute-bound"
            },
            sched.utilization(FuKind::Nttu) * 100.0,
            sched.utilization(FuKind::BConvU) * 100.0,
            sched.evk_stream_seconds * 1e6,
        );
    }
    println!(
        "BConv scratchpad-port pressure at l_sub = {}: {:.0}% of the 128-bit port",
        config.lsub,
        pe.bconv_port_pressure(
            &CkksInstance::ins1(),
            CkksInstance::ins1().max_level() + 1,
            CkksInstance::ins1().num_special()
        ) * 100.0
    );

    println!("\n== F1 / F1+ as the paper reports them (Table 1, Fig. 6) ==");
    let baselines = BaselineSet::paper();
    for name in ["F1", "F1+"] {
        let row = baselines.get(name).expect("F1 / F1+ rows");
        let tmult_us = row.tmult_a_slot_us.expect("reports T_mult,a/slot");
        println!(
            "{name:>4}: N = 2^{}, packed bootstrapping: {}, slots/bootstrap: {}, \
             FHE mult throughput ≈ {:.0}/s",
            row.log_n,
            row.bootstrappable,
            row.slots_per_bootstrap.unwrap_or(0),
            1e6 / tmult_us
        );
    }
    Ok(())
}
