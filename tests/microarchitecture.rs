//! Cross-crate integration tests of the microarchitecture models: the NoC,
//! twiddle-storage and key-switch-schedule models must agree with each
//! other, with the analytical minimum bound of §3.3, and with the
//! coarse-grained simulator.

use bts::math::{Ntt3dPlan, TransposePhase};
use bts::params::{BandwidthModel, CkksInstance, MinBoundModel};
use bts::sim::{BtsConfig, HeOp, KeySwitchSchedule, PeMemNoc, PePeNoc, Simulator, TwiddleStorage};
use bts::workloads::BaselineSet;

#[test]
fn keyswitch_schedule_agrees_with_the_minimum_bound() {
    // The function-level schedule must never undercut the evk-streaming
    // minimum bound, and at the top level it must sit right on it.
    let config = BtsConfig::bts_default();
    for ins in CkksInstance::evaluation_set() {
        let bound = MinBoundModel::new(ins.clone(), BandwidthModel::hbm_1tb());
        for level in [ins.max_level() / 2, ins.max_level()] {
            let sched = KeySwitchSchedule::build(&config, &ins, level, true);
            let ks = bound.keyswitch_time(level);
            assert!(
                sched.latency >= ks * 0.999,
                "{} level {level}: schedule {} below bound {ks}",
                ins.name(),
                sched.latency
            );
        }
        let top = KeySwitchSchedule::build(&config, &ins, ins.max_level(), true);
        assert!(top.is_memory_bound(), "{} should be evk-bound", ins.name());
    }
}

#[test]
fn simulator_hmult_cost_matches_the_schedule_latency() {
    // The per-op cost model the trace simulator charges and the phase
    // schedule give a cache-resident top-level HMult the same latency, to the
    // bit, at 1 TB/s: the evk stream paces both.
    // A 2 GiB scratchpad keeps the operands resident for every instance (at
    // 512 MiB the higher-dnum instances evict them, which is a property of
    // the cache, not of the per-op cost — see Fig. 7a).
    let config = BtsConfig::bts_default().with_scratchpad_bytes(2 * 1024 * 1024 * 1024);
    for ins in CkksInstance::evaluation_set() {
        let sim = Simulator::new(config.clone(), ins.clone());
        let mut b = bts::sim::TraceBuilder::new(&ins);
        let x = b.fresh_ct(ins.max_level());
        let y = b.fresh_ct(ins.max_level());
        // Warm the operands with a cheap HAdd so the HMult below runs with
        // both inputs resident in the scratchpad (the schedule assumes that).
        b.hadd(x, y, ins.max_level());
        let z = b.hmult_at(x, y, ins.max_level());
        let _ = b.hrescale_at(z, ins.max_level());
        let report = sim.run(&b.build());
        let hmult_seconds = report.per_op.get(&HeOp::HMult).unwrap().seconds;
        let sched = KeySwitchSchedule::build(&config, &ins, ins.max_level(), true);
        assert_eq!(
            hmult_seconds,
            sched.latency,
            "{}: simulator vs schedule",
            ins.name()
        );
    }
}

#[test]
fn noc_hides_ntt_transposes_and_automorphism_traffic() {
    let noc = PePeNoc::bts_default();
    for log_n in [15usize, 16, 17] {
        let plan = Ntt3dPlan::bts_default(1 << log_n).unwrap();
        assert!(
            noc.transposes_hidden(&plan),
            "transposes must hide at N = 2^{log_n}"
        );
        // An automorphism permutation of a full INS-1 ciphertext polynomial
        // must be much cheaper than its evk stream (the permutation is not the
        // bottleneck of HRot).
        let auto = noc.automorphism_seconds(&plan, 27);
        let evk = PeMemNoc::bts_default().evk_stream_seconds(&CkksInstance::ins1(), 27);
        assert!(auto < evk, "automorphism {auto} vs evk stream {evk}");
    }
}

#[test]
fn transpose_traffic_matches_the_cube_decomposition() {
    let plan = Ntt3dPlan::bts_default(1 << 17).unwrap();
    // Each transpose moves (almost) the whole residue polynomial once.
    for phase in [TransposePhase::Vertical, TransposePhase::Horizontal] {
        let total = plan.exchange_words_total(phase);
        assert!(total as f64 > 0.9 * (1 << 17) as f64);
        assert!(total <= 1 << 17);
    }
}

#[test]
fn cache_capacity_holds_a_max_level_ciphertext() {
    // What the key-switch temporaries leave of 512 MiB must still hold at
    // least one maximum-level ciphertext on every evaluation instance.
    let config = BtsConfig::bts_default();
    for ins in CkksInstance::evaluation_set() {
        let sim = Simulator::new(config.clone(), ins.clone());
        let ct = ins.ct_bytes(ins.max_level());
        assert!(sim.cache_capacity() >= ct, "{}", ins.name());
    }
}

#[test]
fn twiddle_storage_fits_comfortably_on_chip() {
    for ins in CkksInstance::evaluation_set() {
        let tw = TwiddleStorage::for_instance(&ins);
        // Without OT the tables would eat a noticeable slice of the 512 MiB
        // scratchpad; with OT they are negligible.
        assert!(tw.full_table_bytes() > 16 * 1024 * 1024);
        assert!(tw.ot_table_bytes() < 2 * 1024 * 1024);
        assert!(tw.per_pe_lower_bytes() < 32 * 1024);
    }
}

#[test]
fn bts_beats_the_reported_f1_baselines() {
    // F1 and F1+ bootstrap one slot at a time, so BTS (INS-2, simulated)
    // beats their reported T_mult,a/slot (Fig. 6) by orders of magnitude.
    let baselines = BaselineSet::paper();
    let reported_us = |name| {
        let row = baselines.get(name).expect("F1 / F1+ rows");
        assert!(!row.bootstrappable && row.slots_per_bootstrap == Some(1));
        row.tmult_a_slot_us.expect("reports T_mult,a/slot")
    };
    let sim = Simulator::new(BtsConfig::bts_default(), CkksInstance::ins2());
    let (bts_seconds, _) = bts::workloads::amortized_mult_per_slot(&sim);
    assert!(reported_us("F1") * 1e-6 / bts_seconds > 1000.0);
    assert!(reported_us("F1+") * 1e-6 / bts_seconds > 100.0);
}
