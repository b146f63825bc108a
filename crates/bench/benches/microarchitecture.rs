//! Criterion benchmarks of the microarchitecture models added on top of the
//! trace simulator: the function-level key-switch schedule (Fig. 8), the
//! 3D-NTT / NoC interplay (§5.1, §5.4), the scratchpad split between
//! key-switch temporaries and the ciphertext cache (§5.3) and the
//! per-instance amortized-mult simulation that feeds Fig. 6.

use criterion::{criterion_group, criterion_main, Criterion};

use bts_math::Ntt3dPlan;
use bts_params::CkksInstance;
use bts_sim::{BtsConfig, KeySwitchSchedule, PePeNoc, Simulator, TwiddleStorage};
use bts_workloads::amortized_mult_per_slot;

fn bench_microarchitecture(c: &mut Criterion) {
    let config = BtsConfig::bts_default();

    c.bench_function("keyswitch_schedule_ins1_top_level", |b| {
        let ins = CkksInstance::ins1();
        b.iter(|| KeySwitchSchedule::build(&config, &ins, ins.max_level(), true))
    });

    c.bench_function("keyswitch_schedule_ins3_all_levels", |b| {
        let ins = CkksInstance::ins3();
        b.iter(|| {
            (0..=ins.max_level())
                .map(|l| KeySwitchSchedule::build(&config, &ins, l, true).latency)
                .sum::<f64>()
        })
    });

    c.bench_function("ntt3d_plan_and_noc_check", |b| {
        let noc = PePeNoc::bts_default();
        b.iter(|| {
            let plan = Ntt3dPlan::bts_default(1 << 17).unwrap();
            noc.transposes_hidden(&plan)
        })
    });

    c.bench_function("scratchpad_cache_capacity_sweep", |b| {
        b.iter(|| {
            CkksInstance::evaluation_set()
                .into_iter()
                .map(|ins| Simulator::new(config.clone(), ins).cache_capacity())
                .sum::<u64>()
        })
    });

    c.bench_function("twiddle_storage_instances", |b| {
        b.iter(|| {
            CkksInstance::evaluation_set()
                .iter()
                .map(|ins| TwiddleStorage::for_instance(ins).ot_table_bytes())
                .sum::<u64>()
        })
    });

    c.bench_function("amortized_mult_simulation_ins2", |b| {
        let sim = Simulator::new(BtsConfig::bts_default(), CkksInstance::ins2());
        b.iter(|| amortized_mult_per_slot(&sim).0)
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_microarchitecture
}
criterion_main!(benches);
