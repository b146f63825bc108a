//! The scratchpad's replacement policy on the traffic the repository
//! serves: every registry workload on every Table 4 instance at the 512 MiB
//! design point, under §5.3's LRU (the published baseline), the compiler's
//! 2-bit reuse code (the policy) and exact next-use positions (its bound).
//!
//! The pin: LRU ≤ policy ≤ bound in hit rate, and the policy moves exactly
//! the bound's HBM bytes — the registry keeps at most three ciphertexts
//! live, so everything LRU loses is dead values kept because they are
//! recent plus thrash that only bypass stops, and exact distances add
//! nothing to the code. (Where they do add something — a larger live set —
//! is pinned in `bts-sim`'s `engine` tests, on a synthetic pool.)

use bts::circuit::{compile, PassPipeline, TraceBackend};
use bts::params::CkksInstance;
use bts::sim::{BtsConfig, Simulator};
use bts::workloads::standard_registry;

#[test]
fn reuse_code_sits_on_the_bound_at_every_registry_point() {
    let registry = standard_registry();
    let pipeline = PassPipeline::standard();
    let mut lru_bytes = 0u64;
    let mut policy_bytes = 0u64;
    let mut points = 0usize;
    for ins in CkksInstance::evaluation_set() {
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        for (name, workload) in registry.iter() {
            let what = format!("{name} on {}", ins.name());
            // As `perf`'s `design_sweep` lowers it: through the pass pipeline.
            let circuit = workload.build(&ins).expect("paper instances build");
            let optimized = pipeline
                .optimize(&circuit)
                .expect("registry circuits optimize");
            let compiled = compile(&optimized).expect("optimized circuits compile");
            let lowered = TraceBackend::new().lower_compiled(&compiled);
            let trace = lowered.expect("compiled circuits lower").trace;
            let lru = sim.try_run_lru(&trace).expect("lowered traces validate");
            let policy = sim.try_run(&trace).expect("lowered traces validate");
            let bound = sim.try_run_belady(&trace).expect("lowered traces validate");
            assert!(
                lru.cache_hit_rate() <= policy.cache_hit_rate()
                    && policy.cache_hit_rate() <= bound.cache_hit_rate(),
                "{what}: hit rates LRU {} / policy {} / bound {}",
                lru.cache_hit_rate(),
                policy.cache_hit_rate(),
                bound.cache_hit_rate()
            );
            assert_eq!(policy.hbm_bytes, bound.hbm_bytes, "{what}");
            assert!(policy.total_seconds <= lru.total_seconds, "{what}");
            if ins.name() == "INS-1" {
                // The cache is ample there: recency already tracks liveness.
                assert_eq!(lru.hbm_bytes, policy.hbm_bytes, "{what}");
            } else {
                assert!(policy.hbm_bytes < lru.hbm_bytes, "{what}");
            }
            lru_bytes += lru.hbm_bytes;
            policy_bytes += policy.hbm_bytes;
            points += 1;
        }
    }
    assert_eq!(points, 15);
    // One `design_sweep` repetition, as exact counts.
    assert_eq!(lru_bytes, 35_678_906_744_832);
    assert_eq!(policy_bytes, 32_632_323_702_784);
}
