//! The scratchpad's replacement policy against the exact offline optimum
//! (`common/cache_optimum.rs`): the least ciphertext-miss bytes any policy
//! could move for a trace at the simulator's cache capacity.
//!
//! The pin: on every registry workload and Table 4 instance at the 512 MiB
//! design point, lowered both as the figures lower it (`Workload::lower`, no
//! passes) and as `perf`'s `design_sweep` does (through the standard pass
//! pipeline), the compiler's 2-bit reuse code moves exactly the optimum's
//! capacity-miss bytes, and §5.3's LRU (the published baseline) never hits
//! more often. The registry keeps at most three ciphertexts live, so what
//! LRU loses is dead values kept because they are recent plus thrash that
//! only bypass stops. The one recorded gap is a synthetic pool of eight live
//! values, where the code is three misses off the optimum.

use bts::circuit::{compile, PassPipeline, TraceBackend};
use bts::params::CkksInstance;
use bts::sim::{BtsConfig, OpTiming, OpTrace, Simulator, TraceBuilder};
use bts::workloads::standard_registry;

#[path = "common/cache_optimum.rs"]
mod cache_optimum;

use cache_optimum::{least_miss_bytes, TooManyLive, MAX_LIVE};

/// What the policy's sweep charges for ciphertext misses: its miss bytes
/// less the plaintext operands every policy streams.
fn policy_miss_bytes(sim: &Simulator, trace: &OpTrace) -> u64 {
    let timings = sim.op_timings(trace).expect("the trace validates");
    timings
        .iter()
        .map(|t| t.miss_bytes - t.cost.operand_bytes)
        .sum()
}

/// The optimum of a trace the oracle accepts.
fn optimum(sim: &Simulator, trace: &OpTrace) -> u64 {
    least_miss_bytes(sim, trace).expect("a live set the oracle tracks")
}

#[test]
fn reuse_code_is_optimal_at_every_registry_point() {
    let registry = standard_registry();
    let pipeline = PassPipeline::standard();
    let mut lru_bytes = 0u64;
    let mut policy_bytes = 0u64;
    let mut points = 0usize;
    for ins in CkksInstance::evaluation_set() {
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        for (name, workload) in registry.iter() {
            let raw = workload.lower(&ins).expect("paper instances lower").trace;
            // As `perf`'s `design_sweep` lowers it: through the pass pipeline.
            let circuit = workload.build(&ins).expect("paper instances build");
            let optimized = pipeline
                .optimize(&circuit)
                .expect("registry circuits optimize");
            let compiled = compile(&optimized).expect("optimized circuits compile");
            let lowered = TraceBackend::new().lower_compiled(&compiled);
            let pipelined = lowered.expect("compiled circuits lower").trace;
            for (lowering, trace) in [("raw", &raw), ("pipelined", &pipelined)] {
                let what = format!("{name} on {} ({lowering})", ins.name());
                let best = least_miss_bytes(&sim, trace)
                    .unwrap_or_else(|e| panic!("{what}: live set too large at {e:?}"));
                let policy = sim.op_timings(trace).expect("lowered traces validate");
                let sum = |field: fn(&OpTiming) -> u64| policy.iter().map(field).sum::<u64>();
                assert_eq!(sum(|t| t.miss_bytes - t.cost.operand_bytes), best, "{what}");
                let hits = sum(|t| t.cache_hits as u64);
                let hit_rate = hits as f64 / (hits + sum(|t| t.cache_misses as u64)) as f64;
                let hbm_bytes = sum(|t| t.hbm_bytes);
                let seconds: f64 = policy.iter().map(|t| t.seconds).sum();
                let lru = sim.try_run_lru(trace).expect("lowered traces validate");
                assert!(
                    lru.cache_hit_rate() <= hit_rate,
                    "{what}: hit rates LRU {} / policy {hit_rate}",
                    lru.cache_hit_rate(),
                );
                assert!(hbm_bytes <= lru.hbm_bytes, "{what}");
                assert!(seconds <= lru.total_seconds, "{what}");
                if lowering == "pipelined" {
                    if ins.name() == "INS-1" {
                        // The cache is ample there: recency already tracks
                        // liveness.
                        assert_eq!(lru.hbm_bytes, hbm_bytes, "{what}");
                    } else {
                        assert!(hbm_bytes < lru.hbm_bytes, "{what}");
                    }
                    lru_bytes += lru.hbm_bytes;
                    policy_bytes += hbm_bytes;
                }
            }
            points += 1;
        }
    }
    assert_eq!(points, 15);
    // One `design_sweep` repetition, as exact counts.
    assert_eq!(lru_bytes, 35_678_906_744_832);
    assert_eq!(policy_bytes, 32_632_323_702_784);
}

#[test]
fn the_pool_is_the_one_recorded_gap() {
    // Eight top-level ciphertexts read pairwise round-robin: 84 accesses
    // over far more live values than the 512 MiB cache holds, a live set the
    // registry never produces. Here the code is three misses off the
    // optimum (which exact next uses reach), and LRU twice the optimum.
    let ins = CkksInstance::ins1();
    let top = ins.max_level();
    let mut b = TraceBuilder::new(&ins);
    let pool: Vec<_> = (0..8).map(|_| b.fresh_ct(top)).collect();
    for _ in 0..6 {
        for pair in pool.windows(2) {
            b.hmult_at(pair[0], pair[1], top);
        }
    }
    let trace = b.build();
    let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
    let ct = ins.ct_bytes(top);
    let lru = sim.try_run_lru(&trace).unwrap();
    assert_eq!(lru.cache_hits + lru.cache_misses, 84);
    assert_eq!(
        [
            optimum(&sim, &trace),
            policy_miss_bytes(&sim, &trace),
            lru.ct_miss_bytes
        ],
        [24 * ct, 27 * ct, 48 * ct]
    );
}

#[test]
fn reuse_code_is_optimal_where_lru_keeps_dead_values() {
    // Recency and liveness disagree: every round produces values that die
    // at once but are the most recently touched, while a long-lived operand,
    // read every other round, ages toward the LRU position. The code marks
    // the dead values `never`, so they go first, and nothing does better.
    let ins = CkksInstance::ins1();
    let mut b = TraceBuilder::new(&ins);
    let hot = b.fresh_ct(27);
    for k in 0..12 {
        let t = b.fresh_ct(27);
        let p = b.hmult_at(t, t, 27);
        let q = b.hmult_at(p, p, 27);
        if k % 2 == 0 {
            b.hmult_at(q, hot, 27);
        }
    }
    let trace = b.build();
    let sim = Simulator::new(
        BtsConfig::bts_default().with_scratchpad_bytes(384 * 1024 * 1024),
        ins,
    );
    let lru = sim.try_run_lru(&trace).unwrap();
    assert!(optimum(&sim, &trace) < lru.ct_miss_bytes);
    assert_eq!(policy_miss_bytes(&sim, &trace), optimum(&sim, &trace));
}

#[test]
fn everything_fits_costs_one_miss_per_value() {
    // No capacity pressure: the optimum loads each value once, and the
    // policy and LRU, which never evict, move the same bytes.
    let ins = CkksInstance::ins1();
    let mut b = TraceBuilder::new(&ins);
    let x = b.fresh_ct(27);
    let y = b.fresh_ct(27);
    for _ in 0..5 {
        b.hmult_at(x, y, 27);
    }
    let trace = b.build();
    let sim = Simulator::new(
        BtsConfig::bts_default().with_scratchpad_bytes(4 * 1024 * 1024 * 1024),
        ins.clone(),
    );
    let ct = ins.ct_bytes(27);
    assert_eq!(optimum(&sim, &trace), 2 * ct);
    assert_eq!(policy_miss_bytes(&sim, &trace), 2 * ct);
    assert_eq!(sim.try_run_lru(&trace).unwrap().ct_miss_bytes, 2 * ct);
}

#[test]
fn a_squared_operand_is_charged_once() {
    let ins = CkksInstance::ins1();
    let mut b = TraceBuilder::new(&ins);
    let x = b.fresh_ct(27);
    b.hmult_at(x, x, 27);
    let trace = b.build();
    let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
    assert_eq!(optimum(&sim, &trace), ins.ct_bytes(27));
    assert_eq!(policy_miss_bytes(&sim, &trace), ins.ct_bytes(27));
}

#[test]
fn forwarded_values_are_not_accesses() {
    // rot -> pmult -> add: the rotation's and the product's outputs are
    // each read once, by the next op, so they flow through the temporary
    // region. Without a cache only `x`'s two reads cost; with one, only its
    // first.
    let ins = CkksInstance::ins1();
    let mut b = TraceBuilder::new(&ins);
    let x = b.fresh_ct(27);
    let rot = b.hrot(x, 1, 27);
    let prod = b.pmult(rot, 27);
    b.hadd(prod, x, 27);
    let trace = b.build();
    let ct = ins.ct_bytes(27);
    let no_cache = Simulator::new(
        BtsConfig::bts_default().with_scratchpad_bytes(64 * 1024 * 1024),
        ins.clone(),
    );
    assert_eq!(no_cache.cache_capacity(), 0);
    let cached = Simulator::new(BtsConfig::bts_default(), ins);
    for (sim, misses) in [(&no_cache, 2), (&cached, 1)] {
        assert_eq!(optimum(sim, &trace), misses * ct);
        assert_eq!(policy_miss_bytes(sim, &trace), misses * ct);
    }
}

#[test]
fn bypassing_the_newcomer_is_the_only_optimum() {
    // A 10 MiB cache holds A (6 MiB) and B (4 MiB) when C (8 MiB) arrives;
    // B is read next, then C, then A. Caching C means dropping both, and
    // reloading B and A costs 10 MiB; bypassing C costs its 8 MiB reload.
    // So the optimum is 6 + 4 + 8 + 8 = 26 MiB, and any path that caches C
    // pays at least 28 MiB.
    let ins = CkksInstance::ins1();
    let mib = 1024 * 1024;
    assert_eq!(ins.ct_bytes(1), 4 * mib, "a ciphertext holds 2(l + 1) MiB");
    let temp = Simulator::new(BtsConfig::bts_default(), ins.clone()).temp_data_bytes();
    let sim = Simulator::new(
        BtsConfig::bts_default().with_scratchpad_bytes(temp + 10 * mib),
        ins.clone(),
    );
    assert_eq!(sim.cache_capacity(), 10 * mib);
    let mut b = TraceBuilder::new(&ins);
    let [a, bb, c] = [2, 1, 3].map(|level| (b.fresh_ct(level), level));
    for (value, level) in [a, bb, c, bb, c, a] {
        b.cadd(value, level);
    }
    let trace = b.build();
    assert_eq!(optimum(&sim, &trace), 26 * mib);
    assert_eq!(policy_miss_bytes(&sim, &trace), 26 * mib);
}

#[test]
fn the_oracle_refuses_more_than_twelve_live_values() {
    let ins = CkksInstance::ins1();
    let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
    for values in [MAX_LIVE, MAX_LIVE + 1] {
        let mut b = TraceBuilder::new(&ins);
        let cts: Vec<_> = (0..values).map(|_| b.fresh_ct(0)).collect();
        for _ in 0..2 {
            for &ct in &cts {
                b.cadd(ct, 0);
            }
        }
        let outcome = least_miss_bytes(&sim, &b.build());
        if values == MAX_LIVE {
            assert_eq!(outcome, Ok(MAX_LIVE as u64 * ins.ct_bytes(0)));
        } else {
            // The thirteenth value is touched, and still live, at op 12.
            assert_eq!(outcome, Err(TooManyLive { op: 12 }));
        }
    }
}
