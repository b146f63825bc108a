//! Criterion benchmark of the key-switching inner loop (Fig. 3a's
//! iNTT → BConv → NTT → ⊙evk → ModDown pipeline) in isolation — the routine
//! both HMult and HRot funnel through. `key_switch` is the allocating form:
//! each call makes the two allocations of its result pair and nothing else
//! (`decompose` and every `_into` op make none warm, held by
//! `tests/functional_allocs.rs`). A second group times hoisted rotation
//! groups, where one ModUp is shared by every step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;

use bts_ckks::{CkksContext, Complex};

fn bench_keyswitch(c: &mut Criterion) {
    let mut group = c.benchmark_group("ckks_keyswitch");
    for (label, max_level, dnum) in [("L6_dnum2", 6usize, 2usize), ("L8_dnum3", 8, 3)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let ctx = CkksContext::new_toy(1 << 11, max_level, dnum).unwrap();
        let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
        let msg: Vec<Complex> = (0..ctx.slots())
            .map(|i| Complex::new((i as f64 * 0.01).sin(), 0.0))
            .collect();
        let pt = ctx.encode(&msg).unwrap();
        let ct = ctx.encrypt(&pt, &sk, &mut rng).unwrap();
        // The polynomial fed to key_switch during HMult is c1², at top level.
        let d = ct.c1().mul(ct.c1()).unwrap();
        group.bench_with_input(BenchmarkId::new("n2048", label), &d, |b, d| {
            b.iter(|| ctx.key_switch(d, keys.relin()).unwrap())
        });
    }
    group.finish();
}

/// A hoisted rotation group — one ModUp, then a permuted inner product and
/// two ModDowns per step — at 1, 4 and 10 steps: the per-step cost falls as
/// the shared ModUp amortizes (`rotate` is the one-step group).
fn bench_hoisted_group(c: &mut Criterion) {
    let mut group = c.benchmark_group("ckks_hoisted_rotations");
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let ctx = CkksContext::new_toy(1 << 11, 6, 2).unwrap();
    let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
    let steps: Vec<i64> = (1..=10).collect();
    ctx.add_rotation_keys(&sk, &mut keys, &steps, &mut rng)
        .unwrap();
    let eval = ctx.evaluator(&keys);
    let msg = vec![Complex::new(0.25, 0.0); ctx.slots()];
    let ct = ctx
        .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
        .unwrap();
    for count in [1usize, 4, 10] {
        group.bench_with_input(
            BenchmarkId::new("n2048_L6_dnum2", count),
            &count,
            |b, &count| b.iter(|| eval.rotate_hoisted(&ct, &steps[..count]).unwrap()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_keyswitch, bench_hoisted_group
}
criterion_main!(benches);
