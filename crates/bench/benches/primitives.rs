//! Criterion benchmarks of the number-theoretic primitives that dominate HE
//! ops (Fig. 3a's iNTT → BConv → NTT pipeline) — the software counterparts of
//! the NTTU and BConvU datapaths.
//!
//! The `modular` group times the word-level operations those kernels are
//! loops of, per element, over uniformly random residues — what every limb
//! of an RLWE ciphertext holds. Constant or sorted operands, or one short
//! vector replayed until the branch predictor has learnt it, hide exactly
//! the cost this table exists to show: a data-dependent conditional jump
//! (`if a >= b`) in a per-coefficient loop mispredicts on every other
//! element of real data and reads as free on tame data. So the in-place
//! operations run on a polynomial whose contents move on every pass, and
//! the out-of-place ones walk a pool of inputs.

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use rand::{Rng, SeedableRng};

use bts_math::{
    AutomorphismTable, BaseConverter, Modulus, NttTable, Representation, RnsBasis, RnsPoly,
};

const MODULAR_N: usize = 4096;
const MODULAR_POOL: usize = 16;

/// `x[i] = op(x[i], y[i])` through the one-limb `RnsPoly` loop that ships:
/// whether the compiler turns a `Modulus` method's `if` into a conditional
/// move or a jump depends on the loop around it, so these are timed inside
/// the library's own. `x` stays uniformly random because every pass folds
/// another operand of the pool into it.
fn bench_in_place(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    operands: &[RnsPoly],
    op: impl Fn(&mut RnsPoly, &RnsPoly),
) {
    let mut x = operands[0].clone();
    let mut pass = 0;
    group.bench_function(name, |b| {
        b.iter(|| {
            pass += 1;
            op(&mut x, &operands[pass % MODULAR_POOL]);
        })
    });
}

/// `out[i] = op(input[i])` over a pool of inputs, as `rescale`,
/// `from_signed_coefficients` and BConv's accumulator fold run it.
fn bench_out_of_place<T: Copy>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    inputs: &[Vec<T>],
    op: impl Fn(T) -> u64,
) {
    let mut out = vec![0u64; MODULAR_N];
    let mut pass = 0;
    group.bench_function(name, |b| {
        b.iter(|| {
            pass += 1;
            for (o, &a) in out.iter_mut().zip(&inputs[pass % MODULAR_POOL]) {
                *o = op(a);
            }
            black_box(&mut out);
        })
    });
}

fn bench_modular(c: &mut Criterion) {
    let basis = RnsBasis::generate(MODULAR_N, 50, 1).unwrap();
    let q = basis.modulus(0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let residues: Vec<RnsPoly> = (0..MODULAR_POOL)
        .map(|_| RnsPoly::sample_uniform(&basis, Representation::Ntt, &mut rng))
        .collect();
    let words: Vec<Vec<u64>> = (0..MODULAR_POOL)
        .map(|_| (0..MODULAR_N).map(|_| rng.gen()).collect())
        .collect();
    // Signs and magnitudes of an error polynomial.
    let signed: Vec<Vec<i64>> = words
        .iter()
        .map(|v| v.iter().map(|&w| (w as i64) >> 43).collect())
        .collect();
    let wide: Vec<Vec<u128>> = residues
        .iter()
        .zip(&words)
        .map(|(hi, lo)| {
            let pairs = hi.data().iter().zip(lo);
            pairs
                .map(|(&h, &l)| u128::from(h) << 64 | u128::from(l))
                .collect()
        })
        .collect();
    let w = [residues[0].data()[0]];

    let mut group = c.benchmark_group("modular");
    group.throughput(Throughput::Elements(MODULAR_N as u64));
    bench_in_place(&mut group, "add", &residues, |x, y| {
        x.add_assign(y).unwrap()
    });
    bench_in_place(&mut group, "sub", &residues, |x, y| {
        x.sub_assign(y).unwrap()
    });
    bench_in_place(&mut group, "mul", &residues, |x, y| {
        x.mul_assign(y).unwrap()
    });
    bench_in_place(&mut group, "mul_shoup", &residues, |x, _| {
        x.mul_constants_assign(&w)
    });
    bench_out_of_place(&mut group, "reduce", &words, |a| q.reduce(a));
    bench_out_of_place(&mut group, "from_i64", &signed, |a| q.from_i64(a));
    bench_out_of_place(&mut group, "reduce_u128", &wide, |a| q.reduce_u128(a));
    group.finish();
}

fn bench_ntt(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt_forward_inverse");
    for log_n in [10u32, 12, 13] {
        let n = 1usize << log_n;
        let prime = bts_math::generate_ntt_primes(n, 50, 1)[0];
        let table = NttTable::new(n, Modulus::new(prime)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..prime)).collect();
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| {
                let mut v = data.clone();
                table.forward(&mut v);
                v
            })
        });
        group.bench_with_input(BenchmarkId::new("inverse", n), &n, |b, _| {
            b.iter(|| {
                let mut v = data.clone();
                table.inverse(&mut v);
                v
            })
        });
    }
    group.finish();
}

fn bench_bconv(c: &mut Criterion) {
    let mut group = c.benchmark_group("base_conversion");
    let n = 1usize << 12;
    for limbs in [4usize, 8, 12] {
        let src = RnsBasis::generate(n, 45, limbs).unwrap();
        let dst = RnsBasis::generate(n, 47, limbs).unwrap();
        let conv = BaseConverter::new(&src, &dst).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let data = RnsPoly::sample_uniform(&src, Representation::Coefficient, &mut rng);
        group.bench_with_input(BenchmarkId::new("fast", limbs), &limbs, |b, _| {
            b.iter(|| conv.convert(&data))
        });
    }
    group.finish();
}

fn bench_automorphism(c: &mut Criterion) {
    let n = 1usize << 13;
    let prime = bts_math::generate_ntt_primes(n, 50, 1)[0];
    let table = AutomorphismTable::from_rotation(n, 3).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..prime)).collect();
    c.bench_function("automorphism_permutation_n8192", |b| {
        b.iter(|| table.apply(&data, prime))
    });
}

criterion_group!(
    benches,
    bench_modular,
    bench_ntt,
    bench_bconv,
    bench_automorphism
);
criterion_main!(benches);
