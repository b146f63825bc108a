//! Determinism under limb parallelism: every kernel that fans per-limb work
//! across the `BTS_THREADS` pool must produce bit-identical results for any
//! thread count, because each limb task writes a disjoint slice with exact
//! integer arithmetic. This is the invariant that lets CI run the figures
//! pipeline pinned to one thread while the test suite also runs at four.
//!
//! The whole comparison lives in a single `#[test]` because the thread-count
//! override is process-global.

use rand::SeedableRng;

use bts::ckks::{CkksContext, Complex};
use bts::math::{par, AutomorphismTable, Representation, RnsBasis, RnsPoly};

/// Runs one full mixed workload (poly kernels + HE ops) and returns every
/// result as raw residue data for exact comparison.
fn run_workload() -> (Vec<Vec<u64>>, Vec<f64>) {
    let mut polys = Vec::new();

    // Math-layer kernels on a standalone basis.
    let basis = RnsBasis::generate(1 << 7, 45, 4).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let a = RnsPoly::sample_uniform(&basis, Representation::Coefficient, &mut rng);
    let b = RnsPoly::sample_uniform(&basis, Representation::Coefficient, &mut rng);
    let mut a_ntt = a.clone();
    a_ntt.to_ntt();
    let mut b_ntt = b.clone();
    b_ntt.to_ntt();
    let prod = a_ntt.mul(&b_ntt).unwrap();
    polys.push(prod.data().to_vec());
    let table = AutomorphismTable::from_rotation(1 << 7, 3).unwrap();
    polys.push(a.automorphism(&table).data().to_vec());
    // The NTT-domain gather fans out per limb like the coefficient form.
    polys.push(a_ntt.automorphism(&table).data().to_vec());

    // HE ops through the full key-switching pipeline.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let ctx = CkksContext::new_toy(1 << 10, 4, 2).unwrap();
    let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
    ctx.add_rotation_keys(&sk, &mut keys, &[1, 2, 5], &mut rng)
        .unwrap();
    let eval = ctx.evaluator(&keys);
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new((i as f64 * 0.05).sin(), 0.0))
        .collect();
    let pt = ctx.encode(&msg).unwrap();
    let ct = ctx.encrypt(&pt, &sk, &mut rng).unwrap();
    let product = eval.mul(&ct, &ct).unwrap();
    let rescaled = eval.rescale(&product).unwrap();
    let rotated = eval.rotate(&rescaled, 1).unwrap();
    // A hoisted group (shared ModUp, permuted inner products), conjugation,
    // the scalar ops and the single-iNTT rescale of their results.
    let mut results = eval.rotate_hoisted(&rescaled, &[2, 5]).unwrap();
    results.push(eval.conjugate(&rescaled).unwrap());
    let scaled = eval.mul_const(&rotated, -0.75).unwrap();
    results.push(
        eval.add_const(&eval.rescale(&scaled).unwrap(), 0.125)
            .unwrap(),
    );
    results.push(rotated.clone());
    for ct in &results {
        for c in [ct.c0(), ct.c1()] {
            polys.push(c.data().to_vec());
        }
    }

    let decrypted = ctx.decrypt(&rotated, &sk).unwrap();
    let decoded: Vec<f64> = ctx
        .decode(&decrypted)
        .unwrap()
        .iter()
        .map(|z| z.re)
        .collect();
    (polys, decoded)
}

#[test]
fn results_are_bit_identical_across_thread_counts() {
    par::set_threads(1);
    let (serial_polys, serial_msg) = run_workload();
    par::set_threads(4);
    let (parallel_polys, parallel_msg) = run_workload();
    par::set_threads(0);

    assert_eq!(
        serial_polys, parallel_polys,
        "residue data diverged between 1 and 4 threads"
    );
    // The decoded floats go through the same exact residues, so they must be
    // bitwise equal too.
    assert_eq!(serial_msg, parallel_msg);
}
