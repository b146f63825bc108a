//! Cross-crate integration tests: the functional CKKS pipeline from encoding
//! through encrypted arithmetic back to decryption, exercised end to end.

use bts::ckks::{ChebyshevSeries, CkksContext, Complex};
use rand::SeedableRng;

fn relative_error(a: &[Complex], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x.re - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn encrypt_decrypt_roundtrip() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let ctx = CkksContext::new_toy(1 << 10, 4, 1).unwrap();
    let (sk, _keys) = ctx.generate_keys(&mut rng).unwrap();
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new((i as f64).sqrt() / 40.0, -(i as f64) / 1000.0))
        .collect();
    let ct = ctx
        .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
        .unwrap();
    let out = ctx.decode(&ctx.decrypt(&ct, &sk).unwrap()).unwrap();
    for (a, b) in msg.iter().zip(&out) {
        assert!((*a - *b).abs() < 1e-4, "{a:?} vs {b:?}");
    }
}

#[test]
fn public_key_encryption_matches_secret_key_encryption() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let ctx = CkksContext::new_toy(1 << 10, 4, 2).unwrap();
    let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new(i as f64 * 1e-3, 0.0))
        .collect();
    let pt = ctx.encode(&msg).unwrap();
    let ct = ctx.encrypt_public(&pt, &keys, &mut rng).unwrap();
    let out = ctx.decode(&ctx.decrypt(&ct, &sk).unwrap()).unwrap();
    for (a, b) in msg.iter().zip(&out) {
        assert!((*a - *b).abs() < 1e-3);
    }
}

#[test]
fn homomorphic_mult_add_and_rescale() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let ctx = CkksContext::new_toy(1 << 11, 5, 1).unwrap();
    let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
    let eval = ctx.evaluator(&keys);
    let x: Vec<f64> = (0..ctx.slots()).map(|i| ((i % 50) as f64) / 50.0).collect();
    let y: Vec<f64> = (0..ctx.slots())
        .map(|i| 1.0 - ((i % 31) as f64) / 31.0)
        .collect();
    let ct_x = ctx
        .encrypt(&ctx.encode_real(&x).unwrap(), &sk, &mut rng)
        .unwrap();
    let ct_y = ctx
        .encrypt(&ctx.encode_real(&y).unwrap(), &sk, &mut rng)
        .unwrap();

    // (x*y) + y. Both branches consume exactly one level: the product through
    // mul+rescale, the y branch through a unit CMult+rescale that matches the
    // product's scale.
    let prod = eval.mul_rescale(&ct_x, &ct_y).unwrap();
    let y_rescaled = eval.rescale(&eval.mul_const(&ct_y, 1.0).unwrap()).unwrap();
    let sum = eval.add(&prod, &y_rescaled).unwrap();
    assert_eq!(sum.level(), ctx.max_level() - 1);

    let out = ctx.decode(&ctx.decrypt(&sum, &sk).unwrap()).unwrap();
    let expect: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a * b + b).collect();
    assert!(relative_error(&out, &expect) < 1e-2);
}

#[test]
fn deep_multiplication_chain_consumes_levels() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let ctx = CkksContext::new_toy(1 << 10, 5, 1).unwrap();
    let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
    let eval = ctx.evaluator(&keys);
    let x: Vec<f64> = (0..ctx.slots())
        .map(|i| 0.9 + (i % 10) as f64 * 0.01)
        .collect();
    let mut ct = ctx
        .encrypt(&ctx.encode_real(&x).unwrap(), &sk, &mut rng)
        .unwrap();
    let mut expect: Vec<f64> = x.clone();
    for _ in 0..3 {
        ct = eval.mul_rescale(&ct, &ct).unwrap();
        expect.iter_mut().for_each(|v| *v = *v * *v);
    }
    assert_eq!(ct.level(), ctx.max_level() - 3);
    let out = ctx.decode(&ctx.decrypt(&ct, &sk).unwrap()).unwrap();
    assert!(relative_error(&out, &expect) < 5e-2);
    // No more levels for another multiplication chain step beyond level 0.
    let exhausted = eval.mul_rescale(&ct, &ct).unwrap();
    assert_eq!(exhausted.level(), ctx.max_level() - 4);
}

#[test]
fn rotation_and_conjugation() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let ctx = CkksContext::new_toy(1 << 10, 3, 1).unwrap();
    let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
    ctx.add_rotation_keys(&sk, &mut keys, &[1, 7], &mut rng)
        .unwrap();
    let eval = ctx.evaluator(&keys);
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new(i as f64 / 100.0, (i % 3) as f64 * 0.1))
        .collect();
    let ct = ctx
        .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
        .unwrap();

    for r in [1usize, 7] {
        let rotated = eval.rotate(&ct, r as i64).unwrap();
        let out = ctx.decode(&ctx.decrypt(&rotated, &sk).unwrap()).unwrap();
        for i in 0..ctx.slots() {
            let expect = msg[(i + r) % ctx.slots()];
            assert!((out[i] - expect).abs() < 1e-3, "r={r} slot {i}");
        }
    }

    let conj = eval.conjugate(&ct).unwrap();
    let out = ctx.decode(&ctx.decrypt(&conj, &sk).unwrap()).unwrap();
    for i in 0..ctx.slots() {
        assert!((out[i] - msg[i].conj()).abs() < 1e-3, "conjugate slot {i}");
    }
}

#[test]
fn missing_rotation_key_is_reported() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let ctx = CkksContext::new_toy(1 << 10, 3, 1).unwrap();
    let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
    let eval = ctx.evaluator(&keys);
    let msg = vec![Complex::new(1.0, 0.0)];
    let ct = ctx
        .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
        .unwrap();
    let err = eval.rotate(&ct, 5).unwrap_err();
    assert!(matches!(err, bts::ckks::CkksError::MissingKey(_)));
}

#[test]
fn scalar_and_plaintext_operations() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let ctx = CkksContext::new_toy(1 << 10, 4, 2).unwrap();
    let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
    let eval = ctx.evaluator(&keys);
    let x: Vec<f64> = (0..ctx.slots()).map(|i| (i % 20) as f64 * 0.05).collect();
    let ct = ctx
        .encrypt(&ctx.encode_real(&x).unwrap(), &sk, &mut rng)
        .unwrap();

    // 3.5·x - 1.25 via CMult / CAdd.
    let scaled = eval.rescale(&eval.mul_const(&ct, 3.5).unwrap()).unwrap();
    let shifted = eval.add_const(&scaled, -1.25).unwrap();
    let out = ctx.decode(&ctx.decrypt(&shifted, &sk).unwrap()).unwrap();
    for (i, o) in out.iter().enumerate().take(32) {
        let expect = 3.5 * x[i] - 1.25;
        assert!(
            (o.re - expect).abs() < 1e-3,
            "slot {i}: {} vs {expect}",
            o.re
        );
    }

    // Polynomial evaluation 1 + 2t + 0.5t², as the Chebyshev series that
    // equals it on [-1, 1] (t ∈ [0, 0.95]).
    let series = ChebyshevSeries::fit(|t| 1.0 + 2.0 * t + 0.5 * t * t, 1.0, 2).unwrap();
    let poly = series.eval_homomorphic(&eval, &ct).unwrap();
    let out = ctx.decode(&ctx.decrypt(&poly, &sk).unwrap()).unwrap();
    for (i, o) in out.iter().enumerate().take(32) {
        let t = x[i];
        let expect = 1.0 + 2.0 * t + 0.5 * t * t;
        assert!(
            (o.re - expect).abs() < 1e-2,
            "slot {i}: {} vs {expect}",
            o.re
        );
    }
}
