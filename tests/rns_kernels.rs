//! The RNS kernels of the functional path against the bodies they replaced,
//! which live on here as oracles (the PR 13 / 15 / 16 pattern):
//!
//! * (a) the NTT-domain automorphism (a gather) vs iNTT → signed coefficient
//!   permutation → NTT, with no transform executed by the gather;
//! * (b) the chunked lazy NTT butterflies and their fused tails vs the eager
//!   reference transforms, down to the sizes where a stage is a single block
//!   or a single pair, on random and on extreme inputs;
//! * (c) single-iNTT `rescale` vs the all-limb coefficient-domain rescale;
//! * (d) scalar `mul_const` / `add_const` vs encoding the constant (as one
//!   slot and as the full splat) and applying it as a plaintext;
//! * (e) hoisted rotations: `rotate_hoisted` ≡ `rotate` per step bitwise,
//!   `key_switch` ≡ `decompose` ∘ `switch_decomposed` bitwise, one ModUp per
//!   group by span count, and decryptions against the un-hoisted rotation
//!   (permute, then key-switch) inside the existing error bounds;
//! * (f) the SSA oracle (`common/ssa_oracle.rs`: a memo-less walk of the
//!   circuit's nodes) vs the bytecode executor, bitwise, on circuits built to
//!   thrash and to stale the executor's digit memo;
//! * (g) the branch-free `Modulus::{sub, reduce, from_i64}` vs `u128` / `i128`
//!   arithmetic, and `BaseConverter`'s lane-blocked MAC vs `convert_eager`
//!   where the `u128` accumulators fold mid-row and where a limb is shorter
//!   than a lane block.
//!
//! The slice-at-a-time key-switch body is the one oracle that needs crate
//! internals; it sits beside `CkksContext::key_switch` as a `#[cfg(test)]`
//! method (`key_switch_matches_the_slice_at_a_time_reference`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bts::circuit::{compile, CircuitBuilder, FunctionalBackend, Opcode};
use bts::ckks::{Ciphertext, CkksContext, Complex, KeyBundle, SecretKey};
use bts::math::{
    galois_element, generate_ntt_primes, AutomorphismTable, BaseConverter, Modulus, NttTable,
    Representation, RnsBasis, RnsPoly,
};
use bts::params::CkksInstance;
use bts::telemetry;

#[path = "common/ssa_oracle.rs"]
mod ssa_oracle;

// ---------------------------------------------------------------------------
// (a) NTT-domain automorphism
// ---------------------------------------------------------------------------

/// The replaced body of `RnsPoly::automorphism_apply` on NTT input.
fn automorphism_round_trip(poly: &RnsPoly, table: &AutomorphismTable) -> RnsPoly {
    let mut work = poly.clone();
    work.to_coefficient();
    let mut out = work.automorphism(table);
    out.to_ntt();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ntt_domain_automorphism_matches_the_round_trip(
        seed in any::<u64>(),
        log_n in 3u32..13,
        limbs in 1usize..5,
        odd in any::<u64>(),
        rotation in -5000i64..5000,
    ) {
        let n = 1usize << log_n;
        let basis = RnsBasis::generate(n, 45, limbs).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let poly = RnsPoly::sample_uniform(&basis, Representation::Ntt, &mut rng);
        let galois = [
            odd | 1,                             // any odd element, unreduced
            galois_element(rotation, n, false),  // a slot rotation
            galois_element(0, n, true),          // conjugation, 2N − 1
        ];
        for g in galois {
            let table = AutomorphismTable::new(n, g).unwrap();
            let expected = automorphism_round_trip(&poly, &table);

            let run = telemetry::capture();
            let gathered = poly.automorphism(&table);
            let mut in_place = poly.clone();
            in_place.automorphism_apply(&table, &mut Vec::new());
            let transforms = run
                .finish()
                .events
                .iter()
                .filter(|e| e.name.starts_with("ntt."))
                .count();

            prop_assert!(gathered == expected, "galois element {g}");
            prop_assert!(in_place == expected, "galois element {g}, in place");
            prop_assert!(transforms == 0, "a gather executed {transforms} (i)NTTs");
        }
    }
}

// ---------------------------------------------------------------------------
// (b) NTT butterflies
// ---------------------------------------------------------------------------

#[test]
fn chunked_butterflies_match_the_eager_transforms() {
    for bits in [40u32, 50, 61] {
        for log_n in 1..=13u32 {
            let n = 1usize << log_n;
            let q = Modulus::new(generate_ntt_primes(n, bits, 1)[0]);
            let table = NttTable::new(n, q).unwrap();
            let mut rng = StdRng::seed_from_u64(u64::from(bits) << 8 | u64::from(log_n));
            // Random residues plus the extremes the lazy ranges hinge on,
            // then the inputs that drive every lane of the fused tails to an
            // end of its range at once.
            let top = q.value() - 1;
            let mut random: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            random[0] = top;
            random[n - 1] = 0;
            let alternating = (0..n).map(|i| if i % 2 == 0 { 0 } else { top }).collect();
            for data in [random, vec![top; n], vec![0; n], alternating] {
                let (mut lazy, mut eager) = (data.clone(), data.clone());
                table.forward(&mut lazy);
                table.forward_eager(&mut eager);
                assert_eq!(lazy, eager, "forward, {bits} bits, N = {n}");
                table.inverse(&mut lazy);
                table.inverse_eager(&mut eager);
                assert_eq!(lazy, eager, "inverse, {bits} bits, N = {n}");
                assert_eq!(lazy, data, "round trip, {bits} bits, N = {n}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared CKKS fixture
// ---------------------------------------------------------------------------

struct Fixture {
    ctx: CkksContext,
    sk: SecretKey,
    keys: KeyBundle,
    rng: StdRng,
}

impl Fixture {
    fn new(log_n: u32, max_level: usize, dnum: usize, rotations: &[i64], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = CkksContext::new_toy(1 << log_n, max_level, dnum).unwrap();
        let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
        ctx.add_rotation_keys(&sk, &mut keys, rotations, &mut rng)
            .unwrap();
        Self { ctx, sk, keys, rng }
    }

    fn message(&self) -> Vec<Complex> {
        (0..self.ctx.slots())
            .map(|i| Complex::new(0.3 * (i as f64 * 0.37).sin(), 0.2 * (i as f64 * 0.11).cos()))
            .collect()
    }

    /// One fresh ciphertext of `message` per level, top level first. The
    /// lower ones come from multiply-and-rescale, so their scales carry the
    /// drift real circuits see.
    fn ladder(&mut self) -> Vec<Ciphertext> {
        let eval = self.ctx.evaluator(&self.keys);
        let pt = self.ctx.encode(&self.message()).unwrap();
        let mut ladder = vec![self.ctx.encrypt(&pt, &self.sk, &mut self.rng).unwrap()];
        for _ in 0..self.ctx.max_level() {
            let last = ladder.last().unwrap();
            ladder.push(eval.rescale(&eval.mul_const(last, 1.0).unwrap()).unwrap());
        }
        ladder
    }

    fn decrypt(&self, ct: &Ciphertext) -> Vec<Complex> {
        self.ctx
            .decode(&self.ctx.decrypt(ct, &self.sk).unwrap())
            .unwrap()
    }
}

fn worst_error(got: &[Complex], want: impl Fn(usize) -> Complex) -> f64 {
    got.iter()
        .enumerate()
        .map(|(i, &g)| (g - want(i)).abs())
        .fold(0.0, f64::max)
}

// ---------------------------------------------------------------------------
// (c) rescale
// ---------------------------------------------------------------------------

/// The replaced body of `Evaluator::rescale`: every limb to the coefficient
/// domain, the exact division there, every kept limb back.
fn rescale_reference(ctx: &CkksContext, a: &Ciphertext) -> Ciphertext {
    let last = a.level();
    let q_last = ctx.q_basis().modulus(last).value();
    let rescale_poly = |poly: &RnsPoly| -> RnsPoly {
        let mut work = poly.clone();
        work.to_coefficient();
        let last_limb = work.limb(last).to_vec();
        let mut kept = work.into_keep_limbs(last);
        let basis = kept.basis().clone();
        for i in 0..last {
            let qi = basis.modulus(i);
            let q_last_inv = qi.shoup(qi.inv(qi.reduce(q_last)).unwrap());
            for (coeff, &borrowed) in kept.limb_mut(i).iter_mut().zip(&last_limb) {
                *coeff = qi.mul_shoup(qi.sub(*coeff, qi.reduce(borrowed)), &q_last_inv);
            }
        }
        kept.to_ntt();
        kept
    };
    Ciphertext::new(
        rescale_poly(a.c0()),
        rescale_poly(a.c1()),
        last - 1,
        a.scale() / q_last as f64,
    )
}

#[test]
fn single_intt_rescale_matches_the_all_limb_reference() {
    let mut f = Fixture::new(7, 6, 2, &[], 31);
    let ladder = f.ladder();
    let eval = f.ctx.evaluator(&f.keys);
    for ct in ladder {
        if ct.level() == 0 {
            assert!(eval.rescale(&ct).is_err(), "level 0 cannot rescale");
            continue;
        }
        // A product at this level: the shape rescale sees in a circuit.
        let product = eval.mul(&ct, &ct).unwrap();
        for input in [&ct, &product] {
            let run = telemetry::capture();
            let rescaled = eval.rescale(input).unwrap();
            let events = run.finish().events;
            assert_eq!(rescaled, rescale_reference(&f.ctx, input));
            let spans = |name: &str| events.iter().filter(|e| e.name == name).count();
            assert_eq!(spans("ntt.inverse"), 2, "only the dropped limbs leave");
            assert_eq!(spans("ntt.forward"), 2 * input.level());
        }
    }
}

// ---------------------------------------------------------------------------
// (d) scalar constants
// ---------------------------------------------------------------------------

#[test]
fn scalar_constants_match_encoding_the_constant() {
    let mut f = Fixture::new(6, 5, 2, &[], 77);
    let ladder = f.ladder();
    let eval = f.ctx.evaluator(&f.keys);
    let delta = f.ctx.scale();
    // Positive, negative, zero, below 1/scale (rounds to zero) and just
    // above it, and one whose scaled value needs more than 53 bits of care.
    let values = [
        0.5,
        -0.37,
        0.0,
        -0.0,
        0.3 / delta,
        -0.4 / delta,
        0.7 / delta,
        1.0,
        -123.456,
        1.0e5 / 3.0,
    ];
    for ct in &ladder {
        for &value in &values {
            let one_slot = [Complex::new(value, 0.0)];
            let splat = vec![Complex::new(value, 0.0); f.ctx.slots()];
            for message in [&one_slot[..], &splat[..]] {
                let pt = f.ctx.encode_at(message, ct.level(), delta).unwrap();
                assert_eq!(
                    eval.mul_const(ct, value).unwrap(),
                    eval.mul_plain(ct, &pt).unwrap(),
                    "mul_const({value}) at level {}",
                    ct.level()
                );
                let pt = f.ctx.encode_at(message, ct.level(), ct.scale()).unwrap();
                assert_eq!(
                    eval.add_const(ct, value).unwrap(),
                    eval.add_plain(ct, &pt).unwrap(),
                    "add_const({value}) at level {}",
                    ct.level()
                );
            }
        }
    }
    // The scale guard `add_plain` applied still applies.
    let ct = &ladder[0];
    let broken = Ciphertext::new(ct.c0().clone(), ct.c1().clone(), ct.level(), 0.0);
    assert!(eval.add_const(&broken, 1.0).is_err());
    // Coefficient-domain limbs are refused by the slot-wise kernels, as the
    // plaintext path refused them.
    let (mut c0, mut c1) = (ct.c0().clone(), ct.c1().clone());
    c0.to_coefficient();
    c1.to_coefficient();
    let coefficient = Ciphertext::new(c0, c1, ct.level(), ct.scale());
    assert!(eval.add_const(&coefficient, 1.0).is_err());
    assert!(eval.rescale(&coefficient).is_err());
}

// ---------------------------------------------------------------------------
// (e) hoisted rotations
// ---------------------------------------------------------------------------

/// The replaced body of `Evaluator::rotate` / `conjugate`: permute both
/// polynomials, then a full key-switch (its own ModUp) of the permuted `c1`.
fn galois_reference(f: &Fixture, a: &Ciphertext, rotation: Option<i64>) -> Ciphertext {
    let n = f.ctx.degree();
    let (galois, key) = match rotation {
        Some(r) => (galois_element(r, n, false), f.keys.rotation(r)),
        None => (galois_element(0, n, true), f.keys.conjugation()),
    };
    let table = AutomorphismTable::new(n, galois).unwrap();
    let mut c0 = a.c0().automorphism(&table);
    let c1 = a.c1().automorphism(&table);
    let (kb, ka) = f.ctx.key_switch(&c1, key.unwrap()).unwrap();
    c0.add_assign(&kb).unwrap();
    Ciphertext::new(c0, ka, a.level(), a.scale())
}

#[test]
fn hoisted_rotations_equal_single_rotations_bitwise() {
    let steps = [1i64, 3, 0, -2, 17, 3];
    for (max_level, dnum) in [(5, 2), (4, 1), (6, 3)] {
        let mut f = Fixture::new(7, max_level, dnum, &steps, 909);
        let ladder = f.ladder();
        let eval = f.ctx.evaluator(&f.keys);
        let slots = f.ctx.slots() as i64;
        let message = f.message();
        for ct in &ladder {
            let run = telemetry::capture();
            let group = eval.rotate_hoisted(ct, &steps).unwrap();
            let events = run.finish().events;
            let spans = |name: &str| events.iter().filter(|e| e.name == name).count();
            // One ModUp for the group: ⌈(ℓ+1)/k⌉ BConvs, plus two ModDowns
            // per key-switched step (the zero step is a copy).
            let slices = (ct.level() + 1).div_ceil(f.ctx.num_special());
            let switched = steps.iter().filter(|&&r| r != 0).count();
            assert_eq!(spans("ckks.decompose"), 1);
            assert_eq!(spans("bconv.convert_into"), slices + 2 * switched);

            let digits = eval.decompose(ct).unwrap();
            for (&r, hoisted) in steps.iter().zip(&group) {
                assert_eq!(hoisted, &eval.rotate(ct, r).unwrap(), "step {r}");
                assert_eq!(
                    hoisted,
                    &eval.rotate_decomposed(ct, &digits, r).unwrap(),
                    "step {r} on shared digits"
                );
                // Against the un-hoisted body: not the same bits (fast base
                // conversion of a permuted input rounds differently), the
                // same message well inside the rotation tests' 1e-3 bound.
                let want = |i: usize| message[(i as i64 + r).rem_euclid(slots) as usize];
                let reference = f.decrypt(&galois_reference(&f, ct, Some(r)));
                let got = f.decrypt(hoisted);
                assert!(worst_error(&got, want) < 1e-4, "step {r}");
                assert!(worst_error(&got, |i| reference[i]) < 1e-4, "step {r}");
            }
            let conj = eval.conjugate(ct).unwrap();
            assert_eq!(conj, eval.conjugate_decomposed(ct, &digits).unwrap());
            let reference = f.decrypt(&galois_reference(&f, ct, None));
            let got = f.decrypt(&conj);
            assert!(worst_error(&got, |i| message[i].conj()) < 1e-4);
            assert!(worst_error(&got, |i| reference[i]) < 1e-4);

            // Digits cut from another ciphertext are refused, not misused.
            let other = eval.add(ct, ct).unwrap();
            assert!(eval.rotate_decomposed(&other, &digits, 1).is_err());
        }
        // A missing key is still a typed error.
        assert!(eval.rotate_hoisted(&ladder[0], &[1, 5]).is_err());
    }
}

#[test]
fn key_switch_is_decompose_then_switch() {
    let mut f = Fixture::new(7, 5, 2, &[], 4242);
    for ct in f.ladder() {
        let d = ct.c1().mul(ct.c1()).unwrap();
        let digits = f.ctx.decompose(&d).unwrap();
        assert_eq!(digits.level(), ct.level());
        assert_eq!(
            f.ctx.key_switch(&d, f.keys.relin()).unwrap(),
            f.ctx
                .switch_decomposed(&digits, f.keys.relin(), None)
                .unwrap()
        );
    }
    // Coefficient-domain input is refused rather than transformed twice.
    let mut coeff = f.ladder().remove(0).c1().clone();
    coeff.to_coefficient();
    assert!(f.ctx.decompose(&coeff).is_err());
}

// ---------------------------------------------------------------------------
// (f) the executor's digit memo
// ---------------------------------------------------------------------------

/// Runs `build`'s circuit through the SSA oracle and the bytecode executor
/// (same instance, seed and inputs) and holds their outputs bit-equal.
/// Returns the compiled program for the caller to inspect.
fn executors_agree(
    ins: &CkksInstance,
    build: impl Fn(&mut CircuitBuilder),
) -> bts::circuit::CompiledCircuit {
    let mut b = CircuitBuilder::new(ins);
    build(&mut b);
    let circuit = b.build();
    let compiled = compile(&circuit).unwrap();
    let tree = ssa_oracle::execute(ins, 11, &circuit);
    let flat = FunctionalBackend::new(ins, 11)
        .unwrap()
        .execute_compiled(&compiled)
        .unwrap();
    assert_eq!(tree.op_counts, flat.op_counts);
    assert_eq!(tree.outputs.len(), flat.outputs.len());
    for (a, b) in tree.outputs.iter().zip(&flat.outputs) {
        let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        assert_eq!(bits(a), bits(b), "executors diverged bitwise");
    }
    assert!(tree.outputs.iter().flatten().all(|c| c.re.is_finite()));
    compiled
}

#[test]
fn interleaved_rotation_sources_thrash_the_memo_harmlessly() {
    let ins = CkksInstance::toy(9, 5, 2);
    executors_agree(&ins, |b| {
        let x = b.input();
        let y = b.input();
        // x, y, x, y, conj x, y, x: every rotation evicts the other source.
        let mut acc = b.hrot(x, 1).unwrap();
        for (i, source) in [y, x, y].into_iter().enumerate() {
            let r = b.hrot(source, i as i64 + 2).unwrap();
            acc = b.hadd(acc, r).unwrap();
        }
        let c = b.conjugate(x).unwrap();
        acc = b.hadd(acc, c).unwrap();
        let r = b.hrot(y, 1).unwrap();
        acc = b.hadd(acc, r).unwrap();
        // A zero rotation is a copy and must not disturb anything.
        let z = b.hrot(x, 0).unwrap();
        let r = b.hrot(x, 3).unwrap();
        acc = b.hadd(acc, z).unwrap();
        acc = b.hadd(acc, r).unwrap();
        b.output(acc);
    });
}

#[test]
fn a_recycled_source_register_never_serves_stale_digits() {
    let ins = CkksInstance::toy(9, 5, 2);
    let compiled = executors_agree(&ins, |b| {
        let x = b.input();
        // Each rotation's source dies at the rotation, so linear scan hands
        // its register straight to the result — which is rotated next.
        let r1 = b.hrot(x, 1).unwrap();
        let r2 = b.hrot(r1, 2).unwrap();
        let s = b.cmult(r2, 0.5).unwrap();
        let s = b.rescale(s).unwrap();
        let r3 = b.hrot(s, 1).unwrap();
        let c = b.conjugate(r3).unwrap();
        b.output(c);
    });
    // The scenario is real: consecutive rotations read one register while it
    // holds two different values.
    let rotations: Vec<_> = compiled
        .ops
        .iter()
        .filter(|op| matches!(op.opcode, Opcode::HRot | Opcode::Conjugate))
        .collect();
    assert!(rotations
        .windows(2)
        .any(|w| w[0].a == w[1].a && w[0].free_a && w[0].dst == w[0].a));
}

// ---------------------------------------------------------------------------
// (g) Branch-free modular primitives and the lane-blocked BConv MAC
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn modular_primitives_match_wide_reference_arithmetic(
        a in any::<u64>(),
        b in any::<u64>(),
        s in any::<i64>(),
    ) {
        for bits in [30u32, 40, 50, 61] {
            let q = generate_ntt_primes(8, bits, 1)[0];
            let m = Modulus::new(q);

            let (x, y) = (a % q, b % q);
            let pairs = [(x, y), (y, x), (x, x), (0, y), (x, 0), (0, 0), (x, q - 1), (0, q - 1)];
            for (x, y) in pairs {
                let expected = (u128::from(x) + u128::from(q) - u128::from(y)) % u128::from(q);
                prop_assert!(u128::from(m.sub(x, y)) == expected, "{} - {} mod {}", x, y, q);
            }

            let last_multiple = u64::MAX / q * q;
            let edges = [0, q - 1, q, q + 1, 2 * q - 1, 2 * q, last_multiple - 1, last_multiple];
            for v in edges.into_iter().chain([a, b, u64::MAX]) {
                prop_assert!(m.reduce(v) == v % q, "reduce({}) mod {}", v, q);
            }

            // `s >> 43` mixes signs at the magnitude of an error polynomial.
            let edges = [0, 1, -1, q as i64, -(q as i64), i64::MAX, i64::MIN];
            for v in edges.into_iter().chain([s, s.wrapping_neg(), s >> 43]) {
                let expected = i128::from(v).rem_euclid(i128::from(q));
                prop_assert!(i128::from(m.from_i64(v)) == expected, "from_i64({}) mod {}", v, q);
            }
        }
    }
}

#[test]
fn lane_blocked_bconv_matches_the_eager_reference() {
    // 61-bit sources into 61-bit targets leave a u128 accumulator room for 32
    // terms, so 67 source limbs fold twice inside every lane block; 5 limbs
    // never fold. N = 2 and N = 4 are limbs no longer than one block.
    for (log_n, source_limbs) in [(1u32, 67usize), (2, 67), (3, 34), (5, 67), (1, 5), (6, 5)] {
        let n = 1usize << log_n;
        let all = RnsBasis::generate(n, 61, source_limbs + 3).unwrap();
        let source = all.prefix(source_limbs);
        let target = all.select(&[source_limbs, source_limbs + 1, source_limbs + 2]);
        let converter = BaseConverter::new(&source, &target).unwrap();
        let mut rng = StdRng::seed_from_u64(u64::from(log_n) << 8 | source_limbs as u64);
        let poly = RnsPoly::sample_uniform(&source, Representation::Coefficient, &mut rng);
        let case = format!("N = {n}, {source_limbs} source limbs");
        assert_eq!(
            converter.convert(&poly),
            converter.convert_eager(&poly, false),
            "fast, {case}"
        );
        assert_eq!(
            converter.convert_exact(&poly),
            converter.convert_eager(&poly, true),
            "exact, {case}"
        );
    }
}
