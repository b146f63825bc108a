//! Results written into recycled buffers are the results: every evaluator
//! op's `_into` body, given a destination that last held some other value —
//! of another level, scale and limb count, its residues random — produces a
//! ciphertext equal, field for field of both `RnsPoly`s and bit for bit once
//! decrypted, to the allocating op's fresh result. A kernel that read a stale
//! limb, trusted the destination's old shape or kept its old scale would
//! differ.
//!
//! Two layers: random op sequences through the `Evaluator` with a spare
//! pool the test manages (including `hmult(x, x)` and top-level buffers
//! taking level-0 results), and random circuits through
//! `FunctionalBackend`, whose register file hands a freed operand's
//! ciphertext to later results and keeps its pool across runs — held to the
//! SSA oracle cold, and to itself after two different warm-ups.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bts::circuit::{compile, CircuitBuilder, FunctionalBackend, FunctionalRun, HeCircuit, Opcode};
use bts::ckks::{Ciphertext, CkksContext, Complex, KeyBundle, SecretKey};
use bts::math::{Representation, RnsPoly};
use bts::params::CkksInstance;

#[path = "common/ssa_oracle.rs"]
mod ssa_oracle;

const ROTATIONS: [i64; 3] = [1, 3, -2];

struct Fixture {
    ctx: CkksContext,
    sk: SecretKey,
    keys: KeyBundle,
    rng: StdRng,
}

impl Fixture {
    fn new(max_level: usize, dnum: usize, seed: u64) -> Self {
        let ctx = CkksContext::new_toy(1 << 7, max_level, dnum).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
        ctx.add_rotation_keys(&sk, &mut keys, &ROTATIONS, &mut rng)
            .unwrap();
        Self { ctx, sk, keys, rng }
    }

    fn encrypt_at(&mut self, level: usize) -> Ciphertext {
        let message: Vec<Complex> = (0..self.ctx.slots())
            .map(|_| Complex::new(self.rng.gen_range(-0.5..0.5), 0.0))
            .collect();
        let pt = self
            .ctx
            .encode_at(&message, level, self.ctx.scale())
            .unwrap();
        self.ctx.encrypt(&pt, &self.sk, &mut self.rng).unwrap()
    }

    /// A dead value's buffer: random residues at `level`, a nonsense scale.
    fn garbage_at(&mut self, level: usize) -> Ciphertext {
        let basis = self.ctx.basis_at_level(level);
        let mut poly = || RnsPoly::sample_uniform(&basis, Representation::Ntt, &mut self.rng);
        let (c0, c1) = (poly(), poly());
        Ciphertext::new(c0, c1, level, 1.5)
    }

    /// Holds a recycled-destination result to the fresh one.
    fn check(&self, op: &str, fresh: &Ciphertext, recycled: &Ciphertext) {
        assert_eq!(recycled, fresh, "{op}: recycled result differs");
        for (got, want) in [(recycled.c0(), fresh.c0()), (recycled.c1(), fresh.c1())] {
            assert_eq!(got.basis(), want.basis(), "{op}: basis");
            assert_eq!(
                got.representation(),
                want.representation(),
                "{op}: representation"
            );
            assert_eq!(got.data(), want.data(), "{op}: residues");
        }
        let decrypt = |ct: &Ciphertext| self.ctx.decrypt(ct, &self.sk).unwrap();
        assert_eq!(
            decrypt(recycled).poly().data(),
            decrypt(fresh).poly().data(),
            "{op}: decrypted bits"
        );
    }
}

/// Runs op `code` on the allocating path and into `dst`; both must fail or
/// both succeed with equal results. Returns the op's name if it ran.
fn run_op(
    f: &Fixture,
    code: u8,
    x: &Ciphertext,
    y: &Ciphertext,
    dst: &mut Ciphertext,
) -> Option<(&'static str, Ciphertext)> {
    let eval = f.ctx.evaluator(&f.keys);
    let value = 0.375;
    let rotation = ROTATIONS[usize::from(code) % ROTATIONS.len()];
    let (name, fresh, into) = match code % 9 {
        0 => ("HMult", eval.mul(x, y), eval.mul_into(x, y, dst)),
        1 => ("HMult(x, x)", eval.mul(x, x), eval.mul_into(x, x, dst)),
        2 => {
            let digits = eval.decompose(x).unwrap();
            (
                "HRot",
                eval.rotate_decomposed(x, &digits, rotation),
                eval.rotate_decomposed_into(x, &digits, rotation, dst),
            )
        }
        3 => {
            let digits = eval.decompose(x).unwrap();
            (
                "conjugate",
                eval.conjugate_decomposed(x, &digits),
                eval.conjugate_decomposed_into(x, &digits, dst),
            )
        }
        4 => ("HAdd", eval.add(x, y), eval.add_into(x, y, dst)),
        5 => ("rescale", eval.rescale(x), eval.rescale_into(x, dst)),
        6 => (
            "CMult",
            eval.mul_const(x, value),
            eval.mul_const_into(x, value, dst),
        ),
        7 => (
            "CAdd",
            eval.add_const(x, value),
            eval.add_const_into(x, value, dst),
        ),
        _ => {
            f.ctx.mod_raise_into(x, dst);
            ("ModRaise", Ok(f.ctx.mod_raise(x)), Ok(()))
        }
    };
    match (fresh, into) {
        (Ok(fresh), Ok(())) => Some((name, fresh)),
        (Err(_), Err(_)) => None,
        (fresh, into) => panic!("{name}: allocating {fresh:?} vs into {into:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random op sequences; every result lands in a spare of another shape.
    #[test]
    fn recycled_destinations_give_the_fresh_results(
        seed in any::<u64>(),
        chain in 0usize..3,
        steps in proptest::collection::vec(any::<u64>(), 20),
        len in 1usize..20,
    ) {
        let (max_level, dnum) = [(4, 2), (5, 3), (3, 1)][chain];
        let mut f = Fixture::new(max_level, dnum, seed);
        let mut values = vec![f.encrypt_at(max_level), f.encrypt_at(max_level), f.encrypt_at(1)];
        let mut spares = vec![
            f.garbage_at(max_level),
            f.garbage_at(0),
            f.ctx.ciphertext_buffer(),
        ];
        for &step in &steps[..len] {
            // One draw per step: the op, its two operands, what dies after.
            let (code, i, j, free) = (step as u8, step >> 8, step >> 24, step >> 40);
            let x = &values[i as usize % values.len()];
            let y = &values[j as usize % values.len()];
            // The shape the result will have, from a throwaway run.
            let mut probe = f.ctx.ciphertext_buffer();
            let Some((_, shape)) = run_op(&f, code, x, y, &mut probe) else {
                continue;
            };
            // A spare of another level, or a fresh random one if none is.
            let other = spares
                .iter()
                .position(|s| s.level() != shape.level() || s.c0().limb_count() != shape.c0().limb_count());
            let mut dst = match other {
                Some(k) => spares.swap_remove(k),
                None => f.garbage_at((shape.level() + 1) % (max_level + 1)),
            };
            let (name, fresh) = run_op(&f, code, x, y, &mut dst).expect("ran above");
            f.check(name, &fresh, &dst);
            values.push(dst);
            // Free a value now and then: its ciphertext becomes a spare.
            if values.len() > 5 || free % 3 == 0 {
                let dead = values.swap_remove(free as usize % values.len());
                spares.push(dead);
            }
        }
    }
}

/// The shapes the register file meets that random sequences may not: a
/// product of a value with itself, and top-level buffers taking level-0
/// results from every kind of op that produces one.
#[test]
fn squares_and_level_zero_results_in_top_level_buffers() {
    let mut f = Fixture::new(4, 2, 77);
    let x = f.encrypt_at(4);
    let mut dst = f.garbage_at(4);
    let (name, fresh) = run_op(&f, 1, &x, &x, &mut dst).unwrap();
    f.check(name, &fresh, &dst);

    let floor = f.encrypt_at(0);
    let one = f.encrypt_at(1);
    let n = f.ctx.degree();
    for (code, x) in [
        (0, &floor),
        (2, &floor),
        (3, &floor),
        (4, &floor),
        (5, &one),
        (6, &floor),
        (7, &floor),
    ] {
        let mut dst = f.garbage_at(4);
        let (name, fresh) = run_op(&f, code, x, x, &mut dst).unwrap();
        assert_eq!(dst.level(), 0, "{name}");
        assert_eq!(dst.c0().data().len(), n, "{name}: one limb left");
        f.check(name, &fresh, &dst);
    }
}

// ---------------------------------------------------------------------------
// The register file: a freed operand's buffer takes the next results
// ---------------------------------------------------------------------------

fn bits(run: &FunctionalRun) -> Vec<Vec<(u64, u64)>> {
    run.outputs
        .iter()
        .map(|v| v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect())
        .collect()
}

/// Builds a random circuit from `codes`: products (of two values and of a
/// value with itself), rotations, conjugations, constants, sums and modulus
/// raises over a small live set.
fn random_circuit(ins: &CkksInstance, codes: &[u32]) -> HeCircuit {
    let mut b = CircuitBuilder::new(ins);
    let mut live = vec![b.input(), b.input()];
    for &code in codes {
        let x = live[(code as usize / 16) % live.len()];
        let y = live[(code as usize / 256) % live.len()];
        let next = match code % 9 {
            0 => b.hmult(x, y).and_then(|p| b.rescale(p)),
            1 => b.hmult(x, x).and_then(|p| b.rescale(p)),
            2 => b.hrot(x, ROTATIONS[code as usize % 3]),
            3 => b.conjugate(x),
            4 => b.cmult(x, 0.5).and_then(|p| b.rescale(p)),
            5 => b.cadd(x, 0.25),
            6 => b.hadd(x, y),
            7 => b.mod_raise(x),
            _ => b.hrot(x, 0),
        };
        if let Ok(v) = next {
            live.push(v);
            if live.len() > 4 {
                live.remove((code as usize / 4096) % live.len());
            }
        }
    }
    b.output(*live.last().expect("inputs are live"));
    b.build()
}

/// Two warm-ups that draw the same randomness (one input at the top, no
/// rotation keys) but leave the pools in different states: a deep chain
/// recycles buffers of every level, a single constant add one top-level one.
fn warm_ups(ins: &CkksInstance) -> [HeCircuit; 2] {
    let mut deep = CircuitBuilder::new(ins);
    let mut v = deep.input();
    while deep.level_of(v) > 0 {
        let p = deep.hmult(v, v).unwrap();
        v = deep.rescale(p).unwrap();
        v = deep.cadd(v, 0.125).unwrap();
    }
    deep.output(v);
    let mut shallow = CircuitBuilder::new(ins);
    let x = shallow.input();
    let y = shallow.cadd(x, 0.125).unwrap();
    shallow.output(y);
    [deep.build(), shallow.build()]
}

/// Cold, the executor equals the SSA oracle (the allocating path, one fresh
/// ciphertext per value) bit for bit; warm, its results do not depend on
/// what its pool held before.
fn check_register_file(ins: &CkksInstance, seed: u64, circuit: &HeCircuit) {
    let compiled = compile(circuit).unwrap();
    let oracle = ssa_oracle::execute(ins, seed, circuit);
    let cold = FunctionalBackend::new(ins, seed)
        .unwrap()
        .execute_compiled(&compiled)
        .unwrap();
    assert_eq!(cold.op_counts, oracle.op_counts);
    assert_eq!(bits(&cold), bits(&oracle), "cold run vs the SSA oracle");

    let warm: Vec<FunctionalRun> = warm_ups(ins)
        .iter()
        .map(|warm_up| {
            let mut backend = FunctionalBackend::new(ins, seed ^ 1).unwrap();
            backend.execute(warm_up).unwrap();
            backend.execute_compiled(&compiled).unwrap()
        })
        .collect();
    assert_eq!(
        bits(&warm[0]),
        bits(&warm[1]),
        "warm runs after different warm-ups"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn the_register_file_pool_never_changes_a_result(
        seed in any::<u64>(),
        codes in proptest::collection::vec(any::<u32>(), 16),
        len in 1usize..16,
    ) {
        let ins = CkksInstance::toy(7, 4, 2);
        check_register_file(&ins, seed, &random_circuit(&ins, &codes[..len]));
    }
}

#[test]
fn a_result_takes_the_register_its_operand_just_freed() {
    let ins = CkksInstance::toy(7, 4, 2);
    let mut b = CircuitBuilder::new(&ins);
    let x = b.input();
    let sq = b.hmult(x, x).unwrap();
    let mut v = b.rescale(sq).unwrap();
    v = b.hrot(v, 1).unwrap();
    v = b.cadd(v, 0.5).unwrap();
    let raised = b.mod_raise(v).unwrap();
    let c = b.conjugate(raised).unwrap();
    b.output(c);
    let circuit = b.build();
    let compiled = compile(&circuit).unwrap();
    // The scenario is real: ops whose destination is the register of the
    // operand they free, across a product of a value with itself, a rescale,
    // a rotation, a modulus raise and a conjugation.
    let reused: Vec<Opcode> = compiled
        .ops
        .iter()
        .filter(|op| op.free_a && op.dst == op.a)
        .map(|op| op.opcode)
        .collect();
    assert!(reused.len() >= 4, "{reused:?}");
    check_register_file(&ins, 5, &circuit);
}
