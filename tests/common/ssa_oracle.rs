//! The SSA tree-walkers the two backends used to ship beside their bytecode
//! executors, kept as test oracles: one pass over `HeCircuit::nodes` with a
//! `ValueId`-keyed environment, written against public API only. No
//! compilation, no registers, no free flags — and, on the functional side,
//! no digit memo: every rotation is a plain `Evaluator::rotate`.
//! `#[path]`-included by the suites that hold `TraceBackend::lower_compiled`
//! and `FunctionalBackend::execute_compiled` bit-equal to it.

use std::collections::{BTreeMap, HashMap};

use bts::circuit::{BootstrapPlan, FunctionalRun, HeCircuit, HeInstr, LoweredTrace, ValueId};
use bts::ckks::{Ciphertext, CkksContext, Complex};
use bts::params::CkksInstance;
use bts::sim::{CtId, HeOp, TraceBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What `compile` + `TraceBackend::lower_compiled` must produce for
/// `circuit`: one traced op per node, bootstrap markers expanded by the
/// paper-default plan.
#[allow(dead_code)]
pub fn lower(circuit: &HeCircuit) -> LoweredTrace {
    circuit.validate().expect("the oracle walks valid circuits");
    let plan = BootstrapPlan::paper_default();
    let mut builder = TraceBuilder::new(&circuit.instance);
    let mut env: HashMap<ValueId, CtId> = HashMap::new();
    for input in &circuit.inputs {
        env.insert(input.id, builder.fresh_ct(input.level));
    }
    let mut bootstrap_count = 0usize;
    for node in &circuit.nodes {
        let ct = |v: ValueId| env[&v];
        let level = node.level;
        let out = match node.instr {
            HeInstr::HMult { a, b } => builder.hmult_at(ct(a), ct(b), level),
            HeInstr::HRot { a, rotation } => builder.hrot(ct(a), rotation, level),
            HeInstr::Conjugate { a } => builder.conjugate(ct(a), level),
            HeInstr::PMult { a, .. } => builder.pmult(ct(a), level),
            HeInstr::PAdd { a, .. } => builder.padd(ct(a), level),
            HeInstr::HAdd { a, b } => builder.hadd(ct(a), ct(b), level),
            HeInstr::Rescale { a } => builder.hrescale_at(ct(a), level),
            HeInstr::CMult { a, .. } => builder.cmult(ct(a), level),
            HeInstr::CAdd { a, .. } => builder.cadd(ct(a), level),
            HeInstr::ModRaise { a } => builder.mod_raise(ct(a), circuit.instance.max_level()),
            HeInstr::Bootstrap { a } => {
                bootstrap_count += 1;
                plan.append_to(&mut builder, ct(a))
            }
        };
        env.insert(node.result, out);
    }
    LoweredTrace {
        trace: builder.build(),
        bootstrap_count,
    }
}

/// What `FunctionalBackend::new(ins, seed)?.execute(circuit)` must produce,
/// bit for bit: the same key generation, rotation-key provisioning, input
/// encryption (the backend's synthetic messages) and refresh draws from one
/// seeded RNG, in the same order.
#[allow(dead_code)]
pub fn execute(ins: &CkksInstance, seed: u64, circuit: &HeCircuit) -> FunctionalRun {
    circuit.validate().expect("the oracle walks valid circuits");
    let context = CkksContext::from_instance(ins).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let (secret, mut keys) = context.generate_keys(&mut rng).unwrap();
    context
        .add_rotation_keys(&secret, &mut keys, &circuit.rotations(), &mut rng)
        .unwrap();
    let usable_top = circuit.instance.usable_top_level();

    let mut env: HashMap<ValueId, Ciphertext> = HashMap::new();
    for (index, input) in circuit.inputs.iter().enumerate() {
        let slots: Vec<Complex> = (0..context.slots())
            .map(|j| Complex::new(((index * 31 + j * 7) % 17) as f64 / 40.0, 0.0))
            .collect();
        let pt = context
            .encode_at(&slots, input.level, context.scale())
            .unwrap();
        env.insert(input.id, context.encrypt(&pt, &secret, &mut rng).unwrap());
    }

    let eval = context.evaluator(&keys);
    let mut op_counts: BTreeMap<HeOp, usize> = BTreeMap::new();
    let mut bootstrap_count = 0usize;
    for node in &circuit.nodes {
        let ct = |v: ValueId| &env[&v];
        let result = match node.instr {
            HeInstr::HMult { a, b } => eval.mul(ct(a), ct(b)).unwrap(),
            HeInstr::HRot { a, rotation } => eval.rotate(ct(a), rotation).unwrap(),
            HeInstr::Conjugate { a } => eval.conjugate(ct(a)).unwrap(),
            HeInstr::HAdd { a, b } => eval.add(ct(a), ct(b)).unwrap(),
            HeInstr::Rescale { a } => eval.rescale(ct(a)).unwrap(),
            HeInstr::PMult { a, value } | HeInstr::CMult { a, value } => {
                eval.mul_const(ct(a), value).unwrap()
            }
            HeInstr::PAdd { a, value } | HeInstr::CAdd { a, value } => {
                eval.add_const(ct(a), value).unwrap()
            }
            HeInstr::ModRaise { a } => context.mod_raise(ct(a)),
            HeInstr::Bootstrap { a } => {
                // An oracle refresh: decrypt, re-encode at the top, re-encrypt.
                bootstrap_count += 1;
                let decoded = context
                    .decode(&context.decrypt(ct(a), &secret).unwrap())
                    .unwrap();
                let pt = context
                    .encode_at(&decoded, usable_top, context.scale())
                    .unwrap();
                context.encrypt(&pt, &secret, &mut rng).unwrap()
            }
        };
        let expected_level = match node.instr {
            HeInstr::Rescale { .. } => node.level - 1,
            HeInstr::Bootstrap { .. } => usable_top,
            _ => node.level,
        };
        assert_eq!(result.level(), expected_level, "v{}", node.result);
        if let Some(class) = node.instr.op_class() {
            *op_counts.entry(class).or_insert(0) += 1;
        }
        env.insert(node.result, result);
    }

    let outputs = circuit
        .outputs
        .iter()
        .map(|out| {
            context
                .decode(&context.decrypt(&env[out], &secret).unwrap())
                .unwrap()
        })
        .collect();
    FunctionalRun {
        outputs,
        op_counts,
        bootstrap_count,
    }
}
