//! Evaluation keys sized by their program: `FunctionalBackend` provisions
//! every rotation and conjugation key at the highest level the compiled ops
//! read it, so each stores only the limbs and slices its deepest key-switch
//! reads (`CkksInstance::evk_bytes_at_level` of that level, level 0 for a
//! key no op reads), and a later program that reads a key higher up gets it
//! redrawn at that level.

use std::collections::BTreeMap;

use bts::circuit::{
    compile, CircuitBuilder, CompiledCircuit, FunctionalBackend, FunctionalRun, Opcode,
    PassPipeline, Workload,
};
use bts::ckks::KeyBundle;
use bts::params::CkksInstance;
use bts::workloads::{HelrConfig, HelrWorkload, ResNetConfig, ResNetWorkload};

/// The highest level the ops of `compiled` read each non-zero rotation and
/// the conjugation key at, 0 for a key no op reads.
fn read_levels(compiled: &CompiledCircuit) -> (BTreeMap<i64, usize>, usize) {
    let mut rotations: BTreeMap<i64, usize> = compiled
        .rotations
        .iter()
        .filter(|&&r| r != 0)
        .map(|&r| (r, 0))
        .collect();
    let mut conjugation = 0;
    for op in &compiled.ops {
        match op.opcode {
            Opcode::HRot => {
                if let Some(level) = rotations.get_mut(&compiled.rotations[op.imm as usize]) {
                    *level = (*level).max(op.level);
                }
            }
            Opcode::Conjugate => conjugation = conjugation.max(op.level),
            _ => {}
        }
    }
    (rotations, conjugation)
}

/// The `fhe_exec` benchmark's two circuits on its full-size ring
/// (N = 2^12, L = 13, dnum = 2): every stored key has the size of the level
/// its program reads it at, and the totals are the program-sized ones
/// (top-level keys: 11 010 048 B and 30 277 632 B).
#[test]
fn fhe_exec_keys_are_sized_by_their_program() {
    let ins = CkksInstance::toy(12, 13, 2);
    let workloads: [(&str, Box<dyn Workload>, u64); 2] = [
        (
            "helr-mini",
            Box::new(HelrWorkload::new(HelrConfig {
                iterations: 1,
                batch: 8,
                features: 4,
            })),
            8_257_536,
        ),
        (
            "resnet-mini",
            Box::new(ResNetWorkload::new(ResNetConfig {
                conv_layers: 2,
                rotations_per_conv: 4,
                relu_depth: 2,
                channel_packing: true,
            })),
            11_010_048,
        ),
    ];
    for (name, workload, expected_total) in workloads {
        let circuit = PassPipeline::standard()
            .optimize(&workload.build(&ins).unwrap())
            .unwrap();
        let compiled = compile(&circuit).unwrap();
        let mut backend = FunctionalBackend::new(&ins, 2022).unwrap();
        backend.execute_compiled(&compiled).unwrap();
        let total = sized_key_bytes(name, &ins, &compiled, backend.keys());
        assert_eq!(total, expected_total, "{name}: rotation + conjugation keys");
        // A second run of the same program draws nothing new.
        backend.execute_compiled(&compiled).unwrap();
        let again = sized_key_bytes(name, &ins, &compiled, backend.keys());
        assert_eq!(again, expected_total, "{name}: rerun");
    }
}

/// Checks that every rotation and conjugation key in `keys` serves exactly
/// the level `compiled` reads it at and is `evk_bytes_at_level` of it, and
/// returns their total size.
fn sized_key_bytes(
    name: &str,
    ins: &CkksInstance,
    compiled: &CompiledCircuit,
    keys: &KeyBundle,
) -> u64 {
    let (rotations, conjugation) = read_levels(compiled);
    let mut total = 0;
    let mut stored = 0;
    for (r, key) in keys.rotations() {
        let level = rotations[&r];
        assert_eq!(key.level(), level, "{name}: rotation {r}");
        assert_eq!(
            key.size_bytes(),
            ins.evk_bytes_at_level(level),
            "{name}: rotation {r}"
        );
        total += key.size_bytes();
        stored += 1;
    }
    assert_eq!(stored, rotations.len(), "{name}: one key per rotation");
    let conj = keys.conjugation().expect("always provisioned");
    assert_eq!(conj.level(), conjugation, "{name}: conjugation");
    assert_eq!(conj.size_bytes(), ins.evk_bytes_at_level(conjugation));
    total + conj.size_bytes()
}

/// A backend that provisioned a rotation key for level 2 redraws it at the
/// top when a later program rotates a top-level ciphertext by the same
/// amount, and that run's outputs match a fresh backend's.
#[test]
fn a_key_read_higher_up_is_redrawn() {
    let ins = CkksInstance::toy(10, 6, 2);
    let top = ins.usable_top_level();
    let rotation = 3;
    let rotate_at = |level: usize| {
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input_at(level);
        let y = b.hrot(x, rotation).unwrap();
        b.output(y);
        compile(&b.build()).unwrap()
    };
    let (low, high) = (rotate_at(2), rotate_at(top));
    let message: Vec<f64> = (0..ins.slots()).map(|j| (j % 13) as f64 / 40.0).collect();
    let backend = || {
        FunctionalBackend::new(&ins, 39)
            .unwrap()
            .with_inputs(vec![message.clone()])
    };

    let mut reused = backend();
    reused.execute_compiled(&low).unwrap();
    let key = reused.keys().rotation(rotation).unwrap();
    assert_eq!(key.level(), 2);
    assert_eq!(key.size_bytes(), ins.evk_bytes_at_level(2));
    let run = reused.execute_compiled(&high).unwrap();
    let key = reused.keys().rotation(rotation).unwrap();
    assert_eq!(key.level(), top);
    assert_eq!(key.size_bytes(), ins.evk_bytes_at_level(top));

    let fresh = backend().execute_compiled(&high).unwrap();
    let slots = |run: &FunctionalRun| run.outputs[0].iter().map(|z| z.re).collect::<Vec<_>>();
    let worst = slots(&run)
        .iter()
        .zip(slots(&fresh))
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(worst < 1e-2, "redrawn key vs a fresh backend: {worst:e}");
    let expected = message[rotation as usize];
    assert!((slots(&run)[0] - expected).abs() < 1e-2);
}
