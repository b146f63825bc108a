//! Differential property tests for the circuit optimizer: whatever random
//! (but magnitude-bounded) program the generator produces, every optimization
//! pass — and the full standard pipeline — must preserve the decrypted
//! outputs of the functional backend, keep the trace lowering structurally
//! valid, and never grow the key-switch count. The compiled bytecode executors
//! are held to a stricter bar against the SSA-walking oracle
//! (`common/ssa_oracle.rs`): *bit-identical* outputs and an *identical* op
//! trace, because compilation preserves instruction order and therefore the
//! whole randomness stream.

use std::collections::BTreeMap;

use bts::circuit::{
    compile, Analyzed, BootstrapPlacePass, CircuitBuilder, CircuitError, CommonSubexprPass,
    DeadValuePass, FunctionalBackend, FunctionalRun, HeCircuit, HeInstr, HeInstrNode, LoweredTrace,
    Pass, PassPipeline, RescaleSchedPass, TraceBackend, ValueId,
};
use bts::params::CkksInstance;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[path = "common/ssa_oracle.rs"]
mod ssa_oracle;

/// Applies one op-code to the accumulator. Every step keeps plaintext
/// magnitudes inside `[0, 1)` (squares, halvings, bounded affine maps and
/// rotation averages only), so encryption noise — not value blow-up — is the
/// only difference an optimized circuit can exhibit, and a fixed absolute
/// tolerance is meaningful at any depth. Steps the builder refuses leave the
/// accumulator unchanged; partially emitted steps just leave dead nodes for
/// the dead-value pass to find.
fn apply(b: &mut CircuitBuilder, cur: u32, code: u32) -> u32 {
    match code % 7 {
        // Square + rescale.
        0 => match b.hmult(cur, cur) {
            Ok(p) => b.rescale(p).unwrap_or(cur),
            Err(_) => cur,
        },
        // Rotate.
        1 => b.hrot(cur, 1 + (code as i64 % 5)).unwrap_or(cur),
        // Halve via a plaintext mask.
        2 => match b.pmult(cur, 0.5) {
            Ok(m) => b.rescale(m).unwrap_or(cur),
            Err(_) => cur,
        },
        // Bounded scalar affine map: x -> x/2 + 1/4.
        3 => {
            let Ok(h) = b.cmult(cur, 0.5) else { return cur };
            let Ok(h) = b.rescale(h) else { return cur };
            b.cadd(h, 0.25).unwrap_or(cur)
        }
        // Bounded plaintext affine map: x -> x/2 + 1/8.
        4 => {
            let Ok(m) = b.pmult(cur, 0.5) else { return cur };
            let Ok(m) = b.rescale(m) else { return cur };
            b.padd(m, 0.125).unwrap_or(cur)
        }
        // Rotation-mask MAC: rot(x, r)/2 + x/2, rescaled — the shape both
        // CSE (on repeats) and mask hoisting fire on.
        5 => {
            let r = 1 + (code as i64 % 4);
            let Ok(rot) = b.hrot(cur, r) else { return cur };
            let Ok(m1) = b.pmult(rot, 0.5) else {
                return cur;
            };
            let Ok(m2) = b.pmult(cur, 0.5) else {
                return cur;
            };
            let Ok(s) = b.hadd(m1, m2) else { return cur };
            b.rescale(s).unwrap_or(cur)
        }
        // Conjugate (a key-switching op distinct from rotation).
        _ => b.conjugate(cur).unwrap_or(cur),
    }
}

fn random_circuit(ins: &CkksInstance, codes: &[u32]) -> HeCircuit {
    let mut b = CircuitBuilder::new(ins);
    let mut cur = b.input();
    for &code in codes {
        cur = apply(&mut b, cur, code);
    }
    b.output(cur);
    b.build()
}

/// Like [`random_circuit`] but with level pressure: an `ensure` before every
/// step, so deep instances accumulate bootstrap markers.
fn random_bootstrapping_circuit(ins: &CkksInstance, codes: &[u32]) -> HeCircuit {
    let mut b = CircuitBuilder::new(ins);
    let mut cur = b.input();
    for &code in codes {
        cur = b.ensure(cur, 2).unwrap_or(cur);
        cur = apply(&mut b, cur, code);
    }
    b.output(cur);
    b.build()
}

/// [`random_circuit`]'s program emitted twice from one input, so every
/// instruction of the second copy has a twin for CSE to merge. Each end is
/// then summed with its own rotation in opposite operand orders: once the
/// copies merge, the two sums differ only by commutation.
fn doubled_circuit(ins: &CkksInstance, codes: &[u32]) -> HeCircuit {
    let mut b = CircuitBuilder::new(ins);
    let x = b.input();
    let mut ends = [x, x];
    for end in &mut ends {
        for &code in codes {
            *end = apply(&mut b, *end, code);
        }
    }
    let [first, second] = ends;
    let same = "a rotation keeps its operand's level and scale";
    let p = b.hrot(first, 1).expect(same);
    let q = b.hrot(second, 1).expect(same);
    let sums = [
        b.hadd(first, p).expect(same),
        b.hadd(q, second).expect(same),
    ];
    for out in sums {
        b.output(out);
    }
    b.build()
}

/// Reference CSE: value numbers in a `BTreeMap` on a plain tuple key (op
/// tag, sorted operands for the commutative ops, immediate bits),
/// representatives in another; no hashing and no dense tables.
fn reference_cse(circuit: &HeCircuit) -> HeCircuit {
    let mut repr: BTreeMap<ValueId, ValueId> = BTreeMap::new();
    let mut numbers: BTreeMap<(u8, ValueId, ValueId, u64), ValueId> = BTreeMap::new();
    let resolve = |repr: &BTreeMap<ValueId, ValueId>, v| repr.get(&v).copied().unwrap_or(v);
    let mut nodes = Vec::new();
    for node in &circuit.nodes {
        let instr = node.instr.map_operands(|v| resolve(&repr, v));
        let key = match instr {
            HeInstr::HMult { a, b } => Some((0, a.min(b), a.max(b), 0)),
            HeInstr::HAdd { a, b } => Some((1, a.min(b), a.max(b), 0)),
            HeInstr::HRot { a, rotation } => Some((2, a, 0, rotation as u64)),
            HeInstr::Conjugate { a } => Some((3, a, 0, 0)),
            HeInstr::PMult { a, value } => Some((4, a, 0, value.to_bits())),
            HeInstr::PAdd { a, value } => Some((5, a, 0, value.to_bits())),
            HeInstr::Rescale { a } => Some((6, a, 0, 0)),
            HeInstr::CMult { a, value } => Some((7, a, 0, value.to_bits())),
            HeInstr::CAdd { a, value } => Some((8, a, 0, value.to_bits())),
            HeInstr::ModRaise { a } => Some((9, a, 0, 0)),
            HeInstr::Bootstrap { .. } => None,
        };
        if let Some(key) = key {
            if let Some(&existing) = numbers.get(&key) {
                repr.insert(node.result, existing);
                continue;
            }
            numbers.insert(key, node.result);
        }
        nodes.push(HeInstrNode { instr, ..*node });
    }
    HeCircuit {
        instance: circuit.instance.clone(),
        inputs: circuit.inputs.clone(),
        nodes,
        outputs: circuit.outputs.iter().map(|&v| resolve(&repr, v)).collect(),
    }
}

/// `circuit` as written, lowered for the simulator: `compile` then
/// `lower_compiled`, no passes.
fn lower(circuit: &HeCircuit) -> Result<LoweredTrace, CircuitError> {
    TraceBackend::new().lower_compiled(&compile(circuit)?)
}

fn run_functional(
    ins: &CkksInstance,
    circuit: &HeCircuit,
    seed: u64,
) -> Result<FunctionalRun, TestCaseError> {
    FunctionalBackend::new(ins, seed)
        .map_err(|e| TestCaseError::Fail(format!("backend: {e}")))?
        .execute(circuit)
        .map_err(|e| TestCaseError::Fail(format!("execute: {e}")))
}

/// Asserts two functional runs decrypt to the same slots within `tol` —
/// the optimized circuit provisions keys and consumes encryption randomness
/// differently, so noise-level drift is expected; value drift is a bug.
fn assert_outputs_close(
    a: &FunctionalRun,
    b: &FunctionalRun,
    tol: f64,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        a.outputs.len() == b.outputs.len(),
        "{}: output arity {} vs {}",
        what,
        a.outputs.len(),
        b.outputs.len()
    );
    for (i, (oa, ob)) in a.outputs.iter().zip(&b.outputs).enumerate() {
        for (j, (ca, cb)) in oa.iter().zip(ob).enumerate() {
            prop_assert!(
                (ca.re - cb.re).abs() < tol && (ca.im - cb.im).abs() < tol,
                "{}: output {} slot {} drifted: {} vs {}",
                what,
                i,
                j,
                ca.re,
                cb.re
            );
        }
    }
    Ok(())
}

/// Checks `circuit` and runs one pass on it.
fn run_pass(pass: &dyn Pass, circuit: &HeCircuit) -> Result<HeCircuit, CircuitError> {
    Ok(pass.run(&Analyzed::check(circuit.clone())?)?.into_circuit())
}

fn key_switches(circuit: &HeCircuit) -> usize {
    circuit
        .op_counts()
        .iter()
        .filter(|(op, _)| op.is_key_switching())
        .map(|(_, n)| n)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every individual pass, and the full standard pipeline, preserves the
    /// decrypted outputs and yields a circuit whose trace lowering still
    /// validates. No pass may increase the key-switch count.
    #[test]
    fn passes_preserve_functional_outputs(
        max_level in 4usize..10,
        codes in proptest::collection::vec(any::<u32>(), 20),
        seed in 1u64..1000,
    ) {
        let ins = CkksInstance::toy(10, max_level, 2);
        let circuit = random_circuit(&ins, &codes);
        let baseline = run_functional(&ins, &circuit, seed)?;
        let base_ks = key_switches(&circuit);

        let passes: Vec<Box<dyn Pass>> = vec![
            Box::new(CommonSubexprPass),
            Box::new(RescaleSchedPass),
            Box::new(BootstrapPlacePass),
            Box::new(DeadValuePass),
        ];
        for pass in &passes {
            let opt = run_pass(pass.as_ref(), &circuit);
            prop_assert!(opt.is_ok(), "{} failed: {:?}", pass.name(), opt.err());
            let opt = opt.unwrap();
            prop_assert_eq!(&opt.outputs.len(), &circuit.outputs.len());
            // Rewriting passes leave superseded nodes dead rather than
            // sweeping them inline, so measure after a dead-value sweep.
            let swept = run_pass(&DeadValuePass, &opt).unwrap();
            prop_assert!(key_switches(&swept) <= base_ks, "{} grew key-switches", pass.name());
            let lowered = lower(&opt);
            prop_assert!(lowered.is_ok());
            prop_assert!(lowered.unwrap().trace.validate().is_ok());
            let run = run_functional(&ins, &opt, seed)?;
            assert_outputs_close(&baseline, &run, 3e-2, pass.name())?;
        }

        let opt = PassPipeline::standard().optimize(&circuit);
        prop_assert!(opt.is_ok(), "pipeline failed: {:?}", opt.err());
        let opt = opt.unwrap();
        prop_assert!(key_switches(&opt) <= base_ks, "pipeline grew key-switches");
        let run = run_functional(&ins, &opt, seed)?;
        assert_outputs_close(&baseline, &run, 3e-2, "pipeline")?;
        // The optimized circuit is as executable as the original.
        prop_assert_eq!(run.op_counts, opt.op_counts());
    }

    /// The compiled bytecode executors are bit-identical to the SSA oracle:
    /// same decrypted bits, same op counts, and the very same op trace —
    /// both on the raw circuit and on its pipeline-optimized form.
    #[test]
    fn compiled_executor_is_bit_identical_to_the_tree_walker(
        max_level in 4usize..10,
        codes in proptest::collection::vec(any::<u32>(), 20),
        seed in 1u64..1000,
    ) {
        let ins = CkksInstance::toy(10, max_level, 2);
        let raw = random_circuit(&ins, &codes);
        let optimized = PassPipeline::standard()
            .optimize(&raw)
            .expect("pipeline optimizes generated circuits");
        for circuit in [&raw, &optimized] {
            compiled_matches_the_oracle(&ins, seed, circuit)?;
        }
    }
}

/// Compiles `circuit` and holds both bytecode executors to the SSA oracle:
/// the same op counts, the very same op trace, and — same seed — bitwise-
/// equal decrypted slots, op counts and refreshes.
fn compiled_matches_the_oracle(
    ins: &CkksInstance,
    seed: u64,
    circuit: &HeCircuit,
) -> Result<(), TestCaseError> {
    let compiled = compile(circuit);
    prop_assert!(compiled.is_ok(), "compile failed: {:?}", compiled.err());
    let compiled = compiled.unwrap();
    prop_assert_eq!(compiled.op_counts(), circuit.op_counts());

    // Trace side: identical op for op, ciphertext id for ciphertext id.
    let tree = ssa_oracle::lower(circuit);
    let flat = TraceBackend::new().lower_compiled(&compiled).unwrap();
    prop_assert_eq!(&tree.trace, &flat.trace);
    prop_assert_eq!(tree.bootstrap_count, flat.bootstrap_count);

    // Functional side: same seed, bitwise-equal decrypted slots.
    let tree_run = ssa_oracle::execute(ins, seed, circuit);
    let flat_run = FunctionalBackend::new(ins, seed)
        .unwrap()
        .execute_compiled(&compiled)
        .unwrap();
    prop_assert_eq!(tree_run.outputs.len(), flat_run.outputs.len());
    for (a, b) in tree_run.outputs.iter().zip(&flat_run.outputs) {
        for (ca, cb) in a.iter().zip(b) {
            prop_assert!(
                ca.re.to_bits() == cb.re.to_bits() && ca.im.to_bits() == cb.im.to_bits(),
                "compiled executor diverged bitwise: {} vs {}",
                ca.re,
                cb.re
            );
        }
    }
    prop_assert_eq!(&tree_run.op_counts, &flat_run.op_counts);
    prop_assert_eq!(tree_run.bootstrap_count, flat_run.bootstrap_count);
    Ok(())
}

/// A chain of unit-level groups (`ensure` one level, square, rescale) two
/// levels longer than the usable ones, then [`random_bootstrapping_circuit`]'s
/// steps: the reserve rule refreshes the chain one level early, so on three
/// or more usable levels the placement pass has a refresh to move (on two,
/// every other chain refresh just goes).
fn chain_then_random(ins: &CkksInstance, codes: &[u32]) -> HeCircuit {
    let mut b = CircuitBuilder::new(ins);
    let mut cur = b.input();
    for _ in 0..ins.usable_top_level() + 2 {
        cur = b.ensure(cur, 1).expect("a bootstrappable ring");
        let square = b.hmult(cur, cur).expect("known values");
        cur = b.rescale(square).expect("ensure left a level");
    }
    for &code in codes {
        cur = b.ensure(cur, 2).unwrap_or(cur);
        cur = apply(&mut b, cur, code);
    }
    b.output(cur);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Refreshes the placement pass moved execute like any other: on a
    /// bootstrapping toy ring, the optimized circuit — at least one marker
    /// now refreshing another value than the one the builder gave it —
    /// decrypts bit for bit as the SSA oracle decrypts it.
    #[test]
    fn moved_refreshes_execute_bit_identically_to_the_oracle(
        usable in 3usize..7,
        codes in proptest::collection::vec(any::<u32>(), 16),
        seed in 1u64..1000,
    ) {
        let ins = CkksInstance::toy(10, bts::params::L_BOOT + usable, 2);
        let raw = chain_then_random(&ins, &codes);
        let optimized = PassPipeline::standard()
            .optimize(&raw)
            .expect("pipeline optimizes generated circuits");
        let refreshed: BTreeMap<ValueId, HeInstr> = raw
            .nodes
            .iter()
            .filter(|n| matches!(n.instr, HeInstr::Bootstrap { .. }))
            .map(|n| (n.result, n.instr))
            .collect();
        let moved = optimized.nodes.iter().filter(|n| {
            matches!(n.instr, HeInstr::Bootstrap { .. }) && refreshed.get(&n.result) != Some(&n.instr)
        });
        prop_assert!(moved.count() > 0, "no refresh moved");
        compiled_matches_the_oracle(&ins, seed, &optimized)?;
    }
}

/// Bootstrap markers in the places a copied expansion could go wrong: on a
/// trace input (`levels[0]`), on another marker's output, with the input
/// read again after the marker, on inputs at different levels, and with a
/// marker's result as a circuit output.
fn hand_built_markers(ins: &CkksInstance, levels: [usize; 2]) -> HeCircuit {
    let mut b = CircuitBuilder::new(ins);
    let x = b.input_at(levels[0]);
    let y = b.input_at(levels[1]);
    let on_input = b.bootstrap(x).expect("inputs carry the base scale");
    let on_marker = b
        .bootstrap(on_input)
        .expect("a refresh keeps the base scale");
    let reread = b.cadd(x, 0.25).expect("the input is still live");
    let other = b.bootstrap(y).expect("inputs carry the base scale");
    let sum = b.hadd(on_marker, other).expect("refreshes share a level");
    b.output(sum);
    b.output(reread);
    b.output(on_marker);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every marker after the first repeats the first one's expansion in
    /// bulk; the oracle records each through `BootstrapPlan::append_to`.
    /// Both must give the same trace — ops, ids, stored codes — the same
    /// marker count and the same rotation keys, raw and optimized.
    #[test]
    fn repeated_bootstrap_markers_lower_like_the_oracle(
        extra_levels in 0usize..6,
        codes in proptest::collection::vec(any::<u32>(), 24),
        first_level in 0usize..4,
        second_level in 0usize..4,
    ) {
        let ins = CkksInstance::toy(10, 19 + extra_levels, 2);
        let random = random_bootstrapping_circuit(&ins, &codes);
        let hand = hand_built_markers(&ins, [first_level, second_level]);
        prop_assert!(hand.bootstrap_count() == 3);
        for raw in [random, hand] {
            let optimized = PassPipeline::standard()
                .optimize(&raw)
                .expect("pipeline optimizes generated circuits");
            for circuit in [&raw, &optimized] {
                let tree = ssa_oracle::lower(circuit);
                let flat = lower(circuit).unwrap();
                prop_assert!(flat.trace.validate().is_ok());
                prop_assert_eq!(&tree.trace, &flat.trace);
                prop_assert_eq!(tree.bootstrap_count, flat.bootstrap_count);
                prop_assert_eq!(tree.bootstrap_count, circuit.bootstrap_count());
                prop_assert_eq!(tree.trace.rotation_keys(), flat.trace.rotation_keys());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSE is idempotent: a second application changes nothing.
    #[test]
    fn cse_is_idempotent(
        max_level in 2usize..12,
        codes in proptest::collection::vec(any::<u32>(), 32),
    ) {
        let ins = CkksInstance::toy(10, max_level, 2);
        let circuit = random_circuit(&ins, &codes);
        let once = run_pass(&CommonSubexprPass, &circuit).unwrap();
        let twice = run_pass(&CommonSubexprPass, &once).unwrap();
        prop_assert_eq!(once, twice);
    }

    /// The pass's one pre-sized fixed-hasher table answers as the ordered
    /// reference does: the same circuit, node for node, on the generator's
    /// circuits and on doubled ones where most instructions merge.
    #[test]
    fn cse_matches_the_ordered_map_reference(
        max_level in 2usize..12,
        codes in proptest::collection::vec(any::<u32>(), 32),
    ) {
        let ins = CkksInstance::toy(10, max_level, 2);
        for circuit in [random_circuit(&ins, &codes), doubled_circuit(&ins, &codes)] {
            let reference = reference_cse(&circuit);
            prop_assert_eq!(run_pass(&CommonSubexprPass, &circuit).unwrap(), reference);
        }
        let doubled = doubled_circuit(&ins, &codes);
        let merged = run_pass(&CommonSubexprPass, &doubled).unwrap();
        prop_assert!(merged.len() < doubled.len(), "the second copy merges");
    }

    /// The dead-value pass never drops an output or an input, and the result
    /// still validates and lowers.
    #[test]
    fn dce_preserves_the_interface(
        max_level in 2usize..12,
        codes in proptest::collection::vec(any::<u32>(), 32),
    ) {
        let ins = CkksInstance::toy(10, max_level, 2);
        let circuit = random_circuit(&ins, &codes);
        let opt = run_pass(&DeadValuePass, &circuit).unwrap();
        prop_assert_eq!(&opt.outputs, &circuit.outputs);
        prop_assert_eq!(&opt.inputs, &circuit.inputs);
        prop_assert!(opt.len() <= circuit.len());
        prop_assert!(opt.validate().is_ok());
        prop_assert!(lower(&opt).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On bootstrap-depth instances: the pipeline never adds refreshes, keeps
    /// every value within the level budget, and still preserves the decrypted
    /// outputs (bootstraps execute as oracle refreshes functionally, so the
    /// tolerance is a touch looser).
    #[test]
    fn pipeline_preserves_outputs_through_bootstraps(
        extra_levels in 0usize..6,
        codes in proptest::collection::vec(any::<u32>(), 24),
        seed in 1u64..1000,
    ) {
        let ins = CkksInstance::toy(10, 19 + extra_levels, 2);
        let circuit = random_bootstrapping_circuit(&ins, &codes);
        let opt = PassPipeline::standard().optimize(&circuit);
        prop_assert!(opt.is_ok(), "pipeline failed: {:?}", opt.err());
        let opt = opt.unwrap();
        prop_assert!(opt.bootstrap_count() <= circuit.bootstrap_count());
        for node in &opt.nodes {
            prop_assert!(node.level <= ins.max_level());
        }
        let lowered = lower(&opt).unwrap();
        prop_assert!(lowered.trace.validate().is_ok());
        prop_assert_eq!(lowered.bootstrap_count, opt.bootstrap_count());

        let baseline = run_functional(&ins, &circuit, seed)?;
        let run = run_functional(&ins, &opt, seed)?;
        assert_outputs_close(&baseline, &run, 5e-2, "bootstrap pipeline")?;
    }
}
