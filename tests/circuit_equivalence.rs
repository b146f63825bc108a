//! The headline guarantee of the `HeCircuit` redesign: for one and the same
//! circuit, the op-class counts of the cost lowering (`TraceBackend`) exactly
//! match the evaluator calls the functional model (`FunctionalBackend`)
//! performs, and the decrypted outputs are the circuit's plaintext values.
//! Before this IR existed the two sides were produced by unrelated code
//! paths and could silently drift; now their agreement is a test, on each
//! circuit as built and on what `PassPipeline::standard()` makes of it — the
//! program `Workload::lower` hands the simulator.

use std::collections::BTreeMap;

use bts::circuit::{
    compile, CompiledCircuit, FunctionalBackend, HeCircuit, PassPipeline, TraceBackend, Workload,
};
use bts::params::CkksInstance;
use bts::sim::{HeOp, OpTrace};
use bts::workloads::{
    standard_registry, HelrConfig, HelrWorkload, ResNetConfig, ResNetWorkload, SortingConfig,
    SortingWorkload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "common/plain_interpreter.rs"]
mod plain_interpreter;

/// Largest slot error a mini's decrypted output may show against the
/// plaintext interpreter. The minis measure at most 3.2e-8 (HELR), 5.5e-9
/// (ResNet) and 6.0e-8 (sorting), raw or optimized; this leaves 16x
/// headroom for key-switch noise at other draws, and is 10^4 times tighter
/// than the benchmark's 1e-2.
const SLOT_BOUND: f64 = 1e-6;

fn trace_counts(trace: &OpTrace) -> BTreeMap<HeOp, usize> {
    let mut counts = BTreeMap::new();
    for op in trace.ops() {
        *counts.entry(op.op).or_insert(0) += 1;
    }
    counts
}

/// The registry's workloads shrunk to toy rings deep enough that no
/// bootstrap is needed: `(instance, workload, backend seed)`.
fn minis() -> [(CkksInstance, Box<dyn Workload>, u64); 3] {
    [
        // A miniature HELR: 1 iteration, 8-image batch of 4 features, on a
        // toy instance deep enough (12 levels ≥ the ~8 the iteration
        // consumes) that no bootstrap is needed.
        (
            CkksInstance::toy(11, 12, 2),
            Box::new(HelrWorkload::new(HelrConfig {
                iterations: 1,
                batch: 8,
                features: 4,
            })),
            11,
        ),
        // A miniature ResNet: 2 conv layers, 4 rotations per convolution,
        // ReLU depth 2 → 12 levels end to end.
        (
            CkksInstance::toy(10, 13, 2),
            Box::new(ResNetWorkload::new(ResNetConfig {
                conv_layers: 2,
                rotations_per_conv: 4,
                relu_depth: 2,
                channel_packing: true,
            })),
            20,
        ),
        // One compare-exchange stage of a 2-element network with a shallow
        // comparison polynomial.
        (
            CkksInstance::toy(10, 8, 2),
            Box::new(SortingWorkload::new(SortingConfig {
                log_elements: 1,
                comparison_depth: 3,
            })),
            33,
        ),
    ]
}

/// A mini's circuit as built and through `PassPipeline::standard()`, each
/// with its bytecode.
fn programs(
    ins: &CkksInstance,
    workload: &dyn Workload,
) -> [(&'static str, HeCircuit, CompiledCircuit); 2] {
    let circuit = workload.build(ins).expect("circuit builds");
    assert_eq!(
        circuit.bootstrap_count(),
        0,
        "equivalence circuits must fit the toy budget without bootstraps"
    );
    let optimized = PassPipeline::standard()
        .optimize(&circuit)
        .expect("the standard pipeline accepts builder output");
    let raw = compile(&circuit).expect("compiles");
    let compiled = compile(&optimized).expect("compiles");
    [("raw", circuit, raw), ("optimized", optimized, compiled)]
}

/// Lowers and functionally executes one mini, raw and optimized, asserting
/// op-count equality across circuit, trace and functional execution, and
/// that the optimized trace is `Workload::lower`'s.
fn assert_equivalent(ins: &CkksInstance, workload: &dyn Workload, seed: u64) {
    let name = workload.name();
    for (form, circuit, compiled) in programs(ins, workload) {
        let lowered = TraceBackend::new()
            .lower_compiled(&compiled)
            .expect("lowers");
        assert!(lowered.trace.validate().is_ok());
        if form == "optimized" {
            let served = workload.lower(ins).expect("Workload::lower");
            assert!(served.trace == lowered.trace, "{name}: Workload::lower");
        }
        let run = FunctionalBackend::new(ins, seed)
            .expect("toy context")
            .execute_compiled(&compiled)
            .expect("functional execution");
        assert_eq!(
            trace_counts(&lowered.trace),
            run.op_counts,
            "trace and functional op counts diverged for {name} ({form})"
        );
        assert_eq!(
            run.op_counts,
            circuit.op_counts(),
            "functional execution diverged from the circuit for {name} ({form})"
        );
        for output in &run.outputs {
            assert!(
                output.iter().all(|c| c.re.is_finite() && c.im.is_finite()),
                "{name} ({form}) produced non-finite outputs"
            );
        }
    }
}

#[test]
fn helr_op_counts_agree_between_backends() {
    let (ins, workload, seed) = &minis()[0];
    assert_equivalent(ins, workload.as_ref(), *seed);
}

#[test]
fn resnet_op_counts_agree_between_backends() {
    let (ins, workload, seed) = &minis()[1];
    assert_equivalent(ins, workload.as_ref(), *seed);
}

#[test]
fn sorting_op_counts_agree_between_backends() {
    let (ins, workload, seed) = &minis()[2];
    assert_equivalent(ins, workload.as_ref(), *seed);
}

#[test]
fn minis_decrypt_to_the_plaintext_interpreter() {
    // Every decrypted slot of every output, raw and optimized, within
    // SLOT_BOUND of the circuit as built evaluated on plain f64s; inputs in
    // [0.05, 0.4) drawn from the mini's seed.
    for (ins, workload, seed) in minis() {
        let name = workload.name();
        let programs = programs(&ins, workload.as_ref());
        let circuit = &programs[0].1;
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<Vec<f64>> = circuit
            .inputs
            .iter()
            .map(|_| (0..ins.slots()).map(|_| rng.gen_range(0.05..0.4)).collect())
            .collect();
        let expected = plain_interpreter::interpret(circuit, &inputs);
        for (form, _, compiled) in &programs {
            let run = FunctionalBackend::new(&ins, seed)
                .expect("toy context")
                .with_inputs(inputs.clone())
                .execute_compiled(compiled)
                .expect("functional execution");
            assert_eq!(run.outputs.len(), expected.len(), "{name} ({form})");
            // A slot's error is its distance from the real expected value
            // (a NaN stays NaN and fails the bound).
            let errors: Vec<f64> = run
                .outputs
                .iter()
                .zip(&expected)
                .flat_map(|(got, want)| got.iter().zip(want).map(|(g, w)| (g.re - w).hypot(g.im)))
                .collect();
            let worst = errors.iter().copied().fold(0.0, f64::max);
            assert!(
                errors.iter().all(|&e| e <= SLOT_BOUND),
                "{name} ({form}): slot error {worst:e} against the plaintext interpreter"
            );
        }
    }
}

#[test]
fn bootstrap_marker_counts_agree_between_backends() {
    // On paper instances the full workloads bootstrap; the marker count seen
    // by the circuit must equal the expansions the trace backend performs —
    // for the optimized circuit, that is exactly the Table 6 "bootstrap
    // count" column.
    let ins = CkksInstance::ins1();
    for (name, workload) in standard_registry().iter() {
        let circuit = workload.build(&ins).unwrap();
        let raw = TraceBackend::new()
            .lower_compiled(&compile(&circuit).unwrap())
            .unwrap();
        assert_eq!(circuit.bootstrap_count(), raw.bootstrap_count, "{name}");
        let optimized = PassPipeline::standard().optimize(&circuit).unwrap();
        let lowered = workload.lower(&ins).unwrap();
        assert_eq!(
            optimized.bootstrap_count(),
            lowered.bootstrap_count,
            "{name}"
        );
    }
}
