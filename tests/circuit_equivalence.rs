//! The headline guarantee of the `HeCircuit` redesign: for one and the same
//! circuit, the op-class counts of the cost lowering (`TraceBackend`) exactly
//! match the evaluator calls the functional model (`FunctionalBackend`)
//! performs. Before this IR existed the two sides were produced by unrelated
//! code paths and could silently drift; now their agreement is a test.

use std::collections::BTreeMap;

use bts::circuit::{FunctionalBackend, TraceBackend, Workload};
use bts::params::CkksInstance;
use bts::sim::{HeOp, OpTrace};
use bts::workloads::{
    standard_registry, HelrConfig, HelrWorkload, ResNetConfig, ResNetWorkload, SortingConfig,
    SortingWorkload,
};

fn trace_counts(trace: &OpTrace) -> BTreeMap<HeOp, usize> {
    let mut counts = BTreeMap::new();
    for op in trace.ops() {
        *counts.entry(op.op).or_insert(0) += 1;
    }
    counts
}

/// Lowers and functionally executes one circuit, asserting op-count equality
/// across circuit, trace and functional execution.
fn assert_equivalent(ins: &CkksInstance, workload: &dyn Workload, seed: u64) {
    let circuit = workload.build(ins).expect("circuit builds");
    assert_eq!(
        circuit.bootstrap_count(),
        0,
        "equivalence circuits must fit the toy budget without bootstraps"
    );
    let lowered = TraceBackend::new().execute(&circuit).expect("lowers");
    assert!(lowered.trace.validate().is_ok());
    let run = FunctionalBackend::new(ins, seed)
        .expect("toy context")
        .execute(&circuit)
        .expect("functional execution");
    let from_trace = trace_counts(&lowered.trace);
    assert_eq!(
        from_trace,
        run.op_counts,
        "trace and functional op counts diverged for {}",
        workload.name()
    );
    assert_eq!(
        run.op_counts,
        circuit.op_counts(),
        "functional execution diverged from the circuit for {}",
        workload.name()
    );
    for output in &run.outputs {
        assert!(
            output.iter().all(|c| c.re.is_finite() && c.im.is_finite()),
            "{} produced non-finite outputs",
            workload.name()
        );
    }
}

#[test]
fn helr_op_counts_agree_between_backends() {
    // A miniature HELR: 1 iteration, 8-image batch of 4 features, on a toy
    // instance deep enough (12 levels ≥ the ~8 the iteration consumes) that
    // no bootstrap is needed.
    let ins = CkksInstance::toy(11, 12, 2);
    let workload = HelrWorkload::new(HelrConfig {
        iterations: 1,
        batch: 8,
        features: 4,
    });
    assert_equivalent(&ins, &workload, 11);
}

#[test]
fn resnet_op_counts_agree_between_backends() {
    // A miniature ResNet: 2 conv layers, 4 rotations per convolution, ReLU
    // depth 2 → 12 levels end to end.
    let ins = CkksInstance::toy(10, 13, 2);
    let workload = ResNetWorkload::new(ResNetConfig {
        conv_layers: 2,
        rotations_per_conv: 4,
        relu_depth: 2,
        channel_packing: true,
    });
    assert_equivalent(&ins, &workload, 20);
}

#[test]
fn sorting_op_counts_agree_between_backends() {
    // One compare-exchange stage of a 2-element network with a shallow
    // comparison polynomial.
    let ins = CkksInstance::toy(10, 8, 2);
    let workload = SortingWorkload::new(SortingConfig {
        log_elements: 1,
        comparison_depth: 3,
    });
    assert_equivalent(&ins, &workload, 33);
}

#[test]
fn bootstrap_marker_counts_agree_between_backends() {
    // On paper instances the full workloads bootstrap; the marker count seen
    // by the circuit must equal the expansions the trace backend performs —
    // that is exactly the Table 6 "bootstrap count" column.
    let ins = CkksInstance::ins1();
    for (name, workload) in standard_registry().iter() {
        let circuit = workload.build(&ins).unwrap();
        let lowered = TraceBackend::new().execute(&circuit).unwrap();
        assert_eq!(circuit.bootstrap_count(), lowered.bootstrap_count, "{name}");
    }
}
