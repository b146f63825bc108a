//! Golden op-count snapshots for the optimizer on the five registry
//! workloads at paper instance INS-1, before and after the standard pass
//! pipeline. These numbers are the compiler's observable contract: an
//! innocent-looking pass change that silently alters what the benchmarks
//! simulate shows up here as a diff, not as a mystery drift in
//! BENCH_FIGURES.json.
//!
//! The trailing tests hold the bytecode lowering to the oracle standard on
//! the whole registry at paper scale: `compile` + `lower_compiled` of each
//! circuit, raw and pipeline-optimized, and the trace `Workload::lower`
//! produces (build → passes → compile → lower the bytecode) must be
//! *identical* — op for op, ciphertext id for ciphertext id — to the SSA
//! walk in `common/ssa_oracle.rs` of the circuit it lowers, on INS-1/2/3.

use bts::circuit::{compile, PassPipeline, TraceBackend};
use bts::params::CkksInstance;
use bts::workloads::standard_registry;

#[path = "common/ssa_oracle.rs"]
mod ssa_oracle;

/// `(workload, op_counts before, bootstraps before, op_counts after,
/// bootstraps after)`, with op counts rendered as the `Debug` form of the
/// `BTreeMap<HeOp, usize>` (deterministically ordered by op kind).
const SNAPSHOTS: &[(&str, &str, usize, &str, usize)] = &[
    (
        "amortized-mult",
        "{HMult: 8, HRescale: 8}",
        1,
        "{HMult: 8, HRescale: 8}",
        1,
    ),
    ("bootstrap", "{}", 1, "{}", 1),
    (
        "helr",
        "{HMult: 210, HRot: 720, PMult: 870, HAdd: 930, HRescale: 240, CMult: 90}",
        59,
        "{HMult: 150, HRot: 720, PMult: 90, HAdd: 930, HRescale: 240, CMult: 90}",
        29,
    ),
    (
        "resnet20",
        "{HMult: 581, HRot: 610, PMult: 651, HAdd: 1190, HRescale: 342, CMult: 300}",
        48,
        "{HMult: 301, HRot: 610, PMult: 41, HAdd: 1190, HRescale: 342, CMult: 300}",
        42,
    ),
    (
        "sorting",
        "{HMult: 4725, HRot: 315, PMult: 630, HAdd: 5145, HRescale: 4935, CMult: 4725}",
        704,
        "{HMult: 4725, HRot: 315, PMult: 210, HAdd: 5145, HRescale: 4935, CMult: 4725}",
        616,
    ),
];

#[test]
fn registry_op_counts_match_the_golden_snapshots() {
    let ins = CkksInstance::ins1();
    let registry = standard_registry();
    let mut seen = 0;
    for &(name, before, bs_before, after, bs_after) in SNAPSHOTS {
        let workload = registry.get(name).unwrap_or_else(|| panic!("{name}"));
        let circuit = workload.build(&ins).unwrap();
        assert_eq!(
            format!("{:?}", circuit.op_counts()),
            before,
            "{name}: pre-pipeline op counts drifted"
        );
        assert_eq!(circuit.bootstrap_count(), bs_before, "{name}: bootstraps");
        let optimized = PassPipeline::standard().optimize(&circuit).unwrap();
        assert_eq!(
            format!("{:?}", optimized.op_counts()),
            after,
            "{name}: post-pipeline op counts drifted"
        );
        assert_eq!(
            optimized.bootstrap_count(),
            bs_after,
            "{name}: post-pipeline bootstraps"
        );
        seen += 1;
    }
    assert_eq!(seen, registry.iter().count(), "snapshot every workload");
}

#[test]
fn pipeline_strictly_reduces_key_switches_on_at_least_two_workloads() {
    // The acceptance bar for this compiler: no workload gets worse, and at
    // least two get strictly cheaper in the metric that dominates simulated
    // time (key-switching ops, bootstrap expansions included).
    let ins = CkksInstance::ins1();
    let plan_ks = bts::circuit::BootstrapPlan::paper_default().key_switch_count();
    let ks = |c: &bts::circuit::HeCircuit| -> usize {
        let direct: usize = c
            .op_counts()
            .iter()
            .filter(|(op, _)| op.is_key_switching())
            .map(|(_, n)| n)
            .sum();
        direct + c.bootstrap_count() * plan_ks
    };
    let mut strictly_reduced = 0;
    for (name, workload) in standard_registry().iter() {
        let circuit = workload.build(&ins).unwrap();
        let optimized = PassPipeline::standard().optimize(&circuit).unwrap();
        let (before, after) = (ks(&circuit), ks(&optimized));
        assert!(after <= before, "{name}: pipeline grew key-switches");
        if after < before {
            strictly_reduced += 1;
        }
    }
    assert!(
        strictly_reduced >= 2,
        "expected a strict key-switch reduction on at least two workloads, got {strictly_reduced}"
    );
}

#[test]
fn compiled_traces_are_identical_to_the_oracle_on_paper_workloads() {
    // Bit-equivalence at paper scale: the functional backend is impractical
    // at N = 2^17, but the trace is the exact op stream both executors
    // perform, so trace identity is the strongest equivalence observable
    // here — same ops, same levels, same ciphertext identities.
    let registry = standard_registry();
    for ins in CkksInstance::evaluation_set() {
        for (name, workload) in registry.iter() {
            let tag = format!("{name} on {}", ins.name());
            let circuit = workload.build(&ins).unwrap();
            let tree = ssa_oracle::lower(&circuit);
            let flat = TraceBackend::new()
                .lower_compiled(&compile(&circuit).unwrap())
                .unwrap();
            assert!(tree.trace == flat.trace, "{tag}: raw traces diverged");
            assert_eq!(tree.bootstrap_count, flat.bootstrap_count, "{tag}: raw");

            let optimized = PassPipeline::standard().optimize(&circuit).unwrap();
            let compiled = compile(&optimized).unwrap();
            assert_eq!(compiled.op_counts(), optimized.op_counts(), "{tag}");
            let keyed: Vec<i64> = compiled
                .rotations
                .iter()
                .copied()
                .filter(|&r| r != 0)
                .collect();
            assert_eq!(keyed, optimized.rotations(), "{tag}");
            let tree = ssa_oracle::lower(&optimized);
            let flat = TraceBackend::new().lower_compiled(&compiled).unwrap();
            assert!(tree.trace == flat.trace, "{tag}: optimized traces diverged");
            assert_eq!(
                tree.bootstrap_count, flat.bootstrap_count,
                "{tag}: optimized"
            );
            let served = workload.lower(&ins).unwrap();
            assert!(
                tree.trace == served.trace,
                "{tag}: Workload::lower diverged"
            );
            assert_eq!(tree.bootstrap_count, served.bootstrap_count, "{tag}");
        }
    }
}
