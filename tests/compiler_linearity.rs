//! The circuit optimizer's cost in circuit walks, held linear by a count.
//!
//! Every pass decides from whole-circuit dataflow ([`analysis::analyze`]),
//! and `analyze` adds the nodes it visits to the `circuit.analysis.nodes`
//! telemetry counter. A pass that re-analyzes once per candidate rewrite —
//! bootstrap placement used to, once per marker — shows up here as a count
//! hundreds of times the circuit's length; a timer on a shared VM would only
//! show noise.

use bts::circuit::passes::analysis;
use bts::circuit::PassPipeline;
use bts::params::CkksInstance;
use bts::telemetry::{self, Metric};
use bts::workloads::standard_registry;

fn analysis_nodes(run: impl FnOnce()) -> u64 {
    let capture = telemetry::capture();
    run();
    match capture.finish().metrics.get("circuit.analysis.nodes") {
        Some(Metric::Counter(nodes)) => *nodes,
        other => panic!("circuit.analysis.nodes is not a counter: {other:?}"),
    }
}

/// Sorting on INS-1 is the sweep's largest circuit and its most refreshed:
/// ~21k instructions, ~700 bootstrap markers, none of them removable.
#[test]
fn standard_pipeline_analyzes_a_bounded_multiple_of_the_circuit() {
    let registry = standard_registry();
    let sorting = registry.get("sorting").expect("sorting is registered");
    let circuit = sorting
        .build(&CkksInstance::ins1())
        .expect("sorting builds");
    assert!(circuit.bootstrap_count() > 500, "the gate needs markers");

    let visited = analysis_nodes(|| {
        PassPipeline::standard()
            .optimize(&circuit)
            .expect("sorting optimizes");
    });
    let bound = 16 * circuit.len() as u64;
    assert!(
        visited <= bound,
        "the pipeline analyzed {visited} nodes of a {}-node circuit (bound {bound})",
        circuit.len()
    );
    // Not vacuous: the counter is live and every analysis adds to it.
    assert!(visited >= circuit.len() as u64);
}

/// The counter counts what one analysis visits, and only under a sink.
#[test]
fn analyze_counts_the_nodes_it_visits() {
    let registry = standard_registry();
    let helr = registry.get("helr").expect("helr is registered");
    let circuit = helr.build(&CkksInstance::ins1()).expect("helr builds");
    let visited = analysis_nodes(|| {
        analysis::analyze(&circuit).expect("helr analyzes");
    });
    assert_eq!(visited, circuit.len() as u64);
}
