//! The circuit optimizer's cost in circuit walks, and lowering's cost in
//! allocations, held linear (or constant) by counts.
//!
//! Every pass decides from whole-circuit dataflow ([`analysis::analyze`]),
//! and each `analyze` call emits a `circuit.analyze` telemetry instant
//! carrying the nodes it visits; a run's instants sum to its cost in circuit
//! walks. A pass that re-analyzes once per candidate rewrite —
//! bootstrap placement used to, once per marker — shows up here as a count
//! hundreds of times the circuit's length; a timer on a shared VM would only
//! show noise.
//!
//! Lowering records every traced op into a trace's flat columns — one
//! operand arena, no vector per op — sized up front, so a 32 000-op trace
//! costs the allocations of a 2 000-op one. Optimizing and compiling are
//! held the same way: the standard pipeline followed by `compile` makes the
//! same allocations on a chain 16x as long, so no pass or compiler table
//! allocates per instruction or grows from empty. Building such a chain
//! costs at most a few more vector doublings, not an allocation per
//! bootstrap marker.
//! The counting allocator counts the whole process, so this binary's tests
//! take turns.

use std::sync::{Mutex, MutexGuard, PoisonError};

use bts::circuit::passes::analysis;
use bts::circuit::{
    compile, CircuitBuilder, CompiledCircuit, HeCircuit, PassPipeline, TraceBackend,
};
use bts::params::CkksInstance;
use bts::telemetry;
use bts::workloads::standard_registry;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{cost_of, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Held by each test for its whole run, so no other test allocates while one
/// counts. The guarded value is `()`, so a poisoned lock is still sound.
///
/// `BTS_TELEMETRY=1 cargo test` must not give a test thread a root sink:
/// every span and instant would allocate into it, by the thread's history.
/// Every turn clears the environment, so the first clears it before the
/// process's one read of it (`telemetry::enabled`); the tests that read
/// events install their own `telemetry::capture()`.
fn take_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    let turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    for key in ["BTS_TRACE", "BTS_TELEMETRY"] {
        std::env::remove_var(key);
    }
    assert!(!telemetry::enabled());
    turn
}

/// How many analyses `run` made and the nodes they visited: its
/// `circuit.analyze` instants and their `nodes` args, summed.
fn analyses(run: impl FnOnce()) -> (usize, u64) {
    let capture = telemetry::capture();
    run();
    let run = capture.finish();
    assert_eq!(run.dropped, 0, "the stream must be complete");
    let analyses: Vec<_> = run
        .events
        .iter()
        .filter(|e| e.name == "circuit.analyze")
        .collect();
    let nodes = analyses
        .iter()
        .map(|e| e.arg_u64("nodes").expect("an analysis counts its nodes"))
        .sum();
    (analyses.len(), nodes)
}

/// Sorting on INS-1 is the sweep's largest circuit and its most refreshed:
/// ~21k instructions, ~700 bootstrap markers, none of them removable.
///
/// The pipeline analyzes each circuit of a run once: its input, then each
/// pass's output, which the pass hands over with its analysis (checked, or
/// releveled) — 5 analyses for the 4 standard passes, each at most one walk
/// over a circuit no longer than the input. Before passes shared analyses it
/// made 9 (rescale scheduling and bootstrap placement re-analyzed their
/// input, and the pipeline re-checked every output).
#[test]
fn standard_pipeline_analyzes_a_bounded_multiple_of_the_circuit() {
    let _turn = take_turn();
    let registry = standard_registry();
    let sorting = registry.get("sorting").expect("sorting is registered");
    let circuit = sorting
        .build(&CkksInstance::ins1())
        .expect("sorting builds");
    assert!(circuit.bootstrap_count() > 500, "the gate needs markers");

    let pipeline = PassPipeline::standard();
    let (count, visited) = analyses(|| {
        pipeline.optimize(&circuit).expect("sorting optimizes");
    });
    eprintln!(
        "the pipeline made {count} analyses over {visited} nodes of a {}-node circuit",
        circuit.len()
    );
    let passes = pipeline.pass_names().len();
    assert_eq!(count, passes + 1, "one analysis per circuit of the run");
    let bound = 6 * circuit.len() as u64;
    assert!(
        visited <= bound,
        "the pipeline analyzed {visited} nodes of a {}-node circuit (bound {bound})",
        circuit.len()
    );
    // Not vacuous: the instants are live and every analysis emits one.
    assert!(visited >= circuit.len() as u64);
}

/// One analysis's instant carries exactly the nodes it visits.
#[test]
fn analyze_counts_the_nodes_it_visits() {
    let _turn = take_turn();
    let registry = standard_registry();
    let helr = registry.get("helr").expect("helr is registered");
    let circuit = helr.build(&CkksInstance::ins1()).expect("helr builds");
    let (count, visited) = analyses(|| {
        analysis::analyze(&circuit).expect("helr analyzes");
    });
    assert_eq!((count, visited), (1, circuit.len() as u64));
}

/// `rounds` of square → rescale → rotate → accumulate, refreshed by a
/// bootstrap marker whenever the level budget runs out: like the registry's
/// workloads, most of the lowered trace is bootstrap expansion.
fn refreshed_circuit(ins: &CkksInstance, rounds: i64) -> HeCircuit {
    let mut b = CircuitBuilder::new(ins);
    let mut acc = b.input();
    for round in 0..rounds {
        acc = b.ensure(acc, 1).expect("INS-1 bootstraps");
        let square = b.hmult(acc, acc).expect("a level is left");
        let square = b.rescale(square).expect("a level is left");
        let rotated = b
            .hrot(square, round % 7 + 1)
            .expect("rotations keep the level");
        acc = b
            .hadd(square, rotated)
            .expect("both operands share a level");
    }
    b.output(acc);
    b.build()
}

#[test]
fn building_allocates_a_logarithm_per_circuit() {
    let _turn = take_turn();
    let ins = CkksInstance::ins1();
    // The builder's vectors grow by doubling, so 16x the rounds may cost a
    // few more reallocations each; `build`'s prune of the greedy refreshes
    // is one sweep over tables sized up front. Measured: 35 allocations at
    // 125 rounds, 47 at 2 000; a hash set per bootstrap marker made it 42
    // and 322.
    const GROWTH: u64 = 16;
    let allocations = |rounds: i64| {
        // The least of three, as for lowering below.
        (0..3)
            .map(|_| cost_of(|| refreshed_circuit(&ins, rounds)).allocations)
            .min()
            .expect("three runs")
    };
    let (short, long) = (allocations(125), allocations(2_000));
    eprintln!("building 125 rounds: {short} allocations; 2 000 rounds: {long}");
    assert!(
        refreshed_circuit(&ins, 2_000).bootstrap_count() > 250,
        "the gate needs markers"
    );
    assert!(
        long <= short + GROWTH,
        "16x the rounds made {long} allocations against {short}"
    );
}

#[test]
fn lowering_allocates_a_constant_per_trace() {
    let _turn = take_turn();
    let ins = CkksInstance::ins1();
    let lower = |compiled: &CompiledCircuit| {
        TraceBackend::new()
            .lower_compiled(compiled)
            .expect("compiled chains lower")
    };
    // Lowering sizes the trace's columns from the bytecode (an instruction
    // is one op, a marker one bootstrap expansion) and nothing grows.
    // Measured: 21 allocations and 38 (2 125 ops) / 36 (32 421 ops) bytes
    // per op, the index scan's kept tables of the first bootstrap expansion
    // included (19 and 37 / 36 before copies were indexed from them: the
    // same count however many markers); three per-slot tables (first use, last use, forwarded) in
    // place of the stored one-byte codes made it 20 and 39; one vector per
    // traced op made it 2 152 and 32 113 allocations, 119 and 68 bytes per
    // op.
    const ALLOCATIONS: u64 = 24;
    const PEAK_BYTES_PER_OP: u64 = 40;
    let mut counts = Vec::new();
    for (rounds, at_least) in [(40, 2_000), (540, 32_000)] {
        let compiled = compile(&refreshed_circuit(&ins, rounds)).expect("the chain compiles");
        let ops = lower(&compiled).trace.len();
        assert!(ops >= at_least, "{rounds} rounds lower to {ops} ops");
        // The allocator counts the whole process, and the test that held the
        // turn before this one may still be reporting its result: a clean
        // run is the least of three.
        let cost = (0..3)
            .map(|_| cost_of(|| lower(&compiled)))
            .min_by_key(|cost| cost.allocations)
            .expect("three runs");
        let per_op_bytes = cost.peak_bytes / ops as u64;
        eprintln!(
            "lowering {ops} ops: {} allocations, {per_op_bytes} bytes per op at the peak",
            cost.allocations
        );
        assert!(
            cost.allocations <= ALLOCATIONS,
            "lowering {ops} ops made {} allocations",
            cost.allocations
        );
        assert!(
            per_op_bytes <= PEAK_BYTES_PER_OP,
            "lowering {ops} ops keeps {per_op_bytes} bytes per op alive"
        );
        counts.push(cost.allocations);
    }
    assert_eq!(counts[0], counts[1], "16x the ops, the same allocations");
}

#[test]
fn optimizing_and_compiling_allocate_a_constant_per_circuit() {
    let _turn = take_turn();
    let ins = CkksInstance::ins1();
    let pipeline = PassPipeline::standard();
    let build = |circuit: &HeCircuit| {
        let optimized = pipeline
            .optimize(circuit)
            .expect("refreshed chains optimize");
        compile(&optimized).expect("optimized chains compile")
    };
    // Every table is sized from the circuit up front: value tables, CSE's
    // value numbers, the compiler's register file, the dead-value sweep's
    // output; rescale matching works in one scratch set per run.
    // Measured: 57 allocations at 165 and at 2 651 instructions (55 before
    // bootstrap placement read ahead: its last-read, region and facts
    // tables, the value tables now sized to the largest id); 77 while
    // passes re-analyzed their input and the pipeline re-checked their
    // output (9 analyses, each after its own validation walk, for 5); with
    // four vectors per rescale, SipHash maps grown from empty and a
    // collected dead-value sweep it was 226 and 2 047.
    const ALLOCATIONS: u64 = 96;
    let mut counts = Vec::new();
    for rounds in [40, 640] {
        let circuit = refreshed_circuit(&ins, rounds);
        // The least of three, as for lowering above.
        let cost = (0..3)
            .map(|_| cost_of(|| build(&circuit)))
            .min_by_key(|cost| cost.allocations)
            .expect("three runs");
        eprintln!(
            "optimizing + compiling {} instructions: {} allocations",
            circuit.len(),
            cost.allocations
        );
        assert!(
            cost.allocations <= ALLOCATIONS,
            "optimizing + compiling {} instructions made {} allocations",
            circuit.len(),
            cost.allocations
        );
        counts.push(cost.allocations);
    }
    assert_eq!(
        counts[0], counts[1],
        "16x the instructions, the same allocations"
    );
}
