//! The simulation kernel's cost in heap allocations and live bytes, held
//! independent of the trace length by counts.
//!
//! A trace is its own index: interning, validation and the per-slot tables
//! are built once, when the trace is, so a cache sweep over a built trace
//! sizes only its own state — the LRU list or the next-use entries, the
//! per-(op, level) cost table — and then allocates nothing per op: no queue
//! per ciphertext, no vector per access, no victim list per eviction, for the
//! default policy no next-use table either (the reuse code is read off the
//! trace's tables), and no per-op timing record: `try_run*` fold each op's
//! timing into the report as the sweep produces it. So `try_run`,
//! `try_run_belady` and `try_run_lru` make the same bounded number of
//! allocations on a 2 000-op trace as on a 32 000-op one, whatever the ids
//! look like, and keep only the cache alive — a few bytes per op, where a
//! 120-byte `OpTiming` each would be many times that.
//! `run_scheduled` places each op as the sweep charges it and folds each
//! reservation into the unit utilizations on the spot: it builds no plan and
//! keeps no timeline, only two finish times per ciphertext slot, so it makes
//! the sweep's allocations plus that one table, at any length. Planning a
//! trace (`JobPlan::from_trace`) adds a fixed set of tables to the sweep
//! too: the trace is its own DAG, so no edge list is built. A timer on a
//! shared VM would only show noise; the process's allocator counts exactly.
//! Like `tests/serve_linearity.rs` this is a single-test binary with a
//! counting allocator, so nothing else allocates while it counts.

use bts::params::CkksInstance;
use bts::sched::{JobPlan, ScheduleExt};
use bts::sim::{BtsConfig, CtId, OpTrace, RawOp, SimReport, Simulator, TraceBuilder, TraceError};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{cost_of, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A bootstrap-shaped trace of at least `ops` ops: refresh after refresh,
/// each a modulus raise followed by baby-step/giant-step stages down the
/// level budget (rotate → pmult → accumulate, then a rescale), with a few
/// long-lived ciphertexts read throughout so the cache stays under pressure.
fn bootstrap_shaped(ins: &CkksInstance, ops: usize) -> OpTrace {
    let mut b = TraceBuilder::new(ins);
    let top = ins.max_level();
    let mut x = b.fresh_ct(0);
    let keep: Vec<_> = (0..6).map(|_| b.fresh_ct(top)).collect();
    let mut emitted = 0usize;
    while emitted < ops {
        b.set_bootstrap_region(true);
        x = b.mod_raise(x, top);
        emitted += 1;
        for level in (top - 12..=top).rev() {
            let mut acc = b.pmult(x, level);
            for r in 1..8 {
                let rot = b.hrot(x, r, level);
                let prod = b.pmult(rot, level);
                acc = b.hadd(acc, prod, level);
            }
            let mixed = b.hmult_at(acc, keep[level % keep.len()], level);
            x = b.hrescale_at(mixed, level);
            emitted += 24;
        }
        b.set_bootstrap_region(false);
        x = b.hmult_at(x, x, top - 13);
        emitted += 1;
    }
    b.build()
}

/// `trace` with every id spaced 2⁴⁰ apart (the last one past 2⁵⁵), rebuilt
/// from ids.
fn spaced_ids(trace: &OpTrace) -> OpTrace {
    let spaced = |slot: u32| trace.id_of(slot) << 40;
    let inputs: Vec<(CtId, usize)> = trace.inputs().map(|(id, l)| (id << 40, l)).collect();
    let operands: Vec<Vec<CtId>> = trace
        .ops()
        .map(|op| op.operands.iter().map(|&s| spaced(s)).collect())
        .collect();
    let ops = trace.ops().zip(&operands).map(|(op, inputs)| RawOp {
        op: op.op,
        level: op.level,
        inputs,
        output: op.output.map(spaced),
        in_bootstrap: op.in_bootstrap,
    });
    OpTrace::from_ops(trace.instance(), &inputs, ops, trace.rotation_keys())
}

#[test]
fn sweeps_allocate_a_constant_and_scheduling_no_more_per_op() {
    // `BTS_TELEMETRY=1 cargo test` must not give this thread a root sink
    // (every op would allocate an event): clear the environment before the
    // process's one read of it, which `enabled()` performs.
    for key in ["BTS_TRACE", "BTS_TELEMETRY"] {
        std::env::remove_var(key);
    }
    assert!(!bts::telemetry::enabled());

    let ins = CkksInstance::ins1();
    let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
    let small = bootstrap_shaped(&ins, 2_000);
    let large = bootstrap_shaped(&ins, 32_000);
    let hostile = spaced_ids(&large);
    assert!(small.len() >= 2_000 && large.len() >= 32_000);

    // The sweeps: the cache, the cost table and the report's per-class map —
    // a fixed set of tables, each sized once; the trace brought its own.
    // Measured: 8 / 10 / 9 (`try_run` / `_belady` / `_lru`) at either
    // length — LRU never bypasses, so its resident list grows once more
    // than the policy's; re-indexing the trace on entry cost 15 / 17 / 13.
    const SWEEP_ALLOCATIONS: u64 = 12;
    // What a folding sweep may keep alive per op at its peak: the cache's
    // slot table (and the exact-next-use probe's next-use table), not a
    // timing per op (`op_timings*`, which collect, pay 120 bytes per op on
    // top) and not a second copy of the trace's tables. Measured: at most 33
    // on the short trace, where the cost table weighs most, 22 on the long
    // one; a per-entry index made that 56 / 44.
    const SWEEP_PEAK_BYTES_PER_OP: u64 = 40;
    type EntryPoint = fn(&Simulator, &OpTrace) -> Result<SimReport, TraceError>;
    let entry_points: [(&str, EntryPoint); 3] = [
        ("try_run", Simulator::try_run),
        ("try_run_belady", Simulator::try_run_belady),
        ("try_run_lru", Simulator::try_run_lru),
    ];
    for (name, trace) in [("2 000", &small), ("32 000", &large)] {
        for (entry, run) in entry_points {
            let cost = cost_of(|| run(&sim, trace).expect("trace runs"));
            let per_op_bytes = cost.peak_bytes / trace.len() as u64;
            eprintln!(
                "{entry} on {name} ops: {} allocations, {per_op_bytes} bytes per op",
                cost.allocations
            );
            assert!(
                cost.allocations <= SWEEP_ALLOCATIONS,
                "{entry} on {name} ops made {} allocations",
                cost.allocations
            );
            assert!(
                per_op_bytes <= SWEEP_PEAK_BYTES_PER_OP,
                "{entry} on {name} ops keeps {per_op_bytes} bytes per op alive"
            );
        }
    }
    // The default sweep builds no next-use table: one allocation fewer than
    // the exact-next-use probe's, at any length.
    let allocations = |run: EntryPoint| cost_of(|| run(&sim, &large).unwrap()).allocations;
    assert!(allocations(Simulator::try_run) < allocations(Simulator::try_run_belady));
    let report = sim.try_run(&large).unwrap();
    assert!(
        report.cache_misses > 1_000,
        "the trace keeps the cache under pressure ({} misses)",
        report.cache_misses
    );

    // Scheduling adds one table to the sweep: per slot, the finish of the op
    // producing it in the schedule and on the critical path (16 bytes). The
    // placement itself allocates nothing, so the count is `try_run`'s plus
    // one at either length (measured: 9). Building a plan and running it
    // through the multi-job scheduler made it 30 / 34 allocations and 104 /
    // 92 bytes per op; a retained timeline made it 252 bytes per op.
    const SLOT_TABLE_BYTES_PER_OP: u64 = 16;
    for (name, trace) in [("2 000", &small), ("32 000", &large), ("sparse", &hostile)] {
        let sweep = cost_of(|| sim.try_run(trace).expect("trace runs"));
        let cost = cost_of(|| sim.try_run_scheduled(trace).expect("trace schedules"));
        let per_op_bytes = cost.peak_bytes / trace.len() as u64;
        eprintln!(
            "run_scheduled on {name} ops: {} allocations, {per_op_bytes} bytes per op",
            cost.allocations
        );
        assert_eq!(
            cost.allocations,
            sweep.allocations + 1,
            "run_scheduled on {name} ops allocates more than the sweep and its slot table"
        );
        assert!(
            per_op_bytes <= SWEEP_PEAK_BYTES_PER_OP + SLOT_TABLE_BYTES_PER_OP,
            "run_scheduled on {name} ops keeps {per_op_bytes} bytes per op alive"
        );
    }

    // A plan is the trace's own DAG, not a copy of it as edges: the sweep
    // plus six tables, each sized once — per op its kind, level, output slot
    // and demand, one operand-slot arena, the longest chain, and while it
    // plans a per-slot critical-path clock and each op's chain predecessor.
    // Measured: 14 allocations (the sweep's 8 + 6) on 2 000 and 32 000 ops
    // and on sparse ids, 116 / 104 / 104 bytes per op at the peak. A per-op
    // `Vec` (an edge list per op, or a chain grown push by push) makes the
    // count grow with the trace.
    const PLAN_TABLES: u64 = 6;
    const PLAN_PEAK_BYTES_PER_OP: u64 = 120;
    let mut plan_allocations = Vec::new();
    for (name, trace) in [("2 000", &small), ("32 000", &large), ("sparse", &hostile)] {
        let sweep = cost_of(|| sim.try_run(trace).expect("trace runs"));
        let cost = cost_of(|| JobPlan::from_trace(&sim, trace).expect("trace plans"));
        let per_op_bytes = cost.peak_bytes / trace.len() as u64;
        eprintln!(
            "JobPlan::from_trace on {name} ops: {} allocations, {per_op_bytes} bytes per op",
            cost.allocations
        );
        assert_eq!(
            cost.allocations,
            sweep.allocations + PLAN_TABLES,
            "JobPlan::from_trace on {name} ops allocates more than the sweep and the plan's tables"
        );
        assert!(
            per_op_bytes <= PLAN_PEAK_BYTES_PER_OP,
            "JobPlan::from_trace on {name} ops keeps {per_op_bytes} bytes per op alive"
        );
        plan_allocations.push(cost.allocations);
    }
    assert!(
        plan_allocations.windows(2).all(|w| w[0] == w[1]),
        "planning allocates by the trace's length: {plan_allocations:?}"
    );

    // Hostile ids cost memory by the trace's length, not by their size, and
    // only where the trace is built: the interned id table is the trace's,
    // so a sweep over it allocates exactly what one over dense ids does.
    for (entry, run) in entry_points {
        let dense = cost_of(|| run(&sim, &large).expect("trace runs"));
        let sparse = cost_of(|| run(&sim, &hostile).expect("trace runs"));
        assert_eq!(
            sparse.allocations, dense.allocations,
            "{entry}: sparse ids allocate like dense ones"
        );
        let per_op_bytes = sparse.peak_bytes / hostile.len() as u64;
        assert!(
            per_op_bytes <= SWEEP_PEAK_BYTES_PER_OP,
            "{entry}: sparse ids keep {per_op_bytes} bytes per op alive"
        );
    }
    assert_eq!(
        sim.try_run(&hostile).unwrap().cache_misses,
        report.cache_misses,
        "an order-preserving relabelling changes no cache decision"
    );
}
