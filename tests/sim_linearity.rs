//! The simulation kernel's cost in heap allocations and live bytes, held
//! independent of the trace length by counts.
//!
//! A trace is its own index: interning, validation and the per-slot tables
//! are built once, when the trace is, so a cache sweep over a built trace
//! sizes only its own state — the cache's cells (a ring over the trace's
//! read window plus its inputs) and resident lists, the per-(op, level)
//! cost table — and then allocates nothing per op: no queue
//! per ciphertext, no vector per access, no victim list per eviction, for the
//! default policy no next-use table either (the reuse code is read off the
//! trace's tables), and no per-op timing record: `try_run*` fold each op's
//! timing into the report as the sweep produces it. So `try_run`,
//! `try_run_belady` and `try_run_lru` make the same bounded number of
//! allocations on a 2 000-op trace as on a 32 000-op one, whatever the ids
//! look like, and `try_run` and `try_run_lru` keep the same bytes alive at
//! either length: nothing they size follows the trace's length (only the
//! probe's next-use table does), where a 120-byte `OpTiming` per op would.
//! `run_scheduled` places each op as the sweep charges it and folds each
//! reservation into the unit utilizations on the spot: it builds no plan and
//! keeps no timeline, only two finish times per value cell, so it makes the
//! sweep's allocations plus that one table, at any length, and its peak does
//! not grow with the trace either. Planning a
//! trace (`JobPlan::from_trace`) adds a fixed set of tables to the sweep
//! too: the trace is its own DAG, so no edge list is built. A timer on a
//! shared VM would only show noise; the process's allocator counts exactly.
//! Like `tests/serve_linearity.rs` this is a single-test binary with a
//! counting allocator, so nothing else allocates while it counts.

use std::ops::Range;

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
/// With `repeat`, every refresh after the first is a copy of it
/// (`TraceBuilder::repeat`), as a lowering records its bootstraps: the same
/// program, which a sweep may replay copy by copy.
fn bootstrap_shaped(ins: &CkksInstance, ops: usize, repeat: bool) -> OpTrace {
    let mut b = TraceBuilder::new(ins);
    let top = ins.max_level();
    let mut x = b.fresh_ct(0);
    let keep: Vec<_> = (0..6).map(|_| b.fresh_ct(top)).collect();
    let refresh = |b: &mut TraceBuilder, mut x| {
        b.set_bootstrap_region(true);
        x = b.mod_raise(x, top);
        for level in (top - 12..=top).rev() {
            let mut acc = b.pmult(x, level);
            for r in 1..8 {
                let rot = b.hrot(x, r, level);
                let prod = b.pmult(rot, level);
                acc = b.hadd(acc, prod, level);
            }
            let mixed = b.hmult_at(acc, keep[level % keep.len()], level);
            x = b.hrescale_at(mixed, level);
        }
        b.set_bootstrap_region(false);
        x
    };
    let mut first: Option<(Range<usize>, CtId)> = None;
    while b.len() < ops {
        x = match &first {
            Some((range, from)) if repeat => b.repeat(range.clone(), *from, x),
            _ => {
                let start = b.len();
                let out = refresh(&mut b, x);
                first.get_or_insert((start..b.len(), x));
                out
            }
        };
        x = b.hmult_at(x, x, top - 13);
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
    // `BTS_TELEMETRY=1 cargo test` must not give this thread a root collector
    // (every op would allocate an event): clear the environment before the
    // process's one read of it, which `enabled()` performs.
    for key in ["BTS_TRACE", "BTS_TELEMETRY"] {
        std::env::remove_var(key);
    }
    assert!(!bts::telemetry::enabled());

    let ins = CkksInstance::ins1();
    let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
    let small = bootstrap_shaped(&ins, 2_000, false);
    let large = bootstrap_shaped(&ins, 32_000, false);
    let hostile = spaced_ids(&large);
    assert!(small.len() >= 2_000 && large.len() >= 32_000);

    // The sweeps: the cache's cells and its three resident lists (each
    // sized once, for as many ciphertexts as the cache can hold), the cost
    // table and the report's per-class map — a fixed set of tables; the trace
    // brought its own. Measured: 8 / 10 / 8 (`try_run` / `_belady` / `_lru`)
    // at either length; a cache table per slot with a growing resident list
    // made it 8 / 10 / 9, re-indexing the trace on entry 15 / 17 / 13.
    const SWEEP_ALLOCATIONS: u64 = 12;
    // What a folding sweep may keep alive per op at its peak: not a timing
    // per op (`op_timings*`, which collect, pay 120 bytes per op on top), not
    // a second copy of the trace's tables. Measured: 17 on the short trace,
    // where the cost table is nearly all of it, 1 on the long one (the
    // probe's next-use table: 23 / 9); a 16-byte cache entry per slot made
    // it 28 / 16, a per-entry index 56 / 44.
    const SWEEP_PEAK_BYTES_PER_OP: u64 = 40;
    // How far a sweep's peak may grow from the 2 000-op trace to the
    // 32 000-op one — window-sized state does not grow at all (measured: 0
    // bytes for `try_run`, `try_run_lru` and `run_scheduled`), where a
    // table per slot grew by 16 bytes per added ciphertext.
    const PEAK_GROWTH_BYTES: u64 = 1024;
    type EntryPoint = fn(&Simulator, &OpTrace) -> Result<SimReport, TraceError>;
    let entry_points: [(&str, EntryPoint); 3] = [
        ("try_run", Simulator::try_run),
        ("try_run_belady", Simulator::try_run_belady),
        ("try_run_lru", Simulator::try_run_lru),
    ];
    let mut peaks = Vec::new();
    for (name, trace) in [("2 000", &small), ("32 000", &large)] {
        for (entry, run) in entry_points {
            let cost = cost_of(|| run(&sim, trace).expect("trace runs"));
            peaks.push((entry, cost.peak_bytes));
            let per_op_bytes = cost.peak_bytes / trace.len() as u64;
            eprintln!(
                "{entry} on {name} ops: {} allocations, {per_op_bytes} bytes per op, peak {}",
                cost.allocations, cost.peak_bytes
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
    // The sweeps' state is sized by the read window, not the slot count: the
    // long trace keeps no more alive than the short one. (The probe's
    // next-use table has an entry per operand access; it goes with the
    // probes.)
    let (short, long) = peaks.split_at(entry_points.len());
    for ((entry, short), (_, long)) in short.iter().zip(long) {
        if *entry != "try_run_belady" {
            assert!(
                *long <= short + PEAK_GROWTH_BYTES,
                "{entry}: the 32 000-op peak {long} grew past the 2 000-op peak {short}"
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

    // Scheduling adds one table to the sweep: per value cell (the trace's
    // read-window ring, then its inputs), the finish of the op producing it
    // in the schedule and on the critical path, 16 bytes each. The placement
    // itself allocates nothing, so the count is `try_run`'s plus one at
    // either length (measured: 9), and the clock adds 624 bytes (39 cells)
    // at any length, where a finish pair per slot added 16 bytes per op.
    // Building a plan and running it through the multi-job scheduler made it
    // 30 / 34 allocations and 104 / 92 bytes per op; a retained timeline made
    // it 252 bytes per op.
    const CLOCK_BYTES_PER_OP: u64 = 16;
    let mut scheduled_peaks = Vec::new();
    for (name, trace) in [("2 000", &small), ("32 000", &large), ("sparse", &hostile)] {
        let sweep = cost_of(|| sim.try_run(trace).expect("trace runs"));
        let cost = cost_of(|| sim.try_run_scheduled(trace).expect("trace schedules"));
        scheduled_peaks.push(cost.peak_bytes);
        let per_op_bytes = cost.peak_bytes / trace.len() as u64;
        eprintln!(
            "run_scheduled on {name} ops: {} allocations, {per_op_bytes} bytes per op, peak {}",
            cost.allocations, cost.peak_bytes
        );
        assert_eq!(
            cost.allocations,
            sweep.allocations + 1,
            "run_scheduled on {name} ops allocates more than the sweep and its clock"
        );
        assert!(
            per_op_bytes <= SWEEP_PEAK_BYTES_PER_OP + CLOCK_BYTES_PER_OP,
            "run_scheduled on {name} ops keeps {per_op_bytes} bytes per op alive"
        );
    }
    for long in &scheduled_peaks[1..] {
        assert!(
            *long <= scheduled_peaks[0] + PEAK_GROWTH_BYTES,
            "run_scheduled: the 32 000-op peak {long} grew past the 2 000-op peak {}",
            scheduled_peaks[0]
        );
    }

    // A plan is the trace's own DAG, not a copy of it as edges: the sweep
    // plus seven tables, each sized once — per op three `u32`s (shape,
    // output cell, operand end), one operand-cell arena, the distinct op
    // shapes (kind, level, flag, demand) once each, the longest chain, and
    // while it plans the shape index (room for one shape per eight ops,
    // copied out at the shape count), a per-cell critical-path clock and
    // each op's chain predecessor. Measured: 15 allocations (the sweep's 8
    // + 7) on 2 000 and 32 000 ops and on sparse ids, 46 / 32 / 32 bytes per
    // op at the peak (a kind, level, output and 40-byte demand per op made
    // it 14 allocations and 93 / 79 / 79 bytes per op; a clock per slot
    // before that, 120 / 108 / 108). A per-op `Vec` (an edge list per op,
    // or a chain grown push by push) makes the count grow with the trace.
    const PLAN_TABLES: u64 = 7;
    const PLAN_PEAK_BYTES_PER_OP: u64 = 48;
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

    // The same program with every refresh after the first a copy of it: a
    // sweep resolves each copy once per cache state it enters in and replays
    // it after that, from one memo sized by the copy's length and the
    // states it records, not by the trace's: one allocation more than the
    // plain trace's sweep at either length, and a peak that does not grow.
    let twins = [
        ("2 000", bootstrap_shaped(&ins, 2_000, true), &small),
        ("32 000", bootstrap_shaped(&ins, 32_000, true), &large),
    ];
    let mut twin_peaks = Vec::new();
    for (name, twin, plain) in &twins {
        assert!(twin == *plain, "the copies record the plain program");
        for (entry, run) in entry_points {
            let copied = cost_of(|| run(&sim, twin).expect("trace runs"));
            let full = cost_of(|| run(&sim, plain).expect("trace runs"));
            eprintln!(
                "{entry} on {name} copied ops: {} allocations, peak {}",
                copied.allocations, copied.peak_bytes
            );
            assert!(
                copied.allocations <= full.allocations + 1,
                "{entry} on {name} copied ops made {} allocations, the plain trace {}",
                copied.allocations,
                full.allocations
            );
            twin_peaks.push((entry, copied.allocations, copied.peak_bytes));
        }
        let scheduled = cost_of(|| sim.try_run_scheduled(twin).expect("trace schedules"));
        twin_peaks.push(("run_scheduled", scheduled.allocations, scheduled.peak_bytes));
    }
    let (short, long) = twin_peaks.split_at(twin_peaks.len() / 2);
    for ((entry, short_allocations, short), (_, long_allocations, long)) in short.iter().zip(long) {
        assert_eq!(
            short_allocations, long_allocations,
            "{entry}: copied traces allocate by their length"
        );
        if *entry != "try_run_belady" {
            assert!(
                *long <= short + PEAK_GROWTH_BYTES,
                "{entry}: the copied 32 000-op peak {long} grew past the 2 000-op peak {short}"
            );
        }
    }
}
