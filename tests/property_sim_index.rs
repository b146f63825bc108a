//! Differential tests of the dense simulation kernel: on random traces the
//! indexed sweep (the trace's own tables + the one furthest-key cache over
//! the trace's value cells, LRU on a recency key), the dependences read back off
//! those tables (`common/deps.rs`, which the scheduler's list oracle reads)
//! and `OpTrace::validate` must equal, bit for bit and error for error, the
//! hash-map bodies they replaced.
//!
//! Those bodies live on in [`oracle`] (`common/sim_reference.rs`, shared
//! with `property_read_window.rs`), as they were before the index
//! existed (`HashSet` of defined ids, `HashMap` caches, one `VecDeque` of
//! use positions per ciphertext, linear `VecDeque::position` LRU touches).
//! They read a trace by id ([`Raw`]: what the cases relabel and break), and
//! the trace under test is built from the same ids through
//! `OpTrace::from_ops` — the one scan that interns, validates and indexes.
//! They are written against the public API only, which is why the oracle can
//! sit in this test crate: an integration test cannot see a dependency's
//! `#[cfg(test)]` items, and nothing outside the tests should be able to.
//!
//! The engine's default policy and its furthest-next-use probe are one cache
//! under two key functions, and so they are here: the oracle's Belady body
//! takes the key as a function of (op, exact next use). The identity is the
//! probe (`try_run_belady` — the reuse code at infinite width), and
//! [`oracle::three_value_key`], a quantization of the exact position written
//! without `TraceIndex`'s tables, is the default (`op_timings`). The engine
//! runs LRU on that cache too, under a third key (recency); the oracle's LRU
//! stays the `VecDeque` body it always was, so `op_timings_lru` is held to
//! an independent cache.
//!
//! Below all three sits the exact offline optimum (`common/cache_optimum.rs`):
//! on the same random traces, at every scratchpad size, no sweep moves fewer
//! capacity-miss bytes than it does — which catches a DP that overcharges.
//!
//! The sweep is one visitor with three kinds of sink, and only the collecting
//! one (`op_timings*`) is compared with the oracle's timings directly. The
//! folding one (`try_run*`) is held, field by field and bit by bit, to
//! [`oracle::fold`] — a second pass over the collected timings, which is how
//! the engine folded before it streamed — and the planning one
//! (`Simulator::run_indexed` under `JobPlan::from_trace`) to `op_timings` and
//! to the plan `JobPlan::new` builds from them.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use bts::params::CkksInstance;
use bts::sched::{schedule_jobs, JobPlan, MachineModel, ScheduleError, ScheduleExt};
use bts::sim::{BtsConfig, CtId, HeOp, OpTiming, OpTrace, Simulator, TraceBuilder};

#[path = "common/cache_optimum.rs"]
mod cache_optimum;
#[path = "common/deps.rs"]
mod deps;
#[path = "common/list_oracle.rs"]
mod list_oracle;
#[path = "common/sim_reference.rs"]
mod sim_reference;

use deps::Deps;
use sim_reference::{oracle, report_bits, IdMap, Lcg, Op, Raw};

/// A random valid trace exercising what the cache sweeps branch on: repeated
/// operands (`hmult(x, x)`), levels from 0 to L so ciphertext sizes differ by
/// over an order of magnitude, rotate → pmult → accumulate chains whose
/// intermediates are forwarded, rescales, modulus raises, dead outputs and
/// bootstrap regions.
fn rich_trace(ins: &CkksInstance, rng: &mut Lcg, ops: usize) -> OpTrace {
    let mut b = TraceBuilder::new(ins);
    let max_level = ins.max_level();
    let mut live: Vec<(CtId, usize)> = (0..3)
        .map(|_| {
            let level = rng.next() % (max_level + 1);
            (b.fresh_ct(level), level)
        })
        .collect();
    let mut emitted = 0usize;
    while emitted < ops {
        if rng.next().is_multiple_of(9) {
            b.set_bootstrap_region(rng.next().is_multiple_of(2));
        }
        let (a, la) = live[rng.next() % live.len()];
        let (c, lc) = live[rng.next() % live.len()];
        let level = la.min(lc);
        let (out, out_level) = match rng.next() % 10 {
            0 => (b.hmult_at(a, a, la), la),
            1 => (b.hmult_at(a, c, level), level),
            2 | 3 => {
                // A forwarded chain: each intermediate has exactly one
                // consumer, the next op.
                let rot = b.hrot(a, (rng.next() % 64) as i64 - 32, la);
                let prod = b.pmult(rot, la);
                emitted += 2;
                (b.hadd(c, prod, level), level)
            }
            4 => (b.hrescale_at(a, la), la.saturating_sub(1)),
            5 => (b.hadd(a, c, level), level),
            6 => (b.conjugate(a, la), la),
            7 => (b.mod_raise(a, max_level), max_level),
            8 => {
                // A dead output: produced, never read.
                b.cmult(a, la);
                emitted += 1;
                (b.padd(c, lc), lc)
            }
            _ => (b.cadd(a, la), la),
        };
        emitted += 1;
        live.push((out, out_level));
        if live.len() > 12 {
            live.remove(rng.next() % live.len());
        }
    }
    b.build()
}

/// [`rich_trace`] by id, ending on the access patterns the stored reuse
/// code fixes up behind its scan: a value read twice by one op, whose
/// product is forwarded into the last op; a trace input read only by the
/// last op; and the last op's output, which nothing reads.
fn coded_trace(ins: &CkksInstance, rng: &mut Lcg, ops: usize) -> Raw {
    let compact = rich_trace(ins, rng, ops);
    let mut raw = Raw::of(&compact);
    let fresh = compact.slot_count() as CtId;
    let (late, square, last) = (fresh, fresh + 1, fresh + 2);
    let values: Vec<CtId> = raw.ops.iter().filter_map(|op| op.output).collect();
    let twice = values[rng.next() % values.len()];
    raw.inputs.push((late, 0));
    let op = |op, inputs: Vec<CtId>, output| Op {
        op,
        level: 0,
        inputs,
        output: Some(output),
        in_bootstrap: false,
    };
    raw.ops.push(op(HeOp::HMult, vec![twice, twice], square));
    raw.ops.push(op(HeOp::HAdd, vec![square, late], last));
    raw
}

/// Scratchpad sizes from "smaller than the temporaries, so the ciphertext
/// cache has capacity 0" through "a few ciphertexts" to "everything fits".
const SCRATCHPADS_MIB: [u64; 7] = [64, 200, 256, 320, 512, 1024, 64 * 1024];

fn simulator(ins: &CkksInstance, rng: &mut Lcg) -> Simulator {
    let mib = SCRATCHPADS_MIB[rng.next() % SCRATCHPADS_MIB.len()];
    Simulator::new(
        BtsConfig::bts_default().with_scratchpad_bytes(mib * 1024 * 1024),
        ins.clone(),
    )
}

/// Everything the trace's tables feed, against the oracle, on one valid
/// trace given by id.
fn assert_matches_oracle(sim: &Simulator, raw: &Raw) -> Result<(), TestCaseError> {
    let trace = &raw.build();
    prop_assert_eq!(trace.validate(), Ok(()));
    prop_assert_eq!(oracle::validate(raw), Ok(()));

    use oracle::Policy;
    let timings = |policy| oracle::op_timings(sim, raw, policy).unwrap();
    let lru = sim.op_timings_lru(trace).unwrap();
    prop_assert_eq!(&lru, &timings(Policy::Lru));
    let belady = timings(Policy::NextUse(oracle::exact_key));
    let policy = sim.op_timings(trace).unwrap();
    prop_assert_eq!(&policy, &timings(Policy::NextUse(oracle::three_value_key)));

    // The streamed reports: each sweep folds its timings as it produces
    // them, to the bits of a second pass over the collected vector — and the
    // conservation laws (ROADMAP 5(c)): what the ops were charged is what
    // the report totals.
    let streamed = [
        (sim.try_run(trace).unwrap(), &policy),
        (sim.try_run_belady(trace).unwrap(), &belady),
        (sim.try_run_lru(trace).unwrap(), &lru),
    ];
    for (report, collected) in &streamed {
        prop_assert_eq!(
            report_bits(report),
            report_bits(&oracle::fold(sim, raw, collected))
        );
        let sum = |field: fn(&OpTiming) -> u64| collected.iter().map(field).sum::<u64>();
        prop_assert_eq!(sum(|t| t.hbm_bytes), report.hbm_bytes);
        prop_assert_eq!(sum(|t| t.miss_bytes), report.ct_miss_bytes);
        prop_assert_eq!(sum(|t| t.cache_hits as u64), report.cache_hits as u64);
        prop_assert_eq!(sum(|t| t.cache_misses as u64), report.cache_misses as u64);
    }
    let [(report, _), ..] = &streamed;

    // The planner's sweep: its sink sees exactly `op_timings`, its report is
    // `try_run`'s, and the plan written from the sink is the plan built from
    // the collected timings.
    let machine = MachineModel::from_config(sim.config());
    let mut seen = Vec::with_capacity(trace.len());
    let indexed_report = sim
        .run_indexed(trace, |_, timing| seen.push(*timing))
        .unwrap();
    prop_assert_eq!(&seen, &policy);
    prop_assert_eq!(report_bits(&indexed_report), report_bits(report));
    let (plan, plan_report) = JobPlan::from_trace(sim, trace).unwrap();
    prop_assert_eq!(&plan, &JobPlan::new(&machine, trace, &policy).unwrap());
    prop_assert_eq!(report_bits(&plan_report), report_bits(report));

    // The dependences, read back by id off the trace's tables, edge for
    // edge, and the schedule built on the trace.
    let (producers, segment) = oracle::dag(raw);
    prop_assert_eq!(Deps::of(trace), Deps { producers, segment });
    let run = sim.try_run_scheduled(trace).unwrap();
    let expected = list_oracle::list_schedule(&machine, trace, &policy);
    let timeline = list_oracle::timeline(sim, trace);
    list_oracle::check_equal(&timeline, &expected).map_err(TestCaseError::Fail)?;
    list_oracle::check_summary(&run.schedule, &timeline).map_err(TestCaseError::Fail)?;
    Ok(())
}

/// The tables of a relabelled trace are the compact trace's: on the same
/// charges the same critical chain and schedule (the same plan outright
/// once the relabelling keeps id order), the same reuse code at every
/// access, the same operand slots once the relabelling keeps id order.
fn assert_same_tables(
    sim: &Simulator,
    compact: &OpTrace,
    relabelled: &OpTrace,
    map: IdMap,
) -> Result<(), TestCaseError> {
    let keeps_order = matches!(map, IdMap::Compact | IdMap::Spaced);
    let machine = MachineModel::from_config(sim.config());
    let timings = sim.op_timings(compact).unwrap();
    let plan = |trace| JobPlan::new(&machine, trace, &timings).unwrap();
    let (a, b) = (plan(compact), plan(relabelled));
    prop_assert_eq!(a.critical_path_ops(), b.critical_path_ops());
    prop_assert_eq!(
        a.critical_path_seconds().to_bits(),
        b.critical_path_seconds().to_bits()
    );
    if keeps_order {
        prop_assert_eq!(&a, &b);
    }
    let alone = |trace| schedule_jobs(machine, &[(0, trace, &timings[..], 0.0)]);
    prop_assert_eq!(alone(compact), alone(relabelled));
    for (a, b) in compact.ops().zip(relabelled.ops()) {
        let ids =
            |t: &OpTrace, slots: &[u32]| slots.iter().map(|&s| t.id_of(s)).collect::<Vec<_>>();
        let mapped: Vec<CtId> = ids(compact, a.operands)
            .into_iter()
            .map(|id| map.apply(id))
            .collect();
        prop_assert_eq!(mapped, ids(relabelled, b.operands));
        if keeps_order {
            prop_assert_eq!(a.operands, b.operands);
        }
        for k in (0..a.operands.len()).map(Some).chain([None]) {
            prop_assert_eq!(compact.reuse(&a, k), relabelled.reuse(&b, k));
        }
    }
    Ok(())
}

/// Every entry point must report the oracle's error — the first defect in
/// program order — for a malformed trace.
fn assert_same_error(sim: &Simulator, raw: &Raw) -> Result<(), TestCaseError> {
    let expected = oracle::validate(raw).expect_err("the trace was broken on purpose");
    let trace = &raw.build();
    prop_assert_eq!(trace.validate(), Err(expected.clone()));
    prop_assert_eq!(sim.try_run(trace).err(), Some(expected.clone()));
    prop_assert_eq!(sim.try_run_belady(trace).err(), Some(expected.clone()));
    prop_assert_eq!(sim.try_run_lru(trace).err(), Some(expected.clone()));
    prop_assert_eq!(sim.op_timings(trace).err(), Some(expected.clone()));
    prop_assert_eq!(
        sim.run_indexed(trace, |_, _| {}).err(),
        Some(expected.clone())
    );
    prop_assert_eq!(
        JobPlan::from_trace(sim, trace).err(),
        Some(expected.clone())
    );
    let machine = MachineModel::from_config(sim.config());
    let timings = vec![OpTiming::default(); trace.len()];
    prop_assert_eq!(
        JobPlan::new(&machine, trace, &timings).err(),
        Some(ScheduleError::Trace(expected.clone()))
    );
    prop_assert_eq!(sim.try_run_scheduled(trace).err(), Some(expected));
    Ok(())
}

/// An id the trace does not mention.
fn unused_id(trace: &Raw, rng: &mut Lcg) -> CtId {
    let used = |id: CtId| {
        trace.inputs.iter().any(|&(input, _)| input == id)
            || trace
                .ops
                .iter()
                .any(|op| op.inputs.contains(&id) || op.output == Some(id))
    };
    loop {
        let id = match rng.next() % 3 {
            0 => rng.next() as u64 % 64,
            1 => u64::MAX - rng.next() as u64 % 64,
            _ => (rng.next() as u64) << 31 | rng.next() as u64,
        };
        if !used(id) {
            return id;
        }
    }
}

/// One defect of each kind `validate` knows, injected at a random place.
#[derive(Debug, Clone, Copy)]
enum Defect {
    DanglingInput,
    UseBeforeDefinition,
    DuplicateOutput,
    Level,
    InputLevel,
}

impl Defect {
    const ALL: [Defect; 5] = [
        Defect::DanglingInput,
        Defect::UseBeforeDefinition,
        Defect::DuplicateOutput,
        Defect::Level,
        Defect::InputLevel,
    ];

    fn inject(self, trace: &mut Raw, rng: &mut Lcg) {
        let max_level = trace.instance.max_level();
        let at = rng.next() % trace.ops.len();
        match self {
            Defect::DanglingInput => {
                let id = unused_id(trace, rng);
                let op = &mut trace.ops[at];
                let k = rng.next() % op.inputs.len();
                op.inputs[k] = id;
            }
            Defect::UseBeforeDefinition => {
                // Op `at` reads what a later (or the same) op defines.
                let later = at + rng.next() % (trace.ops.len() - at);
                let id = trace.ops[later].output.expect("builder ops have outputs");
                let op = &mut trace.ops[at];
                let k = rng.next() % op.inputs.len();
                op.inputs[k] = id;
            }
            Defect::DuplicateOutput => {
                // Redefine a trace input or an earlier op's output.
                let id = if at == 0 || rng.next().is_multiple_of(3) {
                    trace.inputs[rng.next() % trace.inputs.len()].0
                } else {
                    trace.ops[rng.next() % at].output.expect("has output")
                };
                trace.ops[at].output = Some(id);
            }
            Defect::Level => trace.ops[at].level = max_level + 1 + rng.next() % 5,
            Defect::InputLevel => {
                let k = rng.next() % trace.inputs.len();
                trace.inputs[k].1 = max_level + 1 + rng.next() % 5;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweeps_and_dag_equal_the_hash_map_reference(
        seed in any::<u64>(),
        ops in 1usize..160,
    ) {
        let mut rng = Lcg::new(seed);
        let ins = [CkksInstance::ins1(), CkksInstance::ins2(), CkksInstance::ins3()]
            [rng.next() % 3]
            .clone();
        let compact = rich_trace(&ins, &mut rng, ops);
        let sim = simulator(&ins, &mut rng);
        for map in IdMap::ALL {
            let mut raw = Raw::of(&compact);
            map.relabel(&mut raw);
            assert_matches_oracle(&sim, &raw)?;
            assert_same_tables(&sim, &compact, &raw.build(), map)?;
        }
    }

    #[test]
    fn stored_reuse_codes_equal_the_reference(seed in any::<u64>(), ops in 1usize..160) {
        let mut rng = Lcg::new(seed);
        let ins = CkksInstance::ins1();
        let compact = coded_trace(&ins, &mut rng, ops);
        let sim = simulator(&ins, &mut rng);
        for map in IdMap::ALL {
            let mut raw = compact.clone();
            map.relabel(&mut raw);
            let trace = raw.build();
            prop_assert_eq!(trace.validate(), Ok(()));
            let expected = oracle::reuse_codes(&raw);
            let timings = sim.op_timings(&trace).unwrap();
            for ((op, (operands, output)), timing) in trace.ops().zip(&expected).zip(&timings) {
                // Each code beside its op and access, so a mismatch says where.
                for (k, &(code, _)) in operands.iter().enumerate() {
                    let access = (op.index, Some(k));
                    prop_assert_eq!((access, trace.reuse(&op, access.1)), (access, code));
                }
                let access = (op.index, None::<usize>);
                prop_assert_eq!((access, trace.reuse(&op, None)), (access, output.0));
                // The forwarding bit, as the sweep reads it: every operand
                // not forwarded is one cache access, a hit or a miss.
                let cached = operands.iter().filter(|&&(_, forwarded)| !forwarded).count();
                prop_assert_eq!(timing.cache_hits + timing.cache_misses, cached);
            }
            // The codes of the appended tail: `twice` read again at once,
            // then dead; its forwarded square; `late` and the last sum dead.
            let n = expected.len();
            use bts::sim::Reuse::{Never, Next};
            prop_assert_eq!(&expected[n - 2].0, &vec![(Next, false), (Never, false)]);
            prop_assert_eq!(expected[n - 2].1, (Next, true));
            prop_assert_eq!(&expected[n - 1].0, &vec![(Never, true), (Never, false)]);
            prop_assert_eq!(expected[n - 1].1, (Never, false));
        }
        assert_matches_oracle(&sim, &compact)?;
    }

    #[test]
    fn no_sweep_beats_the_optimum(seed in any::<u64>(), ops in 1usize..160) {
        let mut rng = Lcg::new(seed);
        let ins = [CkksInstance::ins1(), CkksInstance::ins2(), CkksInstance::ins3()]
            [rng.next() % 3]
            .clone();
        let trace = rich_trace(&ins, &mut rng, ops);
        for mib in SCRATCHPADS_MIB {
            let sim = Simulator::new(
                BtsConfig::bts_default().with_scratchpad_bytes(mib * 1024 * 1024),
                ins.clone(),
            );
            let optimum = cache_optimum::least_miss_bytes(&sim, &trace)
                .unwrap_or_else(|e| panic!("more than 12 live values at op {}", e.op));
            // Plaintext operands stream under every policy.
            let timings = sim.op_timings(&trace).unwrap();
            let plaintext: u64 = timings.iter().map(|t| t.cost.operand_bytes).sum();
            for run in [Simulator::try_run, Simulator::try_run_lru, Simulator::try_run_belady] {
                let capacity_misses = run(&sim, &trace).unwrap().ct_miss_bytes - plaintext;
                prop_assert!(optimum <= capacity_misses, "{mib} MiB: {optimum} > {capacity_misses}");
            }
        }
    }

    #[test]
    fn extended_traces_equal_the_reference(seed in any::<u64>(), ops in 1usize..60) {
        let mut rng = Lcg::new(seed);
        let ins = CkksInstance::ins1();
        let mut trace = rich_trace(&ins, &mut rng, ops);
        for longest in [60, 20] {
            let ops = 1 + rng.next() % longest;
            trace.extend(&rich_trace(&ins, &mut rng, ops));
        }
        let sim = simulator(&ins, &mut rng);
        let mut raw = Raw::of(&trace);
        assert_matches_oracle(&sim, &raw)?;
        // Relabelled *after* the splice, so `extend`'s id shift stays in range.
        IdMap::Scattered.relabel(&mut raw);
        assert_matches_oracle(&sim, &raw)?;
    }

    #[test]
    fn malformed_traces_return_the_identical_error(seed in any::<u64>(), ops in 1usize..80) {
        let mut rng = Lcg::new(seed);
        let ins = CkksInstance::ins1();
        let mut valid = Raw::of(&rich_trace(&ins, &mut rng, ops));
        IdMap::ALL[rng.next() % 4].relabel(&mut valid);
        let sim = simulator(&ins, &mut rng);
        for defect in Defect::ALL {
            let mut trace = valid.clone();
            defect.inject(&mut trace, &mut rng);
            if oracle::validate(&trace).is_ok() {
                // E.g. a "use before definition" that picked the op's own
                // operand's producer; nothing was broken.
                continue;
            }
            assert_same_error(&sim, &trace)?;
            // A second defect elsewhere: the earlier one in program order wins.
            Defect::ALL[rng.next() % 5].inject(&mut trace, &mut rng);
            assert_same_error(&sim, &trace)?;
            // The trace's tables still read back the ids it was built from:
            // its dependences by id are the reference's wherever no id is
            // defined twice.
            let deps = Deps::of(&trace.build());
            prop_assert_eq!(deps.segment.len(), trace.ops.len());
            let redefinition = trace.ops.iter().enumerate().any(|(i, op)| {
                op.output.is_some_and(|out| {
                    trace.inputs.iter().any(|&(id, _)| id == out)
                        || trace.ops[..i].iter().any(|p| p.output == Some(out))
                })
            });
            if !redefinition {
                let (producers, segment) = oracle::dag(&trace);
                prop_assert_eq!(deps, Deps { producers, segment });
            }
        }
    }
}

/// A hand-built hostile trace: ids at `u64::MAX` and spaced 2⁴⁰ apart,
/// built through `OpTrace::from_ops`, validate, simulate (LRU, reuse code,
/// exact next use) and schedule exactly as the hash maps did.
#[test]
fn hand_built_hostile_ids_match_the_reference() {
    let ins = CkksInstance::ins1();
    let top = ins.max_level();
    let op = |op: HeOp, level: usize, inputs: &[CtId], output: CtId| Op {
        op,
        level,
        inputs: inputs.to_vec(),
        output: Some(output),
        in_bootstrap: false,
    };
    let (x, y) = (u64::MAX, 1u64 << 40);
    let spaced = |k: u64| k << 40;
    let mut ops = vec![
        op(HeOp::HMult, top, &[x, x], spaced(2)),
        op(HeOp::HRot, top, &[spaced(2)], spaced(3)), // forwarded into the pmult
        op(HeOp::PMult, top, &[spaced(3)], u64::MAX - 1),
        op(HeOp::HAdd, top, &[u64::MAX - 1, y], spaced(4)),
    ];
    // Eight long-lived top-level ciphertexts read round-robin: more than the
    // 512 MiB scratchpad holds, so LRU thrashes and the next-use cache has
    // to choose.
    let pool: Vec<CtId> = (0..8u64)
        .map(|k| {
            if k % 2 == 0 {
                spaced(10 + k)
            } else {
                u64::MAX - 10 - k
            }
        })
        .collect();
    for round in 0..4u64 {
        for (k, pair) in pool.windows(2).enumerate() {
            let out = spaced(100 + 10 * round + k as u64);
            ops.push(op(HeOp::HMult, top, pair, out));
            ops.push(op(HeOp::HAdd, top - 3, &[out, y], u64::MAX - out));
        }
    }
    let mut inputs = vec![x, y];
    inputs.extend(&pool);
    let raw = Raw {
        instance: ins.clone(),
        inputs: inputs.iter().map(|&id| (id, top)).collect(),
        ops,
        rotation_keys: 1,
    };
    for mib in [200u64, 512, 64 * 1024] {
        let sim = Simulator::new(
            BtsConfig::bts_default().with_scratchpad_bytes(mib * 1024 * 1024),
            ins.clone(),
        );
        assert_matches_oracle(&sim, &raw).expect("hostile ids match the reference");
    }
    let trace = raw.build();
    let sim = Simulator::new(BtsConfig::bts_default(), ins);
    let lru = sim.try_run_lru(&trace).unwrap();
    let policy = sim.try_run(&trace).unwrap();
    assert!(
        policy.cache_misses > trace.inputs().len(),
        "the trace does put the cache under pressure"
    );
    assert!(policy.cache_misses < lru.cache_misses);
    assert!(sim.try_run_belady(&trace).unwrap().cache_misses <= policy.cache_misses);
}

/// The reuse code's `Never` is the bit `compile` already computes for the
/// functional register file: on a circuit that lowers op for op (no bootstrap
/// expansion) an operand access is coded `Never` exactly where the bytecode
/// frees that operand's register — `free_a` / `free_b`, with a repeated
/// operand (`hmult(x, x)`) freed once, on its last access.
#[test]
fn never_coincides_with_the_bytecodes_free_at_last_use() {
    use bts::circuit::{compile, CircuitBuilder, TraceBackend, Workload};
    use bts::sim::Reuse;
    use bts::workloads::{HelrConfig, HelrWorkload};

    let ins = CkksInstance::toy(12, 13, 2);
    let mut b = CircuitBuilder::new(&ins);
    let (x, y) = (b.input(), b.input());
    let square = b.hmult(x, x).unwrap(); // x dies on its second access
    let square = b.rescale(square).unwrap();
    let rotated = b.hrot(square, 3).unwrap();
    let masked = b.pmult(rotated, 0.5).unwrap();
    let kept = b.pmult(square, 0.25).unwrap(); // square dies here, not above
    let sum = b.hadd(masked, kept).unwrap();
    let sum = b.rescale(sum).unwrap();
    let out = b.hmult(sum, y).unwrap();
    b.output(out);
    let helr_mini = HelrWorkload::new(HelrConfig {
        iterations: 1,
        batch: 8,
        features: 4,
    });
    let helr_mini = helr_mini
        .build(&ins)
        .expect("the mini circuit fits the toy budget");

    for circuit in [b.build(), helr_mini] {
        let compiled = compile(&circuit).unwrap();
        let lowered = TraceBackend::new().lower_compiled(&compiled).unwrap();
        assert_eq!(lowered.bootstrap_count, 0);
        assert_eq!(lowered.trace.len(), compiled.ops.len(), "op for op");
        let trace = &lowered.trace;
        let mut freed = 0usize;
        for (op, code) in trace.ops().zip(&compiled.ops) {
            let never = |k: usize| trace.reuse(&op, Some(k)) == Reuse::Never;
            let binary = op.operands.len() == 2;
            let repeated = binary && op.operands[0] == op.operands[1];
            let (dead_a, dead_b) = match (binary, repeated) {
                (false, _) => (never(0), false),
                (true, false) => (never(0), never(1)),
                // One register, freed once — via `free_a` — when the second
                // access is the last; the first is re-read at once.
                (true, true) => {
                    assert_eq!(trace.reuse(&op, Some(0)), Reuse::Next);
                    (never(1), false)
                }
            };
            assert_eq!(
                (code.free_a, code.free_b),
                (dead_a, dead_b),
                "op {}",
                op.index
            );
            freed += usize::from(dead_a) + usize::from(dead_b);
        }
        assert!(freed > 0);
    }
}
