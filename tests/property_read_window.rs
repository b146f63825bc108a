//! Per-value state sized by the read window, held to the hash-map reference.
//!
//! A trace's read window is the longest distance, in ops, from a producer to
//! a read of its output. The scratchpad cache and the scheduler's readiness
//! clock keep per-value state in a ring of `next_pow2(window + 1)` cells
//! indexed by the producing op, plus one cell per trace input
//! (`OpTrace::cell`), instead of a table per ciphertext slot. These cases
//! build traces whose window is pinned anywhere from 1 op to the whole trace
//! — many trace inputs, a value read only by the last op, values read twice
//! by one op, ids relabelled from compact to scattered — and hold every
//! sweep (`try_run`, `try_run_lru`, `try_run_belady`) to the hash-map
//! oracle of `common/sim_reference.rs`, `run_scheduled` bit for bit to the
//! job's plan run alone through `MultiScheduler`, that plan's timeline to
//! the list scheduler reading dependences by id, and the ring to no more
//! cells than the per-slot table it replaced.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use bts::params::CkksInstance;
use bts::sched::{MachineModel, ScheduleExt};
use bts::sim::{BtsConfig, HeOp, OpTrace, Simulator};

#[path = "common/deps.rs"]
mod deps;
#[path = "common/list_oracle.rs"]
mod list_oracle;
#[path = "common/sim_reference.rs"]
mod sim_reference;

use deps::Deps;
use sim_reference::{oracle, report_bits, IdMap, Lcg, Op, Raw};

/// The op kinds a case draws from, with their operand counts.
const KINDS: [(HeOp, usize); 10] = [
    (HeOp::HMult, 2),
    (HeOp::HAdd, 2),
    (HeOp::HRot, 1),
    (HeOp::Conjugate, 1),
    (HeOp::PMult, 1),
    (HeOp::PAdd, 1),
    (HeOp::CMult, 1),
    (HeOp::CAdd, 1),
    (HeOp::HRescale, 1),
    (HeOp::ModRaise, 1),
];

/// A valid trace by id of `ops` ops over `inputs` trace inputs whose read
/// window is exactly `window` (`1 ≤ window < ops`): every op reads trace
/// inputs or outputs of the `window` ops before it, and op `window` reads
/// op 0's output, which nothing else reads — with `window = ops − 1` that
/// is a value read only by the last op. Binary ops read one value twice
/// now and then; levels span the whole budget, so ciphertext sizes differ.
fn windowed(ins: &CkksInstance, rng: &mut Lcg, ops: usize, window: usize, inputs: usize) -> Raw {
    let max_level = ins.max_level();
    let input_ids = (0..inputs as u64).map(|id| (id, rng.next() % (max_level + 1)));
    let output = |i: usize| (inputs + i) as u64;
    let mut raw = Raw {
        instance: ins.clone(),
        inputs: input_ids.collect(),
        ops: Vec::with_capacity(ops),
        rotation_keys: 1,
    };
    let mut in_bootstrap = false;
    for i in 0..ops {
        if rng.next().is_multiple_of(11) {
            in_bootstrap = !in_bootstrap;
        }
        // Op 0's output is kept for the one read at distance `window`.
        let oldest = i.saturating_sub(window).max(1);
        let pick = |rng: &mut Lcg| {
            if oldest < i && !rng.next().is_multiple_of(3) {
                output(oldest + rng.next() % (i - oldest))
            } else {
                rng.next() as u64 % inputs as u64
            }
        };
        let (op, arity) = KINDS[rng.next() % KINDS.len()];
        let mut operands: Vec<u64> = (0..arity).map(|_| pick(rng)).collect();
        if arity == 2 && rng.next().is_multiple_of(4) {
            operands[1] = operands[0];
        }
        if i == window {
            operands[0] = output(0);
        }
        let level = if op == HeOp::ModRaise {
            max_level
        } else {
            rng.next() % (max_level + 1)
        };
        raw.ops.push(Op {
            op,
            level,
            inputs: operands,
            output: Some(output(i)),
            in_bootstrap,
        });
    }
    raw
}

/// Scratchpad sizes from "no ciphertext cache at all" through "a few
/// ciphertexts" to "everything fits".
const SCRATCHPADS_MIB: [u64; 5] = [64, 256, 384, 512, 64 * 1024];

/// Everything the window-sized state feeds, against the references, on one
/// trace given by id whose read window is `window`.
fn assert_window_state_matches(
    sim: &Simulator,
    raw: &Raw,
    window: usize,
) -> Result<(), TestCaseError> {
    let trace = &raw.build();
    prop_assert_eq!(trace.validate(), Ok(()));
    prop_assert_eq!(trace.read_window() as usize, window);
    // The ring is bounded by the window and the inputs, and never has more
    // cells than the per-slot table it replaced.
    let ring = (window + 1).next_power_of_two();
    prop_assert!(trace.cells() <= ring + raw.inputs.len());
    prop_assert!(trace.cells() <= trace.slot_count());

    use oracle::Policy;
    let timings = |policy| oracle::op_timings(sim, raw, policy).unwrap();
    let policy = timings(Policy::NextUse(oracle::three_value_key));
    let belady = timings(Policy::NextUse(oracle::exact_key));
    let lru = timings(Policy::Lru);
    prop_assert_eq!(&sim.op_timings(trace).unwrap(), &policy);
    prop_assert_eq!(&sim.op_timings_lru(trace).unwrap(), &lru);
    let runs = [
        (sim.try_run(trace).unwrap(), &policy),
        (sim.try_run_lru(trace).unwrap(), &lru),
        (sim.try_run_belady(trace).unwrap(), &belady),
    ];
    for (report, collected) in &runs {
        prop_assert_eq!(
            report_bits(report),
            report_bits(&oracle::fold(sim, raw, collected))
        );
    }

    // The clock's ring: the dependences it schedules on are the ones read
    // by id, the streamed run's figures are its plan's run alone, and that
    // plan's timeline is the list scheduler's.
    let (producers, segment) = oracle::dag(raw);
    prop_assert_eq!(Deps::of(trace), Deps { producers, segment });
    let run = sim.try_run_scheduled(trace).unwrap();
    let timeline = list_oracle::timeline(sim, trace);
    list_oracle::check_summary(&run.schedule, &timeline).map_err(TestCaseError::Fail)?;
    let machine = MachineModel::from_config(sim.config());
    let expected = list_oracle::list_schedule(&machine, trace, &policy);
    list_oracle::check_equal(&timeline, &expected).map_err(TestCaseError::Fail)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_sized_state_equals_the_references(
        seed in any::<u64>(),
        ops in 2usize..120,
    ) {
        let mut rng = Lcg::new(seed);
        let ins = [CkksInstance::ins1(), CkksInstance::ins2(), CkksInstance::ins3()]
            [rng.next() % 3]
            .clone();
        // The extremes — the previous op only, the whole trace — and
        // everything between.
        let window = match rng.next() % 4 {
            0 => 1,
            1 => ops - 1,
            _ => 1 + rng.next() % (ops - 1),
        };
        let inputs = 1 + rng.next() % 40;
        let compact = windowed(&ins, &mut rng, ops, window, inputs);
        let mib = SCRATCHPADS_MIB[rng.next() % SCRATCHPADS_MIB.len()];
        let sim = Simulator::new(
            BtsConfig::bts_default().with_scratchpad_bytes(mib * 1024 * 1024),
            ins,
        );
        for map in IdMap::ALL {
            let mut raw = compact.clone();
            map.relabel(&mut raw);
            assert_window_state_matches(&sim, &raw, window)?;
        }
    }
}

/// The ring on the smallest traces: one op reading its predecessor, and a
/// trace whose only op-produced read spans the whole trace.
#[test]
fn the_ring_covers_the_window_and_no_more() {
    let ins = CkksInstance::ins1();
    let mut rng = Lcg::new(7);
    for (ops, window) in [(2, 1), (3, 2), (5, 4), (64, 63), (65, 64), (200, 3)] {
        let raw = windowed(&ins, &mut rng, ops, window, 3);
        let trace: OpTrace = raw.build();
        assert_eq!(trace.read_window() as usize, window);
        let ring = (window + 1).next_power_of_two().min(ops);
        assert_eq!(trace.cells(), ring + 3, "{ops} ops, window {window}");
        // Values whose reads all end before a newer value takes the cell
        // may share it; trace inputs never share.
        let inputs: Vec<u32> = (0..3).map(|k| trace.cell(k)).collect();
        assert_eq!(inputs, [ring as u32, ring as u32 + 1, ring as u32 + 2]);
    }
}
