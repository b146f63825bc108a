//! Bootstrap placement as an optimization pass. [`crate::CircuitBuilder`]'s
//! greedy `ensure()` trigger refreshes whenever the level budget dips to the
//! requested depth *plus one reserve level* — the conservative rule FHE
//! applications schedule by, which necessarily over-provisions: the final
//! refresh of a circuit often guards a suffix that would have fit in the
//! levels already available. With the whole program in hand, this pass
//! deletes every marker the level budget proves unnecessary. A bootstrap
//! expands to hundreds of key-switches (the full CoeffToSlot → EvalMod →
//! SlotToCoeff pipeline), so each deletion is by far the largest single win
//! any pass in the pipeline can deliver.
//!
//! # The level-demand argument
//!
//! Deleting a marker redirects its uses to its input. A marker maps Δ¹ to Δ¹,
//! so no scale exponent moves; the only invariant a deletion can break is a
//! downstream `Rescale` finding its operand at level 0. A value's level is
//! the minimum, over every path reaching it from a *level source* (an input,
//! a kept `Bootstrap`, a `ModRaise`), of the source's level minus the
//! rescales on the path. Call a value's **demand** the maximum, over every
//! path leaving it toward a *sink* (an output, the operand of a kept
//! `Bootstrap` or of a `ModRaise`, a dead end), of the rescales on the path.
//! A circuit analyzes iff every source-to-sink path has
//! `level(source) ≥ rescales(path)`. Deleting marker `m` removes the paths
//! that ended or began at `m` and adds exactly the concatenations of a path
//! into `m`'s input with a path out of `m`'s result, so the deletion is safe
//! iff `level(input) ≥ demand(result)`.
//!
//! Demand needs only the values after a marker, and `level(input)` only the
//! values before it, so one backward sweep decides every marker: demand is 0
//! at outputs and at `Bootstrap`/`ModRaise` operands, `demand(result) + 1`
//! through a `Rescale`, `demand(result)` through every other op, the maximum
//! over uses; a deleted marker folds its demand into its input, which is
//! how an earlier marker comes to answer for a later one's suffix. The
//! delete-one / re-analyze / restart fixpoint this replaces reaches the same
//! circuit: a deletion only ever lowers levels, so it never makes another
//! marker deletable, and the fixpoint therefore equals one latest-first
//! sweep that tests each marker with the later decisions applied — which is
//! what the folded demand is. The fixpoint survives as the test reference
//! the sweep is held `==` to.
//!
//! Markers whose result is itself a circuit output are kept even when
//! removable: the caller asked for a refreshed, top-level ciphertext, and
//! handing back the exhausted input instead would change the circuit's
//! observable interface (this also keeps the `bootstrap` benchmark workload
//! meaningful).
//!
//! # One sweep, two drop rules
//!
//! The sweep, the program-order rebuild and the relevel are `drop_markers`;
//! which markers go is its caller's rule. This pass drops a marker iff its
//! result is not an output and `level(input) ≥ demand(result)`.
//! [`crate::CircuitBuilder::build`] runs the same sweep to prune its own
//! greedy refreshes: a marker `ensure()` inserted goes iff
//! `demand(result) == 0` — nothing rescales downstream of it before the
//! next kept refresh — even when its result is an output, since the
//! application never asked for that refresh. Explicit `bootstrap()` calls
//! are never the builder's to drop.

use crate::error::CircuitError;
use crate::ir::{HeCircuit, HeInstr, HeInstrNode, ValueId};
use crate::passes::{Analyzed, Pass};
use crate::value_table::ValueTable;

/// Deletes every bootstrap marker whose input already sits at the level its
/// result's consumers demand, in one backward sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct BootstrapPlacePass;

impl Pass for BootstrapPlacePass {
    fn name(&self) -> &'static str {
        "bootstrap-place"
    }

    fn run(&self, input: &Analyzed) -> Result<Analyzed, CircuitError> {
        let (circuit, levels) = (input.circuit(), input.analysis());
        let is_output = ValueTable::outputs_of(circuit);
        drop_markers(circuit, |input, result, demand| {
            !is_output.contains(result) && levels.of(input).level >= demand
        })
    }
}

/// The one marker sweep: visits the nodes latest first, carrying each
/// value's level demand, and drops every [`HeInstr::Bootstrap`] marker for
/// which `drop(input, result, demand of result)` holds; a dropped marker
/// folds its demand into its input. The kept nodes are then rebuilt in
/// program order with every use of a dropped marker's result, outputs
/// included, redirected to its (resolved) input, and releveled: the
/// relevel's analysis comes back with the circuit.
///
/// [`BootstrapPlacePass`] drops what the level budget proves unnecessary;
/// [`crate::CircuitBuilder::build`] drops the refreshes `ensure()` inserted
/// whose result nothing rescales.
///
/// # Errors
///
/// Everything [`analysis::relevel`] reports on the rebuilt circuit.
pub(crate) fn drop_markers(
    circuit: &HeCircuit,
    mut drop: impl FnMut(ValueId, ValueId, usize) -> bool,
) -> Result<Analyzed, CircuitError> {
    // Latest first: by the time a node is visited every use of its result
    // has raised its demand.
    let mut demand: ValueTable<usize> = ValueTable::for_circuit(circuit);
    let mut dropped = vec![false; circuit.nodes.len()];
    for (i, node) in circuit.nodes.iter().enumerate().rev() {
        let wanted = demand.get(node.result).unwrap_or(0);
        let mut raise = |v: ValueId, to: usize| {
            if to > demand.get(v).unwrap_or(0) {
                demand.insert(v, to);
            }
        };
        match node.instr {
            HeInstr::Bootstrap { a } => {
                if drop(a, node.result, wanted) {
                    dropped[i] = true;
                    raise(a, wanted);
                }
            }
            HeInstr::ModRaise { .. } => {}
            HeInstr::Rescale { a } => raise(a, wanted + 1),
            instr => instr.operand_slots().for_each(|v| raise(v, wanted)),
        }
    }
    // Program order: a dropped marker fed by a dropped marker finds its
    // input already resolved.
    let mut repr: ValueTable<ValueId> = ValueTable::for_circuit(circuit);
    let mut nodes = Vec::with_capacity(circuit.nodes.len());
    for (node, &dropped) in circuit.nodes.iter().zip(&dropped) {
        let instr = node.instr.map_operands(|v| repr.resolve(v));
        if dropped {
            repr.insert(node.result, instr.operands().0);
        } else {
            nodes.push(HeInstrNode { instr, ..*node });
        }
    }
    Analyzed::relevel(HeCircuit {
        instance: circuit.instance.clone(),
        inputs: circuit.inputs.clone(),
        nodes,
        outputs: circuit.outputs.iter().map(|&v| repr.resolve(v)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::ir::CircuitInput;
    use crate::passes::analysis;
    use crate::passes::run_on;
    use crate::passes::{CommonSubexprPass, RescaleSchedPass};
    use bts_params::CkksInstance;
    use proptest::prelude::*;

    /// Removes node `index` (a bootstrap marker), redirecting every use of its
    /// result to its input, and repairs downstream levels. Returns `None` if
    /// the resulting circuit no longer analyzes (the suffix genuinely needs
    /// the refresh).
    fn try_remove(circuit: &HeCircuit, index: usize) -> Option<HeCircuit> {
        let HeInstr::Bootstrap { a } = circuit.nodes[index].instr else {
            return None;
        };
        let removed = circuit.nodes[index].result;
        if circuit.outputs.contains(&removed) {
            return None;
        }
        let mut nodes = circuit.nodes.clone();
        nodes.remove(index);
        for node in &mut nodes {
            node.instr = node
                .instr
                .map_operands(|v| if v == removed { a } else { v });
        }
        let mut candidate = HeCircuit {
            nodes,
            ..circuit.clone()
        };
        analysis::relevel(&mut candidate).ok()?;
        Some(candidate)
    }

    /// The reference [`BootstrapPlacePass`] is held `==` to: delete one marker
    /// (latest first), re-analyze the whole circuit, keep the deletion if it
    /// still analyzes, restart, until no marker can go. Quadratic in markers,
    /// and right by construction — every decision is one full analysis.
    fn greedy_reference(circuit: &HeCircuit) -> Result<HeCircuit, CircuitError> {
        circuit.validate()?;
        let mut current = circuit.clone();
        loop {
            let removal = (0..current.nodes.len())
                .rev()
                .filter(|&i| matches!(current.nodes[i].instr, HeInstr::Bootstrap { .. }))
                .find_map(|i| try_remove(&current, i));
            match removal {
                Some(candidate) => current = candidate,
                None => break,
            }
        }
        analysis::check(&current)?;
        Ok(current)
    }

    /// Burns `n` levels with square–rescale steps.
    fn burn(b: &mut CircuitBuilder, mut x: u32, n: usize) -> u32 {
        for _ in 0..n {
            let p = b.hmult(x, x).unwrap();
            x = b.rescale(p).unwrap();
        }
        x
    }

    #[test]
    fn redundant_trailing_bootstrap_is_removed() {
        // INS-1: 8 usable levels. Burn 7, ensure(1) triggers a refresh (the
        // reserve rule), then burn only 1 — the suffix would have fit.
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let x = burn(&mut b, x, 7);
        let x = b.ensure(x, 1).unwrap();
        let x = burn(&mut b, x, 1);
        b.output(x);
        let circuit = b.build();
        assert_eq!(circuit.bootstrap_count(), 1);

        let out = run_on(&BootstrapPlacePass, &circuit).unwrap();
        assert_eq!(out.bootstrap_count(), 0, "suffix fits without the refresh");
        analysis::check(&out).unwrap();
        // The suffix now executes at the un-refreshed level.
        assert_eq!(out.nodes.last().unwrap().level, 1);
    }

    #[test]
    fn needed_bootstraps_stay_within_the_level_budget() {
        // Burn the full budget, refresh, burn the full budget again: the
        // refresh is load-bearing and must survive.
        let ins = CkksInstance::ins1();
        let top = ins.usable_top_level();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let x = burn(&mut b, x, top);
        let x = b.bootstrap(x).unwrap();
        let x = burn(&mut b, x, top);
        b.output(x);
        let circuit = b.build();

        let out = run_on(&BootstrapPlacePass, &circuit).unwrap();
        assert_eq!(out.bootstrap_count(), 1);
        analysis::check(&out).unwrap();
        for node in &out.nodes {
            assert!(node.level <= ins.max_level());
        }
    }

    #[test]
    fn output_bootstraps_are_never_removed() {
        // A refresh whose result is returned to the caller is interface, not
        // slack — even though nothing downstream needs the levels.
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input_at(0);
        let refreshed = b.bootstrap(x).unwrap();
        b.output(refreshed);
        let circuit = b.build();
        let out = run_on(&BootstrapPlacePass, &circuit).unwrap();
        assert_eq!(out.bootstrap_count(), 1);
    }

    #[test]
    fn an_earlier_marker_answers_for_a_dropped_later_markers_suffix() {
        // INS-1: refreshes land at level 8. Burn to level 2, refresh twice in
        // a row (a marker feeding a marker), then burn `suffix` levels. The
        // later marker always goes — its input sits at 8 — and hands its
        // demand to the earlier one, whose input sits at 2.
        let ins = CkksInstance::ins1();
        for (suffix, kept) in [(2, 0), (3, 1)] {
            let mut b = CircuitBuilder::new(&ins);
            let x = b.input();
            let x = burn(&mut b, x, 6);
            let x = b.bootstrap(x).unwrap();
            let x = b.bootstrap(x).unwrap();
            let x = burn(&mut b, x, suffix);
            b.output(x);
            let circuit = b.build();
            assert_eq!(circuit.bootstrap_count(), 2);

            let out = run_on(&BootstrapPlacePass, &circuit).unwrap();
            assert_eq!(out.bootstrap_count(), kept, "suffix of {suffix}");
            assert_eq!(out, greedy_reference(&circuit).unwrap());
        }
    }

    /// A circuit over several accumulators that drift to different levels:
    /// `ensure` at random depths, squarings and maskings that burn levels,
    /// `hmult`/`hadd` across accumulators, rotate–mask–accumulate groups,
    /// explicit refreshes (one feeding the next), and one or two outputs, one
    /// of which may itself be a marker's result. Steps the builder refuses
    /// leave their accumulator where it was.
    fn pressured_circuit(ins: &CkksInstance, codes: &[u32]) -> HeCircuit {
        let mut b = CircuitBuilder::new(ins);
        let mut acc: Vec<u32> = (0..2 + codes[0] % 3)
            .map(|i| b.input_at(ins.usable_top_level().saturating_sub(i as usize)))
            .collect();
        let rescaled = |b: &mut CircuitBuilder, raw: Result<u32, CircuitError>| {
            raw.and_then(|raw| b.rescale(raw)).ok()
        };
        for &code in &codes[1..] {
            let i = (code >> 8) as usize % acc.len();
            let j = (code >> 16) as usize % acc.len();
            let (x, y) = (acc[i], acc[j]);
            let next = match code % 8 {
                0 => b.ensure(x, (code >> 24) as usize % 4).ok(),
                1 => {
                    let raw = b.hmult(x, x);
                    rescaled(&mut b, raw)
                }
                2 => {
                    let raw = b.hmult(x, y);
                    rescaled(&mut b, raw)
                }
                3 => b.hadd(x, y).ok(),
                4 => {
                    let raw = b.pmult(x, 0.5);
                    rescaled(&mut b, raw)
                }
                5 => b.bootstrap(x).ok(),
                6 => b.bootstrap(x).and_then(|r| b.bootstrap(r)).ok(),
                _ => {
                    let raw = b.hrot(x, 1 + i64::from(code >> 24) % 3).and_then(|rot| {
                        let m1 = b.pmult(rot, 0.5)?;
                        let m2 = b.pmult(x, 0.5)?;
                        b.hadd(m1, m2)
                    });
                    rescaled(&mut b, raw)
                }
            };
            acc[i] = next.unwrap_or(x);
        }
        b.output(acc[0]);
        match codes[0] >> 8 & 3 {
            0 => {}
            1 => b.output(acc[1]),
            _ => {
                if let Ok(refreshed) = b.bootstrap(acc[1]) {
                    b.output(refreshed);
                }
            }
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sweep and the fixpoint return the same circuit, node for node
        /// and level for level, on the builder's output and on what CSE and
        /// rescale scheduling make of it (dead originals and fresh ids).
        #[test]
        fn sweep_equals_the_greedy_reference_under_level_pressure(
            usable in 1usize..9,
            codes in proptest::collection::vec(any::<u32>(), 40),
        ) {
            let ins = CkksInstance::toy(10, bts_params::L_BOOT + usable, 2);
            let raw = pressured_circuit(&ins, &codes);
            let scheduled = run_on(&RescaleSchedPass, &run_on(&CommonSubexprPass, &raw).unwrap())
                .unwrap();
            for circuit in [raw, scheduled] {
                let swept = run_on(&BootstrapPlacePass, &circuit);
                prop_assert!(swept.is_ok(), "sweep failed: {:?}", swept.err());
                prop_assert_eq!(swept.unwrap(), greedy_reference(&circuit).unwrap());
            }
        }
    }

    /// `bts-workloads` links the non-test build of this crate, so the
    /// circuits it builds are that build's (identical) types; rebuild one
    /// field by field as this build's.
    fn import(circuit: &bts_workloads::HeCircuit) -> HeCircuit {
        use bts_workloads::HeInstr as Theirs;
        let instr = |instr: Theirs| match instr {
            Theirs::HMult { a, b } => HeInstr::HMult { a, b },
            Theirs::HAdd { a, b } => HeInstr::HAdd { a, b },
            Theirs::HRot { a, rotation } => HeInstr::HRot { a, rotation },
            Theirs::Conjugate { a } => HeInstr::Conjugate { a },
            Theirs::PMult { a, value } => HeInstr::PMult { a, value },
            Theirs::PAdd { a, value } => HeInstr::PAdd { a, value },
            Theirs::Rescale { a } => HeInstr::Rescale { a },
            Theirs::CMult { a, value } => HeInstr::CMult { a, value },
            Theirs::CAdd { a, value } => HeInstr::CAdd { a, value },
            Theirs::ModRaise { a } => HeInstr::ModRaise { a },
            Theirs::Bootstrap { a } => HeInstr::Bootstrap { a },
        };
        HeCircuit {
            instance: circuit.instance.clone(),
            inputs: circuit
                .inputs
                .iter()
                .map(|i| CircuitInput {
                    id: i.id,
                    level: i.level,
                })
                .collect(),
            nodes: circuit
                .nodes
                .iter()
                .map(|n| HeInstrNode {
                    instr: instr(n.instr),
                    result: n.result,
                    level: n.level,
                })
                .collect(),
            outputs: circuit.outputs.clone(),
        }
    }

    /// Holds the sweep to the reference on registry workloads, as built and
    /// as the pipeline hands them over: after CSE and rescale scheduling.
    fn assert_registry_points_match(select: impl Fn(&str) -> bool) {
        let registry = bts_workloads::standard_registry();
        for ins in CkksInstance::evaluation_set() {
            for (name, workload) in registry.iter().filter(|(name, _)| select(name)) {
                let built = import(&workload.build(&ins).unwrap());
                let scheduled = run_on(
                    &RescaleSchedPass,
                    &run_on(&CommonSubexprPass, &built).unwrap(),
                )
                .unwrap();
                for circuit in [built, scheduled] {
                    let swept = run_on(&BootstrapPlacePass, &circuit).unwrap();
                    assert!(
                        swept == greedy_reference(&circuit).unwrap(),
                        "{name} on {}: sweep and reference disagree",
                        ins.name()
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_equals_the_greedy_reference_on_registry_points() {
        assert_registry_points_match(|name| name != "sorting");
    }

    /// Sorting is 21k instructions and ~700 markers per instance: minutes of
    /// reference time in a debug build. CI runs it in release.
    #[test]
    #[ignore = "the quadratic reference needs a release build on sorting"]
    fn sweep_equals_the_greedy_reference_on_sorting() {
        assert_registry_points_match(|name| name == "sorting");
    }
}
