//! Bootstrap placement as an optimization pass. [`crate::CircuitBuilder`]'s
//! greedy `ensure()` trigger refreshes whenever the level budget dips to the
//! requested depth *plus one reserve level* — the conservative rule FHE
//! applications schedule by. It over-provisions twice: a chain of unit-level
//! groups refreshes every U − 1 levels instead of every U (the reserve level
//! is never spent), and the last refresh of a circuit often guards a suffix
//! that would have fit in the levels already available. With the whole
//! program in hand, this pass *places* every marker: it moves each one to
//! the latest point its input's levels can reach, and deletes the ones that
//! can move past their whole suffix. A bootstrap expands to hundreds of
//! key-switches (the full CoeffToSlot → EvalMod → SlotToCoeff pipeline), so
//! each marker saved is by far the largest single win any pass in the
//! pipeline can deliver.
//!
//! # Regions and cuts
//!
//! A marker `r = Bootstrap(a)` refreshes one value, so it can only move to a
//! point where one value carries everything its result's downstream still
//! needs. The marker's **region** is `r` and the values it reaches without
//! passing through another refresh (a `Bootstrap` or a `ModRaise`, whose
//! results sit at a fixed level). A **cut** is a region value `c` at the base
//! scale Δ¹ that is not an output and is still read after its definition,
//! while no other region value is. Moving the marker to `c` redirects the
//! region's reads of `r` to `a`, puts `r = Bootstrap(c)` right after `c`'s
//! definition and redirects every later read of `c` to `r`: the region's
//! values up to `c` run on `a`'s remaining levels, everything after `c` on
//! refreshed ones. Deleting the marker is the move past the region's end.
//!
//! # The level-demand argument
//!
//! A marker maps Δ¹ to Δ¹, so a move changes no scale exponent; the only
//! invariant it can break is a `Rescale` finding its operand at level 0. A
//! value's level is the minimum, over every path reaching it from a *level
//! source* (an input, a `Bootstrap`, a `ModRaise`), of the source's level
//! minus the rescales on the path, and a circuit analyzes iff every path
//! from a source to a *sink* (an output, the operand of a `Bootstrap` or of
//! a `ModRaise`, a value nothing reads) has `level(source) ≥
//! rescales(path)`. Moving a marker to a cut `c` makes `c` a sink and
//! replaces the source `r` by `a`'s sources on the region's paths up to `c`;
//! the paths out of the refreshed `c` are tails of paths that left `r` at
//! the same level, and every other path is untouched. Call a region value's
//! **depth** the most rescales on a path from `r` to it. The move is safe
//! iff `level(a) ≥ depth(v)` for every region value `v` defined up to `c`,
//! and the deletion iff that holds over the whole region. Depth only grows
//! along the region, so the cuts a marker can reach are a prefix of its
//! region's cuts; the pass takes the latest.
//!
//! # One sweep
//!
//! `level(a)` depends only on the markers before `r`, so the sweep decides
//! the markers in program order, once each, while it rebuilds the circuit
//! (`place_markers`): at a marker it reads `level(a)` off the prefix rebuilt
//! so far and walks the marker's region ahead, counting the region values
//! still to be read and each one's depth, up to the first rescale that
//! would run out of levels. If the region ends first, the marker goes;
//! otherwise it lands after the latest cut the walk passed, or stays where
//! it is if there was none. The rebuild folds each node it emits through
//! the analysis once, and that fold is both where it reads `level(a)` and
//! the rebuilt circuit's analysis: it walks no node twice. In a chain, a
//! marker that lands later leaves the next one's input more levels, so
//! that one lands later still: a chain of D unit-level groups on U usable
//! levels refreshes exactly where its level would go below 0, ⌈(D − U)/U⌉
//! times, where the reserve rule spends one refresh per U − 1 levels.
//!
//! A decision is final. A later marker's move can end an earlier marker's
//! region sooner — only where two markers' regions merge, which the
//! registry's single-accumulator chains never do — and the sweep does not
//! go back for it. The test reference makes the same decisions from whole-
//! circuit analyses alone: it steps each marker, in program order, one cut
//! later (or out of the circuit) and re-analyzes, until the step fails, and
//! the sweep is held `==` to it.
//!
//! Markers whose result is itself a circuit output stay where they are: the
//! caller asked for a refreshed, top-level ciphertext, and handing back
//! anything else would change the circuit's observable interface (this
//! also keeps the `bootstrap` benchmark workload meaningful).
//!
//! # The builder's rule
//!
//! [`crate::CircuitBuilder::build`] prunes its own greedy refreshes through
//! the same rebuild under a narrower rule (`drop_markers`): a marker
//! `ensure()` inserted goes iff nothing rescales downstream of it before the
//! next kept refresh — its result's *demand*, the most rescales on a path
//! to a sink with a dropped marker's demand folded into its input, is 0 —
//! even when its result is an output, since the application never asked for
//! that refresh. One backward sweep decides that rule. Explicit
//! `bootstrap()` calls are never the builder's to drop.

use crate::error::CircuitError;
use crate::ir::{HeCircuit, HeInstr, HeInstrNode, ValueId};
use crate::passes::analysis::{Analysis, Fold};
use crate::passes::{Analyzed, Pass};
use crate::value_table::ValueTable;

/// Moves every bootstrap marker to the latest cut its input's levels reach,
/// deleting the ones that reach past their whole region, in one program-order
/// sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct BootstrapPlacePass;

impl Pass for BootstrapPlacePass {
    fn name(&self) -> &'static str {
        "bootstrap-place"
    }

    fn run(&self, input: &Analyzed) -> Result<Analyzed, CircuitError> {
        let mut placer = Placer::new(input);
        place_markers(input.circuit(), |i, level, repr| {
            placer.place(i, level, repr)
        })
    }
}

/// Where [`place_markers`] puts one bootstrap marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placement {
    /// Where it stands.
    Keep,
    /// Nowhere: the reads of its result read its input.
    Drop,
    /// Right after node `j`, a cut of its region: the earlier reads of its
    /// result read its input, and the later reads of node `j`'s result read
    /// the marker's.
    After(usize),
}

/// [`BootstrapPlacePass`]'s side of the sweep: what it knows about the
/// circuit ahead of the rebuild.
struct Placer<'a> {
    circuit: &'a HeCircuit,
    /// The input's analysis, for scale exponents (no move changes one).
    analysis: &'a Analysis,
    is_output: ValueTable<()>,
    /// The index of the node that reads each value last; `usize::MAX` for an
    /// output, none for a value nothing reads. Once a marker lands after a
    /// cut, the cut's entry is its own index: the marker, a sink, is the
    /// only reader left.
    last_read: ValueTable<usize>,
    /// Each region value's marker (its node index) and depth there.
    region: ValueTable<(usize, usize)>,
}

impl<'a> Placer<'a> {
    fn new(input: &'a Analyzed) -> Self {
        let circuit = input.circuit();
        let mut last_read = ValueTable::for_circuit(circuit);
        for (i, node) in circuit.nodes.iter().enumerate() {
            for v in node.instr.operand_slots() {
                last_read.insert(v, i);
            }
        }
        for &out in &circuit.outputs {
            last_read.insert(out, usize::MAX);
        }
        Self {
            circuit,
            analysis: input.analysis(),
            is_output: ValueTable::outputs_of(circuit),
            last_read,
            region: ValueTable::for_circuit(circuit),
        }
    }

    /// Places marker `i`, whose input (through the earlier decisions) sits
    /// at `budget` in the prefix rebuilt so far.
    fn place(&mut self, i: usize, budget: usize, repr: &ValueTable<ValueId>) -> Placement {
        let r = self.circuit.nodes[i].result;
        if self.is_output.contains(r) {
            return Placement::Keep;
        }
        let placement = self.walk_region(i, budget, repr);
        if let Placement::After(j) = placement {
            self.last_read.insert(self.circuit.nodes[j].result, j);
        }
        placement
    }

    /// Walks marker `i`'s region ahead of the rebuild with `budget` levels
    /// to spend, reading operands through the redirections `repr` made so
    /// far: later markers still stand where they are, sinks of the region.
    fn walk_region(&mut self, i: usize, budget: usize, repr: &ValueTable<ValueId>) -> Placement {
        let r = self.circuit.nodes[i].result;
        self.region.insert(r, (i, 0));
        // Region values some later node (or the output list) still reads.
        let mut live = usize::from(self.last_read.contains(r));
        let mut placement = Placement::Keep;
        for (j, node) in self.circuit.nodes.iter().enumerate().skip(i + 1) {
            if live == 0 {
                break;
            }
            let (x, y) = node.instr.map_operands(|v| repr.resolve(v)).operands();
            let mut depth = None;
            for v in [Some(x), y.filter(|&y| y != x)].into_iter().flatten() {
                if let Some((_, d)) = self.region.get(v).filter(|&(m, _)| m == i) {
                    depth = depth.max(Some(d));
                    live -= usize::from(self.last_read.get(v) == Some(j));
                }
            }
            let depth = match (node.instr, depth) {
                (_, None) | (HeInstr::Bootstrap { .. } | HeInstr::ModRaise { .. }, _) => continue,
                // The rescale's operand would sit at level 0.
                (HeInstr::Rescale { .. }, Some(d)) if d == budget => return placement,
                (HeInstr::Rescale { .. }, Some(d)) => d + 1,
                (_, Some(d)) => d,
            };
            let v = node.result;
            self.region.insert(v, (i, depth));
            if self.last_read.get(v).is_some_and(|last| last > j) {
                live += 1;
                if live == 1 && self.analysis.of(v).scale_exp == 1 && !self.is_output.contains(v) {
                    placement = Placement::After(j);
                }
            }
        }
        Placement::Drop
    }
}

/// The one marker rebuild: visits the nodes in program order and asks
/// `place` where each [`HeInstr::Bootstrap`] marker goes, given its node
/// index, the level of its input (read through the earlier decisions) in
/// the nodes rebuilt so far, and the redirections made so far. A moved or
/// dropped marker's result reads as its input from then on; a moved marker
/// is rebuilt right after its cut, whose later reads become the marker's.
/// Outputs are redirected too. Each node emitted, landed markers included,
/// is folded through the analysis once ([`Fold`]) — the nodes emitted so
/// far at each marker, where `place` reads its input's level, the rest at
/// the end — and the fold comes back as the rebuilt circuit's analysis: the
/// rebuild is its one walk. Once the prefix stops analyzing, the later
/// markers stay where they stand.
///
/// [`BootstrapPlacePass`] places every marker; [`drop_markers`] only drops.
///
/// # Errors
///
/// Everything [`crate::passes::analysis::relevel`] would report on the
/// rebuilt circuit.
pub(crate) fn place_markers(
    circuit: &HeCircuit,
    mut place: impl FnMut(usize, usize, &ValueTable<ValueId>) -> Placement,
) -> Result<Analyzed, CircuitError> {
    let mut fold = Fold::new(circuit);
    let mut folded = 0;
    let mut repr: ValueTable<ValueId> = ValueTable::for_circuit(circuit);
    // The marker landing after each node; sized at the first move.
    let mut landing: Vec<Option<ValueId>> = Vec::new();
    let mut nodes = Vec::with_capacity(circuit.nodes.len());
    for (i, node) in circuit.nodes.iter().enumerate() {
        let instr = node.instr.map_operands(|v| repr.resolve(v));
        if let HeInstr::Bootstrap { a } = instr {
            fold.relevel(&mut nodes[folded..]);
            folded = nodes.len();
            let placement = fold
                .facts(a)
                .map_or(Placement::Keep, |facts| place(i, facts.level, &repr));
            match placement {
                Placement::Keep => {}
                Placement::Drop => {
                    repr.insert(node.result, a);
                    continue;
                }
                Placement::After(j) => {
                    repr.insert(node.result, a);
                    repr.insert(circuit.nodes[j].result, node.result);
                    landing.resize(circuit.nodes.len(), None);
                    landing[j] = Some(node.result);
                    continue;
                }
            }
        }
        nodes.push(HeInstrNode { instr, ..*node });
        if let Some(&Some(result)) = landing.get(i) {
            nodes.push(HeInstrNode {
                instr: HeInstr::Bootstrap { a: node.result },
                result,
                level: node.level,
            });
        }
    }
    fold.relevel(&mut nodes[folded..]);
    let rebuilt = HeCircuit {
        instance: circuit.instance.clone(),
        inputs: circuit.inputs.clone(),
        nodes,
        outputs: circuit.outputs.iter().map(|&v| repr.resolve(v)).collect(),
    };
    Analyzed::folded(rebuilt, fold)
}

/// [`crate::CircuitBuilder::build`]'s prune: visits the nodes latest first,
/// carrying each value's level demand, and drops every marker for which
/// `drop(result, demand of result)` holds; a dropped marker folds its
/// demand into its input. [`place_markers`] then rebuilds the rest.
///
/// # Errors
///
/// Everything [`place_markers`] reports.
pub(crate) fn drop_markers(
    circuit: &HeCircuit,
    mut drop: impl FnMut(ValueId, usize) -> bool,
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
                if drop(node.result, wanted) {
                    dropped[i] = true;
                    raise(a, wanted);
                }
            }
            HeInstr::ModRaise { .. } => {}
            HeInstr::Rescale { a } => raise(a, wanted + 1),
            instr => instr.operand_slots().for_each(|v| raise(v, wanted)),
        }
    }
    place_markers(circuit, |i, _, _| {
        if dropped[i] {
            Placement::Drop
        } else {
            Placement::Keep
        }
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
    use std::collections::{HashMap, HashSet};

    /// The first cut of the region of marker `index` after it, found from
    /// the definition: a region value at Δ¹, not an output, read after its
    /// definition while no other region value is. `scales` is any analysis
    /// of the circuit the marker's ids come from (no move changes a scale).
    fn next_cut(circuit: &HeCircuit, index: usize, scales: &Analysis) -> Option<usize> {
        let mut last: HashMap<ValueId, usize> = HashMap::new();
        for (j, node) in circuit.nodes.iter().enumerate().skip(index + 1) {
            for v in node.instr.operand_slots() {
                last.insert(v, j);
            }
        }
        for &out in &circuit.outputs {
            last.insert(out, usize::MAX);
        }
        let root = circuit.nodes[index].result;
        let mut region = HashSet::from([root]);
        // The latest read of a region value defined so far.
        let mut latest = last.get(&root).copied().unwrap_or(index);
        for (j, node) in circuit.nodes.iter().enumerate().skip(index + 1) {
            if latest < j {
                return None;
            }
            let refresh = matches!(
                node.instr,
                HeInstr::Bootstrap { .. } | HeInstr::ModRaise { .. }
            );
            if refresh || !node.instr.operand_slots().any(|v| region.contains(&v)) {
                continue;
            }
            let v = node.result;
            let read_later = last.get(&v).is_some_and(|&at| at > j);
            let output = circuit.outputs.contains(&v);
            if latest <= j && read_later && scales.of(v).scale_exp == 1 && !output {
                return Some(j);
            }
            region.insert(v);
            latest = latest.max(last.get(&v).copied().unwrap_or(j));
        }
        None
    }

    /// Moves marker `index` to right after node `to` — or deletes it, for
    /// `None` — and relevels; `None` if the circuit no longer analyzes.
    fn try_step(circuit: &HeCircuit, index: usize, to: Option<usize>) -> Option<HeCircuit> {
        let HeInstr::Bootstrap { a } = circuit.nodes[index].instr else {
            unreachable!("only markers step");
        };
        let r = circuit.nodes[index].result;
        let cut = to.map(|j| circuit.nodes[j].result);
        let redirect = |v: ValueId| {
            if v == r {
                a
            } else if Some(v) == cut {
                r
            } else {
                v
            }
        };
        let mut nodes = Vec::new();
        for (k, node) in circuit.nodes.iter().enumerate() {
            if k != index {
                nodes.push(HeInstrNode {
                    instr: node.instr.map_operands(redirect),
                    ..*node
                });
            }
            if Some(k) == to {
                nodes.push(HeInstrNode {
                    instr: HeInstr::Bootstrap { a: node.result },
                    result: r,
                    level: 0,
                });
            }
        }
        let mut candidate = HeCircuit {
            nodes,
            outputs: circuit.outputs.iter().map(|&v| redirect(v)).collect(),
            ..circuit.clone()
        };
        analysis::relevel(&mut candidate).ok()?;
        Some(candidate)
    }

    /// The reference [`BootstrapPlacePass`] is held `==` to: takes the
    /// markers in program order (outputs' excepted) and steps each one cut
    /// later — or out of the circuit once no cut is left — re-analyzing the
    /// whole circuit after every step, until its next step no longer
    /// analyzes. Quadratic, and every decision is one full analysis.
    fn stepwise_reference(circuit: &HeCircuit) -> Result<HeCircuit, CircuitError> {
        let scales = analysis::check(circuit)?;
        let markers: Vec<ValueId> = circuit
            .nodes
            .iter()
            .filter(|n| matches!(n.instr, HeInstr::Bootstrap { .. }))
            .map(|n| n.result)
            .filter(|r| !circuit.outputs.contains(r))
            .collect();
        let mut current = circuit.clone();
        for r in markers {
            while let Some(index) = current.nodes.iter().position(|n| n.result == r) {
                let to = next_cut(&current, index, &scales);
                match try_step(&current, index, to) {
                    Some(next) => current = next,
                    None => break,
                }
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
    fn a_refresh_moves_to_the_last_level_its_input_reaches() {
        // INS-1: burn 7, ensure(1) refreshes at level 1 (the reserve rule),
        // then burn 8. The refresh is needed, one level later: it moves past
        // the first square–rescale and refreshes at level 0.
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let x = burn(&mut b, x, 7);
        let refreshed = b.ensure(x, 1).unwrap();
        let y = burn(&mut b, refreshed, 8);
        b.output(y);
        let circuit = b.build();
        assert_eq!(circuit.bootstrap_count(), 1);
        assert_eq!(circuit.nodes[14].level, 1, "refreshes at level 1");

        let out = run_on(&BootstrapPlacePass, &circuit).unwrap();
        assert_eq!(out.bootstrap_count(), 1);
        let marker = &out.nodes[16];
        assert_eq!(marker.result, refreshed, "the marker keeps its result");
        assert_eq!(
            marker.instr,
            HeInstr::Bootstrap {
                a: out.nodes[15].result
            }
        );
        assert_eq!(marker.level, 0, "refreshes at level 0");
        assert_eq!(out.nodes[14].instr, HeInstr::HMult { a: x, b: x });
        assert_eq!(out.nodes.last().unwrap().level, 2, "one level left over");
        assert_eq!(out, stepwise_reference(&circuit).unwrap());
    }

    /// `depth` unit-level groups (ensure a level, square, rescale) on a fresh
    /// input.
    fn unit_level_chain(ins: &CkksInstance, depth: usize) -> HeCircuit {
        let mut b = CircuitBuilder::new(ins);
        let mut x = b.input();
        for _ in 0..depth {
            x = b.ensure(x, 1).unwrap();
            x = burn(&mut b, x, 1);
        }
        b.output(x);
        b.build()
    }

    #[test]
    fn a_chain_of_unit_level_groups_refreshes_every_usable_level() {
        // The reserve rule refreshes every U − 1 levels; placed, a chain of D
        // levels refreshes every U, each time at level 0.
        let evaluation = CkksInstance::evaluation_set();
        let usable: Vec<usize> = evaluation.iter().map(|i| i.usable_top_level()).collect();
        assert_eq!(usable, [8, 20, 25]);
        for (ins, u) in evaluation.iter().zip(usable) {
            for depth in [1, u - 1, u, u + 1, 2 * u, 2 * u + 1, 7 * u - 3, 300] {
                let circuit = unit_level_chain(ins, depth);
                let out = run_on(&BootstrapPlacePass, &circuit).unwrap();
                let want = depth.saturating_sub(u).div_ceil(u);
                assert_eq!(out.bootstrap_count(), want, "D = {depth}, U = {u}");
                assert!(circuit.bootstrap_count() >= want);
                for node in &out.nodes {
                    if matches!(node.instr, HeInstr::Bootstrap { .. }) {
                        assert_eq!(node.level, 0, "D = {depth}, U = {u}");
                    }
                }
                assert_eq!(out, stepwise_reference(&circuit).unwrap());
            }
        }
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
        // a row (a marker feeding a marker), then burn `suffix` levels. One
        // refresh at most answers for the pair: the first goes — only the
        // second reads it — and the second, now reading level 2, goes too if
        // the suffix fits in 2 levels, else lands where level 0 is reached.
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
            assert_eq!(out, stepwise_reference(&circuit).unwrap());
        }
    }

    /// A circuit over several accumulators that drift to different levels:
    /// `ensure` at random depths, squarings and maskings that burn levels,
    /// `hmult`/`hadd` across accumulators, rotate–mask–accumulate groups,
    /// fan-out that rejoins after branches of unequal depth (no cut until
    /// the join), explicit refreshes (one feeding the next), refreshed
    /// inputs joining an accumulator, modulus raises (sinks of a region,
    /// like a refresh), and one or two outputs, one of which
    /// may itself be a marker's result. Steps the builder refuses leave
    /// their accumulator where it was.
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
            let next = match code % 11 {
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
                7 => {
                    let raw = b.hrot(x, 1 + i64::from(code >> 24) % 3).and_then(|rot| {
                        let m1 = b.pmult(rot, 0.5)?;
                        let m2 = b.pmult(x, 0.5)?;
                        b.hadd(m1, m2)
                    });
                    rescaled(&mut b, raw)
                }
                8 => {
                    let deep = (0..2).try_fold(x, |v, _| {
                        let raw = b.hmult(v, v)?;
                        b.rescale(raw)
                    });
                    let raw = b.pmult(x, 0.5);
                    let shallow = rescaled(&mut b, raw);
                    deep.ok().zip(shallow).and_then(|(d, s)| b.hadd(d, s).ok())
                }
                9 => {
                    let fresh = b.input_at((code >> 24) as usize % (ins.usable_top_level() + 1));
                    b.bootstrap(fresh).and_then(|r| b.hadd(x, r)).ok()
                }
                _ => b.mod_raise(x).ok(),
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

        /// The sweep and the stepwise reference return the same circuit,
        /// node for node and level for level, on the builder's output and on
        /// what CSE and rescale scheduling make of it (dead originals and
        /// fresh ids), and the analysis the sweep returns with it is that
        /// circuit's.
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
                prop_assert_eq!(swept.unwrap(), stepwise_reference(&circuit).unwrap());
                // The analysis the rebuild folded is the one its circuit has.
                let placed = BootstrapPlacePass
                    .run(&Analyzed::check(circuit).unwrap())
                    .unwrap();
                let fresh = analysis::analyze(placed.circuit()).unwrap();
                prop_assert_eq!(&placed.analysis().exec_levels, &fresh.exec_levels);
                for node in &placed.circuit().nodes {
                    prop_assert_eq!(placed.analysis().of(node.result), fresh.of(node.result));
                }
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
                        swept == stepwise_reference(&circuit).unwrap(),
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
