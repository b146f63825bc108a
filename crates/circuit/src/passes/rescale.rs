//! Rescale scheduling: choose *where* to rescale so that key-switching ops
//! run with as few limbs as possible. A key-switch at level `l` processes
//! `l + 1` limbs (plus the special primes), so moving an `HRot` from level
//! `l` to `l − 1` makes it strictly cheaper even though the op count is
//! unchanged — and in the rotate–mask–accumulate groups every workload is
//! built from, hoisting the shared mask multiplication above the rotations
//! additionally collapses `n` `PMult`s into one.
//!
//! Two rewrites, both exploiting that splat-constant plaintexts are invariant
//! under slot rotation (`rot(x · c) = rot(x) · c` and
//! `rescale(Σᵢ rotᵢ(x) · c) ≈ Σᵢ rotᵢ(rescale(x · c))` hold in CKKS up to
//! rescale rounding, which the differential harness bounds):
//!
//! 1. **Mask hoisting**: `Rescale(Σᵢ PMult(HRotᵢ(x), c))` with one shared
//!    constant becomes `s = Rescale(PMult(x, c)); Σᵢ HRotᵢ(s)` — one mask
//!    multiplication instead of `n`, and every rotation drops one level.
//! 2. **Rescale sinking**: `Rescale(HRot(x))` / `Rescale(Conjugate(x))`
//!    becomes `HRot(Rescale(x))` — the key-switch runs one level lower.
//!
//! Original groups are left in place with their consumers redirected; the
//! pipeline's dead-value sweep collects them.

use crate::error::CircuitError;
use crate::ir::{HeCircuit, HeInstr, HeInstrNode, ValueId};
use crate::passes::analysis::Analysis;
use crate::passes::{Analyzed, Pass};
use crate::value_table::ValueTable;

/// One flattened summand of a rotate–mask–accumulate group: the rotation
/// applied to the shared source (`None` for the unrotated term) in original
/// addition order.
#[derive(Debug, Clone, Copy)]
struct Term {
    rotation: Option<i64>,
}

/// A matched mask-hoist group rooted at one `Rescale` node; its terms live
/// in the run's [`Scratch`].
#[derive(Debug)]
struct MaskGroup<'s> {
    /// The shared rotation source.
    source: ValueId,
    /// The shared splat constant.
    value: f64,
    /// Summands in addition order.
    terms: &'s [Term],
}

/// The buffers one match works in, reused across every rescale of a run:
/// most rescales match nothing, and a failed match allocates nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// The `HAdd` tree walk's own stack.
    pending: Vec<ValueId>,
    /// The tree's leaves, in addition order.
    leaves: Vec<ValueId>,
    /// Node indices of the tree, its masks and their rotations.
    group: Vec<usize>,
    /// Every operand slot the group and its root read, sorted.
    consumed: Vec<ValueId>,
    /// A match's summands, in addition order.
    terms: Vec<Term>,
}

/// Rescale scheduling / mask hoisting over rotate–mask–accumulate groups.
#[derive(Debug, Clone, Copy, Default)]
pub struct RescaleSchedPass;

struct Rewriter<'c> {
    circuit: &'c HeCircuit,
    /// Defining node index of every instruction result.
    defs: ValueTable<usize>,
    /// How many operand slots consume each value.
    use_counts: ValueTable<usize>,
    outputs: ValueTable<()>,
    analysis: &'c Analysis,
    /// The next unused id, or `None` once `u32::MAX` itself is taken.
    next_id: Option<ValueId>,
}

impl<'c> Rewriter<'c> {
    fn new(input: &'c Analyzed) -> Self {
        let (circuit, analysis) = (input.circuit(), input.analysis());
        let mut defs = ValueTable::for_circuit(circuit);
        let mut use_counts = ValueTable::for_circuit(circuit);
        for (i, node) in circuit.nodes.iter().enumerate() {
            defs.insert(node.result, i);
            for v in node.instr.operand_slots() {
                use_counts.insert(v, use_counts.get(v).unwrap_or(0) + 1);
            }
        }
        let max_id = circuit
            .inputs
            .iter()
            .map(|input| input.id)
            .chain(circuit.nodes.iter().map(|node| node.result))
            .max();
        Self {
            circuit,
            defs,
            use_counts,
            outputs: ValueTable::outputs_of(circuit),
            analysis,
            next_id: max_id.map_or(Some(0), |max| max.checked_add(1)),
        }
    }

    fn fresh(&mut self) -> Result<ValueId, CircuitError> {
        let id = self.next_id.ok_or_else(|| {
            CircuitError::InvalidCircuit("the circuit leaves no unused value id".to_string())
        })?;
        self.next_id = id.checked_add(1);
        Ok(id)
    }

    /// Whether `v` has exactly one consumer and is not a circuit output — the
    /// condition for its definition to die once that consumer is rewritten.
    fn single_use(&self, v: ValueId) -> bool {
        !self.outputs.contains(v) && self.use_counts.get(v) == Some(1)
    }

    /// Flattens the `HAdd` tree under `root` into leaves, in addition order.
    /// Accumulation chains run to hundreds of thousands of terms, so the
    /// walk keeps its own stack (`pending`, left empty) instead of recursing
    /// once per `HAdd`.
    fn flatten(
        &self,
        root: ValueId,
        pending: &mut Vec<ValueId>,
        leaves: &mut Vec<ValueId>,
        tree: &mut Vec<usize>,
    ) {
        pending.push(root);
        while let Some(v) = pending.pop() {
            match self.defs.get(v).map(|i| (i, self.circuit.nodes[i].instr)) {
                Some((i, HeInstr::HAdd { a, b })) => {
                    tree.push(i);
                    pending.push(b);
                    pending.push(a);
                }
                _ => leaves.push(v),
            }
        }
    }

    /// Tries to match the mask-hoist pattern on the rescale at node `ri` with
    /// operand `acc`, working in `scratch`.
    fn match_mask_group<'s>(
        &self,
        scratch: &'s mut Scratch,
        ri: usize,
        acc: ValueId,
    ) -> Option<MaskGroup<'s>> {
        let Scratch {
            pending,
            leaves,
            group,
            consumed,
            terms,
        } = scratch;
        leaves.clear();
        group.clear();
        terms.clear();
        self.flatten(acc, pending, leaves, group);
        let mut source: Option<ValueId> = None;
        let mut value_bits: Option<u64> = None;
        let mut rotated = false;
        for &leaf in leaves.iter() {
            let pi = self.defs.get(leaf)?;
            let HeInstr::PMult { a: u, value } = self.circuit.nodes[pi].instr else {
                return None;
            };
            if *value_bits.get_or_insert(value.to_bits()) != value.to_bits() {
                return None;
            }
            group.push(pi);
            // A rotated term only counts as such if its rotation becomes dead
            // with the group; otherwise treat the rotation result itself as a
            // (necessarily shared) source.
            let (src, rotation) = match self.defs.get(u) {
                Some(wi) => match self.circuit.nodes[wi].instr {
                    HeInstr::HRot { a: w, rotation } if self.single_use(u) => {
                        group.push(wi);
                        (w, Some(rotation))
                    }
                    _ => (u, None),
                },
                None => (u, None),
            };
            if *source.get_or_insert(src) != src {
                return None;
            }
            rotated |= rotation.is_some();
            terms.push(Term { rotation });
        }
        // No gain: a single unrotated mask is already in optimal form.
        if terms.len() < 2 && !rotated {
            return None;
        }
        // A leaf reached twice (`m + m`) put its nodes in the group twice.
        group.sort_unstable();
        group.dedup();
        // Every intermediate must die with the group: it is no output, and
        // each operand slot consuming it belongs to a group node or to the
        // rescale root itself.
        consumed.clear();
        consumed.extend(
            group
                .iter()
                .chain([&ri])
                .flat_map(|&i| self.circuit.nodes[i].instr.operand_slots()),
        );
        consumed.sort_unstable();
        let dies_with_group = |v: ValueId| {
            let inside =
                consumed.partition_point(|&c| c <= v) - consumed.partition_point(|&c| c < v);
            !self.outputs.contains(v) && inside == self.use_counts.get(v).unwrap_or(0)
        };
        if !group
            .iter()
            .all(|&i| dies_with_group(self.circuit.nodes[i].result))
        {
            return None;
        }
        Some(MaskGroup {
            source: source?,
            value: f64::from_bits(value_bits?),
            terms,
        })
    }
}

impl Pass for RescaleSchedPass {
    fn name(&self) -> &'static str {
        "rescale-sched"
    }

    fn run(&self, input: &Analyzed) -> Result<Analyzed, CircuitError> {
        let circuit = input.circuit();
        let mut rw = Rewriter::new(input);
        let mut scratch = Scratch::default();
        let mut repr: ValueTable<ValueId> = ValueTable::for_circuit(circuit);
        let mut nodes: Vec<HeInstrNode> = Vec::with_capacity(circuit.nodes.len());
        for (i, node) in circuit.nodes.iter().enumerate() {
            let HeInstr::Rescale { a: acc } = node.instr else {
                nodes.push(HeInstrNode {
                    instr: node.instr.map_operands(|v| repr.resolve(v)),
                    ..*node
                });
                continue;
            };
            // Rewrite 1: mask hoisting over a rotate–mask–accumulate group.
            if let Some(mask) = rw.match_mask_group(&mut scratch, i, acc) {
                let src = repr.resolve(mask.source);
                let lx = rw.analysis.of(mask.source).level;
                let masked = rw.fresh()?;
                nodes.push(HeInstrNode {
                    instr: HeInstr::PMult {
                        a: src,
                        value: mask.value,
                    },
                    result: masked,
                    level: lx,
                });
                let rescaled = rw.fresh()?;
                nodes.push(HeInstrNode {
                    instr: HeInstr::Rescale { a: masked },
                    result: rescaled,
                    level: lx,
                });
                let mut sum: Option<ValueId> = None;
                for term in mask.terms {
                    let t = match term.rotation {
                        Some(rotation) => {
                            let t = rw.fresh()?;
                            nodes.push(HeInstrNode {
                                instr: HeInstr::HRot {
                                    a: rescaled,
                                    rotation,
                                },
                                result: t,
                                level: lx - 1,
                            });
                            t
                        }
                        None => rescaled,
                    };
                    sum = Some(match sum {
                        None => t,
                        Some(s) => {
                            let id = rw.fresh()?;
                            nodes.push(HeInstrNode {
                                instr: HeInstr::HAdd { a: s, b: t },
                                result: id,
                                level: lx - 1,
                            });
                            id
                        }
                    });
                }
                repr.insert(node.result, sum.expect("group has at least one term"));
                continue;
            }
            // Rewrite 2: sink a rescale below a single-use rotation or
            // conjugation.
            if let Some(di) = rw.defs.get(acc) {
                let inner = rw.circuit.nodes[di];
                let sink = match inner.instr {
                    HeInstr::HRot { a: w, rotation } => Some((w, Some(rotation))),
                    HeInstr::Conjugate { a: w } => Some((w, None)),
                    _ => None,
                };
                if let (true, Some((w, rotation))) = (rw.single_use(acc), sink) {
                    let lx = rw.analysis.of(w).level;
                    let src = repr.resolve(w);
                    let rescaled = rw.fresh()?;
                    nodes.push(HeInstrNode {
                        instr: HeInstr::Rescale { a: src },
                        result: rescaled,
                        level: lx,
                    });
                    let out = rw.fresh()?;
                    let instr = match rotation {
                        Some(rotation) => HeInstr::HRot {
                            a: rescaled,
                            rotation,
                        },
                        None => HeInstr::Conjugate { a: rescaled },
                    };
                    nodes.push(HeInstrNode {
                        instr,
                        result: out,
                        level: lx - 1,
                    });
                    repr.insert(node.result, out);
                    continue;
                }
            }
            nodes.push(HeInstrNode {
                instr: node.instr.map_operands(|v| repr.resolve(v)),
                ..*node
            });
        }
        let outputs = circuit.outputs.iter().map(|&v| repr.resolve(v)).collect();
        Analyzed::check(HeCircuit {
            instance: circuit.instance.clone(),
            inputs: circuit.inputs.clone(),
            nodes,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::passes::dce::DeadValuePass;
    use crate::passes::run_on;
    use bts_params::CkksInstance;
    use bts_sim::HeOp;

    /// A rotate–mask–accumulate group as the workloads emit it.
    fn mac_group(b: &mut CircuitBuilder, x: u32, rotations: usize, mask: f64) -> u32 {
        let mut acc = b.pmult(x, mask).unwrap();
        for r in 1..=rotations {
            let rot = b.hrot(x, r as i64).unwrap();
            let m = b.pmult(rot, mask).unwrap();
            acc = b.hadd(acc, m).unwrap();
        }
        b.rescale(acc).unwrap()
    }

    #[test]
    fn mask_hoisting_collapses_pmults_and_lowers_rotations() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let out = mac_group(&mut b, x, 3, 0.25);
        b.output(out);
        let circuit = b.build();
        assert_eq!(circuit.op_counts()[&HeOp::PMult], 4);

        let rewritten = run_on(&RescaleSchedPass, &circuit).unwrap();
        let swept = run_on(&DeadValuePass, &rewritten).unwrap();
        assert!(swept.validate().is_ok());
        assert_eq!(swept.op_counts()[&HeOp::PMult], 1, "masks hoisted");
        assert_eq!(
            swept.op_counts()[&HeOp::HRot],
            3,
            "rotation count unchanged"
        );
        assert_eq!(swept.op_counts()[&HeOp::HRescale], 1);
        // Every rotation now runs one level below the source.
        for node in &swept.nodes {
            if matches!(node.instr, HeInstr::HRot { .. }) {
                assert_eq!(node.level, 5);
            }
        }
    }

    #[test]
    fn rescale_sinks_below_single_use_rotations() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let sq = b.hmult(x, x).unwrap(); // Δ^2 so the rescale is legal
        let rot = b.hrot(sq, 5).unwrap();
        let res = b.rescale(rot).unwrap();
        b.output(res);
        let rewritten = run_on(&RescaleSchedPass, &b.build()).unwrap();
        let swept = run_on(&DeadValuePass, &rewritten).unwrap();
        assert!(swept.validate().is_ok());
        let rot_node = swept
            .nodes
            .iter()
            .find(|n| matches!(n.instr, HeInstr::HRot { .. }))
            .unwrap();
        assert_eq!(rot_node.level, 5, "rotation runs below the rescale now");
    }

    #[test]
    fn groups_with_external_uses_are_left_alone() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let rot = b.hrot(x, 1).unwrap();
        let m1 = b.pmult(rot, 0.5).unwrap();
        let m2 = b.pmult(x, 0.5).unwrap();
        let acc = b.hadd(m1, m2).unwrap();
        let res = b.rescale(acc).unwrap();
        // The rotation escapes the group: it is also an output.
        b.output(res);
        b.output(rot);
        let circuit = b.build();
        let rewritten = run_on(&RescaleSchedPass, &circuit).unwrap();
        // The rotation must keep feeding the output at the original level;
        // the group match treats it as an opaque source, so the mask is still
        // hoisted across the *remaining* shared structure or not at all —
        // either way the circuit stays valid and the rotation survives DCE.
        let swept = run_on(&DeadValuePass, &rewritten).unwrap();
        assert!(swept.validate().is_ok());
        assert!(swept
            .nodes
            .iter()
            .any(|n| matches!(n.instr, HeInstr::HRot { .. }) && n.level == 6));
    }

    #[test]
    fn mismatched_masks_do_not_match() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let rot = b.hrot(x, 1).unwrap();
        let m1 = b.pmult(rot, 0.5).unwrap();
        let m2 = b.pmult(x, 0.75).unwrap();
        let acc = b.hadd(m1, m2).unwrap();
        let res = b.rescale(acc).unwrap();
        b.output(res);
        let circuit = b.build();
        let rewritten = run_on(&RescaleSchedPass, &circuit).unwrap();
        let swept = run_on(&DeadValuePass, &rewritten).unwrap();
        assert_eq!(swept.op_counts(), circuit.op_counts(), "no rewrite fired");
    }

    #[test]
    fn long_accumulation_chains_do_not_recurse() {
        // One HAdd per term: flattening by recursion overflowed the stack at
        // ~100k terms. Run on a thread as small as the test harness's own.
        const TERMS: usize = 200_000;
        let hoisted = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let ins = CkksInstance::toy(10, 6, 2);
                let mut b = CircuitBuilder::new(&ins);
                let x = b.input();
                let out = mac_group(&mut b, x, TERMS - 1, 0.25);
                b.output(out);
                let rewritten = run_on(&RescaleSchedPass, &b.build()).unwrap();
                run_on(&DeadValuePass, &rewritten).unwrap()
            })
            .unwrap()
            .join()
            .unwrap();
        let counts = hoisted.op_counts();
        assert_eq!(counts[&HeOp::PMult], 1, "masks hoisted");
        assert_eq!(counts[&HeOp::HRescale], 1);
        assert_eq!(counts[&HeOp::HRot], TERMS - 1);
        assert_eq!(counts[&HeOp::HAdd], TERMS - 1);
        // Left-to-right addition order survived the flattening.
        let rotations: Vec<i64> = hoisted
            .nodes
            .iter()
            .filter_map(|n| match n.instr {
                HeInstr::HRot { rotation, .. } => Some(rotation),
                _ => None,
            })
            .collect();
        assert!(rotations.iter().copied().eq(1..TERMS as i64));
    }
}
