//! Forward dataflow analysis over an [`HeCircuit`]: recomputes every value's
//! level and scale exponent from first principles and checks the CKKS scale
//! discipline the functional evaluator enforces at runtime.
//!
//! The level/scale rule of an instruction is written once, in `transfer`,
//! and has two callers: `Fold` applies it node by node inside
//! [`HeCircuit::validate`]'s own checks — [`analyze`] folds a whole circuit,
//! one pass over the nodes, and the bootstrap-placement rebuild folds each
//! node as it emits it — and [`crate::CircuitBuilder`] applies it to each
//! instruction as it records it, refusing the ones it rejects. Passes use the analysis in
//! two ways: [`check`] proves a rewritten circuit still satisfies every
//! invariant, and [`relevel`] repairs the recorded execution levels after a
//! structural rewrite (e.g. removing a bootstrap lowers everything
//! downstream of it). Either way the analysis travels with the circuit as
//! an [`Analyzed`], so the next pass reads it instead of recomputing it.

use bts_params::CkksInstance;

use crate::error::CircuitError;
use crate::ir::{check_outputs, define_node, HeCircuit, HeInstr, HeInstrNode, ValueId};
use crate::value_table::ValueTable;

/// Level and scale facts for one SSA value, as recomputed by [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueFacts {
    /// Ciphertext level the value sits at.
    pub level: usize,
    /// Scale as a power of the base scale Δ.
    pub scale_exp: u32,
}

/// Result of a full forward analysis: per-value facts plus the execution
/// level of every node (for [`HeInstr::Rescale`] the *input* level, matching
/// the [`crate::HeInstrNode::level`] convention).
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Facts for every input and instruction result.
    facts: ValueTable<ValueFacts>,
    /// Execution level of each node, in program order.
    pub exec_levels: Vec<usize>,
}

impl Analysis {
    /// Facts for a value that the analysis proved defined.
    ///
    /// # Panics
    ///
    /// If the analyzed circuit does not define `v`.
    pub fn of(&self, v: ValueId) -> ValueFacts {
        self.facts
            .get(v)
            .expect("the analysis holds facts for every value the circuit defines")
    }
}

/// Recomputes levels and scale exponents for every value by forward dataflow
/// and verifies the scale discipline: additions only combine equal scale
/// exponents, rescales need a level to drop and a scale exponent ≥ 2, and
/// bootstraps take base-scale (Δ^1) inputs.
///
/// The recorded [`crate::HeInstrNode::level`] fields are *ignored* here — use
/// [`check`] to additionally verify them, or [`relevel`] to overwrite them
/// with the recomputed values.
///
/// One forward walk does both jobs: a `Fold` runs [`HeCircuit::validate`]'s
/// checks on each node and applies the level/scale rule as it enters the
/// node's result.
///
/// # Errors
///
/// Returns [`HeCircuit::validate`]'s defect if the circuit has one — it
/// wins over a violation earlier in program order, as if validation ran
/// first — else the first violation in program order
/// ([`CircuitError::ScaleMismatch`], [`CircuitError::LevelExhausted`] or
/// [`CircuitError::InvalidCircuit`]).
///
/// Each call emits one `circuit.analyze` telemetry instant (track `circuit`,
/// at time 0) whose `nodes` arg is the nodes the rule was applied to — all
/// of them, or those before the first violation. Summed over a run, that is
/// how the pipeline's cost in circuit walks is held linear by a test.
pub fn analyze(circuit: &HeCircuit) -> Result<Analysis, CircuitError> {
    let mut fold = Fold::new(circuit);
    fold.walk(&circuit.nodes);
    fold.finish(&circuit.outputs)
}

/// [`analyze`]'s walk, fed a run of nodes at a time: the circuit's inputs
/// at construction, then its nodes in program order ([`Fold::walk`], or
/// [`Fold::relevel`] to write their levels), then its outputs
/// ([`Fold::finish`]). A rewrite that builds a circuit node by node (the
/// bootstrap-placement rebuild) folds the nodes it has emitted whenever it
/// needs the facts of the prefix so far, and the rest at the end, so the
/// rebuilt circuit needs no analysis of its own: the fold is it, with
/// [`relevel`]'s levels and errors.
#[derive(Debug)]
pub(crate) struct Fold<'c> {
    instance: &'c CkksInstance,
    facts: ValueTable<ValueFacts>,
    exec_levels: Vec<usize>,
    /// [`HeCircuit::validate`]'s first defect: the fold stops there.
    defect: Option<CircuitError>,
    /// The first node the level/scale rule rejects: past it the fold only
    /// validates.
    violation: Option<CircuitError>,
}

impl<'c> Fold<'c> {
    /// A fold over circuits with `circuit`'s instance, inputs and value
    /// ids, the inputs entered.
    pub(crate) fn new(circuit: &'c HeCircuit) -> Self {
        let mut facts = ValueTable::for_circuit(circuit);
        let entered = circuit.define_inputs(&mut facts, |input| ValueFacts {
            level: input.level,
            scale_exp: 1,
        });
        Self {
            instance: &circuit.instance,
            facts,
            exec_levels: Vec::with_capacity(circuit.nodes.len()),
            defect: entered.err(),
            violation: None,
        }
    }

    /// The facts of `v`, while every node folded so far analyzes.
    pub(crate) fn facts(&self, v: ValueId) -> Option<ValueFacts> {
        if self.defect.is_some() || self.violation.is_some() {
            return None;
        }
        self.facts.get(v)
    }

    /// Folds `nodes`, the next ones in program order.
    pub(crate) fn walk(&mut self, nodes: &[HeInstrNode]) {
        self.fold(nodes.iter(), |_, _| {});
    }

    /// Folds `nodes`, the next ones in program order, and relevels them:
    /// each recorded level, validated, is replaced by the one the rule
    /// computes (left as it was past a defect or violation).
    pub(crate) fn relevel(&mut self, nodes: &mut [HeInstrNode]) {
        self.fold(nodes.iter_mut(), |node, level| node.level = level);
    }

    /// The walk's body: validates each node, applies the rule while every
    /// node so far obeys it, and hands `exec` each node with its execution
    /// level. The state lives in locals for the loop: read through
    /// `&mut self` node by node, `analyze` measured ≈ 20 % slower.
    #[inline(always)]
    fn fold<N: std::ops::Deref<Target = HeInstrNode>>(
        &mut self,
        nodes: impl Iterator<Item = N>,
        mut exec: impl FnMut(N, usize),
    ) {
        if self.defect.is_some() {
            return;
        }
        let instance = self.instance;
        let max_level = instance.max_level();
        let (facts, exec_levels) = (&mut self.facts, &mut self.exec_levels);
        let mut violation = self.violation.take();
        for node in nodes {
            let mut level = None;
            let defined = define_node(max_level, facts, &node, |node, facts| {
                if violation.is_none() {
                    match transfer(node.instr, instance, |v| facts.get(v)) {
                        Ok((at, result)) => {
                            level = Some(at);
                            return result;
                        }
                        Err(e) => violation = Some(e),
                    }
                }
                // Past a violation the walk only validates: any entry will do.
                ValueFacts {
                    level: node.level,
                    scale_exp: 0,
                }
            });
            if let Some(level) = level {
                exec_levels.push(level);
                exec(node, level);
            }
            if let Err(defect) = defined {
                self.defect = Some(defect);
                break;
            }
        }
        self.violation = violation;
    }

    /// Checks `outputs` and closes the walk: the analysis of the nodes
    /// folded, or the first defect — which wins over a violation, as if
    /// validation ran first — else the first violation. Emits the walk's
    /// `circuit.analyze` instant.
    pub(crate) fn finish(mut self, outputs: &[ValueId]) -> Result<Analysis, CircuitError> {
        let nodes = bts_telemetry::ArgValue::U64(self.exec_levels.len() as u64);
        bts_telemetry::emit_instant("circuit", "circuit.analyze", 0.0, &[("nodes", nodes)]);
        if self.defect.is_none() {
            self.defect = check_outputs(&self.facts, outputs).err();
        }
        match self.defect.or(self.violation) {
            Some(e) => Err(e),
            None => Ok(Analysis {
                facts: self.facts,
                exec_levels: self.exec_levels,
            }),
        }
    }
}

/// The level/scale rule of one instruction: its execution level (for a
/// [`HeInstr::Rescale`] the input level) and its result's facts, given
/// `facts` of the values defined so far.
///
/// # Errors
///
/// [`CircuitError::UnknownValue`] for an operand `facts` does not know, else
/// the rule the instruction breaks: [`CircuitError::ScaleMismatch`] for an
/// addition of unequal scale exponents, [`CircuitError::LevelExhausted`] for
/// a rescale at level 0, [`CircuitError::InvalidCircuit`] for a rescale
/// below Δ^2 or a bootstrap of a value not at Δ^1.
pub(crate) fn transfer(
    instr: HeInstr,
    instance: &CkksInstance,
    facts: impl Fn(ValueId) -> Option<ValueFacts>,
) -> Result<(usize, ValueFacts), CircuitError> {
    let of = |v: ValueId| facts(v).ok_or(CircuitError::UnknownValue(v));
    let a = instr.operands().0;
    let fa = of(a)?;
    // Most results sit where the instruction executes.
    let at = |level: usize, scale_exp: u32| (level, ValueFacts { level, scale_exp });
    Ok(match instr {
        HeInstr::HMult { b, .. } => {
            let fb = of(b)?;
            at(fa.level.min(fb.level), fa.scale_exp + fb.scale_exp)
        }
        HeInstr::HAdd { b, .. } => {
            let fb = of(b)?;
            if fa.scale_exp != fb.scale_exp {
                return Err(CircuitError::ScaleMismatch {
                    a,
                    b,
                    exp_a: fa.scale_exp,
                    exp_b: fb.scale_exp,
                });
            }
            at(fa.level.min(fb.level), fa.scale_exp)
        }
        HeInstr::HRot { .. }
        | HeInstr::Conjugate { .. }
        | HeInstr::PAdd { .. }
        | HeInstr::CAdd { .. } => (fa.level, fa),
        HeInstr::PMult { .. } | HeInstr::CMult { .. } => at(fa.level, fa.scale_exp + 1),
        HeInstr::Rescale { .. } => {
            if fa.level == 0 {
                return Err(CircuitError::LevelExhausted {
                    value: a,
                    level: 0,
                    required: 1,
                });
            }
            if fa.scale_exp < 2 {
                return Err(CircuitError::InvalidCircuit(format!(
                    "rescaling v{a} at scale Δ^{} would drop below the base scale",
                    fa.scale_exp
                )));
            }
            (
                fa.level,
                ValueFacts {
                    level: fa.level - 1,
                    scale_exp: fa.scale_exp - 1,
                },
            )
        }
        HeInstr::ModRaise { .. } => at(instance.max_level(), fa.scale_exp),
        HeInstr::Bootstrap { .. } => {
            if fa.scale_exp != 1 {
                return Err(CircuitError::InvalidCircuit(format!(
                    "bootstrap input v{a} must carry the base scale Δ^1, found Δ^{}",
                    fa.scale_exp
                )));
            }
            (
                fa.level,
                ValueFacts {
                    level: instance.usable_top_level(),
                    scale_exp: 1,
                },
            )
        }
    })
}

/// Runs [`analyze`] and additionally requires every recorded node level to
/// equal the recomputed execution level — the invariant both backends rely on
/// when charging costs and cross-checking ciphertext levels.
///
/// # Errors
///
/// Everything [`analyze`] reports, plus [`CircuitError::InvalidCircuit`] on a
/// recorded/recomputed level mismatch.
pub fn check(circuit: &HeCircuit) -> Result<Analysis, CircuitError> {
    let analysis = analyze(circuit)?;
    for (node, &exec) in circuit.nodes.iter().zip(&analysis.exec_levels) {
        if node.level != exec {
            return Err(CircuitError::InvalidCircuit(format!(
                "node defining v{} records level {} but dataflow places it at {exec}",
                node.result, node.level
            )));
        }
    }
    Ok(analysis)
}

/// Overwrites every node's recorded level with the recomputed execution
/// level. Structural rewrites (bootstrap removal, rescale motion) call this
/// to repair downstream levels in one sweep instead of patching by hand.
///
/// # Errors
///
/// Everything [`analyze`] reports; on error the circuit is left unmodified.
pub fn relevel(circuit: &mut HeCircuit) -> Result<Analysis, CircuitError> {
    let analysis = analyze(circuit)?;
    for (node, &exec) in circuit.nodes.iter_mut().zip(&analysis.exec_levels) {
        node.level = exec;
    }
    Ok(analysis)
}

/// A circuit with its [`Analysis`], checked: every recorded node level is
/// the one the analysis computes. Passes take and return circuits in this
/// form, so [`crate::PassPipeline::optimize`] analyzes each circuit once —
/// its input, then each pass's output — and a pass reads the analysis of
/// its input instead of recomputing it.
#[derive(Debug, Clone)]
pub struct Analyzed {
    circuit: HeCircuit,
    analysis: Analysis,
}

impl Analyzed {
    /// `circuit` and its analysis, if it [`check`]s.
    ///
    /// # Errors
    ///
    /// Everything [`check`] reports.
    pub fn check(circuit: HeCircuit) -> Result<Self, CircuitError> {
        let analysis = check(&circuit)?;
        Ok(Self { circuit, analysis })
    }

    /// A circuit whose every node `fold` has releveled, in program order:
    /// the fold closed on its outputs.
    ///
    /// # Errors
    ///
    /// Everything [`Fold::finish`] reports.
    pub(crate) fn folded(circuit: HeCircuit, fold: Fold<'_>) -> Result<Self, CircuitError> {
        let analysis = fold.finish(&circuit.outputs)?;
        Ok(Self { circuit, analysis })
    }

    /// The circuit.
    pub fn circuit(&self) -> &HeCircuit {
        &self.circuit
    }

    /// Its analysis.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The circuit, its analysis dropped.
    pub fn into_circuit(self) -> HeCircuit {
        self.circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::passes::bootstrap_place::{place_markers, Placement};
    use bts_params::CkksInstance;
    use proptest::prelude::*;

    /// [`HeCircuit::validate`] as it was written before it shared its walk
    /// with [`analyze`].
    fn reference_validate(circuit: &HeCircuit) -> Result<(), CircuitError> {
        let max_level = circuit.instance.max_level();
        let mut defined: ValueTable<()> = ValueTable::for_circuit(circuit);
        for input in &circuit.inputs {
            if input.level > max_level {
                return Err(CircuitError::InvalidCircuit(format!(
                    "input v{} arrives at level {} beyond the budget L = {max_level}",
                    input.id, input.level
                )));
            }
            if defined.insert(input.id, ()).is_some() {
                return Err(CircuitError::InvalidCircuit(format!(
                    "input v{} defined twice",
                    input.id
                )));
            }
        }
        for node in &circuit.nodes {
            let (a, b) = node.instr.operands();
            if !defined.contains(a) {
                return Err(CircuitError::UnknownValue(a));
            }
            if let Some(b) = b {
                if !defined.contains(b) {
                    return Err(CircuitError::UnknownValue(b));
                }
            }
            if node.level > max_level {
                return Err(CircuitError::InvalidCircuit(format!(
                    "instruction defining v{} executes at level {} beyond the budget L = {max_level}",
                    node.result, node.level
                )));
            }
            if matches!(node.instr, HeInstr::Rescale { .. }) && node.level == 0 {
                return Err(CircuitError::InvalidCircuit(format!(
                    "rescale defining v{} executes at level 0 (nothing to drop)",
                    node.result
                )));
            }
            if defined.insert(node.result, ()).is_some() {
                return Err(CircuitError::InvalidCircuit(format!(
                    "value v{} defined twice",
                    node.result
                )));
            }
        }
        for &out in &circuit.outputs {
            if !defined.contains(out) {
                return Err(CircuitError::UnknownValue(out));
            }
        }
        Ok(())
    }

    /// Execution levels, then the facts of every input and node result in
    /// definition order: an analysis as the tests compare it.
    type Summary = (Vec<usize>, Vec<Option<ValueFacts>>);

    fn summary(
        circuit: &HeCircuit,
        exec_levels: Vec<usize>,
        facts: &ValueTable<ValueFacts>,
    ) -> Summary {
        let ids = circuit.inputs.iter().map(|input| input.id);
        let ids = ids.chain(circuit.nodes.iter().map(|node| node.result));
        (exec_levels, ids.map(|v| facts.get(v)).collect())
    }

    /// [`analyze`] as it was before its one walk: [`reference_validate`],
    /// then a second forward walk that stops at the first violation.
    fn reference_analyze(circuit: &HeCircuit) -> Result<Summary, CircuitError> {
        reference_validate(circuit)?;
        let mut facts = ValueTable::for_circuit(circuit);
        let mut exec_levels = Vec::new();
        for input in &circuit.inputs {
            let level = input.level;
            facts.insert(
                input.id,
                ValueFacts {
                    level,
                    scale_exp: 1,
                },
            );
        }
        for node in &circuit.nodes {
            let (exec, result) = transfer(node.instr, &circuit.instance, |v| facts.get(v))?;
            exec_levels.push(exec);
            facts.insert(node.result, result);
        }
        Ok(summary(circuit, exec_levels, &facts))
    }

    /// A random builder program over a growing pool of values, then each
    /// `(kind, at)` corruption applied to it: an undefined operand or
    /// output, a duplicate id, a level beyond L (of a node or an input), a
    /// rescale recorded at level 0, an input dropped to level 0 (its
    /// rescales run out of levels), an addition of values at unrelated
    /// scales, or a bootstrap of a value at any scale.
    fn corrupted(codes: &[u32], corruptions: &[(u32, u32)]) -> HeCircuit {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let mut values = vec![b.input(), b.input_at(3)];
        for &code in codes {
            let pick = |shift: u32| values[(code >> shift) as usize % values.len()];
            let (x, y) = (pick(4), pick(12));
            let made = match code % 6 {
                0 => b.hmult(x, y),
                1 => b.rescale(x),
                2 => b.hrot(x, 1 + i64::from(code >> 20) % 4),
                3 => b.pmult(x, 0.5),
                4 => b.hadd(x, y),
                _ => b.cadd(x, 0.25),
            };
            values.extend(made.ok());
        }
        b.output(values[values.len() - 1]);
        let mut c = b.build();
        let top = ins.max_level();
        for &(kind, at) in corruptions {
            let (n, k) = (c.nodes.len(), at as usize % c.inputs.len());
            let i = at as usize % n.max(1);
            let earlier = if i == 0 {
                c.inputs[k].id
            } else {
                c.nodes[(at as usize / 7) % i].result
            };
            match (kind % 9, n) {
                (0, 1..) => c.nodes[i].instr = c.nodes[i].instr.map_operands(|_| 9_999),
                (1, _) => c.outputs.push(10_000 + at),
                (2, 1..) => c.nodes[i].result = earlier,
                (3, 1..) => c.nodes[i].level = top + 1 + at as usize % 3,
                (4, _) => c.inputs[k].level = top + 1,
                (5, 1..) => {
                    let a = c.nodes[i].instr.operands().0;
                    c.nodes[i].instr = HeInstr::Rescale { a };
                    c.nodes[i].level = 0;
                }
                (6, _) => c.inputs[k].level = 0,
                (7, 1..) => {
                    let a = c.nodes[i].instr.operands().0;
                    c.nodes[i].instr = HeInstr::HAdd { a, b: earlier };
                }
                (8, 1..) => {
                    let a = c.nodes[i].instr.operands().0;
                    c.nodes[i].instr = HeInstr::Bootstrap { a };
                }
                _ => {}
            }
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one walk answers as validation followed by the old walk did:
        /// the same facts and execution levels on a clean circuit, the same
        /// error — validation's winning wherever it lies — on a corrupted
        /// one; and `validate` answers as it always did.
        #[test]
        fn one_walk_analyze_equals_validate_then_the_old_walk(
            len in 1usize..40,
            codes in proptest::collection::vec(any::<u32>(), 40),
            count in 0usize..4,
            raw in proptest::collection::vec(any::<u32>(), 8),
        ) {
            let corruptions: Vec<(u32, u32)> =
                raw.chunks(2).take(count).map(|pair| (pair[0], pair[1])).collect();
            let circuit = corrupted(&codes[..len], &corruptions);
            prop_assert_eq!(circuit.validate(), reference_validate(&circuit));
            let ours = analyze(&circuit).map(|a| summary(&circuit, a.exec_levels.clone(), &a.facts));
            prop_assert_eq!(ours, reference_analyze(&circuit));
        }

        /// The marker rebuild's fold is `relevel` of what it rebuilds: with
        /// every marker kept, the same levels, facts and error — a defect
        /// winning over an earlier violation — as releveling the circuit.
        #[test]
        fn the_rebuild_fold_equals_relevel(
            len in 1usize..40,
            codes in proptest::collection::vec(any::<u32>(), 40),
            count in 0usize..4,
            raw in proptest::collection::vec(any::<u32>(), 8),
        ) {
            let corruptions: Vec<(u32, u32)> =
                raw.chunks(2).take(count).map(|pair| (pair[0], pair[1])).collect();
            let circuit = corrupted(&codes[..len], &corruptions);
            let ours = place_markers(&circuit, |_, _, _| Placement::Keep).map(|placed| {
                let a = placed.analysis();
                let summary = summary(placed.circuit(), a.exec_levels.clone(), &a.facts);
                (placed.circuit().nodes.clone(), summary)
            });
            let mut releveled = circuit.clone();
            let want = relevel(&mut releveled).map(|a| {
                let summary = summary(&releveled, a.exec_levels.clone(), &a.facts);
                (releveled.nodes.clone(), summary)
            });
            prop_assert_eq!(ours, want);
        }
    }

    #[test]
    fn a_validation_defect_wins_over_an_earlier_violation() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let p = b.hmult(x, x).unwrap();
        b.output(p);
        let mut circuit = b.build();
        // A scale mismatch at node 1, a dangling output after it.
        circuit.nodes.push(HeInstrNode {
            instr: HeInstr::HAdd { a: p, b: x },
            result: 2,
            level: 6,
        });
        assert!(matches!(
            analyze(&circuit),
            Err(CircuitError::ScaleMismatch { .. })
        ));
        circuit.outputs.push(77);
        assert!(matches!(
            analyze(&circuit),
            Err(CircuitError::UnknownValue(77))
        ));
    }

    #[test]
    fn builder_output_passes_check() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let r = b.hrot(x, 3).unwrap();
        let m = b.pmult(r, 0.5).unwrap();
        let m2 = b.pmult(x, 0.5).unwrap();
        let s = b.hadd(m, m2).unwrap();
        let s = b.rescale(s).unwrap();
        b.output(s);
        let circuit = b.build();
        let analysis = check(&circuit).unwrap();
        assert_eq!(analysis.of(s).level, 5);
        assert_eq!(analysis.of(s).scale_exp, 1);
    }

    #[test]
    fn check_rejects_tampered_levels() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let r = b.hrot(x, 1).unwrap();
        b.output(r);
        let mut circuit = b.build();
        circuit.nodes[0].level = 3; // dataflow says 6
        assert!(check(&circuit).is_err());
        // relevel repairs it.
        relevel(&mut circuit).unwrap();
        assert!(check(&circuit).is_ok());
    }

    #[test]
    fn analyze_rejects_scale_mismatched_adds() {
        // Hand-built: add a Δ^2 product to a Δ^1 input.
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let p = b.hmult(x, x).unwrap();
        b.output(p);
        let mut circuit = b.build();
        circuit.nodes.push(crate::ir::HeInstrNode {
            instr: HeInstr::HAdd { a: p, b: x },
            result: 2,
            level: 6,
        });
        assert!(matches!(
            analyze(&circuit),
            Err(CircuitError::ScaleMismatch { .. })
        ));
    }
}
