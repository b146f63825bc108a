use std::collections::{BTreeMap, BTreeSet};

use bts_params::CkksInstance;
use bts_sim::HeOp;

use crate::error::CircuitError;
use crate::value_table::ValueTable;

/// SSA-style identifier of a ciphertext value flowing through a circuit.
/// Inputs and instruction results share one id space; every instruction
/// defines exactly one new value.
pub type ValueId = u32;

/// One homomorphic instruction of the shared IR, at the op granularity the
/// paper's evaluation uses (§2.3). Plaintext operands are splat constants
/// (every slot holds the same real value) — enough to express the synthetic
/// masks and diagonal multiplications of the evaluation workloads while
/// keeping the IR self-contained for functional execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeInstr {
    /// Ciphertext–ciphertext multiplication (tensor product + key-switching).
    HMult {
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
    },
    /// Slot rotation (automorphism + key-switching).
    HRot {
        /// Operand.
        a: ValueId,
        /// Rotation amount (number of slots, signed).
        rotation: i64,
    },
    /// Complex conjugation (automorphism + key-switching).
    Conjugate {
        /// Operand.
        a: ValueId,
    },
    /// Ciphertext–plaintext multiplication by a splat constant encoded at the
    /// context scale.
    PMult {
        /// Operand.
        a: ValueId,
        /// The plaintext value replicated across every slot.
        value: f64,
    },
    /// Ciphertext–plaintext addition of a splat constant.
    PAdd {
        /// Operand.
        a: ValueId,
        /// The plaintext value replicated across every slot.
        value: f64,
    },
    /// Ciphertext–ciphertext addition.
    HAdd {
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
    },
    /// Rescaling: drop the last prime, consuming one level.
    Rescale {
        /// Operand.
        a: ValueId,
    },
    /// Ciphertext–scalar multiplication.
    CMult {
        /// Operand.
        a: ValueId,
        /// The scalar.
        value: f64,
    },
    /// Ciphertext–scalar addition.
    CAdd {
        /// Operand.
        a: ValueId,
        /// The scalar.
        value: f64,
    },
    /// Modulus raise to the top of the chain (start of bootstrapping).
    ModRaise {
        /// Operand.
        a: ValueId,
    },
    /// Bootstrap marker: refresh the value back to the instance's usable top
    /// level. Backends expand it — the trace backend into the full
    /// ModRaise → CoeffToSlot → EvalMod → SlotToCoeff op sequence of a
    /// [`crate::BootstrapPlan`], the functional backend into an oracle
    /// refresh (decrypt, re-encode at the top usable level, re-encrypt).
    Bootstrap {
        /// Operand.
        a: ValueId,
    },
}

impl HeInstr {
    /// The primitive op class this instruction lowers to in a trace, or
    /// `None` for [`HeInstr::Bootstrap`] markers (which expand to many ops).
    pub fn op_class(&self) -> Option<HeOp> {
        Some(match self {
            HeInstr::HMult { .. } => HeOp::HMult,
            HeInstr::HRot { .. } => HeOp::HRot,
            HeInstr::Conjugate { .. } => HeOp::Conjugate,
            HeInstr::PMult { .. } => HeOp::PMult,
            HeInstr::PAdd { .. } => HeOp::PAdd,
            HeInstr::HAdd { .. } => HeOp::HAdd,
            HeInstr::Rescale { .. } => HeOp::HRescale,
            HeInstr::CMult { .. } => HeOp::CMult,
            HeInstr::CAdd { .. } => HeOp::CAdd,
            HeInstr::ModRaise { .. } => HeOp::ModRaise,
            HeInstr::Bootstrap { .. } => return None,
        })
    }

    /// The value ids this instruction consumes.
    pub fn operands(&self) -> (ValueId, Option<ValueId>) {
        match *self {
            HeInstr::HMult { a, b } | HeInstr::HAdd { a, b } => (a, Some(b)),
            HeInstr::HRot { a, .. }
            | HeInstr::Conjugate { a }
            | HeInstr::PMult { a, .. }
            | HeInstr::PAdd { a, .. }
            | HeInstr::Rescale { a }
            | HeInstr::CMult { a, .. }
            | HeInstr::CAdd { a, .. }
            | HeInstr::ModRaise { a }
            | HeInstr::Bootstrap { a } => (a, None),
        }
    }

    /// The operand slots in order, one item per slot (`x + x` yields `x`
    /// twice).
    pub(crate) fn operand_slots(&self) -> impl Iterator<Item = ValueId> {
        let (a, b) = self.operands();
        [Some(a), b].into_iter().flatten()
    }

    /// The same instruction with every operand replaced by `f(operand)`:
    /// the one rewriter every pass that redirects uses goes through.
    pub fn map_operands(self, f: impl Fn(ValueId) -> ValueId) -> HeInstr {
        match self {
            HeInstr::HMult { a, b } => HeInstr::HMult { a: f(a), b: f(b) },
            HeInstr::HAdd { a, b } => HeInstr::HAdd { a: f(a), b: f(b) },
            HeInstr::HRot { a, rotation } => HeInstr::HRot { a: f(a), rotation },
            HeInstr::Conjugate { a } => HeInstr::Conjugate { a: f(a) },
            HeInstr::PMult { a, value } => HeInstr::PMult { a: f(a), value },
            HeInstr::PAdd { a, value } => HeInstr::PAdd { a: f(a), value },
            HeInstr::Rescale { a } => HeInstr::Rescale { a: f(a) },
            HeInstr::CMult { a, value } => HeInstr::CMult { a: f(a), value },
            HeInstr::CAdd { a, value } => HeInstr::CAdd { a: f(a), value },
            HeInstr::ModRaise { a } => HeInstr::ModRaise { a: f(a) },
            HeInstr::Bootstrap { a } => HeInstr::Bootstrap { a: f(a) },
        }
    }
}

/// A circuit input: a fresh ciphertext arriving from the host at some level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitInput {
    /// The value id the input defines.
    pub id: ValueId,
    /// The level the ciphertext arrives at.
    pub level: usize,
}

/// One scheduled instruction plus its SSA result and execution level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeInstrNode {
    /// The instruction.
    pub instr: HeInstr,
    /// The value this instruction defines.
    pub result: ValueId,
    /// Ciphertext level at which the op executes (for [`HeInstr::Rescale`]
    /// the *input* level; the result sits one level lower; for
    /// [`HeInstr::Bootstrap`] the exhausted input level).
    pub level: usize,
}

/// A homomorphic circuit in SSA form: the single program representation that
/// both the functional CKKS backend and the accelerator cost backend execute,
/// so op counts and bootstrap placement cannot drift between them.
#[derive(Debug, Clone, PartialEq)]
pub struct HeCircuit {
    /// The CKKS instance the circuit was built against (levels and bootstrap
    /// placement depend on its budget).
    pub instance: CkksInstance,
    /// Fresh ciphertext inputs.
    pub inputs: Vec<CircuitInput>,
    /// Instructions in program order.
    pub nodes: Vec<HeInstrNode>,
    /// Values to return (decrypt) after execution.
    pub outputs: Vec<ValueId>,
}

impl HeCircuit {
    /// Number of instructions (bootstrap markers count as one).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of bootstrap markers.
    pub fn bootstrap_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.instr, HeInstr::Bootstrap { .. }))
            .count()
    }

    /// Per-op-class instruction counts, excluding bootstrap markers (which
    /// have no single op class). This is the quantity the equivalence tests
    /// compare against what each backend actually executed.
    pub fn op_counts(&self) -> BTreeMap<HeOp, usize> {
        let mut counts = BTreeMap::new();
        for node in &self.nodes {
            if let Some(op) = node.instr.op_class() {
                *counts.entry(op).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The distinct non-zero rotation amounts the circuit uses (the rotation
    /// keys an executor must provision), in ascending order. Bootstrap
    /// markers contribute nothing here; backends that expand them account for
    /// the plan's keys separately.
    pub fn rotations(&self) -> Vec<i64> {
        let set: BTreeSet<i64> = self
            .nodes
            .iter()
            .filter_map(|n| match n.instr {
                HeInstr::HRot { rotation, .. } if rotation != 0 => Some(rotation),
                _ => None,
            })
            .collect();
        set.into_iter().collect()
    }

    /// Checks SSA well-formedness: every operand is defined (by an input or
    /// an earlier instruction) before use, result ids are unique, levels stay
    /// within the instance budget, and outputs reference defined values.
    ///
    /// # Errors
    ///
    /// Returns the first defect found, in program order.
    pub fn validate(&self) -> Result<(), CircuitError> {
        let mut defined = ValueTable::for_circuit(self);
        self.define_inputs(&mut defined, |_| ())?;
        let max_level = self.instance.max_level();
        for node in &self.nodes {
            define_node(max_level, &mut defined, node, |_, _| ())?;
        }
        check_outputs(&defined, &self.outputs)
    }

    /// The first step of [`HeCircuit::validate`]'s walk, shared with
    /// [`crate::passes::analysis::analyze`]'s: checks the inputs, entering
    /// each in `defined` with the entry `input` gives it. [`define_node`]
    /// takes each node in program order, then [`check_outputs`] the outputs.
    ///
    /// # Errors
    ///
    /// Returns the first defect found, in input order.
    pub(crate) fn define_inputs<T: Copy>(
        &self,
        defined: &mut ValueTable<T>,
        mut input: impl FnMut(&CircuitInput) -> T,
    ) -> Result<(), CircuitError> {
        let max_level = self.instance.max_level();
        for entry in &self.inputs {
            if entry.level > max_level {
                return Err(CircuitError::InvalidCircuit(format!(
                    "input v{} arrives at level {} beyond the budget L = {max_level}",
                    entry.id, entry.level
                )));
            }
            if defined.insert(entry.id, input(entry)).is_some() {
                return Err(CircuitError::InvalidCircuit(format!(
                    "input v{} defined twice",
                    entry.id
                )));
            }
        }
        Ok(())
    }
}

/// One node of [`HeCircuit::validate`]'s walk on a circuit of budget
/// `max_level`: checks that its operands are in `defined` and its recorded
/// level is in range, then enters its result with the entry `node` gives it
/// (`node` is called once the operands are known defined, before the result
/// is entered).
///
/// # Errors
///
/// The node's first defect.
pub(crate) fn define_node<T: Copy>(
    max_level: usize,
    defined: &mut ValueTable<T>,
    entry: &HeInstrNode,
    node: impl FnOnce(&HeInstrNode, &ValueTable<T>) -> T,
) -> Result<(), CircuitError> {
    let (a, b) = entry.instr.operands();
    if !defined.contains(a) {
        return Err(CircuitError::UnknownValue(a));
    }
    if let Some(b) = b.filter(|&b| !defined.contains(b)) {
        return Err(CircuitError::UnknownValue(b));
    }
    if entry.level > max_level {
        return Err(CircuitError::InvalidCircuit(format!(
            "instruction defining v{} executes at level {} beyond the budget L = {max_level}",
            entry.result, entry.level
        )));
    }
    if matches!(entry.instr, HeInstr::Rescale { .. }) && entry.level == 0 {
        return Err(CircuitError::InvalidCircuit(format!(
            "rescale defining v{} executes at level 0 (nothing to drop)",
            entry.result
        )));
    }
    let value = node(entry, defined);
    if defined.insert(entry.result, value).is_some() {
        return Err(CircuitError::InvalidCircuit(format!(
            "value v{} defined twice",
            entry.result
        )));
    }
    Ok(())
}

/// The last step of [`HeCircuit::validate`]'s walk: every output is in
/// `defined`.
///
/// # Errors
///
/// [`CircuitError::UnknownValue`] for the first output that is not.
pub(crate) fn check_outputs<T: Copy>(
    defined: &ValueTable<T>,
    outputs: &[ValueId],
) -> Result<(), CircuitError> {
    match outputs.iter().find(|&&out| !defined.contains(out)) {
        Some(&out) => Err(CircuitError::UnknownValue(out)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_hand_built_rescale_at_level_zero() {
        // HeCircuit fields are public, so circuits can bypass the builder's
        // invariants; validate() must still refuse a level-0 rescale (both
        // backends dereference `level - 1` for the result level).
        let circuit = HeCircuit {
            instance: CkksInstance::toy(10, 4, 2),
            inputs: vec![CircuitInput { id: 0, level: 1 }],
            nodes: vec![HeInstrNode {
                instr: HeInstr::Rescale { a: 0 },
                result: 1,
                level: 0,
            }],
            outputs: vec![1],
        };
        assert!(matches!(
            circuit.validate(),
            Err(CircuitError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn validate_answers_sparse_and_huge_ids_without_allocating_for_them() {
        // Ids are only compact by convention. A hand-built circuit numbering
        // a value u32::MAX must get the answer a hash set would give — from a
        // table that never grows toward the id.
        let ins = CkksInstance::toy(10, 4, 2);
        let sparse = HeCircuit {
            instance: ins.clone(),
            inputs: vec![CircuitInput {
                id: 1_000_000,
                level: 2,
            }],
            nodes: vec![
                HeInstrNode {
                    instr: HeInstr::CAdd {
                        a: 1_000_000,
                        value: 0.5,
                    },
                    result: u32::MAX,
                    level: 2,
                },
                HeInstrNode {
                    instr: HeInstr::HAdd {
                        a: u32::MAX,
                        b: 1_000_000,
                    },
                    result: 7,
                    level: 2,
                },
            ],
            outputs: vec![7, u32::MAX],
        };
        assert_eq!(sparse.validate(), Ok(()));

        let mut dangling = sparse.clone();
        dangling.outputs = vec![u32::MAX - 1];
        assert_eq!(
            dangling.validate(),
            Err(CircuitError::UnknownValue(u32::MAX - 1))
        );

        let mut duplicate = sparse;
        duplicate.nodes[1].result = u32::MAX;
        assert!(matches!(
            duplicate.validate(),
            Err(CircuitError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn validate_rejects_dangling_operands_and_duplicate_definitions() {
        let ins = CkksInstance::toy(10, 4, 2);
        let dangling = HeCircuit {
            instance: ins.clone(),
            inputs: vec![],
            nodes: vec![HeInstrNode {
                instr: HeInstr::CAdd { a: 7, value: 0.5 },
                result: 8,
                level: 2,
            }],
            outputs: vec![8],
        };
        assert_eq!(dangling.validate(), Err(CircuitError::UnknownValue(7)));

        let duplicate = HeCircuit {
            instance: ins,
            inputs: vec![CircuitInput { id: 0, level: 2 }],
            nodes: vec![HeInstrNode {
                instr: HeInstr::CAdd { a: 0, value: 0.5 },
                result: 0,
                level: 2,
            }],
            outputs: vec![0],
        };
        assert!(matches!(
            duplicate.validate(),
            Err(CircuitError::InvalidCircuit(_))
        ));
    }
}
