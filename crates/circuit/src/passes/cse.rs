//! Common-subexpression elimination. FHE application circuits are built from
//! repeated structural shapes — BSGS linear transforms re-rotate the same
//! ciphertext by the same amounts, polynomial evaluations square the same
//! value once per term — so syntactically identical instructions abound. CKKS
//! primitive ops are deterministic functions of their operands (only
//! encryption and bootstrapping touch randomness), which makes merging
//! duplicates semantics-preserving down to the bit: the second `HMult(x, x)`
//! produces a ciphertext identical to the first. Every merged `HMult`, `HRot`
//! or `Conjugate` removes one key-switch — the op class the paper attributes
//! 92–96% of simulated time to.
//!
//! Representatives live in a [`ValueTable`]; the value numbers in one
//! [`FixedMap`] sized for the whole circuit up front, so the scan neither
//! rehashes as it grows nor runs SipHash per instruction. The pass only
//! looks keys up, so its output does not depend on the hasher.

use std::collections::hash_map::Entry;

use crate::error::CircuitError;
use crate::ir::{HeCircuit, HeInstr, HeInstrNode, ValueId};
use crate::passes::{Analyzed, Pass};
use crate::value_table::{FixedMap, ValueTable};

/// Hashable canonical form of a pure instruction. Commutative ops (`HMult`,
/// `HAdd` — exact modular arithmetic, so operand order is immaterial even
/// bitwise) are keyed with sorted operands; plaintext constants are keyed by
/// their IEEE-754 bit pattern so `0.0 != -0.0` and NaNs never merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ExprKey {
    HMult(ValueId, ValueId),
    HRot(ValueId, i64),
    Conjugate(ValueId),
    PMult(ValueId, u64),
    PAdd(ValueId, u64),
    HAdd(ValueId, ValueId),
    Rescale(ValueId),
    CMult(ValueId, u64),
    CAdd(ValueId, u64),
    ModRaise(ValueId),
}

fn key_of(instr: &HeInstr) -> Option<ExprKey> {
    Some(match *instr {
        HeInstr::HMult { a, b } => ExprKey::HMult(a.min(b), a.max(b)),
        HeInstr::HAdd { a, b } => ExprKey::HAdd(a.min(b), a.max(b)),
        HeInstr::HRot { a, rotation } => ExprKey::HRot(a, rotation),
        HeInstr::Conjugate { a } => ExprKey::Conjugate(a),
        HeInstr::PMult { a, value } => ExprKey::PMult(a, value.to_bits()),
        HeInstr::PAdd { a, value } => ExprKey::PAdd(a, value.to_bits()),
        HeInstr::Rescale { a } => ExprKey::Rescale(a),
        HeInstr::CMult { a, value } => ExprKey::CMult(a, value.to_bits()),
        HeInstr::CAdd { a, value } => ExprKey::CAdd(a, value.to_bits()),
        HeInstr::ModRaise { a } => ExprKey::ModRaise(a),
        // A bootstrap re-encrypts: merging two refreshes of the same value
        // would change the executor's randomness stream, so markers are
        // never value-numbered.
        HeInstr::Bootstrap { .. } => return None,
    })
}

/// Value-numbering CSE over all pure deterministic instructions.
///
/// One forward scan: each instruction is first rewritten to use the
/// representative of every operand (so duplicate subtrees merge bottom-up),
/// then looked up in the value-number table. A hit retires the instruction
/// and records a new representative; a miss keeps it. Levels need no repair:
/// a merged duplicate had identical operands, hence an identical execution
/// level.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommonSubexprPass;

impl Pass for CommonSubexprPass {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, input: &Analyzed) -> Result<Analyzed, CircuitError> {
        let circuit = input.circuit();
        let mut repr: ValueTable<ValueId> = ValueTable::for_circuit(circuit);
        let mut table: FixedMap<ExprKey, ValueId> =
            FixedMap::with_capacity_and_hasher(circuit.nodes.len(), Default::default());
        let mut nodes: Vec<HeInstrNode> = Vec::with_capacity(circuit.nodes.len());
        for node in &circuit.nodes {
            let instr = node.instr.map_operands(|v| repr.resolve(v));
            if let Some(key) = key_of(&instr) {
                match table.entry(key) {
                    Entry::Occupied(existing) => {
                        repr.insert(node.result, *existing.get());
                        continue;
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(node.result);
                    }
                }
            }
            nodes.push(HeInstrNode { instr, ..*node });
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
    use crate::passes::run_on;
    use bts_params::CkksInstance;
    use bts_sim::HeOp;

    #[test]
    fn duplicate_rotations_and_squares_merge() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let r1 = b.hrot(x, 3).unwrap();
        let r2 = b.hrot(x, 3).unwrap(); // duplicate rotation
        let s = b.hadd(r1, r2).unwrap();
        let p1 = b.hmult(s, s).unwrap();
        let p2 = b.hmult(s, s).unwrap(); // duplicate square
        let t = b.hadd(p1, p2).unwrap();
        b.output(t);
        let circuit = b.build();

        let out = run_on(&CommonSubexprPass, &circuit).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.op_counts()[&HeOp::HRot], 1);
        assert_eq!(out.op_counts()[&HeOp::HMult], 1);
        // hadd(r, r) and hadd(p, p) survive — distinct from the originals.
        assert_eq!(out.op_counts()[&HeOp::HAdd], 2);
        crate::passes::analysis::check(&out).unwrap();
    }

    #[test]
    fn commutative_mults_merge_across_operand_order() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let y = b.input();
        let p1 = b.hmult(x, y).unwrap();
        let p2 = b.hmult(y, x).unwrap();
        let s = b.hadd(p1, p2).unwrap();
        b.output(s);
        let out = run_on(&CommonSubexprPass, &b.build()).unwrap();
        assert_eq!(out.op_counts()[&HeOp::HMult], 1);
    }

    #[test]
    fn distinct_constants_do_not_merge() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        b.pmult(x, 0.5).unwrap();
        b.pmult(x, 0.25).unwrap();
        let circuit = b.build();
        let out = run_on(&CommonSubexprPass, &circuit).unwrap();
        assert_eq!(out.op_counts()[&HeOp::PMult], 2);
    }

    #[test]
    fn bootstraps_are_never_merged() {
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input_at(0);
        let r1 = b.bootstrap(x).unwrap();
        let r2 = b.bootstrap(x).unwrap();
        let s = b.hadd(r1, r2).unwrap();
        b.output(s);
        let out = run_on(&CommonSubexprPass, &b.build()).unwrap();
        assert_eq!(out.bootstrap_count(), 2);
    }
}
