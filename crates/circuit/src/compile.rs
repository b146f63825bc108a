//! The circuit compiler: lowers a (typically pass-optimized) [`HeCircuit`]
//! to flat [`CompiledCircuit`] bytecode, the one program form a backend
//! executes. The work done once here — operand resolution, constant/rotation
//! pooling, last-use analysis and linear-scan register allocation with a
//! free list — is work an executor would otherwise redo per instruction
//! through a `HashMap` environment, so the backends run the evaluator calls
//! with none of the dispatch.
//!
//! The compiler itself hashes no value id: last uses, registers and outputs
//! are [`ValueTable`]s, a rotation's pool index is a binary search on the
//! sorted pool, and constants are pooled through a [`FixedMap`] on their bit
//! patterns.

use crate::bytecode::{CompiledCircuit, CompiledInput, CompiledOp, Opcode, RegId};
use crate::error::CircuitError;
use crate::ir::{HeCircuit, HeInstr};
use crate::value_table::{FixedMap, ValueTable};

/// Compiles a circuit to schedule bytecode.
///
/// The emitted program preserves instruction order exactly (the IR is already
/// scheduled), so a trace lowered from the bytecode is identical to one
/// lowered by walking the IR, and a functional execution consumes the same
/// randomness stream — the bit-equivalence the integration tests hold
/// against the SSA-walking oracle in `tests/common/ssa_oracle.rs`.
///
/// # Errors
///
/// Fails on an invalid source circuit. The bytecode is checked by the
/// backend that runs it, so a compiler bug is an error there, not a panic.
pub fn compile(circuit: &HeCircuit) -> Result<CompiledCircuit, CircuitError> {
    circuit.validate().map(|()| emit(circuit))
}

/// [`compile`]'s body, on a circuit known to validate.
pub(crate) fn emit(circuit: &HeCircuit) -> CompiledCircuit {
    let _span = bts_telemetry::span("circuit.compile");
    let outputs = ValueTable::outputs_of(circuit);

    // Last use of every value, in node index space.
    let mut last_use: ValueTable<usize> = ValueTable::for_circuit(circuit);
    for (i, node) in circuit.nodes.iter().enumerate() {
        let (a, b) = node.instr.operands();
        last_use.insert(a, i);
        if let Some(b) = b {
            last_use.insert(b, i);
        }
    }

    // Pools. Rotations are pooled sorted-ascending so the non-zero subset
    // (the keys to provision) matches `HeCircuit::rotations` order exactly.
    let rotations = || {
        circuit.nodes.iter().filter_map(|node| match node.instr {
            HeInstr::HRot { rotation, .. } => Some(rotation),
            _ => None,
        })
    };
    let mut rotation_pool: Vec<i64> = Vec::with_capacity(rotations().count());
    rotation_pool.extend(rotations());
    rotation_pool.sort_unstable();
    rotation_pool.dedup();
    let rotation_index = |rotation: i64| -> u32 {
        rotation_pool
            .binary_search(&rotation)
            .expect("every rotation is pooled") as u32
    };
    let mut consts: Vec<f64> = Vec::new();
    let mut const_index: FixedMap<u64, u32> = FixedMap::default();
    let mut intern = |value: f64| -> u32 {
        *const_index.entry(value.to_bits()).or_insert_with(|| {
            consts.push(value);
            (consts.len() - 1) as u32
        })
    };

    // Linear-scan register allocation over the already-scheduled program.
    let mut reg_of: ValueTable<RegId> = ValueTable::for_circuit(circuit);
    let mut free: Vec<RegId> = Vec::new();
    let mut reg_count: RegId = 0;
    let mut alloc = |free: &mut Vec<RegId>| -> RegId {
        free.pop().unwrap_or_else(|| {
            reg_count += 1;
            reg_count - 1
        })
    };
    let reg = |reg_of: &ValueTable<RegId>, v| {
        reg_of
            .get(v)
            .expect("a validated circuit defines every value before reading it")
    };

    let mut inputs = Vec::with_capacity(circuit.inputs.len());
    for input in &circuit.inputs {
        let reg = alloc(&mut free);
        reg_of.insert(input.id, reg);
        inputs.push(CompiledInput {
            reg,
            level: input.level,
        });
    }

    let mut ops = Vec::with_capacity(circuit.nodes.len());
    for (i, node) in circuit.nodes.iter().enumerate() {
        let (a, b) = node.instr.operands();
        let ra = reg(&reg_of, a);
        let rb = b.map(|b| reg(&reg_of, b));
        let dies = |v| last_use.get(v) == Some(i) && !outputs.contains(v);
        let free_a = dies(a);
        let free_b = match b {
            Some(b) if b != a => dies(b),
            _ => false, // a == b frees the shared register once, via free_a
        };
        let (opcode, imm) = match node.instr {
            HeInstr::HMult { .. } => (Opcode::HMult, 0),
            HeInstr::HAdd { .. } => (Opcode::HAdd, 0),
            HeInstr::HRot { rotation, .. } => (Opcode::HRot, rotation_index(rotation)),
            HeInstr::Conjugate { .. } => (Opcode::Conjugate, 0),
            HeInstr::PMult { value, .. } => (Opcode::PMult, intern(value)),
            HeInstr::PAdd { value, .. } => (Opcode::PAdd, intern(value)),
            HeInstr::Rescale { .. } => (Opcode::Rescale, 0),
            HeInstr::CMult { value, .. } => (Opcode::CMult, intern(value)),
            HeInstr::CAdd { value, .. } => (Opcode::CAdd, intern(value)),
            HeInstr::ModRaise { .. } => (Opcode::ModRaise, 0),
            HeInstr::Bootstrap { .. } => (Opcode::Bootstrap, 0),
        };
        // Return dead registers before allocating the destination so results
        // can land in-place over a dying operand.
        if free_a {
            free.push(ra);
        }
        if free_b {
            free.push(rb.expect("free_b only set for binary ops"));
        }
        let dst = alloc(&mut free);
        reg_of.insert(node.result, dst);
        ops.push(CompiledOp {
            opcode,
            dst,
            a: ra,
            b: rb.unwrap_or(0),
            imm,
            level: node.level,
            free_a,
            free_b,
        });
    }

    CompiledCircuit {
        instance: circuit.instance.clone(),
        inputs,
        ops,
        outputs: circuit.outputs.iter().map(|&v| reg(&reg_of, v)).collect(),
        consts,
        rotations: rotation_pool,
        reg_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::ir::ValueId;
    use bts_params::CkksInstance;
    use bts_sim::HeOp;

    #[test]
    fn registers_are_recycled_and_pools_dedup() {
        let ins = CkksInstance::toy(10, 8, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let mut cur = x;
        for r in [3i64, 5, 3, 5] {
            let rot = b.hrot(cur, r).unwrap();
            let m = b.pmult(rot, 0.5).unwrap();
            let s = b.hadd(m, m).unwrap();
            let sq = b.hmult(s, s).unwrap();
            cur = b.rescale(sq).unwrap();
        }
        b.output(cur);
        let circuit = b.build();
        let compiled = compile(&circuit).unwrap();
        compiled.validate().unwrap();
        assert_eq!(compiled.rotations, vec![3, 5]);
        assert_eq!(compiled.consts, vec![0.5]);
        let keyed: Vec<i64> = compiled
            .rotations
            .iter()
            .copied()
            .filter(|&r| r != 0)
            .collect();
        assert_eq!(keyed, circuit.rotations());
        assert_eq!(compiled.op_counts(), circuit.op_counts());
        // A straight-line chain should run in a handful of registers, not
        // one per instruction.
        assert!(
            compiled.reg_count <= 4,
            "expected a small register file, got {}",
            compiled.reg_count
        );
        assert!(compiled.len() == circuit.len());
    }

    #[test]
    fn output_registers_are_never_freed() {
        let ins = CkksInstance::toy(10, 8, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let mid = b.hrot(x, 1).unwrap();
        let end = b.cadd(mid, 0.25).unwrap();
        b.output(mid); // mid stays live past its last use
        b.output(end);
        let compiled = compile(&b.build()).unwrap();
        compiled.validate().unwrap();
        assert_eq!(compiled.outputs.len(), 2);
        // Registers are recycled, so an output *register id* may have been
        // freed earlier while holding a different value. The invariant is
        // temporal: after the write that defines an output, nothing frees
        // that register.
        for &out_reg in &compiled.outputs {
            let last_write = compiled
                .ops
                .iter()
                .rposition(|op| op.dst == out_reg)
                .expect("outputs are produced by some op");
            for op in &compiled.ops[last_write + 1..] {
                assert!(!(op.free_a && op.a == out_reg));
                assert!(!(op.free_b && op.b == out_reg));
            }
        }
    }

    #[test]
    fn a_unary_op_freeing_a_second_operand_is_rejected_not_executed() {
        // Every field of the bytecode is public, so this is reachable input:
        // the unary HRot's `b` defaults to r0 — x's register, which the HAdd
        // after it still reads. Executors free `b` whenever the flag is set.
        let ins = CkksInstance::toy(10, 4, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let r = b.hrot(x, 1).unwrap();
        let s = b.hadd(r, x).unwrap();
        b.output(s);
        let mut compiled = compile(&b.build()).unwrap();
        assert_eq!(
            (compiled.ops[0].opcode, compiled.ops[0].b),
            (Opcode::HRot, 0)
        );
        compiled.ops[0].free_b = true;
        let invalid =
            |r: Result<(), CircuitError>| matches!(r, Err(CircuitError::InvalidCircuit(_)));
        assert!(invalid(compiled.validate()));
        let lowered = crate::TraceBackend::new().lower_compiled(&compiled);
        assert!(invalid(lowered.map(|_| ())));
        let run = crate::FunctionalBackend::new(&ins, 1)
            .unwrap()
            .execute_compiled(&compiled);
        assert!(invalid(run.map(|_| ())));
    }

    #[test]
    fn sparse_and_huge_ids_compile_to_the_compact_bytecode() {
        // Ids are compact by convention only (the fields are public): spread
        // them out, or number one value u32::MAX, and the tables spill — the
        // bytecode, which names no value id, must not change.
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let y = b.input();
        let cur = b.bootstrap(x).unwrap();
        let mut acc = b.pmult(cur, 0.5).unwrap();
        for r in [2, 1, 2] {
            let rot = b.hrot(cur, r).unwrap();
            let m = b.pmult(rot, 0.25).unwrap();
            acc = b.hadd(acc, m).unwrap();
        }
        let sq = b.hmult(acc, acc).unwrap();
        let out = b.rescale(sq).unwrap();
        let shifted = b.cadd(y, 0.5).unwrap();
        b.output(out);
        b.output(cur);
        b.output(shifted);
        let compact = b.build();
        let renumber = |f: &dyn Fn(ValueId) -> ValueId| {
            let mut c = compact.clone();
            for input in &mut c.inputs {
                input.id = f(input.id);
            }
            for node in &mut c.nodes {
                node.instr = node.instr.map_operands(f);
                node.result = f(node.result);
            }
            for out in &mut c.outputs {
                *out = f(*out);
            }
            c
        };
        let reference = compile(&compact).unwrap();
        let sparse = renumber(&|v| 1_000_000 + 999_983 * v);
        assert_eq!(compile(&sparse).unwrap(), reference);
        let huge = renumber(&|v| if v == out { u32::MAX } else { v });
        assert_eq!(huge.validate(), Ok(()));
        assert_eq!(compile(&huge).unwrap(), reference);
    }

    #[test]
    fn a_register_file_larger_than_the_program_is_refused_before_allocating() {
        // `reg_count` is public and every executor sizes a register file from
        // it: u32::MAX would be gigabytes of registers, an abort rather than
        // an error.
        let ins = CkksInstance::toy(10, 4, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let r = b.hrot(x, 1).unwrap();
        b.output(r);
        let mut compiled = compile(&b.build()).unwrap();
        assert!(compiled.reg_count as usize <= compiled.inputs.len() + compiled.ops.len());
        compiled.reg_count = u32::MAX;
        let invalid =
            |r: Result<(), CircuitError>| matches!(r, Err(CircuitError::InvalidCircuit(_)));
        assert!(invalid(compiled.validate()));
        let lowered = crate::TraceBackend::new().lower_compiled(&compiled);
        assert!(invalid(lowered.map(|_| ())));
        let run = crate::FunctionalBackend::new(&ins, 1)
            .unwrap()
            .execute_compiled(&compiled);
        assert!(invalid(run.map(|_| ())));
    }

    #[test]
    fn levels_carry_over_from_the_ir() {
        let ins = CkksInstance::toy(10, 8, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let p = b.hmult(x, x).unwrap();
        let r = b.rescale(p).unwrap();
        b.output(r);
        let compiled = compile(&b.build()).unwrap();
        assert_eq!(compiled.ops[0].level, 8);
        assert_eq!(compiled.ops[1].level, 8, "rescale records its input level");
        assert_eq!(compiled.op_counts()[&HeOp::HRescale], 1);
    }
}
