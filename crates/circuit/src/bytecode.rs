//! Flat "schedule bytecode" for optimized circuits — the
//! compiler/bytecode/VM split (as in simlin's engine) applied to the HE IR.
//! [`crate::compile`] turns an [`crate::HeCircuit`] into a
//! [`CompiledCircuit`]: a linear array of register-addressed ops with
//! constants and rotation amounts moved into pools and operand lifetimes
//! resolved to explicit free flags. Executors run it with a flat register
//! file — no per-op `HashMap` environment, no liveness bookkeeping — and
//! ciphertext memory is recycled the moment an operand dies, which on real
//! RNS ciphertexts (megabytes each at depth) is the difference between a
//! register file the size of the live set and one the size of the program.

use std::collections::BTreeMap;

use bts_params::CkksInstance;
use bts_sim::HeOp;

use crate::error::CircuitError;

/// Register index into an executor's ciphertext register file.
pub type RegId = u32;

/// Operation selector of one [`CompiledOp`]. Mirrors [`crate::HeInstr`] with
/// operands lifted out: values become registers, plaintext constants become
/// [`CompiledCircuit::consts`] indices, rotation amounts become
/// [`CompiledCircuit::rotations`] indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Ciphertext–ciphertext multiplication.
    HMult,
    /// Slot rotation; `imm` indexes the rotation pool.
    HRot,
    /// Complex conjugation.
    Conjugate,
    /// Plaintext multiplication; `imm` indexes the constant pool.
    PMult,
    /// Plaintext addition; `imm` indexes the constant pool.
    PAdd,
    /// Ciphertext–ciphertext addition.
    HAdd,
    /// Rescale (drop the last prime).
    Rescale,
    /// Scalar multiplication; `imm` indexes the constant pool.
    CMult,
    /// Scalar addition; `imm` indexes the constant pool.
    CAdd,
    /// Modulus raise to the top of the chain.
    ModRaise,
    /// Bootstrap marker (expanded by the executing backend).
    Bootstrap,
}

impl Opcode {
    /// The primitive op class, or `None` for bootstrap markers.
    pub fn op_class(self) -> Option<HeOp> {
        Some(match self {
            Opcode::HMult => HeOp::HMult,
            Opcode::HRot => HeOp::HRot,
            Opcode::Conjugate => HeOp::Conjugate,
            Opcode::PMult => HeOp::PMult,
            Opcode::PAdd => HeOp::PAdd,
            Opcode::HAdd => HeOp::HAdd,
            Opcode::Rescale => HeOp::HRescale,
            Opcode::CMult => HeOp::CMult,
            Opcode::CAdd => HeOp::CAdd,
            Opcode::ModRaise => HeOp::ModRaise,
            Opcode::Bootstrap => return None,
        })
    }

    /// Whether the op reads a second register operand.
    pub fn is_binary(self) -> bool {
        matches!(self, Opcode::HMult | Opcode::HAdd)
    }

    /// Whether `imm` indexes the constant pool.
    pub fn uses_const(self) -> bool {
        matches!(
            self,
            Opcode::PMult | Opcode::PAdd | Opcode::CMult | Opcode::CAdd
        )
    }
}

/// One bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledOp {
    /// Operation selector.
    pub opcode: Opcode,
    /// Destination register (may alias a freed operand register).
    pub dst: RegId,
    /// First operand register.
    pub a: RegId,
    /// Second operand register (binary ops only; 0 otherwise).
    pub b: RegId,
    /// Pool index: constants for plaintext/scalar ops, rotation amounts for
    /// `HRot`; 0 otherwise.
    pub imm: u32,
    /// Execution level (for `Rescale` the input level, as in the IR).
    pub level: usize,
    /// `a`'s register holds a dead value after this op and may be recycled.
    pub free_a: bool,
    /// `b`'s register holds a dead value after this op and may be recycled.
    pub free_b: bool,
}

/// A circuit input assigned to a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledInput {
    /// The register the freshly encrypted ciphertext lands in.
    pub reg: RegId,
    /// The level the ciphertext arrives at.
    pub level: usize,
}

/// A compiled circuit: the flat program both backends execute.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCircuit {
    /// The CKKS instance the source circuit targeted.
    pub instance: CkksInstance,
    /// Inputs in declaration order (the order executors must encrypt them in,
    /// to keep randomness streams aligned with the source circuit's).
    pub inputs: Vec<CompiledInput>,
    /// Instructions in program order.
    pub ops: Vec<CompiledOp>,
    /// Registers holding the circuit outputs after the last op.
    pub outputs: Vec<RegId>,
    /// Deduplicated plaintext/scalar constants.
    pub consts: Vec<f64>,
    /// Deduplicated rotation amounts, ascending. The non-zero subset equals
    /// [`crate::HeCircuit::rotations`] of the source circuit, so key
    /// provisioning (and with it the key-generation randomness stream)
    /// matches the source circuit's exactly.
    pub rotations: Vec<i64>,
    /// Size of the register file an executor must allocate.
    pub reg_count: u32,
}

impl CompiledCircuit {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of bootstrap markers.
    pub fn bootstrap_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| op.opcode == Opcode::Bootstrap)
            .count()
    }

    /// Per-op-class counts, excluding bootstrap markers — directly comparable
    /// to [`crate::HeCircuit::op_counts`] of the source circuit.
    pub fn op_counts(&self) -> BTreeMap<HeOp, usize> {
        let mut counts = BTreeMap::new();
        for op in &self.ops {
            if let Some(class) = op.opcode.op_class() {
                *counts.entry(class).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Structural validation: the register file is no larger than the
    /// values the program writes, every register is written before it is
    /// read, never read after being freed, only a binary op frees a second
    /// operand, pool indices are in bounds, and every output register holds
    /// a live value at program end.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidCircuit`] describing the first defect.
    pub fn validate(&self) -> Result<(), CircuitError> {
        let defect = |msg: String| Err(CircuitError::InvalidCircuit(msg));
        // Every register is first written by an input or an op, so a larger
        // file is never needed; refuse one before allocating it (the field
        // is public, and executors size their register files from it).
        let writes = self.inputs.len() + self.ops.len();
        if self.reg_count as usize > writes {
            return defect(format!(
                "{} registers for a program that writes {writes} values",
                self.reg_count
            ));
        }
        let mut live = vec![false; self.reg_count as usize];
        for (i, input) in self.inputs.iter().enumerate() {
            let Some(slot) = live.get_mut(input.reg as usize) else {
                return defect(format!("input {i} register r{} out of range", input.reg));
            };
            if *slot {
                return defect(format!("input {i} register r{} written twice", input.reg));
            }
            *slot = true;
        }
        for (i, op) in self.ops.iter().enumerate() {
            let read = |live: &[bool], r: RegId| -> Result<(), CircuitError> {
                match live.get(r as usize) {
                    Some(true) => Ok(()),
                    Some(false) => defect(format!("op {i} reads dead register r{r}")),
                    None => defect(format!("op {i} reads register r{r} out of range")),
                }
            };
            read(&live, op.a)?;
            if op.opcode.is_binary() {
                read(&live, op.b)?;
            } else if op.free_b {
                // Executors free `b` whenever the flag is set, so on a unary
                // op it would kill a register the op never read.
                return defect(format!("op {i} is unary but frees a second operand"));
            }
            if op.opcode.uses_const() && op.imm as usize >= self.consts.len() {
                return defect(format!("op {i} constant index {} out of range", op.imm));
            }
            if op.opcode == Opcode::HRot && op.imm as usize >= self.rotations.len() {
                return defect(format!("op {i} rotation index {} out of range", op.imm));
            }
            if op.free_a {
                live[op.a as usize] = false;
            }
            if op.free_b {
                live[op.b as usize] = false;
            }
            match live.get_mut(op.dst as usize) {
                Some(slot) if !*slot => *slot = true,
                Some(_) => {
                    return defect(format!(
                        "op {i} writes register r{} which still holds a live value",
                        op.dst
                    ))
                }
                None => return defect(format!("op {i} destination r{} out of range", op.dst)),
            }
        }
        for &out in &self.outputs {
            match live.get(out as usize) {
                Some(true) => {}
                Some(false) => return defect(format!("output register r{out} is dead")),
                None => return defect(format!("output register r{out} out of range")),
            }
        }
        Ok(())
    }
}
