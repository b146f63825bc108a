use std::collections::BTreeMap;

use bts_ckks::{Ciphertext, CkksContext, Complex, Decomposed, Evaluator, KeyBundle, SecretKey};
use bts_params::CkksInstance;
use bts_sim::HeOp;
use rand::{rngs::StdRng, SeedableRng};

use crate::bytecode::{CompiledCircuit, CompiledOp, Opcode, RegId};
use crate::compile::compile;
use crate::error::CircuitError;
use crate::ir::HeCircuit;

/// The register file's single-slot memo of key-switch digits: the ModUp of
/// the value most recently rotated or conjugated, kept until another value
/// is or that one's storage is written or freed. Rotations of one source
/// come in runs (`rotate_mac_level`, BSGS baby steps), so one slot turns a
/// run of `g` HRots into one ModUp; and because the digits are a pure
/// function of the ciphertext they were cut from, a hit can only skip
/// recomputing them — it cannot change a result, which is why the executor
/// stays bit-equal to a memo-less walk of the source circuit.
#[derive(Debug, Default)]
struct DigitMemo(Option<(RegId, Decomposed)>);

impl DigitMemo {
    fn holds(&self, owner: RegId) -> bool {
        matches!(&self.0, Some((held, _)) if *held == owner)
    }

    /// The digits of `ct`, the ciphertext held under `owner`.
    fn digits(
        &mut self,
        eval: &Evaluator<'_>,
        owner: RegId,
        ct: &Ciphertext,
    ) -> Result<&Decomposed, CircuitError> {
        if !self.holds(owner) {
            // Drop the old digits first: the new ones reuse their buffer.
            self.0 = None;
            self.0 = Some((owner, eval.decompose(ct)?));
        }
        Ok(&self.0.as_ref().expect("filled above").1)
    }

    /// Forgets the digits of `owner`, whose storage is being written or freed.
    fn invalidate(&mut self, owner: RegId) {
        if self.holds(owner) {
            self.0 = None;
        }
    }
}

/// Result of executing a circuit on real RNS ciphertexts.
#[derive(Debug, Clone)]
pub struct FunctionalRun {
    /// Decrypted and decoded slot vectors, one per circuit output, in
    /// declaration order.
    pub outputs: Vec<Vec<Complex>>,
    /// Per-op-class counts of the evaluator calls actually performed —
    /// the quantity the equivalence tests compare against the trace backend.
    pub op_counts: BTreeMap<HeOp, usize>,
    /// Number of bootstrap markers executed (as oracle refreshes).
    pub bootstrap_count: usize,
}

/// Executes compiled bytecode with the functional CKKS model: every
/// instruction becomes one [`bts_ckks::Evaluator`] call on real ciphertexts,
/// and the declared outputs are decrypted and decoded at the end.
///
/// The backend owns a context, secret key and key bundle built from the
/// instance (so it is only practical at toy ring degrees — exactly the
/// regime the functional layer targets). Rotation and conjugation keys are
/// provisioned on demand from the program's
/// [`CompiledCircuit::key_rotations`] set.
///
/// [`Opcode::Bootstrap`] markers execute as *oracle refreshes*: decrypt,
/// re-encode at the usable top level, re-encrypt. That is the standard
/// functional stand-in for bootstrapping in HE test harnesses — it has the
/// same type (exhausted ciphertext in, top-level ciphertext out) without
/// spending the levels the real approximate-modular-reduction pipeline needs,
/// which toy instances do not have.
#[derive(Debug)]
pub struct FunctionalBackend {
    context: CkksContext,
    secret: SecretKey,
    keys: KeyBundle,
    rng: StdRng,
    input_messages: Vec<Vec<f64>>,
}

impl FunctionalBackend {
    /// Builds a backend for an instance with a seeded RNG (deterministic key
    /// generation and encryption randomness).
    ///
    /// # Errors
    ///
    /// Propagates context construction and key generation failures.
    pub fn new(instance: &CkksInstance, seed: u64) -> Result<Self, CircuitError> {
        let context = CkksContext::from_instance(instance)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let (secret, keys) = context.generate_keys(&mut rng)?;
        Ok(Self {
            context,
            secret,
            keys,
            rng,
            input_messages: Vec::new(),
        })
    }

    /// Supplies explicit real-valued messages for the circuit inputs, in
    /// input-declaration order. Inputs without a supplied message fall back
    /// to the deterministic synthetic pattern.
    pub fn with_inputs(mut self, inputs: Vec<Vec<f64>>) -> Self {
        self.input_messages = inputs;
        self
    }

    /// The CKKS context backing this executor.
    pub fn context(&self) -> &CkksContext {
        &self.context
    }

    /// Deterministic synthetic message for input `index`: small values in
    /// `[0, 0.4]` so deep products stay bounded.
    fn synthetic_message(&self, index: usize) -> Vec<f64> {
        (0..self.context.slots())
            .map(|j| ((index * 31 + j * 7) % 17) as f64 / 40.0)
            .collect()
    }

    fn encode_encrypt(
        &mut self,
        message: &[f64],
        level: usize,
    ) -> Result<Ciphertext, CircuitError> {
        let slots: Vec<Complex> = message.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let pt = self
            .context
            .encode_at(&slots, level, self.context.scale())?;
        Ok(self.context.encrypt(&pt, &self.secret, &mut self.rng)?)
    }

    /// Oracle refresh for a bootstrap marker: decrypt, re-encode at
    /// `target_level`, re-encrypt.
    fn refresh(
        &mut self,
        ct: &Ciphertext,
        target_level: usize,
    ) -> Result<Ciphertext, CircuitError> {
        let decoded = self
            .context
            .decode(&self.context.decrypt(ct, &self.secret)?)?;
        let pt = self
            .context
            .encode_at(&decoded, target_level, self.context.scale())?;
        Ok(self.context.encrypt(&pt, &self.secret, &mut self.rng)?)
    }

    /// Applies one primitive evaluator op (anything but a bootstrap refresh
    /// or a modulus raise, which need the backend's RNG or no evaluator) to
    /// the ciphertext in `op.a`, and `b` for the binary ops.
    fn apply_prim(
        &self,
        compiled: &CompiledCircuit,
        op: &CompiledOp,
        a: &Ciphertext,
        b: Option<&Ciphertext>,
        memo: &mut DigitMemo,
    ) -> Result<Ciphertext, CircuitError> {
        let eval = self.context.evaluator(&self.keys);
        let binary = || b.expect("binary op has two operands");
        let constant = || compiled.consts[op.imm as usize];
        Ok(match op.opcode {
            Opcode::HMult => eval.mul(a, binary())?,
            Opcode::HRot => match compiled.rotations[op.imm as usize] {
                // A zero rotation is a copy; it must not cost a ModUp.
                0 => eval.rotate(a, 0)?,
                rotation => eval.rotate_decomposed(a, memo.digits(&eval, op.a, a)?, rotation)?,
            },
            Opcode::Conjugate => eval.conjugate_decomposed(a, memo.digits(&eval, op.a, a)?)?,
            Opcode::HAdd => eval.add(a, binary())?,
            Opcode::Rescale => eval.rescale(a)?,
            // A plaintext whose slots all hold one value is the constant
            // polynomial the scalar ops apply.
            Opcode::PMult | Opcode::CMult => eval.mul_const(a, constant())?,
            Opcode::PAdd | Opcode::CAdd => eval.add_const(a, constant())?,
            Opcode::ModRaise | Opcode::Bootstrap => unreachable!("handled by the executor loop"),
        })
    }

    /// Compiles a circuit and executes the bytecode: [`compile`] then
    /// [`FunctionalBackend::execute_compiled`].
    ///
    /// # Errors
    ///
    /// Propagates compilation and execution failures.
    pub fn execute(&mut self, circuit: &HeCircuit) -> Result<FunctionalRun, CircuitError> {
        self.execute_compiled(&compile(circuit)?)
    }

    /// Executes compiled bytecode on real ciphertexts, with a flat register
    /// file: operands resolve by index, and a register is dropped the moment
    /// its `free_*` flag says the value is dead, so peak ciphertext memory
    /// tracks the live set.
    ///
    /// Given the same instance, seed and inputs, the result is bit-identical
    /// to walking the source circuit's SSA nodes (the oracle in
    /// `tests/common/ssa_oracle.rs`): the program preserves instruction
    /// order, provisioning the same rotation keys and consuming the
    /// encryption/refresh randomness stream in the same order.
    ///
    /// # Errors
    ///
    /// Propagates bytecode validation and evaluator failures, and fails when
    /// a ciphertext's real level diverges from the level the bytecode
    /// recorded — the invariant that keeps cost lowering and functional
    /// execution in lock-step.
    pub fn execute_compiled(
        &mut self,
        compiled: &CompiledCircuit,
    ) -> Result<FunctionalRun, CircuitError> {
        compiled.validate()?;
        let rotations = compiled.key_rotations();
        {
            let Self {
                context,
                secret,
                keys,
                rng,
                ..
            } = self;
            context.add_rotation_keys(secret, keys, &rotations, rng)?;
        }
        let usable_top = compiled.instance.usable_top_level();

        let mut regs: Vec<Option<Ciphertext>> = vec![None; compiled.reg_count as usize];
        for (index, input) in compiled.inputs.iter().enumerate() {
            let message = self
                .input_messages
                .get(index)
                .cloned()
                .unwrap_or_else(|| self.synthetic_message(index));
            regs[input.reg as usize] = Some(self.encode_encrypt(&message, input.level)?);
        }

        let mut op_counts: BTreeMap<HeOp, usize> = BTreeMap::new();
        let mut bootstrap_count = 0usize;
        let mut memo = DigitMemo::default();
        for (i, op) in compiled.ops.iter().enumerate() {
            let reg = |r: u32| -> Result<&Ciphertext, CircuitError> {
                regs[r as usize]
                    .as_ref()
                    .ok_or_else(|| CircuitError::InvalidCircuit(format!("op {i} reads dead r{r}")))
            };
            let result = match op.opcode {
                Opcode::Bootstrap => {
                    bootstrap_count += 1;
                    self.refresh(reg(op.a)?, usable_top)?
                }
                Opcode::ModRaise => self.context.mod_raise(reg(op.a)?),
                opcode => {
                    let b = if opcode.is_binary() {
                        Some(reg(op.b)?)
                    } else {
                        None
                    };
                    self.apply_prim(compiled, op, reg(op.a)?, b, &mut memo)?
                }
            };
            let expected_level = match op.opcode {
                Opcode::Rescale => op.level - 1,
                Opcode::Bootstrap => usable_top,
                _ => op.level,
            };
            if result.level() != expected_level {
                return Err(CircuitError::InvalidCircuit(format!(
                    "functional level {} of op {i} diverged from the bytecode level {expected_level}",
                    result.level()
                )));
            }
            if let Some(class) = op.opcode.op_class() {
                *op_counts.entry(class).or_insert(0) += 1;
            }
            if op.free_a {
                memo.invalidate(op.a);
                regs[op.a as usize] = None;
            }
            if op.free_b {
                memo.invalidate(op.b);
                regs[op.b as usize] = None;
            }
            memo.invalidate(op.dst);
            regs[op.dst as usize] = Some(result);
        }

        let mut outputs = Vec::with_capacity(compiled.outputs.len());
        for &out in &compiled.outputs {
            let ct = regs[out as usize]
                .as_ref()
                .expect("validated bytecode outputs are live");
            outputs.push(
                self.context
                    .decode(&self.context.decrypt(ct, &self.secret)?)?,
            );
        }
        Ok(FunctionalRun {
            outputs,
            op_counts,
            bootstrap_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::trace_backend::TraceBackend;

    #[test]
    fn functional_execution_matches_plaintext_math() {
        let ins = CkksInstance::toy(11, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let y = b.input();
        let raw = b.hmult(x, y).unwrap();
        let prod = b.rescale(raw).unwrap();
        let shifted = b.cadd(prod, 0.25).unwrap();
        b.output(shifted);
        let circuit = b.build();

        let xs = vec![0.3; 1 << 10];
        let ys = vec![0.2; 1 << 10];
        let mut backend = FunctionalBackend::new(&ins, 42)
            .unwrap()
            .with_inputs(vec![xs, ys]);
        let run = backend.execute(&circuit).unwrap();
        assert_eq!(run.outputs.len(), 1);
        let got = run.outputs[0][5].re;
        assert!((got - (0.3 * 0.2 + 0.25)).abs() < 1e-2, "got {got}");
        assert_eq!(run.op_counts.get(&HeOp::HMult), Some(&1));
        assert_eq!(run.op_counts.get(&HeOp::HRescale), Some(&1));
        assert_eq!(run.op_counts.get(&HeOp::CAdd), Some(&1));
    }

    #[test]
    fn both_backends_execute_the_same_ops() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let r = b.hrot(x, 2).unwrap();
        let masked = b.pmult(r, 0.5).unwrap();
        let same = b.pmult(x, 0.5).unwrap();
        let sum = b.hadd(masked, same).unwrap();
        let acc = b.rescale(sum).unwrap();
        let raw_sq = b.hmult(acc, acc).unwrap();
        let sq = b.rescale(raw_sq).unwrap();
        b.output(sq);
        let circuit = b.build();

        let lowered = TraceBackend::new().execute(&circuit).unwrap();
        let run = FunctionalBackend::new(&ins, 7)
            .unwrap()
            .execute(&circuit)
            .unwrap();
        for (op, count) in circuit.op_counts() {
            assert_eq!(lowered.trace.count(op), count, "trace {op:?}");
            assert_eq!(run.op_counts.get(&op), Some(&count), "functional {op:?}");
        }
    }
}
