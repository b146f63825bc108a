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

/// The functional executor's ciphertext storage, kept across
/// [`FunctionalBackend::execute_compiled`] calls: `regs[r]` holds register
/// `r`'s live value, and `spare` the ciphertexts whose values are dead —
/// their residue matrices are the buffers every result is written into.
///
/// A ciphertext is created only when a result finds `spare` empty — inputs
/// and bootstrap refreshes are encrypted into spares too — and a run hands
/// every register back to `spare` when it ends, so the file never owns more
/// ciphertexts than the largest live set any program has held (live values
/// plus the result in flight). There is nothing to size.
#[derive(Debug, Default)]
struct RegisterFile {
    regs: Vec<Option<Ciphertext>>,
    spare: Vec<Ciphertext>,
}

impl RegisterFile {
    /// An empty file of `reg_count` registers.
    fn open(&mut self, reg_count: usize) {
        self.close();
        self.regs.resize_with(reg_count, || None);
    }

    /// Hands every live register back to the spare list.
    fn close(&mut self) {
        let live = self.regs.iter_mut().filter_map(Option::take);
        self.spare.extend(live);
    }

    fn get(&self, r: RegId, op: usize) -> Result<&Ciphertext, CircuitError> {
        self.regs[r as usize]
            .as_ref()
            .ok_or_else(|| CircuitError::InvalidCircuit(format!("op {op} reads dead r{r}")))
    }

    /// A buffer for the next result: a dead value's ciphertext, or a new
    /// one (with room for any level) while the file is still growing to the
    /// program's live set.
    fn take_spare(&mut self, context: &CkksContext) -> Ciphertext {
        self.spare
            .pop()
            .unwrap_or_else(|| context.ciphertext_buffer())
    }

    /// Register `r`'s value is dead: its ciphertext becomes a spare.
    fn free(&mut self, r: RegId) {
        if let Some(ct) = self.regs[r as usize].take() {
            self.spare.push(ct);
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
/// provisioned on demand and sized by the program: each run reads, off its
/// ops, the highest level each rotation amount and conjugation is applied
/// at, and draws every key that is missing or serves a lower level
/// ([`CkksContext::provision_keys`]). A key so stores only the limbs and
/// slices its deepest key-switch reads. It makes the draws of a top-level
/// key, so every ciphertext is bit-identical to an executor's that
/// provisions at the top.
///
/// [`Opcode::Bootstrap`] markers execute as *oracle refreshes*: decrypt,
/// re-encode at the usable top level, re-encrypt. That is the standard
/// functional stand-in for bootstrapping in HE test harnesses — it has the
/// same type (exhausted ciphertext in, top-level ciphertext out) without
/// spending the levels the real approximate-modular-reduction pipeline needs,
/// which toy instances do not have.
///
/// The register file is the ciphertext pool: every instruction writes its
/// result through an `_into` evaluator op into the ciphertext of a value
/// that died earlier, and the pool persists across runs, so a warm run
/// allocates no residue matrix (`tests/functional_allocs.rs` holds it to at
/// most two allocations per executed op, encryption and decoding included).
#[derive(Debug)]
pub struct FunctionalBackend {
    context: CkksContext,
    secret: SecretKey,
    keys: KeyBundle,
    rng: StdRng,
    input_messages: Vec<Vec<f64>>,
    file: RegisterFile,
    /// The highest level each rotation-pool entry is read at by the program
    /// being run: kept across runs so provisioning allocates nothing.
    key_levels: Vec<usize>,
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
            file: RegisterFile::default(),
            key_levels: Vec::new(),
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

    /// The key bundle as the runs so far have provisioned it.
    pub fn keys(&self) -> &KeyBundle {
        &self.keys
    }

    /// Draws the rotation and conjugation keys `compiled` reads that the
    /// bundle lacks at the level it reads them, in pool order then
    /// conjugation — the order, and for a fresh backend the draws, of
    /// `add_rotation_keys` on the source circuit's rotations.
    fn provision(&mut self, compiled: &CompiledCircuit) -> Result<(), CircuitError> {
        let Self {
            context,
            secret,
            keys,
            rng,
            key_levels,
            ..
        } = self;
        key_levels.clear();
        key_levels.resize(compiled.rotations.len(), 0);
        let mut conjugation = 0;
        for op in &compiled.ops {
            match op.opcode {
                Opcode::HRot => {
                    let level = &mut key_levels[op.imm as usize];
                    *level = (*level).max(op.level);
                }
                Opcode::Conjugate => conjugation = conjugation.max(op.level),
                _ => {}
            }
        }
        let rotations = compiled
            .rotations
            .iter()
            .zip(key_levels.iter())
            .filter(|(&r, _)| r != 0)
            .map(|(&r, &level)| (r, level));
        Ok(context.provision_keys(secret, keys, rotations, conjugation, rng)?)
    }

    /// Deterministic synthetic message for input `index`: small values in
    /// `[0, 0.4]` so deep products stay bounded.
    fn synthetic_message(&self, index: usize) -> Vec<f64> {
        (0..self.context.slots())
            .map(|j| ((index * 31 + j * 7) % 17) as f64 / 40.0)
            .collect()
    }

    /// Encodes `message` at `level` and encrypts it into `dst`.
    fn encode_encrypt(
        &mut self,
        message: &[f64],
        level: usize,
        dst: &mut Ciphertext,
    ) -> Result<(), CircuitError> {
        let slots: Vec<Complex> = message.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let pt = self
            .context
            .encode_at(&slots, level, self.context.scale())?;
        Ok(self
            .context
            .encrypt_into(&pt, &self.secret, &mut self.rng, dst)?)
    }

    /// Oracle refresh for a bootstrap marker: decrypt, re-encode at
    /// `target_level`, re-encrypt into `dst`.
    fn refresh(
        &mut self,
        ct: &Ciphertext,
        target_level: usize,
        dst: &mut Ciphertext,
    ) -> Result<(), CircuitError> {
        let decoded = self
            .context
            .decode(&self.context.decrypt(ct, &self.secret)?)?;
        let pt = self
            .context
            .encode_at(&decoded, target_level, self.context.scale())?;
        Ok(self
            .context
            .encrypt_into(&pt, &self.secret, &mut self.rng, dst)?)
    }

    /// Applies one primitive evaluator op (anything but a bootstrap refresh
    /// or a modulus raise, which need the backend's RNG or no evaluator) to
    /// the ciphertext in `op.a`, and `b` for the binary ops, writing the
    /// result into `dst`.
    fn apply_prim(
        &self,
        compiled: &CompiledCircuit,
        op: &CompiledOp,
        a: &Ciphertext,
        b: Option<&Ciphertext>,
        memo: &mut DigitMemo,
        dst: &mut Ciphertext,
    ) -> Result<(), CircuitError> {
        let eval = self.context.evaluator(&self.keys);
        let binary = || b.expect("binary op has two operands");
        let constant = || compiled.consts[op.imm as usize];
        match op.opcode {
            Opcode::HMult => eval.mul_into(a, binary(), dst)?,
            Opcode::HRot => match compiled.rotations[op.imm as usize] {
                // A zero rotation is a copy; it must not cost a ModUp.
                0 => dst.clone_from(a),
                rotation => {
                    eval.rotate_decomposed_into(a, memo.digits(&eval, op.a, a)?, rotation, dst)?
                }
            },
            Opcode::Conjugate => {
                eval.conjugate_decomposed_into(a, memo.digits(&eval, op.a, a)?, dst)?
            }
            Opcode::HAdd => eval.add_into(a, binary(), dst)?,
            Opcode::Rescale => eval.rescale_into(a, dst)?,
            // A plaintext whose slots all hold one value is the constant
            // polynomial the scalar ops apply.
            Opcode::PMult | Opcode::CMult => eval.mul_const_into(a, constant(), dst)?,
            Opcode::PAdd | Opcode::CAdd => eval.add_const_into(a, constant(), dst)?,
            Opcode::ModRaise | Opcode::Bootstrap => unreachable!("handled by the executor loop"),
        }
        Ok(())
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
    /// file: operands resolve by index, each result is written into the
    /// ciphertext of a value that died earlier, and a register's ciphertext
    /// goes back to the pool the moment its `free_*` flag says the value is
    /// dead, so peak ciphertext memory tracks the live set.
    ///
    /// Given the same instance, seed and inputs, the result is bit-identical
    /// to walking the source circuit's SSA nodes (the oracle in
    /// `tests/common/ssa_oracle.rs`): the program preserves instruction
    /// order, drawing the same rotation keys (sized to the program, with the
    /// draws of top-level ones) and consuming the encryption/refresh
    /// randomness stream in the same order, and no op reads what its
    /// destination held before.
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
        let mut file = std::mem::take(&mut self.file);
        let run = self.run(compiled, &mut file);
        file.close();
        self.file = file;
        run
    }

    /// The body of [`FunctionalBackend::execute_compiled`], on the register
    /// file the backend lends it.
    fn run(
        &mut self,
        compiled: &CompiledCircuit,
        file: &mut RegisterFile,
    ) -> Result<FunctionalRun, CircuitError> {
        compiled.validate()?;
        self.provision(compiled)?;
        let usable_top = compiled.instance.usable_top_level();

        file.open(compiled.reg_count as usize);
        for (index, input) in compiled.inputs.iter().enumerate() {
            let message = self
                .input_messages
                .get(index)
                .cloned()
                .unwrap_or_else(|| self.synthetic_message(index));
            let mut ct = file.take_spare(&self.context);
            self.encode_encrypt(&message, input.level, &mut ct)?;
            file.regs[input.reg as usize] = Some(ct);
        }

        let mut op_counts: BTreeMap<HeOp, usize> = BTreeMap::new();
        let mut bootstrap_count = 0usize;
        let mut memo = DigitMemo::default();
        for (i, op) in compiled.ops.iter().enumerate() {
            let mut result = file.take_spare(&self.context);
            let a = file.get(op.a, i)?;
            match op.opcode {
                Opcode::Bootstrap => {
                    bootstrap_count += 1;
                    self.refresh(a, usable_top, &mut result)?;
                }
                Opcode::ModRaise => self.context.mod_raise_into(a, &mut result),
                opcode => {
                    let b = if opcode.is_binary() {
                        Some(file.get(op.b, i)?)
                    } else {
                        None
                    };
                    self.apply_prim(compiled, op, a, b, &mut memo, &mut result)?;
                }
            }
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
                file.free(op.a);
            }
            if op.free_b {
                memo.invalidate(op.b);
                file.free(op.b);
            }
            memo.invalidate(op.dst);
            file.regs[op.dst as usize] = Some(result);
        }

        let mut outputs = Vec::with_capacity(compiled.outputs.len());
        for &out in &compiled.outputs {
            let ct = file.regs[out as usize]
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

        let compiled = compile(&circuit).unwrap();
        let lowered = TraceBackend::new().lower_compiled(&compiled).unwrap();
        let run = FunctionalBackend::new(&ins, 7)
            .unwrap()
            .execute_compiled(&compiled)
            .unwrap();
        for (op, count) in circuit.op_counts() {
            assert_eq!(lowered.trace.count(op), count, "trace {op:?}");
            assert_eq!(run.op_counts.get(&op), Some(&count), "functional {op:?}");
        }
    }
}
