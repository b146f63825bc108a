use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::encoding::Complex;
use crate::eval_mod::SineEvaluator;
use crate::evaluator::Evaluator;
use crate::linear_transform::BsgsTransform;

/// Configuration of the CKKS bootstrapping pipeline (Han–Ki style, §2.4):
/// ModRaise → CoeffToSlot → EvalMod (approximate modular reduction by q0) →
/// SlotToCoeff.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapConfig {
    /// Degree of the Chebyshev series EvalMod's [`SineEvaluator`] fits to
    /// `cos(2πs/2^r)` on `[-(K + 1/4), K + 1/4]`; [`Bootstrapper::new`] picks
    /// the double-angle count `r`. Higher degrees need fewer doublings.
    pub evalmod_degree: usize,
    /// Half-width K of the approximation interval `[-K, K]`; must dominate the
    /// ∞-norm of the ModRaise overflow integer `I` (≈ O(√h) for a secret of
    /// Hamming weight h).
    pub range_k: f64,
}

impl BootstrapConfig {
    /// A shallow configuration for functional tests with sparse secrets
    /// (small overflow range, modest polynomial degree): three double angles,
    /// 13 levels.
    pub fn sparse_test() -> Self {
        Self {
            evalmod_degree: 15,
            range_k: 5.0,
        }
    }

    /// A configuration for end-to-end functional bootstrapping tests: a
    /// degree-31 series and one double angle over `[-4, 4]` keep the EvalMod
    /// approximation error small enough that, combined with a modest `q0/Δ`
    /// ratio, the refreshed message is recovered to a couple of decimal
    /// digits. Requires a very sparse secret (Hamming weight ≲ 4) so the
    /// ModRaise overflow stays inside the interval.
    pub fn functional_test() -> Self {
        Self {
            evalmod_degree: 31,
            range_k: 4.0,
        }
    }
}

/// Levels a bootstrap spends outside EvalMod, one each: CoeffToSlot, the
/// real/imaginary split, the recombination and SlotToCoeff.
const TRANSFORM_LEVELS: usize = 4;

/// Bootstrapping driver: refreshes the level of an exhausted ciphertext so
/// that more multiplications can be applied (the op BTS accelerates as a
/// first-class citizen).
#[derive(Debug, Clone)]
pub struct Bootstrapper {
    /// CoeffToSlot `(Δ/q0)·F⁻¹` and SlotToCoeff `F`, each one BSGS
    /// transform over all slots (`O(√slots)` rotation keys each).
    coeff_to_slot: BsgsTransform,
    slot_to_coeff: BsgsTransform,
    /// `sin(2πv)` on `[-K, K]` by double angles.
    eval_mod: SineEvaluator,
    /// `q0 / (2πΔ)`, the sine's amplitude, applied in the recombination.
    amplitude: f64,
}

impl Bootstrapper {
    /// Precomputes the bootstrapping transforms for a context and picks
    /// EvalMod's double-angle count: the fewest doublings whose plaintext
    /// error is under [`crate::SINE_TOLERANCE`]
    /// ([`SineEvaluator::fewest_double_angles`]) within the context's level
    /// budget, one level kept spare.
    ///
    /// # Errors
    ///
    /// [`crate::CkksError::InvalidParameters`] if the approximation interval
    /// is not positive and finite, the degree is 0, or no double-angle count
    /// both reaches the tolerance and leaves
    /// [`Bootstrapper::levels_consumed`] + 1 within the context's levels.
    pub fn new(context: &CkksContext, config: BootstrapConfig) -> crate::Result<Self> {
        let eval_mod = SineEvaluator::fewest_double_angles(
            config.range_k,
            config.evalmod_degree,
            context.max_level().saturating_sub(TRANSFORM_LEVELS + 1),
        )?;
        let q0 = context.q_modulus(0) as f64;
        let slots = context.slots();
        // Build the special-FFT matrix F and its inverse numerically from the
        // encoder. F maps packed coefficients u (u_j = m_j + i·m_{j+N/2}) to
        // slot values; both maps are C-linear in u, so their columns are the
        // images of the complex unit vectors.
        let encoder = context.encoder();
        let mut f_matrix = vec![vec![Complex::default(); slots]; slots];
        let mut f_inv_matrix = vec![vec![Complex::default(); slots]; slots];
        for col in 0..slots {
            // Column `col` of F: decode(real unit coefficient at position col).
            let mut unit_coeffs = vec![0.0f64; context.degree()];
            unit_coeffs[col] = 1.0;
            let decoded = encoder.decode_from_coefficients(&unit_coeffs, 1.0)?;
            for (row, v) in decoded.iter().enumerate() {
                f_matrix[row][col] = *v;
            }
        }
        // F^{-1} via the encoder's inverse FFT: encode the slot-space unit
        // vectors and read off the packed coefficients. Encoding rounds to
        // integers, so use a large scratch scale and divide it back out.
        let scratch_scale = 2f64.powi(52);
        let mut unit_msg = vec![Complex::default(); slots];
        for col in 0..slots {
            unit_msg.iter_mut().for_each(|c| *c = Complex::default());
            unit_msg[col] = Complex::new(1.0, 0.0);
            let coeffs = encoder.encode_to_coefficients(&unit_msg, scratch_scale)?;
            for row in 0..slots {
                f_inv_matrix[row][col] = Complex::new(
                    coeffs[row] / scratch_scale,
                    coeffs[row + slots] / scratch_scale,
                );
            }
        }
        // CoeffToSlot = (Δ/q0)·F^{-1}: the raised ciphertext decodes (at scale
        // Δ) to F·c/Δ where c = Δ·m + q0·I, so applying (Δ/q0)·F^{-1} in slot
        // space leaves the slots holding c/q0 = I + Δ·m/q0 ∈ [-(K+1), K+1] —
        // exactly the argument EvalMod's scaled sine expects. SlotToCoeff = F.
        let c2s_factor = context.scale() / q0;
        let c2s_scaled: Vec<Vec<Complex>> = f_inv_matrix
            .iter()
            .map(|row| row.iter().map(|c| c.scale(c2s_factor)).collect())
            .collect();
        let coeff_to_slot = BsgsTransform::from_matrix(&c2s_scaled)?;
        let slot_to_coeff = BsgsTransform::from_matrix(&f_matrix)?;
        Ok(Self {
            coeff_to_slot,
            slot_to_coeff,
            eval_mod,
            amplitude: q0 / (2.0 * std::f64::consts::PI * context.scale()),
        })
    }

    /// The EvalMod sine, with the double-angle count [`Bootstrapper::new`]
    /// picked.
    pub fn eval_mod(&self) -> &SineEvaluator {
        &self.eval_mod
    }

    /// Multiplicative levels [`Bootstrapper::bootstrap`] spends above its
    /// output: EvalMod's plus one each for CoeffToSlot, the real/imaginary
    /// split, the recombination (which applies the sine's amplitude) and
    /// SlotToCoeff.
    pub fn levels_consumed(&self) -> usize {
        self.eval_mod.levels_consumed() + TRANSFORM_LEVELS
    }

    /// Rotation amounts for which the key bundle must contain rotation keys
    /// before [`Bootstrapper::bootstrap`] can run.
    pub fn required_rotations(&self) -> Vec<i64> {
        let mut rots: Vec<i64> = self
            .coeff_to_slot
            .required_rotations()
            .into_iter()
            .chain(self.slot_to_coeff.required_rotations())
            .collect();
        rots.sort_unstable();
        rots.dedup();
        rots
    }

    /// Full bootstrapping: ModRaise → CoeffToSlot → EvalMod → SlotToCoeff.
    /// Returns a ciphertext encrypting (approximately) the same message at
    /// level `max_level − levels_consumed()`.
    ///
    /// # Errors
    ///
    /// Fails if required rotation/conjugation keys are missing or the level
    /// budget is insufficient.
    pub fn bootstrap(&self, eval: &Evaluator<'_>, ct: &Ciphertext) -> crate::Result<Ciphertext> {
        // 1. ModRaise to the top of the chain.
        let raised = eval.context().mod_raise(ct);
        // 2. CoeffToSlot: slots now hold (m_j + q0·I_j)/q0 packed as complex.
        let packed = self.coeff_to_slot.evaluate(eval, &raised)?;
        let combined = self.eval_mod_slots(eval, &packed)?;
        // 6. SlotToCoeff back to the coefficient encoding. The scale tag is
        // whatever the op chain's bookkeeping produced; the slot values are the
        // refreshed message.
        self.slot_to_coeff.evaluate(eval, &combined)
    }

    /// Steps 3–5 of [`Bootstrapper::bootstrap`]: EvalMod on the real and the
    /// imaginary part of every slot, recombined at the sine's amplitude.
    fn eval_mod_slots(
        &self,
        eval: &Evaluator<'_>,
        packed: &Ciphertext,
    ) -> crate::Result<Ciphertext> {
        // 3. Split real and imaginary parts with a conjugation.
        let conj = eval.conjugate(packed)?;
        let re_part = eval.rescale(&eval.mul_const(&eval.add(packed, &conj)?, 0.5)?)?;
        let im_sum = eval.sub(packed, &conj)?;
        // (x - conj(x)) = 2i·Im(x); multiply by -0.5i to get Im(x).
        let im_part = eval.rescale(&self.mul_imaginary(eval, &im_sum, -0.5)?)?;
        // 4. EvalMod on each part.
        let re_mod = self.eval_mod.eval_homomorphic(eval, &re_part)?;
        let im_mod = self.eval_mod.eval_homomorphic(eval, &im_part)?;
        // 5. Recombine at the amplitude: a·re + a·i·im.
        let re_scaled = eval.rescale(&eval.mul_const(&re_mod, self.amplitude)?)?;
        let im_scaled = eval.rescale(&self.mul_imaginary(eval, &im_mod, self.amplitude)?)?;
        eval.add(&re_scaled, &im_scaled)
    }

    /// Multiplies every slot by `factor · i` (a purely imaginary constant).
    fn mul_imaginary(
        &self,
        eval: &Evaluator<'_>,
        ct: &Ciphertext,
        factor: f64,
    ) -> crate::Result<Ciphertext> {
        let context = eval.context();
        let pt = context.encode_at(&[Complex::new(0.0, factor)], ct.level(), context.scale())?;
        eval.mul_plain(ct, &pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CkksError;
    use crate::linear_transform::tests::{encoded_level, evaluate_encoding_per_call};
    use rand::SeedableRng;

    /// [`Bootstrapper::bootstrap`] with both transforms re-encoding their
    /// diagonals on every call.
    fn bootstrap_encoding_per_call(
        b: &Bootstrapper,
        eval: &Evaluator<'_>,
        ct: &Ciphertext,
    ) -> crate::Result<Ciphertext> {
        let raised = eval.context().mod_raise(ct);
        let packed = evaluate_encoding_per_call(&b.coeff_to_slot, eval, &raised)?;
        let combined = b.eval_mod_slots(eval, &packed)?;
        evaluate_encoding_per_call(&b.slot_to_coeff, eval, &combined)
    }

    /// The transforms encode their diagonals once, at the levels a bootstrap
    /// applies them at: the first bootstrap (which encodes) and the second
    /// (which reuses) both equal, bit for bit, one that re-encodes.
    #[test]
    fn kept_plaintexts_bootstrap_like_encoding_per_call() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Degree 3 on [-4, 4] takes 16 double angles: 23 levels.
        let ctx = CkksContext::new_toy(1 << 6, 28, 1).unwrap();
        let bootstrapper = Bootstrapper::new(&ctx, DEGREE_3).unwrap();
        let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
        let rotations = bootstrapper.required_rotations();
        ctx.add_rotation_keys(&sk, &mut keys, &rotations, &mut rng)
            .unwrap();
        let eval = ctx.evaluator(&keys);
        let msg: Vec<Complex> = (0..ctx.slots())
            .map(|i| Complex::new(0.1 * (i as f64 * 0.3).sin(), 0.0))
            .collect();
        let pt = ctx.encode_at(&msg, 0, ctx.scale()).unwrap();
        let ct = ctx.encrypt(&pt, &sk, &mut rng).unwrap();

        let reference = bootstrap_encoding_per_call(&bootstrapper, &eval, &ct).unwrap();
        for _ in 0..2 {
            let out = bootstrapper.bootstrap(&eval, &ct).unwrap();
            assert_eq!(out, reference);
            assert_eq!(out.scale().to_bits(), reference.scale().to_bits());
        }
        // Kept at the levels they ran at: the top, and one above the output.
        let levels = [&bootstrapper.coeff_to_slot, &bootstrapper.slot_to_coeff].map(encoded_level);
        assert_eq!(levels, [Some(ctx.max_level()), Some(reference.level() + 1)]);
    }

    const DEGREE_3: BootstrapConfig = BootstrapConfig {
        evalmod_degree: 3,
        range_k: 4.0,
    };

    /// A bootstrap spends exactly `levels_consumed()` levels, and `new`
    /// admits a context with one level to spare and no fewer: the refresh of
    /// a level-0 ciphertext lands at level 1.
    #[test]
    fn bootstrap_spends_its_levels_consumed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let deep = CkksContext::new_toy(1 << 6, 40, 1).unwrap();
        let levels = Bootstrapper::new(&deep, DEGREE_3)
            .unwrap()
            .levels_consumed();
        let short = CkksContext::new_toy(1 << 6, levels, 1).unwrap();
        assert!(matches!(
            Bootstrapper::new(&short, DEGREE_3),
            Err(CkksError::InvalidParameters(_))
        ));

        let ctx = CkksContext::new_toy(1 << 6, levels + 1, 1).unwrap();
        let bootstrapper = Bootstrapper::new(&ctx, DEGREE_3).unwrap();
        assert_eq!(bootstrapper.levels_consumed(), levels);
        let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
        ctx.add_rotation_keys(&sk, &mut keys, &bootstrapper.required_rotations(), &mut rng)
            .unwrap();
        let eval = ctx.evaluator(&keys);
        let msg = vec![Complex::new(0.1, 0.0); ctx.slots()];
        let pt = ctx.encode_at(&msg, 0, ctx.scale()).unwrap();
        let ct = ctx.encrypt(&pt, &sk, &mut rng).unwrap();
        let out = bootstrapper.bootstrap(&eval, &ct).unwrap();
        assert_eq!(ctx.max_level() - out.level(), levels);
        assert_eq!(out.level(), 1);
    }
}
