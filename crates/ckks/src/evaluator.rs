use std::borrow::Cow;
use std::collections::BTreeMap;

use bts_math::{Representation, RnsPoly};

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::{CkksContext, Decomposed};
use crate::encoding::Complex;
use crate::error::CkksError;
use crate::keys::{EvaluationKey, KeyBundle};

/// Relative scale mismatch tolerated when adding ciphertexts. Scales drift by
/// roughly `|Δ - q_i| / Δ` per rescale because the scaling primes are only
/// approximately equal to Δ; deep circuits (bootstrapping) accumulate a few
/// parts in 10^4 of drift, which we fold into the message error rather than
/// rejecting the operation.
const SCALE_TOLERANCE: f64 = 5e-3;

/// Evaluates homomorphic operations on ciphertexts: the HAdd / HMult / HRot /
/// HRescale / CMult / PMult primitives of §2.3, plus homomorphic linear
/// transforms (the building block of bootstrapping's CoeffToSlot/SlotToCoeff)
/// and polynomial evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'a> {
    context: &'a CkksContext,
    keys: &'a KeyBundle,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over a context and key bundle.
    pub fn new(context: &'a CkksContext, keys: &'a KeyBundle) -> Self {
        Self { context, keys }
    }

    /// The bound context.
    pub fn context(&self) -> &CkksContext {
        self.context
    }

    fn check_scales(a: f64, b: f64) -> crate::Result<()> {
        // A zero (or negative / non-finite) scale means the ciphertext no
        // longer encodes anything meaningful; comparing two such scales would
        // evaluate `0.0 / 0.0 > tol`, and NaN comparisons are always false, so
        // the mismatch would slip through silently. Reject it explicitly.
        if !(a.is_finite() && b.is_finite() && a > 0.0 && b > 0.0) {
            return Err(CkksError::OperandMismatch(format!(
                "non-positive or non-finite scale: {a} vs {b}"
            )));
        }
        if (a - b).abs() / a.max(b) > SCALE_TOLERANCE {
            return Err(CkksError::OperandMismatch(format!(
                "scales differ: {a} vs {b}"
            )));
        }
        Ok(())
    }

    /// The kernels that work slot-wise are only right on NTT-domain limbs —
    /// which every ciphertext this crate produces has.
    fn check_ntt(a: &Ciphertext) -> crate::Result<()> {
        if [&a.c0, &a.c1]
            .iter()
            .any(|p| p.representation() != Representation::Ntt)
        {
            return Err(CkksError::OperandMismatch(
                "ciphertext polynomials must be in the NTT domain".to_string(),
            ));
        }
        Ok(())
    }

    /// Drops limbs so the ciphertext sits at `level` (no scaling involved).
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext is already below `level`.
    pub fn level_reduce(&self, ct: &Ciphertext, level: usize) -> crate::Result<Ciphertext> {
        if level > ct.level {
            return Err(CkksError::OperandMismatch(format!(
                "cannot raise level {} to {level} by dropping limbs",
                ct.level
            )));
        }
        Ok(Ciphertext::new(
            ct.c0.keep_limbs(level + 1),
            ct.c1.keep_limbs(level + 1),
            level,
            ct.scale,
        ))
    }

    /// Borrowing variant of [`Evaluator::level_reduce`]: returns the input
    /// itself when it is already at `level`, avoiding two full polynomial
    /// copies per operand in the common equal-level case.
    fn level_reduce_cow<'c>(
        &self,
        ct: &'c Ciphertext,
        level: usize,
    ) -> crate::Result<Cow<'c, Ciphertext>> {
        if level == ct.level {
            return Ok(Cow::Borrowed(ct));
        }
        Ok(Cow::Owned(self.level_reduce(ct, level)?))
    }

    fn align<'c>(
        &self,
        a: &'c Ciphertext,
        b: &'c Ciphertext,
    ) -> crate::Result<(Cow<'c, Ciphertext>, Cow<'c, Ciphertext>)> {
        let level = a.level.min(b.level);
        Ok((
            self.level_reduce_cow(a, level)?,
            self.level_reduce_cow(b, level)?,
        ))
    }

    /// HAdd: element-wise addition (Eq. 2).
    ///
    /// # Errors
    ///
    /// Fails on scale mismatch.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> crate::Result<Ciphertext> {
        Self::check_scales(a.scale, b.scale)?;
        let (a, b) = self.align(a, b)?;
        Ok(Ciphertext::new(
            a.c0.add(&b.c0)?,
            a.c1.add(&b.c1)?,
            a.level,
            a.scale,
        ))
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Fails on scale mismatch.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> crate::Result<Ciphertext> {
        Self::check_scales(a.scale, b.scale)?;
        let (a, b) = self.align(a, b)?;
        Ok(Ciphertext::new(
            a.c0.sub(&b.c0)?,
            a.c1.sub(&b.c1)?,
            a.level,
            a.scale,
        ))
    }

    /// Negation.
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        Ciphertext::new(a.c0.neg(), a.c1.neg(), a.level, a.scale)
    }

    /// HMult: tensor product followed by key-switching with the
    /// relinearization key (Eq. 3/4). The output scale is the product of the
    /// input scales; call [`Evaluator::rescale`] afterwards to bring it back.
    ///
    /// # Errors
    ///
    /// Propagates key-switching failures.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> crate::Result<Ciphertext> {
        let (a, b) = self.align(a, b)?;
        let mut d0 = a.c0.mul(&b.c0)?;
        let mut d1 = a.c0.mul(&b.c1)?;
        d1.fused_mul_add_assign(&a.c1, &b.c0)?;
        let d2 = a.c1.mul(&b.c1)?;
        let (kb, ka) = self.context.key_switch(&d2, self.keys.relin())?;
        d0.add_assign(&kb)?;
        d1.add_assign(&ka)?;
        Ok(Ciphertext::new(d0, d1, a.level, a.scale * b.scale))
    }

    /// Squares a ciphertext (same flow as [`Evaluator::mul`]).
    ///
    /// # Errors
    ///
    /// Propagates key-switching failures.
    pub fn square(&self, a: &Ciphertext) -> crate::Result<Ciphertext> {
        self.mul(a, a)
    }

    /// PMult: multiplies by a plaintext polynomial. The output scale is the
    /// product of the scales.
    ///
    /// # Errors
    ///
    /// Fails if the plaintext level is below the ciphertext level.
    pub fn mul_plain(&self, a: &Ciphertext, p: &Plaintext) -> crate::Result<Ciphertext> {
        let level = a.level.min(p.level);
        let a = self.level_reduce_cow(a, level)?;
        let p_poly = Self::plain_at_level(p, level);
        Ok(Ciphertext::new(
            a.c0.mul(&p_poly)?,
            a.c1.mul(&p_poly)?,
            level,
            a.scale * p.scale,
        ))
    }

    /// PAdd: adds a plaintext polynomial.
    ///
    /// # Errors
    ///
    /// Fails on scale mismatch.
    pub fn add_plain(&self, a: &Ciphertext, p: &Plaintext) -> crate::Result<Ciphertext> {
        Self::check_scales(a.scale, p.scale)?;
        let level = a.level.min(p.level);
        let a = self.level_reduce_cow(a, level)?;
        let p_poly = Self::plain_at_level(p, level);
        Ok(Ciphertext::new(
            a.c0.add(&p_poly)?,
            a.c1.clone(),
            level,
            a.scale,
        ))
    }

    /// The plaintext polynomial at `level`, borrowed when it already sits
    /// there.
    fn plain_at_level(p: &Plaintext, level: usize) -> Cow<'_, RnsPoly> {
        if p.level == level {
            Cow::Borrowed(&p.poly)
        } else {
            Cow::Owned(p.poly.keep_limbs(level + 1))
        }
    }

    /// `round(value · scale)`, the integer a real constant encodes to.
    /// Encoding `value` in every slot yields exactly that constant polynomial
    /// (the inverse FFT of a splat is its value in coefficient 0 and zero
    /// elsewhere), and the NTT of a constant polynomial is the constant in
    /// every slot — so the scalar ops below are bit-identical to encoding the
    /// splat and applying it as a plaintext.
    fn scaled_constant(value: f64, scale: f64) -> i64 {
        (value * scale).round() as i64
    }

    /// CMult: multiplies every slot by a real constant. The constant is scaled
    /// by the context scale, so the output scale is `ct.scale · Δ`.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for API stability.
    pub fn mul_const(&self, a: &Ciphertext, value: f64) -> crate::Result<Ciphertext> {
        let scale = self.context.scale();
        let constant = Self::scaled_constant(value, scale);
        Ok(Ciphertext::new(
            a.c0.mul_scalar(constant),
            a.c1.mul_scalar(constant),
            a.level,
            a.scale * scale,
        ))
    }

    /// CAdd: adds a real constant to every slot.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext's scale is not positive and finite, or if it
    /// is not in the NTT domain.
    pub fn add_const(&self, a: &Ciphertext, value: f64) -> crate::Result<Ciphertext> {
        Self::check_scales(a.scale, a.scale)?;
        Self::check_ntt(a)?;
        let constant = Self::scaled_constant(value, a.scale);
        let mut c0 = a.c0.clone();
        let n = self.context.degree();
        let q = self.context.q_basis();
        bts_math::par::par_limbs(
            c0.data_mut().chunks_exact_mut(n).collect(),
            |i, limb: &mut [u64]| {
                let qi = q.modulus(i);
                let residue = qi.from_i64(constant);
                for x in limb.iter_mut() {
                    *x = qi.add(*x, residue);
                }
            },
        );
        Ok(Ciphertext::new(c0, a.c1.clone(), a.level, a.scale))
    }

    /// HRescale: divides the ciphertext by the last prime modulus, dropping one
    /// level and dividing the scale by `q_ℓ` (§2.4).
    ///
    /// Only the dropped limb leaves the NTT domain: the correction
    /// `[c_ℓ]_{q_i}` is transformed forward per kept limb and subtracted
    /// there (the NTT is linear and exact), so one polynomial costs one iNTT
    /// and ℓ NTTs instead of ℓ+1 and ℓ.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext is at level 0 or not in the NTT domain.
    pub fn rescale(&self, a: &Ciphertext) -> crate::Result<Ciphertext> {
        if a.level == 0 {
            return Err(CkksError::LevelExhausted {
                level: 0,
                required: 1,
            });
        }
        Self::check_ntt(a)?;
        let last = a.level;
        let q_last = self.context.q_modulus(last);
        let n = self.context.degree();
        let inverses = self.context.rescale_constants(last);
        let kept_basis = self.context.basis_at_level(last - 1);
        let rescale_poly = |poly: &RnsPoly| -> RnsPoly {
            let mut dropped = poly.limb(last).to_vec();
            self.context.q_basis().table(last).inverse(&mut dropped);
            let mut out = RnsPoly::zero(&kept_basis, Representation::Ntt);
            bts_math::par::par_limbs(
                out.data_mut().chunks_exact_mut(n).collect(),
                |i, limb: &mut [u64]| {
                    let qi = kept_basis.modulus(i);
                    for (r, &c) in limb.iter_mut().zip(&dropped) {
                        *r = qi.reduce(c);
                    }
                    kept_basis.table(i).forward(limb);
                    let q_last_inv = qi.shoup(inverses[i]);
                    for (r, &x) in limb.iter_mut().zip(poly.limb(i)) {
                        *r = qi.mul_shoup(qi.sub(x, *r), &q_last_inv);
                    }
                },
            );
            out
        };
        Ok(Ciphertext::new(
            rescale_poly(&a.c0),
            rescale_poly(&a.c1),
            last - 1,
            a.scale / q_last as f64,
        ))
    }

    /// Multiplies two ciphertexts and immediately rescales — the most common
    /// composite in applications.
    ///
    /// # Errors
    ///
    /// Propagates multiplication and rescaling failures.
    pub fn mul_rescale(&self, a: &Ciphertext, b: &Ciphertext) -> crate::Result<Ciphertext> {
        self.rescale(&self.mul(a, b)?)
    }

    /// HRot: rotates the message vector by `r` slots (Eq. 5/6) using the
    /// rotation key generated for `r` — the one-step case of
    /// [`Evaluator::rotate_hoisted`].
    ///
    /// # Errors
    ///
    /// Fails with [`CkksError::MissingKey`] if no key for `r` exists.
    pub fn rotate(&self, a: &Ciphertext, r: i64) -> crate::Result<Ciphertext> {
        let mut rotated = self.rotate_hoisted(a, &[r])?;
        Ok(rotated.pop().expect("one step in, one ciphertext out"))
    }

    /// Rotates one ciphertext by every amount in `steps`, raising `c1` to the
    /// extended basis once for the whole group (the ModUp hoisting of the
    /// rotation-heavy linear transforms, §3.3): ModUp, then per step a
    /// permutation, the inner product with that step's key and ModDown.
    /// `result[i]` is bit-identical to `rotate(a, steps[i])`.
    ///
    /// # Errors
    ///
    /// Fails with [`CkksError::MissingKey`] if a step has no rotation key.
    pub fn rotate_hoisted(&self, a: &Ciphertext, steps: &[i64]) -> crate::Result<Vec<Ciphertext>> {
        // Zero steps are copies; a group of nothing else needs no ModUp.
        if steps.iter().all(|&r| r == 0) {
            return Ok(vec![a.clone(); steps.len()]);
        }
        let digits = self.decompose(a)?;
        steps
            .iter()
            .map(|&r| self.rotate_decomposed(a, &digits, r))
            .collect()
    }

    /// The key-switch digits of `a.c1`: the part of a rotation or conjugation
    /// of `a` that does not depend on which one it is. Callers that meet the
    /// rotations of a ciphertext one at a time (the circuit executors) keep
    /// this beside it and pass it to [`Evaluator::rotate_decomposed`] /
    /// [`Evaluator::conjugate_decomposed`].
    ///
    /// # Errors
    ///
    /// Propagates key-switching failures.
    pub fn decompose(&self, a: &Ciphertext) -> crate::Result<Decomposed> {
        self.context.decompose(&a.c1)
    }

    /// [`Evaluator::rotate`] given `digits = self.decompose(a)`.
    ///
    /// # Errors
    ///
    /// Fails with [`CkksError::MissingKey`] if no key for `r` exists.
    pub fn rotate_decomposed(
        &self,
        a: &Ciphertext,
        digits: &Decomposed,
        r: i64,
    ) -> crate::Result<Ciphertext> {
        if r == 0 {
            return Ok(a.clone());
        }
        let key = self
            .keys
            .rotation(r)
            .ok_or_else(|| CkksError::MissingKey(format!("rotation key for r = {r}")))?;
        let galois = bts_math::galois_element(r, self.context.degree(), false);
        self.apply_galois(a, digits, galois, key)
    }

    /// Complex conjugation of every slot.
    ///
    /// # Errors
    ///
    /// Fails with [`CkksError::MissingKey`] if the conjugation key is missing.
    pub fn conjugate(&self, a: &Ciphertext) -> crate::Result<Ciphertext> {
        self.conjugate_decomposed(a, &self.decompose(a)?)
    }

    /// [`Evaluator::conjugate`] given `digits = self.decompose(a)`.
    ///
    /// # Errors
    ///
    /// Fails with [`CkksError::MissingKey`] if the conjugation key is missing.
    pub fn conjugate_decomposed(
        &self,
        a: &Ciphertext,
        digits: &Decomposed,
    ) -> crate::Result<Ciphertext> {
        let key = self
            .keys
            .conjugation()
            .ok_or_else(|| CkksError::MissingKey("conjugation key".to_string()))?;
        let galois = bts_math::galois_element(0, self.context.degree(), true);
        self.apply_galois(a, digits, galois, key)
    }

    /// The one body behind every rotation and conjugation: `σ_g` applied to
    /// `c0` as an NTT-domain gather, and to `c1` by reading its digits
    /// through the same gather inside the key-switch.
    fn apply_galois(
        &self,
        a: &Ciphertext,
        digits: &Decomposed,
        galois: u64,
        key: &EvaluationKey,
    ) -> crate::Result<Ciphertext> {
        if !digits.is_cut_from(&a.c1) {
            return Err(CkksError::OperandMismatch(
                "key-switch digits were not decomposed from this ciphertext".to_string(),
            ));
        }
        let table = self.context.automorphism_table(galois)?;
        let mut c0 = a.c0.automorphism(&table);
        let (kb, ka) = self.context.switch_decomposed(digits, key, Some(&table))?;
        c0.add_assign(&kb)?;
        Ok(Ciphertext::new(c0, ka, a.level, a.scale))
    }

    /// Applies a homomorphic linear transform (matrix–vector product in slot
    /// space) expressed by its generalized diagonals, consuming one level.
    ///
    /// # Errors
    ///
    /// Fails if a required rotation key is missing.
    pub fn linear_transform(
        &self,
        a: &Ciphertext,
        transform: &LinearTransform,
    ) -> crate::Result<Ciphertext> {
        // Every diagonal rotates the same input, so its ModUp is shared.
        let digits = self.decompose(a)?;
        let mut acc: Option<Ciphertext> = None;
        for (&rotation, diag) in &transform.diagonals {
            let rotated = self.rotate_decomposed(a, &digits, rotation)?;
            let pt = self
                .context
                .encode_at(diag, rotated.level, self.context.scale())?;
            let term = self.mul_plain(&rotated, &pt)?;
            acc = Some(match acc {
                None => term,
                Some(prev) => self.add(&prev, &term)?,
            });
        }
        let acc = acc.ok_or_else(|| {
            CkksError::InvalidParameters("linear transform has no diagonals".to_string())
        })?;
        self.rescale(&acc)
    }

    /// Evaluates a real-coefficient polynomial `Σ c_i x^i` on a ciphertext via
    /// Horner's rule, consuming `deg` levels.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext runs out of levels.
    pub fn eval_polynomial(&self, x: &Ciphertext, coeffs: &[f64]) -> crate::Result<Ciphertext> {
        if coeffs.len() < 2 {
            return Err(CkksError::InvalidParameters(
                "polynomial must have degree at least 1".to_string(),
            ));
        }
        let degree = coeffs.len() - 1;
        if x.level < degree {
            return Err(CkksError::LevelExhausted {
                level: x.level,
                required: degree,
            });
        }
        // Horner: acc = c_d·x + c_{d-1}; then repeatedly acc = acc·x + c_i.
        let mut acc = self.rescale(&self.mul_const(x, coeffs[degree])?)?;
        acc = self.add_const(&acc, coeffs[degree - 1])?;
        for i in (0..degree - 1).rev() {
            let x_aligned = self.level_reduce(x, acc.level)?;
            acc = self.rescale(&self.mul(&acc, &x_aligned)?)?;
            acc = self.add_const(&acc, coeffs[i])?;
        }
        Ok(acc)
    }

    /// Access to the bound key bundle (used by the bootstrapping driver).
    pub fn keys(&self) -> &KeyBundle {
        self.keys
    }
}

/// A homomorphic linear transform described by its generalized diagonals:
/// `out = Σ_r diag_r ⊙ rot(in, r)`. This is the primitive both CoeffToSlot and
/// SlotToCoeff reduce to, and the op pattern that dominates bootstrapping's
/// HRot count (§3.3).
#[derive(Debug, Clone)]
pub struct LinearTransform {
    diagonals: BTreeMap<i64, Vec<Complex>>,
}

impl LinearTransform {
    /// Builds a transform from an explicit (dense) `slots × slots` matrix,
    /// extracting its non-zero generalized diagonals.
    pub fn from_matrix(matrix: &[Vec<Complex>]) -> Self {
        let slots = matrix.len();
        let mut diagonals = BTreeMap::new();
        for r in 0..slots {
            let diag: Vec<Complex> = (0..slots).map(|i| matrix[i][(i + r) % slots]).collect();
            if diag.iter().any(|c| c.abs() > 1e-12) {
                diagonals.insert(r as i64, diag);
            }
        }
        Self { diagonals }
    }

    /// Builds a transform directly from its non-zero diagonals.
    pub fn from_diagonals(diagonals: BTreeMap<i64, Vec<Complex>>) -> Self {
        Self { diagonals }
    }

    /// The rotation amounts (diagonal indices) this transform needs keys for.
    pub fn rotations(&self) -> Vec<i64> {
        self.diagonals.keys().copied().filter(|&r| r != 0).collect()
    }

    /// Number of non-zero diagonals.
    pub fn diagonal_count(&self) -> usize {
        self.diagonals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use rand::SeedableRng;

    #[test]
    fn zero_scales_are_rejected_instead_of_nan_passing() {
        // (0 - 0) / max(0, 0) is NaN, and `NaN > tol` is false, so before the
        // guard two zero-scale ciphertexts silently passed the mismatch check.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let ctx = CkksContext::new_toy(1 << 10, 3, 2).unwrap();
        let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
        let eval = ctx.evaluator(&keys);
        let msg = vec![Complex::new(0.25, 0.0); ctx.slots()];
        let ct = ctx
            .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
            .unwrap();
        let broken = Ciphertext::new(ct.c0().clone(), ct.c1().clone(), ct.level(), 0.0);
        for result in [
            eval.add(&broken, &broken),
            eval.sub(&broken, &broken),
            eval.add(&broken, &ct),
        ] {
            assert!(
                matches!(result, Err(CkksError::OperandMismatch(_))),
                "zero scales must be an OperandMismatch"
            );
        }
        // Healthy ciphertexts are unaffected.
        assert!(eval.add(&ct, &ct).is_ok());
    }
}
