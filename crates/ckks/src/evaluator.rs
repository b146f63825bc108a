use std::borrow::Cow;

use bts_math::{Modulus, NttTable, Representation, RnsPoly};

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::{CkksContext, Decomposed, Land};
use crate::error::CkksError;
use crate::keys::{EvaluationKey, KeyBundle};

/// Relative scale mismatch tolerated when adding ciphertexts. Scales drift by
/// roughly `|Δ - q_i| / Δ` per rescale because the scaling primes are only
/// approximately equal to Δ; deep circuits (bootstrapping) accumulate a few
/// parts in 10^4 of drift, which we fold into the message error rather than
/// rejecting the operation.
const SCALE_TOLERANCE: f64 = 5e-3;

/// Evaluates homomorphic operations on ciphertexts: the HAdd / HMult / HRot /
/// HRescale / CMult / PMult primitives of §2.3, plus the hoisted rotations
/// bootstrapping's CoeffToSlot/SlotToCoeff transforms are built from.
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

    /// Every `_into` body reads its operands' limbs in place at the level it
    /// computes at, so each polynomial must be in the NTT domain — the
    /// kernels work slot-wise — and sit on this context's modulus chain with
    /// at least `level + 1` limbs. Every ciphertext this crate produces does.
    fn check_operands(&self, level: usize, operands: &[&Ciphertext]) -> crate::Result<()> {
        let basis = self.context.basis_at_level(level);
        for poly in operands.iter().flat_map(|ct| [&ct.c0, &ct.c1]) {
            if poly.representation() != Representation::Ntt {
                return Err(CkksError::OperandMismatch(
                    "ciphertext polynomials must be in the NTT domain".to_string(),
                ));
            }
            if !basis.is_prefix_of(poly.basis()) {
                return Err(CkksError::OperandMismatch(format!(
                    "ciphertext is not on this context's modulus chain at level {level}"
                )));
            }
        }
        Ok(())
    }

    /// Shapes `out` as this context's level-`level` NTT-domain polynomial and
    /// fills limb `j` with `f(j, table_j, limb_j)`: where every `_into` body
    /// writes its result.
    fn write(&self, out: &mut RnsPoly, level: usize, f: impl FnMut(usize, &NttTable, &mut [u64])) {
        out.reshape(&self.context.basis_at_level(level), Representation::Ntt)
            .for_each_limb_mut(f);
    }

    /// Runs an `_into` body on a fresh destination: the allocating form of
    /// every op.
    fn fresh(
        &self,
        body: impl FnOnce(&mut Ciphertext) -> crate::Result<()>,
    ) -> crate::Result<Ciphertext> {
        let mut dst = self.context.empty_ciphertext();
        body(&mut dst)?;
        Ok(dst)
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

    /// HAdd: element-wise addition (Eq. 2).
    ///
    /// # Errors
    ///
    /// Fails on scale mismatch.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> crate::Result<Ciphertext> {
        self.fresh(|dst| self.add_into(a, b, dst))
    }

    /// [`Evaluator::add`] written into `dst`, at the lower of the two levels
    /// (the higher operand's extra limbs are never read).
    ///
    /// # Errors
    ///
    /// As [`Evaluator::add`]; on error `dst` is left unspecified, as it is by
    /// every `_into` op.
    pub fn add_into(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        dst: &mut Ciphertext,
    ) -> crate::Result<()> {
        self.zip_into(a, b, dst, Modulus::add)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Fails on scale mismatch.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> crate::Result<Ciphertext> {
        self.fresh(|dst| self.zip_into(a, b, dst, Modulus::sub))
    }

    /// The body of HAdd and subtraction: `f` residue-wise over both
    /// polynomial pairs at the lower of the two levels.
    fn zip_into(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        dst: &mut Ciphertext,
        f: impl Fn(&Modulus, u64, u64) -> u64 + Copy,
    ) -> crate::Result<()> {
        Self::check_scales(a.scale, b.scale)?;
        let level = a.level.min(b.level);
        self.check_operands(level, &[a, b])?;
        for (out, x, y) in [(&mut dst.c0, &a.c0, &b.c0), (&mut dst.c1, &a.c1, &b.c1)] {
            self.write(out, level, |j, table, limb| {
                let q = table.modulus();
                for ((out, &u), &v) in limb.iter_mut().zip(x.limb(j)).zip(y.limb(j)) {
                    *out = f(q, u, v);
                }
            });
        }
        dst.level = level;
        dst.scale = a.scale;
        Ok(())
    }

    /// HMult: tensor product followed by key-switching with the
    /// relinearization key (Eq. 3/4). The output scale is the product of the
    /// input scales; call [`Evaluator::rescale`] afterwards to bring it back.
    ///
    /// # Errors
    ///
    /// Propagates key-switching failures.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> crate::Result<Ciphertext> {
        self.fresh(|dst| self.mul_into(a, b, dst))
    }

    /// [`Evaluator::mul`] written into `dst`: `d0 = a0·b0` and
    /// `d1 = a0·b1 + a1·b0` straight into its polynomials, `d2 = a1·b1` in
    /// the context's pooled scratch, and the key-switch of `d2` added onto
    /// `d0` / `d1` by ModDown's last pass. `mul_into(x, x, dst)` squares.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::mul`].
    pub fn mul_into(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        dst: &mut Ciphertext,
    ) -> crate::Result<()> {
        let level = a.level.min(b.level);
        self.check_operands(level, &[a, b])?;
        let (a0, a1, b0, b1) = (&a.c0, &a.c1, &b.c0, &b.c1);
        self.write(&mut dst.c0, level, |j, table, d0| {
            let q = table.modulus();
            for ((out, &x), &y) in d0.iter_mut().zip(a0.limb(j)).zip(b0.limb(j)) {
                *out = q.mul(x, y);
            }
        });
        self.write(&mut dst.c1, level, |j, table, d1| {
            let q = table.modulus();
            let cross = a0.limb(j).iter().zip(b1.limb(j));
            let terms = cross.zip(a1.limb(j).iter().zip(b0.limb(j)));
            for (out, ((&x0, &y1), (&x1, &y0))) in d1.iter_mut().zip(terms) {
                *out = q.mul_add(x1, y0, q.mul(x0, y1));
            }
        });
        self.context
            .relinearize_into(a1, b1, self.keys.relin(), &mut dst.c0, &mut dst.c1)?;
        dst.level = level;
        dst.scale = a.scale * b.scale;
        Ok(())
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
    /// Fails if the ciphertext is not in the NTT domain.
    pub fn mul_const(&self, a: &Ciphertext, value: f64) -> crate::Result<Ciphertext> {
        self.fresh(|dst| self.mul_const_into(a, value, dst))
    }

    /// [`Evaluator::mul_const`] written into `dst`.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::mul_const`].
    pub fn mul_const_into(
        &self,
        a: &Ciphertext,
        value: f64,
        dst: &mut Ciphertext,
    ) -> crate::Result<()> {
        self.mul_const_at_into(a, value, self.context.scale(), dst)
    }

    /// CMult with the constant encoded at `scale` instead of Δ (output scale
    /// `ct.scale · scale`): lands a term on exactly another operand's scale.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::mul_const`].
    pub fn mul_const_at(
        &self,
        a: &Ciphertext,
        value: f64,
        scale: f64,
    ) -> crate::Result<Ciphertext> {
        self.fresh(|dst| self.mul_const_at_into(a, value, scale, dst))
    }

    /// [`Evaluator::mul_const_at`] written into `dst`.
    fn mul_const_at_into(
        &self,
        a: &Ciphertext,
        value: f64,
        scale: f64,
        dst: &mut Ciphertext,
    ) -> crate::Result<()> {
        self.check_operands(a.level, &[a])?;
        let constant = Self::scaled_constant(value, scale);
        for (out, x) in [(&mut dst.c0, &a.c0), (&mut dst.c1, &a.c1)] {
            self.write(out, a.level, |j, table, limb| {
                let q = table.modulus();
                let w = q.shoup(q.reduce(q.from_i64(constant)));
                for (out, &v) in limb.iter_mut().zip(x.limb(j)) {
                    *out = q.mul_shoup(v, &w);
                }
            });
        }
        dst.level = a.level;
        dst.scale = a.scale * scale;
        Ok(())
    }

    /// CAdd: adds a real constant to every slot.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext's scale is not positive and finite, or if it
    /// is not in the NTT domain.
    pub fn add_const(&self, a: &Ciphertext, value: f64) -> crate::Result<Ciphertext> {
        self.fresh(|dst| self.add_const_into(a, value, dst))
    }

    /// [`Evaluator::add_const`] written into `dst`.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::add_const`].
    pub fn add_const_into(
        &self,
        a: &Ciphertext,
        value: f64,
        dst: &mut Ciphertext,
    ) -> crate::Result<()> {
        Self::check_scales(a.scale, a.scale)?;
        self.check_operands(a.level, &[a])?;
        let constant = Self::scaled_constant(value, a.scale);
        self.write(&mut dst.c0, a.level, |j, table, limb| {
            let q = table.modulus();
            let residue = q.from_i64(constant);
            for (out, &x) in limb.iter_mut().zip(a.c0.limb(j)) {
                *out = q.add(x, residue);
            }
        });
        dst.c1.clone_from(&a.c1);
        dst.level = a.level;
        dst.scale = a.scale;
        Ok(())
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
        self.fresh(|dst| self.rescale_into(a, dst))
    }

    /// [`Evaluator::rescale`] written into `dst`; the dropped limb is
    /// inverse-transformed in the context's pooled scratch.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::rescale`].
    pub fn rescale_into(&self, a: &Ciphertext, dst: &mut Ciphertext) -> crate::Result<()> {
        if a.level == 0 {
            return Err(CkksError::LevelExhausted {
                level: 0,
                required: 1,
            });
        }
        self.check_operands(a.level, &[a])?;
        let last = a.level;
        let q_last = self.context.q_modulus(last);
        let inverses = self.context.rescale_constants(last);
        self.context.with_scratch(|s| {
            for (out, poly) in [(&mut dst.c0, &a.c0), (&mut dst.c1, &a.c1)] {
                s.limb.clear();
                s.limb.extend_from_slice(poly.limb(last));
                self.context.q_basis().table(last).inverse(&mut s.limb);
                let dropped = &s.limb;
                self.write(out, last - 1, |i, table, limb| {
                    let qi = table.modulus();
                    for (r, &c) in limb.iter_mut().zip(dropped) {
                        *r = qi.reduce(c);
                    }
                    table.forward(limb);
                    let q_last_inv = qi.shoup(inverses[i]);
                    for (r, &x) in limb.iter_mut().zip(poly.limb(i)) {
                        *r = qi.mul_shoup(qi.sub(x, *r), &q_last_inv);
                    }
                });
            }
        });
        dst.level = last - 1;
        dst.scale = a.scale / q_last as f64;
        Ok(())
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
    /// Fails with [`CkksError::MissingKey`] if no key for `r` serves `a`'s
    /// level.
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
    /// Fails with [`CkksError::MissingKey`] if a step has no rotation key
    /// serving `a`'s level.
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
    /// Fails with [`CkksError::MissingKey`] if no key for `r` serves `a`'s
    /// level.
    pub fn rotate_decomposed(
        &self,
        a: &Ciphertext,
        digits: &Decomposed,
        r: i64,
    ) -> crate::Result<Ciphertext> {
        self.fresh(|dst| self.rotate_decomposed_into(a, digits, r, dst))
    }

    /// [`Evaluator::rotate_decomposed`] written into `dst` (a copy of `a`
    /// for `r = 0`).
    ///
    /// # Errors
    ///
    /// As [`Evaluator::rotate_decomposed`].
    pub fn rotate_decomposed_into(
        &self,
        a: &Ciphertext,
        digits: &Decomposed,
        r: i64,
        dst: &mut Ciphertext,
    ) -> crate::Result<()> {
        if r == 0 {
            dst.clone_from(a);
            return Ok(());
        }
        let key = self
            .keys
            .rotation(r)
            .ok_or_else(|| CkksError::MissingKey(format!("rotation key for r = {r}")))?;
        let galois = bts_math::galois_element(r, self.context.degree(), false);
        self.apply_galois_into(a, digits, galois, key, dst)
    }

    /// Complex conjugation of every slot.
    ///
    /// # Errors
    ///
    /// Fails with [`CkksError::MissingKey`] if the conjugation key is missing
    /// or serves a lower level than `a`'s.
    pub fn conjugate(&self, a: &Ciphertext) -> crate::Result<Ciphertext> {
        self.conjugate_decomposed(a, &self.decompose(a)?)
    }

    /// [`Evaluator::conjugate`] given `digits = self.decompose(a)`.
    ///
    /// # Errors
    ///
    /// Fails with [`CkksError::MissingKey`] if the conjugation key is missing
    /// or serves a lower level than `a`'s.
    pub fn conjugate_decomposed(
        &self,
        a: &Ciphertext,
        digits: &Decomposed,
    ) -> crate::Result<Ciphertext> {
        self.fresh(|dst| self.conjugate_decomposed_into(a, digits, dst))
    }

    /// [`Evaluator::conjugate_decomposed`] written into `dst`.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::conjugate_decomposed`].
    pub fn conjugate_decomposed_into(
        &self,
        a: &Ciphertext,
        digits: &Decomposed,
        dst: &mut Ciphertext,
    ) -> crate::Result<()> {
        let key = self
            .keys
            .conjugation()
            .ok_or_else(|| CkksError::MissingKey("conjugation key".to_string()))?;
        let galois = bts_math::galois_element(0, self.context.degree(), true);
        self.apply_galois_into(a, digits, galois, key, dst)
    }

    /// The one body behind every rotation and conjugation: `σ_g` applied to
    /// `c0` as an NTT-domain gather straight into `dst.c0`, and to `c1` by
    /// reading its digits through the same gather inside the key-switch,
    /// whose ModDown adds its `b` half onto the permuted `c0`.
    fn apply_galois_into(
        &self,
        a: &Ciphertext,
        digits: &Decomposed,
        galois: u64,
        key: &EvaluationKey,
        dst: &mut Ciphertext,
    ) -> crate::Result<()> {
        if !digits.is_cut_from(&a.c1) {
            return Err(CkksError::OperandMismatch(
                "key-switch digits were not decomposed from this ciphertext".to_string(),
            ));
        }
        self.check_operands(a.level, &[a])?;
        let table = self.context.automorphism_table(galois)?;
        a.c0.automorphism_into(&table, &mut dst.c0);
        self.context.with_scratch(|s| {
            self.context.switch_into(
                digits,
                key,
                Some(&table),
                (&mut dst.c0, Land::Accumulate),
                (&mut dst.c1, Land::Overwrite),
                s,
            )
        })?;
        dst.level = a.level;
        dst.scale = a.scale;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::encoding::Complex;
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

    /// A constant encoded at a chosen scale lands the product on exactly
    /// `ct.scale · scale`; at Δ it is `mul_const`, bit for bit.
    #[test]
    fn mul_const_at_lands_on_the_requested_scale() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let ctx = CkksContext::new_toy(1 << 8, 3, 1).unwrap();
        let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
        let eval = ctx.evaluator(&keys);
        let msg = vec![Complex::new(0.25, 0.0); ctx.slots()];
        let ct = ctx
            .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
            .unwrap();
        assert_eq!(
            eval.mul_const_at(&ct, 1.5, ctx.scale()).unwrap(),
            eval.mul_const(&ct, 1.5).unwrap()
        );
        let scale = 1.3 * ctx.scale();
        let out = eval.mul_const_at(&ct, 1.5, scale).unwrap();
        assert_eq!(out.scale(), ct.scale() * scale);
        let decoded = ctx.decode(&ctx.decrypt(&out, &sk).unwrap()).unwrap();
        assert!(decoded.iter().all(|v| (v.re - 0.375).abs() < 1e-6));
    }
}
