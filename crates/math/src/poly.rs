use crate::automorphism::AutomorphismTable;
use crate::ntt::NttTable;
use crate::rns::RnsBasis;
use crate::MathError;

/// Domain of an [`RnsPoly`]'s limbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Plain coefficients of the polynomial (the paper's "RNS domain").
    Coefficient,
    /// Evaluations at the roots of unity (the "NTT domain"); element-wise
    /// multiplication in this domain is negacyclic convolution.
    Ntt,
}

/// A polynomial in `R_Q = Z_Q[X]/(X^N + 1)` stored on an RNS basis as one
/// contiguous limb-major buffer: the `N × (ℓ+1)` residue matrix of the paper
/// (Eq. 1), with limb `j` occupying `data[j·N .. (j+1)·N]`.
///
/// The flat layout is what lets the hot paths run without allocating: limbs
/// are `&[u64]`/`&mut [u64]` *views* ([`RnsPoly::limb`],
/// [`RnsPoly::limb_mut`]), dropping limbs is a `Vec::truncate`
/// ([`RnsPoly::into_keep_limbs`], [`RnsPoly::drop_last_limb`]), per-limb
/// kernels walk it limb by limb ([`RnsPoly::for_each_limb_mut`]) — the
/// matrix the accelerator slices across its PE groups —
/// and a polynomial whose value is dead can be re-purposed as another's
/// destination ([`RnsPoly::reshape`], `clone_from`) instead of freed. The
/// basis is a shared view, so none of this touches the heap once the buffer
/// is large enough.
///
/// Binary operations require both operands to live on identical bases and in
/// the same representation; conversions are explicit ([`RnsPoly::to_ntt`],
/// [`RnsPoly::to_coefficient`]) because they are exactly the (i)NTT passes the
/// accelerator schedules.
#[derive(Debug, PartialEq)]
pub struct RnsPoly {
    basis: RnsBasis,
    rep: Representation,
    /// Limb-major residues, `basis.len() · basis.degree()` words.
    data: Vec<u64>,
}

impl Clone for RnsPoly {
    fn clone(&self) -> Self {
        Self {
            basis: self.basis.clone(),
            rep: self.rep,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into this polynomial's buffer, which only grows.
    fn clone_from(&mut self, source: &Self) {
        self.basis.clone_from(&source.basis);
        self.rep = source.rep;
        self.data.clone_from(&source.data);
    }
}

impl RnsPoly {
    /// The all-zero polynomial on `basis` in the given representation.
    pub fn zero(basis: &RnsBasis, rep: Representation) -> Self {
        Self {
            basis: basis.clone(),
            rep,
            data: vec![0u64; basis.len() * basis.degree()],
        }
    }

    /// Builds a polynomial from signed coefficients (length ≤ N; shorter inputs
    /// are zero-padded), producing a coefficient-domain polynomial.
    ///
    /// # Panics
    ///
    /// Panics if more than N coefficients are supplied.
    pub fn from_signed_coefficients(basis: &RnsBasis, coeffs: &[i64]) -> Self {
        let n = basis.degree();
        assert!(coeffs.len() <= n, "too many coefficients");
        let mut out = Self::zero(basis, Representation::Coefficient);
        for j in 0..basis.len() {
            let q = basis.modulus(j);
            for (c, &v) in out.limb_mut(j).iter_mut().zip(coeffs.iter()) {
                *c = q.from_i64(v);
            }
        }
        out
    }

    /// Samples a uniformly random polynomial (independent uniform residues per
    /// limb), in the requested representation.
    pub fn sample_uniform<R: rand::Rng + ?Sized>(
        basis: &RnsBasis,
        rep: Representation,
        rng: &mut R,
    ) -> Self {
        let mut out = Self::zero(&basis.prefix(0), rep);
        out.sample_uniform_into(basis, rep, rng);
        out
    }

    /// [`RnsPoly::sample_uniform`] into this polynomial's buffer: the same
    /// draws, limb by limb, as [`crate::sample_uniform`] per limb.
    pub fn sample_uniform_into<R: rand::Rng + ?Sized>(
        &mut self,
        basis: &RnsBasis,
        rep: Representation,
        rng: &mut R,
    ) {
        self.reshape(basis, rep);
        for j in 0..basis.len() {
            crate::sample_uniform_into(rng, basis.modulus(j).value(), self.limb_mut(j));
        }
    }

    /// The ring degree N.
    pub fn degree(&self) -> usize {
        self.basis.degree()
    }

    /// Number of RNS limbs.
    pub fn limb_count(&self) -> usize {
        self.basis.len()
    }

    /// The RNS basis.
    pub fn basis(&self) -> &RnsBasis {
        &self.basis
    }

    /// Current representation.
    pub fn representation(&self) -> Representation {
        self.rep
    }

    /// Read-only view of limb `j`.
    pub fn limb(&self, j: usize) -> &[u64] {
        let n = self.degree();
        &self.data[j * n..(j + 1) * n]
    }

    /// Mutable view of limb `j` (for in-place kernels).
    pub fn limb_mut(&mut self, j: usize) -> &mut [u64] {
        let n = self.degree();
        &mut self.data[j * n..(j + 1) * n]
    }

    /// Iterator over the limb views, in basis order.
    pub fn limbs(&self) -> impl Iterator<Item = &[u64]> {
        self.data.chunks_exact(self.basis.degree())
    }

    /// The whole limb-major residue buffer.
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Mutable access to the limb-major buffer (shape must be kept).
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Re-purposes this polynomial's buffer as one on `basis` in `rep` — the
    /// first step of every `_into` kernel's destination. The buffer only
    /// grows, to exactly `basis.len() · N` words the first time it is too
    /// small; the residues are left for the caller to overwrite, and every
    /// caller writes all of them.
    pub fn reshape(&mut self, basis: &RnsBasis, rep: Representation) -> &mut Self {
        let len = basis.len() * basis.degree();
        if len > self.data.capacity() {
            self.data = vec![0; len];
        } else {
            self.data.resize(len, 0);
        }
        self.basis.clone_from(basis);
        self.rep = rep;
        self
    }

    /// Makes room for `limbs` limbs without changing the value, so reshaping
    /// to that many later never allocates.
    pub fn reserve_limbs(&mut self, limbs: usize) {
        let words = limbs * self.degree();
        self.data
            .reserve_exact(words.saturating_sub(self.data.len()));
    }

    /// Runs `f(j, table_j, limb_j)` for every limb in order: the one loop
    /// every per-limb kernel here and in the CKKS evaluator runs through.
    ///
    /// Kept out of line: inlined into its callers, the same loop ran
    /// `fhe_exec` about 1.4 % slower (9 of 10 alternating benchmark pairs).
    #[inline(never)]
    pub fn for_each_limb_mut(&mut self, mut f: impl FnMut(usize, &NttTable, &mut [u64])) {
        let n = self.basis.degree();
        for (j, limb) in self.data.chunks_exact_mut(n).enumerate() {
            f(j, self.basis.table(j), limb);
        }
    }

    fn check_compatible(&self, other: &Self, op: &str) -> crate::Result<()> {
        if self.basis != other.basis {
            return Err(MathError::BasisMismatch(format!(
                "{op}: operands live on different bases"
            )));
        }
        if self.rep != other.rep {
            return Err(MathError::RepresentationMismatch(format!(
                "{op}: operands are in different representations"
            )));
        }
        Ok(())
    }

    /// Converts the polynomial to the NTT domain (no-op if already there).
    /// One forward transform per limb.
    pub fn to_ntt(&mut self) {
        if self.rep == Representation::Ntt {
            return;
        }
        self.for_each_limb_mut(|_, table, limb| table.forward(limb));
        self.rep = Representation::Ntt;
    }

    /// Converts the polynomial to the coefficient domain (no-op if already there).
    pub fn to_coefficient(&mut self) {
        if self.rep == Representation::Coefficient {
            return;
        }
        self.for_each_limb_mut(|_, table, limb| table.inverse(limb));
        self.rep = Representation::Coefficient;
    }

    /// In-place element-wise addition: `self += other`.
    ///
    /// # Errors
    ///
    /// Fails on basis or representation mismatch.
    pub fn add_assign(&mut self, other: &Self) -> crate::Result<()> {
        self.check_compatible(other, "add_assign")?;
        self.for_each_limb_mut(|j, table, limb| {
            let q = table.modulus();
            for (x, &y) in limb.iter_mut().zip(other.limb(j)) {
                *x = q.add(*x, y);
            }
        });
        Ok(())
    }

    /// In-place element-wise subtraction: `self -= other`.
    ///
    /// # Errors
    ///
    /// Fails on basis or representation mismatch.
    pub fn sub_assign(&mut self, other: &Self) -> crate::Result<()> {
        self.check_compatible(other, "sub_assign")?;
        self.for_each_limb_mut(|j, table, limb| {
            let q = table.modulus();
            for (x, &y) in limb.iter_mut().zip(other.limb(j)) {
                *x = q.sub(*x, y);
            }
        });
        Ok(())
    }

    /// In-place negation.
    pub fn neg_assign(&mut self) {
        self.for_each_limb_mut(|_, table, limb| {
            let q = table.modulus();
            for x in limb.iter_mut() {
                *x = q.neg(*x);
            }
        });
    }

    /// In-place element-wise (Hadamard) multiplication: `self ⊙= other`. Both
    /// operands must be in the NTT domain.
    ///
    /// # Errors
    ///
    /// Fails on mismatch or if the operands are in the coefficient domain.
    pub fn mul_assign(&mut self, other: &Self) -> crate::Result<()> {
        self.check_compatible(other, "mul_assign")?;
        if self.rep != Representation::Ntt {
            return Err(MathError::RepresentationMismatch(
                "mul requires NTT-domain operands".to_string(),
            ));
        }
        self.for_each_limb_mut(|j, table, limb| {
            let q = table.modulus();
            for (x, &y) in limb.iter_mut().zip(other.limb(j)) {
                *x = q.mul(*x, y);
            }
        });
        Ok(())
    }

    /// Fused multiply-accumulate: `self += a ⊙ b`, the key-switch inner MAC.
    /// All three polynomials must be compatible and in the NTT domain.
    ///
    /// # Errors
    ///
    /// Fails on mismatch or non-NTT representation.
    pub fn fused_mul_add_assign(&mut self, a: &Self, b: &Self) -> crate::Result<()> {
        self.check_compatible(a, "fused_mul_add_assign")?;
        a.check_compatible(b, "fused_mul_add_assign")?;
        if self.rep != Representation::Ntt {
            return Err(MathError::RepresentationMismatch(
                "fused_mul_add_assign requires NTT-domain operands".to_string(),
            ));
        }
        self.for_each_limb_mut(|j, table, limb| {
            let q = table.modulus();
            for ((x, &u), &v) in limb.iter_mut().zip(a.limb(j)).zip(b.limb(j)) {
                *x = q.mul_add(u, v, *x);
            }
        });
        Ok(())
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Fails on basis or representation mismatch.
    pub fn add(&self, other: &Self) -> crate::Result<Self> {
        let mut out = self.clone();
        out.add_assign(other)?;
        Ok(out)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Fails on basis or representation mismatch.
    pub fn sub(&self, other: &Self) -> crate::Result<Self> {
        let mut out = self.clone();
        out.sub_assign(other)?;
        Ok(out)
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        let mut out = self.clone();
        out.neg_assign();
        out
    }

    /// Element-wise (Hadamard) multiplication. Both operands must be in the
    /// NTT domain, where this realises negacyclic polynomial multiplication.
    ///
    /// # Errors
    ///
    /// Fails on mismatch or if the operands are in the coefficient domain.
    pub fn mul(&self, other: &Self) -> crate::Result<Self> {
        let mut out = self.clone();
        out.mul_assign(other)?;
        Ok(out)
    }

    /// `self + other * scalar_per_limb[j]` fused, used for key-switch
    /// accumulation. Operands must be compatible and in the NTT domain.
    ///
    /// # Errors
    ///
    /// Fails on mismatch or non-NTT representation.
    pub fn mul_constant_add(&self, other: &Self, constants: &[u64]) -> crate::Result<Self> {
        self.check_compatible(other, "mul_constant_add")?;
        if constants.len() != self.limb_count() {
            return Err(MathError::BasisMismatch(
                "constant vector length must equal limb count".to_string(),
            ));
        }
        let mut out = self.clone();
        out.for_each_limb_mut(|j, table, limb| {
            let q = table.modulus();
            let w = constants[j];
            for (x, &y) in limb.iter_mut().zip(other.limb(j)) {
                *x = q.add(*x, q.mul(y, w));
            }
        });
        Ok(out)
    }

    /// In-place variant of [`RnsPoly::mul_constants`].
    ///
    /// # Panics
    ///
    /// Panics if the constant count does not match the limb count.
    pub fn mul_constants_assign(&mut self, constants: &[u64]) {
        assert_eq!(constants.len(), self.limb_count());
        self.for_each_limb_mut(|j, table, limb| {
            let q = table.modulus();
            let w = q.shoup(q.reduce(constants[j]));
            for x in limb.iter_mut() {
                *x = q.mul_shoup(*x, &w);
            }
        });
    }

    /// Multiplies every limb by a per-limb constant (e.g. `[q̂_j^{-1}]_{q_j}` or
    /// `[P^{-1}]_{q_j}`).
    ///
    /// # Panics
    ///
    /// Panics if the constant count does not match the limb count.
    pub fn mul_constants(&self, constants: &[u64]) -> Self {
        let mut out = self.clone();
        out.mul_constants_assign(constants);
        out
    }

    /// Multiplies by a single small scalar (applied to every limb).
    pub fn mul_scalar(&self, scalar: i64) -> Self {
        let constants: Vec<u64> = (0..self.limb_count())
            .map(|j| self.basis.modulus(j).from_i64(scalar))
            .collect();
        self.mul_constants(&constants)
    }

    /// Applies the ring automorphism `X ↦ X^g` described by `table`, in the
    /// polynomial's own representation: the signed coefficient permutation,
    /// or the NTT-domain gather (no transform is performed either way).
    pub fn automorphism(&self, table: &AutomorphismTable) -> Self {
        let mut out = Self::zero(&self.basis.prefix(0), self.rep);
        self.automorphism_into(table, &mut out);
        out
    }

    /// [`RnsPoly::automorphism`] written into `out` (reshaped to this
    /// polynomial's basis and representation): each limb permutes straight
    /// from `&self` into `out`'s limb.
    pub fn automorphism_into(&self, table: &AutomorphismTable, out: &mut Self) {
        let rep = self.rep;
        out.reshape(&self.basis, rep)
            .for_each_limb_mut(|j, limb_table, limb| match rep {
                Representation::Coefficient => {
                    table.apply_into(self.limb(j), limb, limb_table.modulus().value());
                }
                Representation::Ntt => table.apply_ntt_into(self.limb(j), limb),
            });
    }

    /// In-place automorphism using a caller-provided scratch limb (resized to
    /// N as needed): each limb bounces through `scratch` and is permuted back
    /// in its own representation, as in [`RnsPoly::automorphism`].
    pub fn automorphism_apply(&mut self, table: &AutomorphismTable, scratch: &mut Vec<u64>) {
        let n = self.basis.degree();
        let rep = self.rep;
        scratch.resize(n, 0);
        for j in 0..self.basis.len() {
            let q = self.basis.modulus(j).value();
            let limb = self.limb_mut(j);
            scratch.copy_from_slice(limb);
            match rep {
                Representation::Coefficient => table.apply_into(scratch, limb, q),
                Representation::Ntt => table.apply_ntt_into(scratch, limb),
            }
        }
    }

    /// Returns a copy restricted to the first `count` limbs (modulus switch
    /// down without scaling).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the limb count.
    pub fn keep_limbs(&self, count: usize) -> Self {
        assert!(count >= 1 && count <= self.limb_count());
        let n = self.basis.degree();
        Self {
            basis: self.basis.prefix(count),
            rep: self.rep,
            data: self.data[..count * n].to_vec(),
        }
    }

    /// Consuming variant of [`RnsPoly::keep_limbs`]: truncates the existing
    /// buffer in place, so no residue is copied. Use this when the input is
    /// dead after the restriction (rescale, mod-down).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the limb count.
    pub fn into_keep_limbs(mut self, count: usize) -> Self {
        assert!(count >= 1 && count <= self.limb_count());
        let n = self.basis.degree();
        self.data.truncate(count * n);
        self.basis = self.basis.prefix(count);
        self
    }

    /// Returns a copy containing only the limbs at `indices`, in that order
    /// (e.g. the `Q_j` slice of a decomposition, or the special limbs).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_limbs(&self, indices: &[usize]) -> Self {
        let n = self.basis.degree();
        let mut data = Vec::with_capacity(indices.len() * n);
        for &i in indices {
            data.extend_from_slice(self.limb(i));
        }
        Self {
            basis: self.basis.select(indices),
            rep: self.rep,
            data,
        }
    }

    /// Drops the last limb in place (the cheap half of `HRescale`).
    ///
    /// # Panics
    ///
    /// Panics if only one limb remains.
    pub fn drop_last_limb(&mut self) {
        assert!(self.limb_count() > 1, "cannot drop the only limb");
        let n = self.basis.degree();
        self.data.truncate(self.data.len() - n);
        self.basis = self.basis.prefix(self.basis.len() - 1);
    }

    /// Decodes the polynomial back to signed coefficients via CRT, assuming the
    /// represented value is small (fits comfortably in `i128`). Intended for
    /// tests and single-limb decodes.
    ///
    /// # Panics
    ///
    /// Panics when called with more than two limbs (the reconstruction would
    /// not fit the return type); use the CKKS decoder for real decrypts.
    pub fn to_signed_coefficients(&self) -> Vec<i128> {
        assert!(
            self.limb_count() <= 2,
            "signed reconstruction supported for at most two limbs"
        );
        let mut work = self.clone();
        work.to_coefficient();
        let n = self.degree();
        if self.limb_count() == 1 {
            let q = self.basis.modulus(0);
            return work
                .limb(0)
                .iter()
                .map(|&x| q.to_signed(x) as i128)
                .collect();
        }
        let q0 = self.basis.modulus(0);
        let q1 = self.basis.modulus(1);
        let q0v = q0.value() as i128;
        let q1v = q1.value() as i128;
        let q = q0v * q1v;
        let q0_inv_mod_q1 = q1.inv(q1.reduce(q0.value())).expect("coprime moduli") as i128;
        (0..n)
            .map(|c| {
                let a0 = work.limb(0)[c] as i128;
                let a1 = work.limb(1)[c] as i128;
                // CRT: x = a0 + q0 * ((a1 - a0) * q0^{-1} mod q1)
                let diff = (a1 - a0).rem_euclid(q1v);
                let t = diff * q0_inv_mod_q1 % q1v;
                let mut x = a0 + q0v * t;
                x = x.rem_euclid(q);
                if x > q / 2 {
                    x - q
                } else {
                    x
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn basis(n: usize, limbs: usize) -> RnsBasis {
        RnsBasis::generate(n, 45, limbs).unwrap()
    }

    #[test]
    fn add_sub_roundtrip() {
        let b = basis(1 << 6, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = RnsPoly::sample_uniform(&b, Representation::Coefficient, &mut rng);
        let y = RnsPoly::sample_uniform(&b, Representation::Coefficient, &mut rng);
        let z = x.add(&y).unwrap().sub(&y).unwrap();
        assert_eq!(z, x);
        assert_eq!(
            x.add(&x.neg()).unwrap(),
            RnsPoly::zero(&b, Representation::Coefficient)
        );
    }

    #[test]
    fn ntt_mul_matches_schoolbook_on_small_values() {
        let b = basis(1 << 5, 2);
        // (1 + 2X) * (3 + X) = 3 + 7X + 2X^2
        let mut x = RnsPoly::from_signed_coefficients(&b, &[1, 2]);
        let mut y = RnsPoly::from_signed_coefficients(&b, &[3, 1]);
        x.to_ntt();
        y.to_ntt();
        let z = x.mul(&y).unwrap();
        let coeffs = z.to_signed_coefficients();
        assert_eq!(&coeffs[..4], &[3, 7, 2, 0]);
    }

    #[test]
    fn representation_mismatch_is_rejected() {
        let b = basis(1 << 5, 2);
        let x = RnsPoly::from_signed_coefficients(&b, &[1]);
        let mut y = RnsPoly::from_signed_coefficients(&b, &[1]);
        y.to_ntt();
        assert!(x.add(&y).is_err());
        assert!(
            x.mul(&x).is_err(),
            "coefficient-domain mul must be rejected"
        );
    }

    #[test]
    fn basis_mismatch_is_rejected() {
        let b1 = basis(1 << 5, 2);
        let b2 = RnsBasis::generate(1 << 5, 40, 2).unwrap();
        let x = RnsPoly::zero(&b1, Representation::Coefficient);
        let y = RnsPoly::zero(&b2, Representation::Coefficient);
        assert!(x.add(&y).is_err());
    }

    #[test]
    fn automorphism_in_either_domain_agrees() {
        let b = basis(1 << 6, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = RnsPoly::sample_uniform(&b, Representation::Coefficient, &mut rng);
        let table = AutomorphismTable::from_rotation(1 << 6, 3).unwrap();
        let coeff_result = x.automorphism(&table);
        let mut x_ntt = x.clone();
        x_ntt.to_ntt();
        let mut ntt_result = x_ntt.automorphism(&table);
        ntt_result.to_coefficient();
        assert_eq!(coeff_result, ntt_result);
    }

    #[test]
    fn automorphism_apply_matches_allocating_variant() {
        let b = basis(1 << 6, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let table = AutomorphismTable::from_rotation(1 << 6, 5).unwrap();
        for rep in [Representation::Coefficient, Representation::Ntt] {
            let x = RnsPoly::sample_uniform(&b, rep, &mut rng);
            let expected = x.automorphism(&table);
            let mut in_place = x.clone();
            let mut scratch = Vec::new();
            in_place.automorphism_apply(&table, &mut scratch);
            assert_eq!(in_place, expected);
        }
    }

    #[test]
    fn a_reserved_buffer_takes_any_shape_in_place() {
        let b = basis(1 << 5, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let x = RnsPoly::sample_uniform(&b, Representation::Ntt, &mut rng);
        let table = AutomorphismTable::from_rotation(1 << 5, 3).unwrap();
        let mut buffer = RnsPoly::zero(&b.prefix(0), Representation::Coefficient);
        buffer.reserve_limbs(3);
        let storage = buffer.data().as_ptr();
        for count in [1, 3, 2, 1] {
            let target = b.prefix(count);
            buffer.reshape(&target, Representation::Ntt);
            assert_eq!(buffer.basis(), &target);
            assert_eq!(buffer.data().len(), count << 5);
            let kept = x.keep_limbs(count);
            buffer.clone_from(&kept);
            assert_eq!(buffer, kept);
            kept.automorphism_into(&table, &mut buffer);
            assert_eq!(buffer, kept.automorphism(&table));
            assert_eq!(buffer.data().as_ptr(), storage, "never reallocated");
        }
    }

    #[test]
    fn keep_and_drop_limbs() {
        let b = basis(1 << 5, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let x = RnsPoly::sample_uniform(&b, Representation::Coefficient, &mut rng);
        let kept = x.keep_limbs(2);
        assert_eq!(kept.limb_count(), 2);
        assert_eq!(kept.limb(0), x.limb(0));
        let consumed = x.clone().into_keep_limbs(2);
        assert_eq!(consumed, kept);
        let mut y = x.clone();
        y.drop_last_limb();
        assert_eq!(y.limb_count(), 2);
        assert_eq!(y, kept);
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let b = basis(1 << 6, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut x = RnsPoly::sample_uniform(&b, Representation::Ntt, &mut rng);
        let y = RnsPoly::sample_uniform(&b, Representation::Ntt, &mut rng);
        let z = RnsPoly::sample_uniform(&b, Representation::Ntt, &mut rng);

        let mut acc = x.clone();
        acc.fused_mul_add_assign(&y, &z).unwrap();
        assert_eq!(acc, x.add(&y.mul(&z).unwrap()).unwrap());

        let expected_mul = x.mul(&y).unwrap();
        x.mul_assign(&y).unwrap();
        assert_eq!(x, expected_mul);
    }

    #[test]
    fn scalar_multiplication() {
        let b = basis(1 << 5, 2);
        let x = RnsPoly::from_signed_coefficients(&b, &[5, -3, 2]);
        let y = x.mul_scalar(-4);
        assert_eq!(&y.to_signed_coefficients()[..3], &[-20, 12, -8]);
    }

    #[test]
    fn ntt_roundtrip_preserves_value() {
        let b = basis(1 << 6, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let x = RnsPoly::sample_uniform(&b, Representation::Coefficient, &mut rng);
        let mut y = x.clone();
        y.to_ntt();
        y.to_coefficient();
        assert_eq!(x, y);
    }
}
