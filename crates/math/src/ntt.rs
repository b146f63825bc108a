use crate::modular::{Modulus, ShoupMul};
use crate::prime::primitive_root_of_unity;
use crate::MathError;

/// Precomputed tables for the negacyclic number-theoretic transform over a
/// single prime modulus.
///
/// The forward transform uses the Cooley–Tukey (decimation-in-time) butterfly
/// with the powers of the primitive `2N`-th root of unity ψ stored in
/// bit-reversed order; the inverse uses the Gentleman–Sande butterfly. This is
/// the same radix-2 fully pipelined butterfly the paper's NTTU executes
/// (§4.1, §5.1); one [`NttTable::forward`] call performs the `N/2 · log N`
/// butterflies an NTTU would stream through.
#[derive(Debug, Clone)]
pub struct NttTable {
    degree: usize,
    modulus: Modulus,
    /// ψ^bitrev(i), Shoup-precomputed.
    psi_rev: Vec<ShoupMul>,
    /// ψ^{-bitrev(i)}, Shoup-precomputed.
    psi_inv_rev: Vec<ShoupMul>,
    /// N^{-1} mod q.
    n_inv: ShoupMul,
    /// N^{-1}·ψ^{-bitrev(1)} mod q: the inverse transform's last-stage
    /// twiddle with the scaling folded in.
    n_inv_psi: ShoupMul,
    /// The primitive 2N-th root of unity used.
    psi: u64,
}

impl NttTable {
    /// Builds NTT tables for the given degree and modulus.
    ///
    /// # Errors
    ///
    /// * [`MathError::InvalidDegree`] if `degree` is not a power of two ≥ 2.
    /// * [`MathError::NoNttSupport`] if the modulus is not ≡ 1 (mod 2N).
    pub fn new(degree: usize, modulus: Modulus) -> crate::Result<Self> {
        if !crate::is_power_of_two_at_least(degree, 2) {
            return Err(MathError::InvalidDegree(degree));
        }
        let psi = primitive_root_of_unity(degree, &modulus)?;
        let psi_inv = modulus.inv(psi)?;
        let log_n = degree.trailing_zeros();

        let mut psi_rev = vec![modulus.shoup(1); degree];
        let mut psi_inv_rev = vec![modulus.shoup(1); degree];
        let mut pow = 1u64;
        let mut pow_inv = 1u64;
        for i in 0..degree {
            let r = (i as u64).reverse_bits() >> (64 - log_n);
            psi_rev[r as usize] = modulus.shoup(pow);
            psi_inv_rev[r as usize] = modulus.shoup(pow_inv);
            pow = modulus.mul(pow, psi);
            pow_inv = modulus.mul(pow_inv, psi_inv);
        }
        let n_inv = modulus.inv(degree as u64)?;
        let n_inv_psi = modulus.shoup(modulus.mul(n_inv, psi_inv_rev[1].operand));
        let n_inv = modulus.shoup(n_inv);
        Ok(Self {
            degree,
            modulus,
            psi_rev,
            psi_inv_rev,
            n_inv,
            n_inv_psi,
            psi,
        })
    }

    /// The polynomial degree N.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The modulus q.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The primitive 2N-th root of unity ψ backing this table.
    #[inline]
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// In-place forward negacyclic NTT (coefficient domain → NTT domain).
    ///
    /// Uses Harvey-style lazy reduction: residues stay semi-reduced (below
    /// `4q`) between butterfly stages — the Shoup twiddle product is left in
    /// `[0, 2q)` and sums are only folded by a single conditional `2q`
    /// subtraction. The last two stages run fused, four values at a time,
    /// and fold their results to canonical form on the way out, so there is
    /// no separate correction pass. Inputs must be canonical and outputs are
    /// canonical, bit-identical to [`NttTable::forward_eager`].
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != degree`.
    pub fn forward(&self, values: &mut [u64]) {
        let _span = bts_telemetry::span("ntt.forward");
        assert_eq!(values.len(), self.degree, "length must equal the degree");
        let q = &self.modulus;
        let n = self.degree;
        let quarter = n / 4;
        let mut t = n;
        let mut m = 1;
        while m < quarter {
            t >>= 1;
            // Block `i` of this stage is `values[2it..2(i+1)t]` with twiddle
            // `psi_rev[m + i]`; splitting it in half pairs each butterfly's
            // two lanes without an index (and so without a bounds check).
            for (block, s) in values.chunks_exact_mut(2 * t).zip(&self.psi_rev[m..2 * m]) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi) {
                    (*x, *y) = forward_butterfly(q, *x, *y, s);
                }
            }
            m <<= 1;
        }
        if n == 2 {
            let (x, y) = forward_butterfly(q, values[0], values[1], &self.psi_rev[1]);
            values[0] = canonical(q, x);
            values[1] = canonical(q, y);
            return;
        }
        // Stages t = 2 and t = 1 on one block of four: twiddle
        // `psi_rev[n/4 + i]` across the halves, then `psi_rev[n/2 + 2i]` and
        // `psi_rev[n/2 + 2i + 1]` within them.
        let outer = &self.psi_rev[quarter..2 * quarter];
        let inner = self.psi_rev[2 * quarter..].chunks_exact(2);
        for ((block, s), ss) in values.chunks_exact_mut(4).zip(outer).zip(inner) {
            let (a, c) = forward_butterfly(q, block[0], block[2], s);
            let (b, d) = forward_butterfly(q, block[1], block[3], s);
            let (a, b) = forward_butterfly(q, a, b, &ss[0]);
            let (c, d) = forward_butterfly(q, c, d, &ss[1]);
            block[0] = canonical(q, a);
            block[1] = canonical(q, b);
            block[2] = canonical(q, c);
            block[3] = canonical(q, d);
        }
    }

    /// In-place inverse negacyclic NTT (NTT domain → coefficient domain).
    ///
    /// Lazy-reduction Gentleman–Sande: residues stay below `2q` between
    /// stages. The last stage multiplies by `N^{-1}` folded into its twiddle
    /// and reduces fully, so there is no separate scaling pass. Canonical
    /// in, canonical out, bit-identical to [`NttTable::inverse_eager`].
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != degree`.
    pub fn inverse(&self, values: &mut [u64]) {
        let _span = bts_telemetry::span("ntt.inverse");
        assert_eq!(values.len(), self.degree, "length must equal the degree");
        let q = &self.modulus;
        let qv = q.value();
        let two_q = 2 * qv;
        let n = self.degree;
        let mut t = 1;
        let mut m = n;
        while m > 2 {
            let h = m >> 1;
            for (block, s) in values.chunks_exact_mut(2 * t).zip(&self.psi_inv_rev[h..m]) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi) {
                    // Invariant: values[..] < 2q at stage entry.
                    let u = *x;
                    let v = *y;
                    let mut sum = u + v; // < 4q
                    if sum >= two_q {
                        sum -= two_q;
                    }
                    *x = sum; // < 2q
                    *y = q.mul_shoup_lazy(u + two_q - v, s); // < 2q
                }
            }
            t <<= 1;
            m = h;
        }
        // Last stage (one block, twiddle ψ^{-bitrev(1)}): the sum lane takes
        // N^{-1}, the difference lane N^{-1}·ψ^{-bitrev(1)}.
        let (lo, hi) = values.split_at_mut(t);
        for (x, y) in lo.iter_mut().zip(hi) {
            let u = *x;
            let v = *y;
            let a = q.mul_shoup_lazy(u + v, &self.n_inv); // < 2q
            let b = q.mul_shoup_lazy(u + two_q - v, &self.n_inv_psi); // < 2q
            *x = fold(a, qv);
            *y = fold(b, qv);
        }
    }

    /// Fully-reduced reference forward transform: every butterfly reduces to
    /// canonical form. Kept as the oracle the lazy [`NttTable::forward`] is
    /// validated against in equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != degree`.
    pub fn forward_eager(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.degree, "length must equal the degree");
        let q = &self.modulus;
        let n = self.degree;
        let mut t = n;
        let mut m = 1;
        while m < n {
            t >>= 1;
            for i in 0..m {
                let j1 = 2 * i * t;
                let j2 = j1 + t;
                let s = &self.psi_rev[m + i];
                for j in j1..j2 {
                    let u = values[j];
                    let v = q.mul_shoup(values[j + t], s);
                    values[j] = q.add(u, v);
                    values[j + t] = q.sub(u, v);
                }
            }
            m <<= 1;
        }
    }

    /// Fully-reduced reference inverse transform; see
    /// [`NttTable::forward_eager`].
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != degree`.
    pub fn inverse_eager(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.degree, "length must equal the degree");
        let q = &self.modulus;
        let n = self.degree;
        let mut t = 1;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0;
            for i in 0..h {
                let j2 = j1 + t;
                let s = &self.psi_inv_rev[h + i];
                for j in j1..j2 {
                    let u = values[j];
                    let v = values[j + t];
                    values[j] = q.add(u, v);
                    values[j + t] = q.mul_shoup(q.sub(u, v), s);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for v in values.iter_mut() {
            *v = q.mul_shoup(*v, &self.n_inv);
        }
    }

    /// Negacyclic convolution of two coefficient-domain polynomials, returned
    /// in the coefficient domain. Convenience wrapper used by tests and the
    /// schoolbook cross-check.
    pub fn negacyclic_convolution(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        let mut fc: Vec<u64> = fa
            .iter()
            .zip(fb.iter())
            .map(|(&x, &y)| self.modulus.mul(x, y))
            .collect();
        self.inverse(&mut fc);
        fc
    }
}

/// One lazy Cooley–Tukey butterfly: `x < 4q` and any `y` in, both lanes
/// `< 4q` out (`q < 2^62`, so `4q` fits a `u64`).
#[inline(always)]
fn forward_butterfly(q: &Modulus, x: u64, y: u64, s: &ShoupMul) -> (u64, u64) {
    let two_q = 2 * q.value();
    // Fold the upper half before the sum. This `if` lowers to a conditional
    // move; the `min` form measured slower here.
    let mut u = x;
    if u >= two_q {
        u -= two_q;
    }
    let v = q.mul_shoup_lazy(y, s); // < 2q
    (u + v, u + two_q - v)
}

/// `x − m` if `x >= m`, else `x`, without a branch: on transform outputs
/// `x >= m` is a coin flip. A subtraction that would go negative wraps above
/// `x`, so `min` keeps `x`.
#[inline(always)]
fn fold(x: u64, m: u64) -> u64 {
    x.min(x.wrapping_sub(m))
}

/// Folds `x < 4q` to `[0, q)`.
#[inline(always)]
fn canonical(q: &Modulus, x: u64) -> u64 {
    fold(fold(x, 2 * q.value()), q.value())
}

/// Schoolbook negacyclic multiplication in `Z_q[X]/(X^N+1)`; O(N²).
///
/// This is the reference implementation the NTT-based fast path is validated
/// against in unit and property tests; it is exported so downstream crates and
/// integration tests can reuse it as an oracle.
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths.
pub fn schoolbook_negacyclic(a: &[u64], b: &[u64], modulus: &Modulus) -> Vec<u64> {
    assert_eq!(a.len(), b.len(), "operand lengths must match");
    let n = a.len();
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let prod = modulus.mul(ai, bj);
            let k = i + j;
            if k < n {
                out[k] = modulus.add(out[k], prod);
            } else {
                out[k - n] = modulus.sub(out[k - n], prod);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;
    use rand::{Rng, SeedableRng};

    fn table(n: usize, bits: u32) -> NttTable {
        let p = generate_ntt_primes(n, bits, 1)[0];
        NttTable::new(n, Modulus::new(p)).unwrap()
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let t = table(1 << 8, 45);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let original: Vec<u64> = (0..t.degree())
            .map(|_| rng.gen_range(0..t.modulus().value()))
            .collect();
        let mut v = original.clone();
        t.forward(&mut v);
        assert_ne!(v, original, "forward transform should change the data");
        t.inverse(&mut v);
        assert_eq!(v, original);
    }

    #[test]
    fn multiplication_by_x_shifts_coefficients() {
        let t = table(1 << 6, 40);
        let n = t.degree();
        let mut a = vec![0u64; n];
        // a = 1 + 2X + 3X^2
        a[0] = 1;
        a[1] = 2;
        a[2] = 3;
        let mut x = vec![0u64; n];
        x[1] = 1;
        let c = t.negacyclic_convolution(&a, &x);
        assert_eq!(c[0], 0);
        assert_eq!(c[1], 1);
        assert_eq!(c[2], 2);
        assert_eq!(c[3], 3);
    }

    #[test]
    fn wraparound_is_negacyclic() {
        let t = table(1 << 4, 40);
        let n = t.degree();
        let q = t.modulus().value();
        // X^(N-1) * X = X^N = -1
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        let c = t.negacyclic_convolution(&a, &b);
        assert_eq!(c[0], q - 1);
        for coeff in &c[1..] {
            assert_eq!(*coeff, 0);
        }
    }

    #[test]
    fn matches_schoolbook_reference() {
        let t = table(1 << 7, 50);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let a: Vec<u64> = (0..t.degree())
            .map(|_| rng.gen_range(0..t.modulus().value()))
            .collect();
        let b: Vec<u64> = (0..t.degree())
            .map(|_| rng.gen_range(0..t.modulus().value()))
            .collect();
        assert_eq!(
            t.negacyclic_convolution(&a, &b),
            schoolbook_negacyclic(&a, &b, t.modulus())
        );
    }

    #[test]
    fn lazy_passes_match_eager_reference() {
        for bits in [40u32, 50, 61] {
            let t = table(1 << 8, bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(bits as u64);
            let data: Vec<u64> = (0..t.degree())
                .map(|_| rng.gen_range(0..t.modulus().value()))
                .collect();
            let mut lazy = data.clone();
            let mut eager = data.clone();
            t.forward(&mut lazy);
            t.forward_eager(&mut eager);
            assert_eq!(lazy, eager, "forward mismatch at {bits} bits");
            t.inverse(&mut lazy);
            t.inverse_eager(&mut eager);
            assert_eq!(lazy, eager, "inverse mismatch at {bits} bits");
            assert_eq!(lazy, data);
        }
    }

    #[test]
    fn rejects_modulus_without_root() {
        // 97 is prime but 97-1=96 is not divisible by 2*64=128.
        assert!(matches!(
            NttTable::new(64, Modulus::new(97)),
            Err(MathError::NoNttSupport { .. })
        ));
    }
}
