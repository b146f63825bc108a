use crate::MathError;

/// Maximum supported modulus bit width. Keeping moduli under 62 bits lets every
/// intermediate sum of two residues fit in a `u64` and every product in a
/// `u128`, exactly like the 64-bit machine-word layout assumed by the paper.
pub const MAX_MODULUS_BITS: u32 = 62;

/// A word-sized prime (or prime-power) modulus with precomputed reduction
/// constants.
///
/// All arithmetic methods expect canonical inputs in `[0, q)` and produce
/// canonical outputs. The struct is `Copy` so it can be passed around freely
/// by the NTT and RNS machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// floor(2^128 / q), split into (hi, lo) 64-bit words, for Barrett reduction
    /// of 128-bit products.
    barrett_hi: u64,
    barrett_lo: u64,
}

impl Modulus {
    /// Creates a new modulus.
    ///
    /// # Panics
    ///
    /// Panics if `value <= 2` or `value >= 2^62`. Use [`Modulus::try_new`] for a
    /// fallible constructor.
    pub fn new(value: u64) -> Self {
        Self::try_new(value).expect("invalid modulus")
    }

    /// Fallible constructor; see [`Modulus::new`].
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] if the modulus is out of range.
    pub fn try_new(value: u64) -> crate::Result<Self> {
        if value <= 2 || value >= (1u64 << MAX_MODULUS_BITS) {
            return Err(MathError::InvalidModulus(value));
        }
        // floor(2^128 / q): since 2^128 - 1 = q·d + r with d = u128::MAX / q,
        // 2^128 = q·d + (r + 1), so floor(2^128/q) is d unless r + 1 == q.
        let q = value as u128;
        let div = u128::MAX / q;
        let rem = u128::MAX % q;
        let ratio = if rem + 1 == q { div + 1 } else { div };
        Ok(Self {
            value,
            barrett_hi: (ratio >> 64) as u64,
            barrett_lo: ratio as u64,
        })
    }

    /// The numeric value of the modulus.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Number of bits of the modulus.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.value.leading_zeros()
    }

    /// Reduces an arbitrary `u64` into `[0, q)`: a one-word Barrett step on
    /// `barrett_hi = floor(2^64 / q)` instead of a hardware divide.
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        // floor(a·floor(2^64/q) / 2^64) is floor(a/q) or one less, so the
        // remainder estimate is in [0, 2q) and one branch-free fold finishes.
        let q_est = ((a as u128 * self.barrett_hi as u128) >> 64) as u64;
        let r = a.wrapping_sub(q_est.wrapping_mul(self.value));
        r.min(r.wrapping_sub(self.value))
    }

    /// Reduces an arbitrary `u128` into `[0, q)` using Barrett reduction.
    #[inline]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        // Barrett: estimate quotient via the precomputed floor(2^128/q).
        let x_hi = (a >> 64) as u64;
        let x_lo = a as u64;
        // q_est = floor( (x * ratio) / 2^128 )
        // x * ratio = (x_hi*2^64 + x_lo) * (r_hi*2^64 + r_lo)
        let lo_lo = (x_lo as u128) * (self.barrett_lo as u128);
        let lo_hi = (x_lo as u128) * (self.barrett_hi as u128);
        let hi_lo = (x_hi as u128) * (self.barrett_lo as u128);
        let hi_hi = (x_hi as u128) * (self.barrett_hi as u128);
        let mid = (lo_lo >> 64) + (lo_hi & 0xFFFF_FFFF_FFFF_FFFF) + (hi_lo & 0xFFFF_FFFF_FFFF_FFFF);
        let q_est = hi_hi + (lo_hi >> 64) + (hi_lo >> 64) + (mid >> 64);
        let r = a.wrapping_sub(q_est.wrapping_mul(self.value as u128)) as u64;
        // The estimate may be off by at most 2.
        let mut r = r;
        while r >= self.value {
            r -= self.value;
        }
        r
    }

    /// Modular addition of canonical residues.
    ///
    /// Branch-free, like [`Modulus::sub`]: a sum below `q` wraps to
    /// ≥ 2^64 − q when `q` is taken off, so `min` picks the residue. In a
    /// loop of its own an `if` here lowers to a conditional move, but inlined
    /// into ModDown's fused subtract-scale-and-add pass it became a jump that
    /// random residues mispredict (2.1 → 3.0 ms per HMult key-switch).
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        s.min(s.wrapping_sub(self.value))
    }

    /// Modular subtraction of canonical residues.
    ///
    /// Branch-free: on uniformly random residues `a >= b` is a coin flip, so
    /// a conditional jump here mispredicts every other element. A negative
    /// difference wraps to ≥ 2^64 − q and adding `q` brings it back below
    /// `q`; a non-negative one is < q < `d + q`, so `min` picks the residue.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let d = a.wrapping_sub(b);
        d.min(d.wrapping_add(self.value))
    }

    /// Modular negation of a canonical residue.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// Modular multiplication of canonical residues.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        self.reduce_u128((a as u128) * (b as u128))
    }

    /// Fused multiply-add: `(a * b + c) mod q`.
    #[inline]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce_u128((a as u128) * (b as u128) + (c as u128))
    }

    /// Modular exponentiation by squaring.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce(base);
        let mut acc = 1u64;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem (the modulus must be prime).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NoInverse`] when `a == 0`.
    pub fn inv(&self, a: u64) -> crate::Result<u64> {
        if a == 0 {
            return Err(MathError::NoInverse {
                value: a,
                modulus: self.value,
            });
        }
        Ok(self.pow(a, self.value - 2))
    }

    /// Converts a signed integer into a canonical residue.
    #[inline]
    pub fn from_i64(&self, a: i64) -> u64 {
        // |a| mod q and its negation, selected by the sign mask: error
        // polynomials mix signs at random, so a sign branch is a coin flip.
        let r = self.reduce(a.unsigned_abs());
        let sign = (a >> 63) as u64;
        r ^ ((r ^ self.sub(0, r)) & sign)
    }

    /// Interprets a canonical residue as a signed value in `(-q/2, q/2]`.
    #[inline]
    pub fn to_signed(&self, a: u64) -> i64 {
        debug_assert!(a < self.value);
        if a > self.value / 2 {
            a as i64 - self.value as i64
        } else {
            a as i64
        }
    }

    /// Precomputes a Shoup multiplier for repeated multiplications by `w`.
    #[inline]
    pub fn shoup(&self, w: u64) -> ShoupMul {
        debug_assert!(w < self.value);
        ShoupMul {
            operand: w,
            quotient: (((w as u128) << 64) / self.value as u128) as u64,
        }
    }

    /// Multiplies `a` by a Shoup-precomputed constant. Roughly 2-3x faster than
    /// [`Modulus::mul`]; used in the NTT butterflies exactly like the paper's
    /// hardware NTTU uses precomputed twiddles.
    #[inline]
    pub fn mul_shoup(&self, a: u64, w: &ShoupMul) -> u64 {
        let r = self.mul_shoup_lazy(a, w);
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Shoup multiplication with deferred reduction: returns `a·w mod q` in
    /// the *semi-reduced* range `[0, 2q)`, skipping the final conditional
    /// subtraction. `a` may be any `u64` (in particular a lazily-reduced value
    /// in `[0, 4q)`); `w.operand` must be canonical. This is the butterfly
    /// kernel of the lazy NTT passes (Harvey-style), which keep residues
    /// semi-reduced between stages and reduce once on the final pass.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, w: &ShoupMul) -> u64 {
        let q_est = ((a as u128 * w.quotient as u128) >> 64) as u64;
        a.wrapping_mul(w.operand)
            .wrapping_sub(q_est.wrapping_mul(self.value))
    }
}

/// A constant multiplier precomputed for Shoup modular multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupMul {
    /// The constant operand `w` in canonical form.
    pub operand: u64,
    /// `floor(w * 2^64 / q)`.
    pub quotient: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = (1 << 50) + 4867; // not prime necessarily; arithmetic tests only need a modulus
    const P: u64 = 1125899906842679; // prime close to 2^50

    #[test]
    fn add_sub_neg_roundtrip() {
        let m = Modulus::new(P);
        let a = 123456789012345 % P;
        let b = 987654321098765 % P;
        assert_eq!(m.sub(m.add(a, b), b), a);
        assert_eq!(m.add(a, m.neg(a)), 0);
    }

    #[test]
    fn add_matches_u128_reference_at_the_fold() {
        // 61 bits is the widest modulus the crate takes: `a + b` still fits a
        // word, and the `min` fold must pick `s` below q and `s − q` from q.
        for q in [P, (1 << 61) - 1] {
            let m = Modulus::new(q);
            let edges = [0, 1, q / 2, q / 2 + 1, q - 2, q - 1];
            for a in edges {
                for b in edges {
                    let expect = ((u128::from(a) + u128::from(b)) % u128::from(q)) as u64;
                    assert_eq!(m.add(a, b), expect, "{a} + {b} mod {q}");
                }
            }
        }
    }

    #[test]
    fn mul_matches_u128_reference() {
        let m = Modulus::new(Q);
        let pairs = [
            (0u64, 0u64),
            (1, Q - 1),
            (Q - 1, Q - 1),
            (123456789, 987654321),
            (Q / 2, Q / 3),
        ];
        for (a, b) in pairs {
            let expect = ((a as u128 * b as u128) % Q as u128) as u64;
            assert_eq!(m.mul(a, b), expect, "a={a} b={b}");
        }
    }

    #[test]
    fn reduce_u128_edge_cases() {
        let m = Modulus::new(Q);
        for x in [
            0u128,
            1,
            Q as u128,
            (Q as u128) * (Q as u128) - 1,
            u128::MAX / 4,
        ] {
            assert_eq!(m.reduce_u128(x), (x % Q as u128) as u64, "x={x}");
        }
    }

    #[test]
    fn pow_and_inverse() {
        let m = Modulus::new(P);
        let a = 998877665544332 % P;
        let inv = m.inv(a).unwrap();
        assert_eq!(m.mul(a, inv), 1);
        assert_eq!(m.pow(a, 0), 1);
        assert_eq!(m.pow(a, 1), a);
    }

    #[test]
    fn inverse_of_zero_fails() {
        let m = Modulus::new(P);
        assert!(m.inv(0).is_err());
    }

    #[test]
    fn shoup_matches_plain_mul() {
        let m = Modulus::new(P);
        let w = 918273645546372 % P;
        let sw = m.shoup(w);
        for a in [0u64, 1, P - 1, 42424242424242 % P] {
            assert_eq!(m.mul_shoup(a, &sw), m.mul(a, w));
        }
    }

    #[test]
    fn shoup_lazy_is_congruent_and_semi_reduced() {
        let m = Modulus::new(P);
        let w = 736251849302817 % P;
        let sw = m.shoup(w);
        // Lazy inputs may be semi-reduced themselves (up to 4q).
        for a in [0u64, 1, P - 1, 2 * P + 5, 4 * P - 1] {
            let r = m.mul_shoup_lazy(a, &sw);
            assert!(r < 2 * P, "lazy result out of [0, 2q): {r}");
            assert_eq!(r % P, m.mul(m.reduce(a), w));
        }
    }

    #[test]
    fn signed_conversion_roundtrip() {
        let m = Modulus::new(P);
        for v in [-5i64, -1, 0, 1, 7, (P / 2) as i64, -((P / 2) as i64)] {
            assert_eq!(m.to_signed(m.from_i64(v)), v);
        }
    }

    #[test]
    fn rejects_out_of_range_modulus() {
        assert!(Modulus::try_new(0).is_err());
        assert!(Modulus::try_new(2).is_err());
        assert!(Modulus::try_new(1 << 63).is_err());
        assert!(Modulus::try_new((1 << 40) + 1).is_ok());
    }
}
