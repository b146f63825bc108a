use crate::MathError;

/// Returns the Galois element `5^r mod 2N` used by `HRot` with rotation
/// amount `r` (Eq. 5 of the paper), or `2N - 1` for complex conjugation when
/// `conjugate` is set.
pub fn galois_element(rotation: i64, degree: usize, conjugate: bool) -> u64 {
    let two_n = 2 * degree as u64;
    if conjugate {
        return two_n - 1;
    }
    // Normalise the rotation into [0, N/2): rotating by r and by r + N/2 are
    // identical on the N/2 message slots.
    let slots = (degree / 2) as i64;
    let r = rotation.rem_euclid(slots) as u64;
    let mut g = 1u64;
    let mut base = 5u64 % two_n;
    let mut e = r;
    while e > 0 {
        if e & 1 == 1 {
            g = (g as u128 * base as u128 % two_n as u128) as u64;
        }
        base = (base as u128 * base as u128 % two_n as u128) as u64;
        e >>= 1;
    }
    g
}

/// Precomputed permutations for the ring automorphism `X ↦ X^g` on
/// `Z_q[X]/(X^N + 1)`, one per polynomial representation.
///
/// In the coefficient domain the table records, for every source index `i`,
/// the destination index `i·g mod 2N` folded into `[0, N)` together with the
/// sign flip caused by `X^N = -1`. In the NTT domain the automorphism is a
/// pure gather: slot `i` of [`crate::NttTable::forward`]'s output holds the
/// evaluation at `ψ^(2·br(i)+1)` (`br` = bit reversal on `log N` bits), and
/// `(σ_g a)(ψ^e) = a(ψ^(e·g))`, so
/// `out[i] = in[br(((2·br(i)+1)·g mod 2N − 1) / 2)]` — no sign, no transform,
/// and the same index table for every modulus. Either form is exactly the
/// permutation the BTS PE grid routes through its crossbars (§5.5).
#[derive(Debug, Clone)]
pub struct AutomorphismTable {
    degree: usize,
    galois: u64,
    /// destination index for each source index
    dest: Vec<u32>,
    /// whether the coefficient is negated on arrival
    negate: Vec<bool>,
    /// NTT domain: source slot for each destination slot
    ntt_gather: Vec<u32>,
}

impl AutomorphismTable {
    /// Builds the permutation table for Galois element `galois`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidGaloisElement`] if `galois` is even (such an
    /// element is not a unit modulo `2N`) and [`MathError::InvalidDegree`] if
    /// the degree is not a power of two.
    pub fn new(degree: usize, galois: u64) -> crate::Result<Self> {
        if !crate::is_power_of_two_at_least(degree, 2) {
            return Err(MathError::InvalidDegree(degree));
        }
        if galois.is_multiple_of(2) {
            return Err(MathError::InvalidGaloisElement(galois));
        }
        let two_n = 2 * degree as u64;
        let g = galois % two_n;
        let mut dest = vec![0u32; degree];
        let mut negate = vec![false; degree];
        for (i, (d, neg)) in dest.iter_mut().zip(negate.iter_mut()).enumerate() {
            let j = (i as u128 * g as u128 % two_n as u128) as u64;
            if j < degree as u64 {
                *d = j as u32;
                *neg = false;
            } else {
                *d = (j - degree as u64) as u32;
                *neg = true;
            }
        }
        let log_n = degree.trailing_zeros();
        let bit_reverse = |i: u64| i.reverse_bits() >> (64 - log_n);
        let ntt_gather = (0..degree as u64)
            .map(|i| {
                let exponent = (2 * bit_reverse(i) + 1) as u128 * g as u128 % two_n as u128;
                bit_reverse((exponent as u64 - 1) / 2) as u32
            })
            .collect();
        Ok(Self {
            degree,
            galois: g,
            dest,
            negate,
            ntt_gather,
        })
    }

    /// Convenience constructor from a slot-rotation amount.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`AutomorphismTable::new`].
    pub fn from_rotation(degree: usize, rotation: i64) -> crate::Result<Self> {
        Self::new(degree, galois_element(rotation, degree, false))
    }

    /// The Galois element this table applies.
    pub fn galois(&self) -> u64 {
        self.galois
    }

    /// The ring degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Applies the automorphism to one coefficient-domain residue polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != degree`.
    pub fn apply(&self, src: &[u64], modulus_value: u64) -> Vec<u64> {
        let mut out = vec![0u64; self.degree];
        self.apply_into(src, &mut out, modulus_value);
        out
    }

    /// Applies the automorphism into a caller-provided output limb,
    /// allocation-free. Every destination slot is written (the map is a
    /// permutation), so `out` does not need to be zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `out` are not both of length `degree`.
    pub fn apply_into(&self, src: &[u64], out: &mut [u64], modulus_value: u64) {
        assert_eq!(src.len(), self.degree);
        assert_eq!(out.len(), self.degree);
        for (i, &s) in src.iter().enumerate() {
            let d = self.dest[i] as usize;
            out[d] = if self.negate[i] && s != 0 {
                modulus_value - s
            } else {
                s
            };
        }
    }

    /// The NTT-domain form of the automorphism: `out[i] = src[gather[i]]`
    /// for every limb of an NTT-domain polynomial, whatever its modulus.
    pub fn ntt_gather(&self) -> &[u32] {
        &self.ntt_gather
    }

    /// Applies the automorphism to one NTT-domain limb by gathering through
    /// [`AutomorphismTable::ntt_gather`]; performs no transform.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `out` are not both of length `degree`.
    pub fn apply_ntt_into(&self, src: &[u64], out: &mut [u64]) {
        assert_eq!(src.len(), self.degree);
        assert_eq!(out.len(), self.degree);
        for (o, &g) in out.iter_mut().zip(&self.ntt_gather) {
            *o = src[g as usize];
        }
    }

    /// Destination coefficient index of source index `i`.
    pub fn destination(&self, i: usize) -> usize {
        self.dest[i] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn galois_element_basics() {
        let n = 16;
        assert_eq!(galois_element(0, n, false), 1);
        assert_eq!(galois_element(1, n, false), 5);
        assert_eq!(galois_element(2, n, false), 25); // 5^2 mod 2N, 2N = 32
        assert_eq!(galois_element(0, n, true), 31);
        // rotation by slots (N/2) is the identity on slots
        assert_eq!(
            galois_element(n as i64 / 2, n, false),
            galois_element(0, n, false)
        );
        // negative rotations are folded into range
        assert_eq!(
            galois_element(-1, n, false),
            galois_element(n as i64 / 2 - 1, n, false)
        );
    }

    #[test]
    fn identity_automorphism_is_identity() {
        let t = AutomorphismTable::new(8, 1).unwrap();
        let src = vec![1u64, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(t.apply(&src, 97), src);
    }

    #[test]
    fn automorphism_is_a_signed_permutation() {
        let n = 64;
        let t = AutomorphismTable::new(n, 5).unwrap();
        let mut seen = vec![false; n];
        for i in 0..n {
            let d = t.destination(i);
            assert!(!seen[d], "destination {d} hit twice");
            seen[d] = true;
        }
    }

    #[test]
    fn composing_with_inverse_returns_original() {
        let n = 32;
        let q = 193u64; // prime, only used for sign arithmetic
        let g = galois_element(3, n, false);
        // inverse galois element: g^{-1} mod 2N
        let two_n = 2 * n as u64;
        let mut g_inv = 1u64;
        for cand in (1..two_n).step_by(2) {
            if g * cand % two_n == 1 {
                g_inv = cand;
                break;
            }
        }
        let fwd = AutomorphismTable::new(n, g).unwrap();
        let bwd = AutomorphismTable::new(n, g_inv).unwrap();
        let src: Vec<u64> = (0..n as u64).map(|x| x % q).collect();
        let roundtrip = bwd.apply(&fwd.apply(&src, q), q);
        assert_eq!(roundtrip, src);
    }

    #[test]
    fn rejects_even_galois_element() {
        assert!(AutomorphismTable::new(16, 4).is_err());
    }
}
