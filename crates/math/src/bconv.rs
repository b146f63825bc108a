use crate::modular::ShoupMul;
use crate::poly::RnsPoly;
use crate::rns::RnsBasis;
use crate::MathError;

/// Coefficients whose MAC accumulators [`BaseConverter::convert_limbs`] keeps
/// live together. Four `u128`s are eight of x86-64's sixteen general
/// registers; at 8 and 16 lanes the accumulators spill and the ModUp shape
/// (7 → 14 limbs, N = 2^12) measured 11 % slower, at 2 lanes 25 %.
const MAC_LANES: usize = 4;

/// Reusable buffers for [`BaseConverter::convert_limbs`]: the "first part"
/// products and the overshoot estimates. Owned by the caller (e.g. the CKKS
/// key-switch scratch) so repeated conversions allocate nothing after the
/// first call.
#[derive(Debug, Default)]
pub struct BconvScratch {
    /// `y_j = [a_j · q̂_j^{-1}]_{q_j}`, flat limb-major (`ℓ_src · N` words).
    y: Vec<u64>,
    /// Per-coefficient overshoot estimates (exact variant only).
    overshoot: Vec<u64>,
}

impl BconvScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The words the scratch holds between conversions: its buffers'
    /// capacities, each the largest size a conversion has asked of it.
    pub fn capacity_words(&self) -> usize {
        self.y.capacity() + self.overshoot.capacity()
    }
}

/// Fast RNS base conversion (`BConv`, Eq. 9 of the paper).
///
/// Converts residues of a polynomial on a source base `C = {q_j}` to residues
/// on a target base `B = {p_i}`:
///
/// ```text
/// BConv(a)_i = [ Σ_j [a_j · q̂_j^{-1}]_{q_j} · q̂_j ]_{p_i}
/// ```
///
/// This is the coefficient-wise function executed by the BConvU (ModMult for
/// the first factor, MMAU for the accumulation, §5.2). The MAC accumulates in
/// `u128` with deferred Barrett reduction — one reduction per target element
/// instead of one per multiply-accumulate, the software analogue of the
/// MMAU's carry-save accumulator — and target limbs are computed one
/// after another. The fast variant can overshoot by a small multiple of `Q`;
/// [`BaseConverter::convert_exact`] removes that overshoot with a
/// floating-point estimate, which is what the CKKS layer uses where exactness
/// matters.
#[derive(Debug, Clone)]
pub struct BaseConverter {
    source: RnsBasis,
    target: RnsBasis,
    /// `[q̂_j^{-1}]_{q_j}` for each source limb j (the "first part" table,
    /// RF_BT1), Shoup-precomputed.
    qhat_inv: Vec<ShoupMul>,
    /// `[q̂_j]_{p_i}` for each target limb i and source limb j (RF_BT2).
    qhat_mod_target: Vec<Vec<u64>>,
    /// `[Q]_{p_i}` for the exact variant's overshoot correction.
    q_mod_target: Vec<u64>,
    /// 1 / q_j as f64, for the overshoot estimate.
    q_inv_f64: Vec<f64>,
    /// How many u128 MAC terms can accumulate before a fold is needed to
    /// avoid overflow (derived from the operand bit widths; effectively
    /// unbounded for the ≤ 61-bit moduli CKKS uses).
    lazy_chunk: usize,
}

impl BaseConverter {
    /// Precomputes conversion tables from `source` to `target`.
    ///
    /// # Errors
    ///
    /// Fails if the bases have different degrees or share a modulus (a shared
    /// modulus would make the CRT reconstruction ambiguous).
    pub fn new(source: &RnsBasis, target: &RnsBasis) -> crate::Result<Self> {
        if source.degree() != target.degree() {
            return Err(MathError::BasisMismatch(format!(
                "degree {} vs {}",
                source.degree(),
                target.degree()
            )));
        }
        let src_set: std::collections::HashSet<u64> = source.moduli().into_iter().collect();
        if target.moduli().iter().any(|m| src_set.contains(m)) {
            return Err(MathError::BasisMismatch(
                "source and target bases overlap".to_string(),
            ));
        }
        let qhat_inv = source
            .punctured_product_inverses()?
            .into_iter()
            .enumerate()
            .map(|(j, w)| source.modulus(j).shoup(w))
            .collect();
        let qhat_mod_target: Vec<Vec<u64>> = (0..target.len())
            .map(|i| {
                let p = target.modulus(i);
                (0..source.len())
                    .map(|j| source.punctured_product_mod(j, p))
                    .collect()
            })
            .collect();
        let q_mod_target = (0..target.len())
            .map(|i| source.product_mod(target.modulus(i)))
            .collect();
        let q_inv_f64: Vec<f64> = source.moduli().iter().map(|&q| 1.0 / q as f64).collect();
        // Each MAC term is < 2^(src_bits + tgt_bits); the u128 accumulator
        // overflows after 2^(128 - src_bits - tgt_bits) terms.
        let src_bits = (0..source.len())
            .map(|j| source.modulus(j).bits())
            .max()
            .unwrap_or(1);
        let tgt_bits = (0..target.len())
            .map(|i| target.modulus(i).bits())
            .max()
            .unwrap_or(1);
        let headroom = 128u32.saturating_sub(src_bits + tgt_bits + 1).min(24);
        let lazy_chunk = 1usize << headroom;
        Ok(Self {
            source: source.clone(),
            target: target.clone(),
            qhat_inv,
            qhat_mod_target,
            q_mod_target,
            q_inv_f64,
            lazy_chunk,
        })
    }

    /// The source base.
    pub fn source(&self) -> &RnsBasis {
        &self.source
    }

    /// The target base.
    pub fn target(&self) -> &RnsBasis {
        &self.target
    }

    /// Fast conversion to the target base. The result may carry an additive
    /// overshoot of `e·Q` with `0 ≤ e ≤ #source-limbs`; representation is
    /// inherited from the input (BConv is residue-wise either way, but the
    /// CKKS layer always converts coefficient-domain slices).
    ///
    /// # Panics
    ///
    /// Panics if `poly` does not live on the source base.
    pub fn convert(&self, poly: &RnsPoly) -> RnsPoly {
        self.convert_with(poly, false)
    }

    /// Exact conversion: like [`BaseConverter::convert`] but subtracts the
    /// `e·Q` overshoot estimated in floating point. Exact whenever the source
    /// value, interpreted centered (|a| < Q/2), is reconstructed.
    ///
    /// # Panics
    ///
    /// Panics if `poly` does not live on the source base.
    pub fn convert_exact(&self, poly: &RnsPoly) -> RnsPoly {
        self.convert_with(poly, true)
    }

    fn convert_with(&self, poly: &RnsPoly, exact: bool) -> RnsPoly {
        assert!(
            poly.basis() == &self.source,
            "input must live on the source base"
        );
        let mut out = RnsPoly::zero(&self.target, poly.representation());
        let n = self.target.degree();
        self.convert_limbs(
            |j| poly.limb(j),
            out.data_mut().chunks_exact_mut(n),
            exact,
            &mut BconvScratch::new(),
        );
        out
    }

    /// Conversion from raw source limb views into caller-provided target
    /// limbs (one slice of length N per limb, in base order on both sides):
    /// [`BaseConverter::convert_limbs`] over two lists.
    ///
    /// # Panics
    ///
    /// Panics if `srcs` / `outs` do not match the source / target base shapes.
    pub fn convert_into(
        &self,
        srcs: &[&[u64]],
        outs: &mut [&mut [u64]],
        exact: bool,
        scratch: &mut BconvScratch,
    ) {
        assert_eq!(
            srcs.len(),
            self.source.len(),
            "one input limb per source limb"
        );
        self.convert_limbs(
            |j| srcs[j],
            outs.iter_mut().map(|o| &mut **o),
            exact,
            scratch,
        );
    }

    /// The conversion kernel: source limb `j` is `src(j)`, and `outs` yields
    /// the target limbs in base order. This is the key-switch entry point:
    /// ModUp reads the slice limbs out of the extended residue matrix and
    /// writes the converted limbs straight into their positions in the same
    /// matrix, with no list of limb views built per call — once `scratch`
    /// has grown, a conversion allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a source or target limb is not N long, or `outs` does not
    /// yield one limb per target limb.
    pub fn convert_limbs<'s, 'o>(
        &self,
        src: impl Fn(usize) -> &'s [u64],
        outs: impl IntoIterator<Item = &'o mut [u64]>,
        exact: bool,
        scratch: &mut BconvScratch,
    ) {
        let _span = bts_telemetry::span("bconv.convert_into");
        let n = self.source.degree();
        let s = self.source.len();

        // First part: y_j = [a_j * qhat_inv_j]_{q_j} (per-limb ModMult). Both
        // parts run one limb per out-of-line call (`source_limb`,
        // `target_limb`): inlined into these loops, a conversion ran about
        // 10 % slower.
        crate::resize_exact(&mut scratch.y, s * n);
        for (j, y_j) in scratch.y.chunks_exact_mut(n).enumerate() {
            self.source_limb(j, src(j), y_j);
        }
        let y = &scratch.y;

        // Overshoot estimate e_c = round(Σ_j y_jc / q_j) (exact variant only).
        if exact {
            crate::resize_exact(&mut scratch.overshoot, n);
            for (c, e) in scratch.overshoot.iter_mut().enumerate() {
                let v: f64 = (0..s)
                    .map(|j| y[j * n + c] as f64 * self.q_inv_f64[j])
                    .sum();
                *e = v.round() as u64;
            }
        }
        let overshoot = exact.then_some(scratch.overshoot.as_slice());

        // Second part (MMAU): out_i[c] = Σ_j y_j[c] · [q̂_j]_{p_i}, accumulated
        // in u128 and Barrett-reduced once per target element. A block of
        // `MAC_LANES` adjacent coefficients accumulates together — the
        // software form of the MMAU's `l_sub` independent lanes: the adds of
        // one source limb feed separate carry chains instead of one, and
        // `y_j` is read along a cache line instead of one word per
        // limb-sized stride.
        let mut written = 0;
        for (i, out_i) in outs.into_iter().enumerate() {
            self.target_limb(i, y, overshoot, out_i);
            written += 1;
        }
        assert_eq!(written, self.target.len(), "one output limb per target");
    }

    /// Source limb `j` of the first part, `a_j` scaled into `y_j`.
    #[inline(never)]
    fn source_limb(&self, j: usize, a_j: &[u64], y_j: &mut [u64]) {
        assert_eq!(a_j.len(), y_j.len(), "every input limb must have length N");
        let qj = self.source.modulus(j);
        let w = &self.qhat_inv[j];
        for (y, &a) in y_j.iter_mut().zip(a_j) {
            *y = qj.mul_shoup(a, w);
        }
    }

    /// Target limb `i` of the second part: the MAC over every source limb of
    /// `y`, less the overshoot correction when there is one.
    #[inline(never)]
    fn target_limb(&self, i: usize, y: &[u64], overshoot: Option<&[u64]>, out_i: &mut [u64]) {
        assert_eq!(
            out_i.len(),
            self.source.degree(),
            "every output limb must have length N"
        );
        // Full blocks have a length the compiler can see, so their lane
        // loops unroll; N is a power of two, so there is a remainder only
        // when the whole limb is shorter than one block.
        let mut blocks = out_i.chunks_exact_mut(MAC_LANES);
        for (b, block) in blocks.by_ref().enumerate() {
            self.mac_block(i, y, b * MAC_LANES, block);
        }
        self.mac_block(i, y, 0, blocks.into_remainder());
        if let Some(overshoot) = overshoot {
            let p = self.target.modulus(i);
            let q_mod_p = p.shoup(self.q_mod_target[i]);
            for (slot, &e) in out_i.iter_mut().zip(overshoot) {
                let corr = p.mul_shoup(p.reduce(e), &q_mod_p);
                *slot = p.sub(*slot, corr);
            }
        }
    }

    /// The MAC of target limb `i` for the adjacent coefficients
    /// `col..col + block.len()` (at most [`MAC_LANES`]), read out of the flat
    /// limb-major `y` and written reduced into `block`.
    #[inline(always)]
    fn mac_block(&self, i: usize, y: &[u64], col: usize, block: &mut [u64]) {
        let n = self.source.degree();
        let p = self.target.modulus(i);
        let lanes = block.len();
        let mut acc = [0u128; MAC_LANES];
        for (k, terms) in self.qhat_mod_target[i].chunks(self.lazy_chunk).enumerate() {
            if k > 0 {
                // `lazy_chunk` more terms would overflow: fold first.
                for a in &mut acc[..lanes] {
                    *a = p.reduce_u128(*a) as u128;
                }
            }
            let first = k * self.lazy_chunk * n + col;
            for (y_j, &w) in y[first..].chunks(n).zip(terms) {
                for (a, &yv) in acc.iter_mut().zip(&y_j[..lanes]) {
                    *a += yv as u128 * w as u128;
                }
            }
        }
        for (slot, &a) in block.iter_mut().zip(&acc) {
            *slot = p.reduce_u128(a);
        }
    }

    /// Fully-reduced reference conversion (one Barrett reduction per MAC, the
    /// pre-lazy kernel). Kept as the oracle [`BaseConverter::convert`] /
    /// [`BaseConverter::convert_exact`] are validated against.
    ///
    /// # Panics
    ///
    /// Panics if `poly` does not live on the source base.
    pub fn convert_eager(&self, poly: &RnsPoly, exact: bool) -> RnsPoly {
        assert!(
            poly.basis() == &self.source,
            "input must live on the source base"
        );
        let n = self.source.degree();
        let s = self.source.len();
        let mut y = vec![vec![0u64; n]; s];
        for (j, y_j) in y.iter_mut().enumerate() {
            let qj = self.source.modulus(j);
            let w = &self.qhat_inv[j];
            for (c, slot) in y_j.iter_mut().enumerate() {
                *slot = qj.mul_shoup(poly.limb(j)[c], w);
            }
        }
        let overshoot: Vec<u64> = if exact {
            (0..n)
                .map(|c| {
                    let v: f64 = (0..s).map(|j| y[j][c] as f64 * self.q_inv_f64[j]).sum();
                    v.round() as u64
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut out = RnsPoly::zero(&self.target, poly.representation());
        for i in 0..self.target.len() {
            let p = *self.target.modulus(i);
            let row = &self.qhat_mod_target[i];
            let q_mod_p = self.q_mod_target[i];
            let out_i = out.limb_mut(i);
            for (j, &w) in row.iter().enumerate() {
                for (c, slot) in out_i.iter_mut().enumerate() {
                    *slot = p.mul_add(y[j][c], w, *slot);
                }
            }
            if exact {
                for (c, slot) in out_i.iter_mut().enumerate() {
                    let corr = p.mul(p.reduce(overshoot[c]), q_mod_p);
                    *slot = p.sub(*slot, corr);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Representation;
    use rand::{Rng, SeedableRng};

    fn bases(n: usize) -> (RnsBasis, RnsBasis) {
        let src = RnsBasis::generate(n, 40, 3).unwrap();
        let dst = RnsBasis::generate(n, 42, 2).unwrap();
        (src, dst)
    }

    /// Encodes a small signed integer into the source base, coefficient 0 only.
    fn encode_value(basis: &RnsBasis, v: i64) -> RnsPoly {
        RnsPoly::from_signed_coefficients(basis, &[v])
    }

    #[test]
    fn exact_conversion_of_small_values() {
        let n = 1 << 6;
        let (src, dst) = bases(n);
        let conv = BaseConverter::new(&src, &dst).unwrap();
        for v in [-1234567i64, -1, 0, 1, 42, 99999999] {
            let out = conv.convert_exact(&encode_value(&src, v));
            for i in 0..dst.len() {
                assert_eq!(
                    out.limb(i)[0],
                    dst.modulus(i).from_i64(v),
                    "value {v} limb {i}"
                );
            }
        }
    }

    #[test]
    fn fast_conversion_is_correct_up_to_multiple_of_q() {
        let n = 1 << 5;
        let (src, dst) = bases(n);
        let conv = BaseConverter::new(&src, &dst).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        // random small positive value
        let v = rng.gen_range(0..1u64 << 30) as i64;
        let out = conv.convert(&encode_value(&src, v));
        for i in 0..dst.len() {
            let r = out.limb(i)[0];
            let p = dst.modulus(i);
            let q_mod_p = src.product_mod(p);
            // r = v + e*Q (mod p) for some 0 <= e <= len(src)
            let mut ok = false;
            for e in 0..=src.len() as u64 {
                let cand = p.add(p.from_i64(v), p.mul(p.reduce(e), q_mod_p));
                if cand == r {
                    ok = true;
                    break;
                }
            }
            assert!(ok, "fast conversion overshoot out of range for limb {i}");
        }
    }

    #[test]
    fn lazy_conversion_matches_eager_reference() {
        let n = 1 << 6;
        let src = RnsBasis::generate(n, 58, 5).unwrap();
        let dst = RnsBasis::generate(n, 60, 4).unwrap();
        let conv = BaseConverter::new(&src, &dst).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let poly = RnsPoly::sample_uniform(&src, Representation::Coefficient, &mut rng);
        assert_eq!(conv.convert(&poly), conv.convert_eager(&poly, false));
        assert_eq!(conv.convert_exact(&poly), conv.convert_eager(&poly, true));
    }

    #[test]
    fn convert_into_reuses_scratch_across_calls() {
        let n = 1 << 5;
        let (src, dst) = bases(n);
        let conv = BaseConverter::new(&src, &dst).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let mut scratch = BconvScratch::new();
        for _ in 0..3 {
            let poly = RnsPoly::sample_uniform(&src, Representation::Coefficient, &mut rng);
            let mut out = RnsPoly::zero(&dst, Representation::Coefficient);
            {
                let srcs: Vec<&[u64]> = poly.limbs().collect();
                let mut outs: Vec<&mut [u64]> = out.data_mut().chunks_exact_mut(n).collect();
                conv.convert_into(&srcs, &mut outs, false, &mut scratch);
            }
            assert_eq!(out, conv.convert(&poly));
        }
    }

    #[test]
    fn rejects_overlapping_bases() {
        let n = 1 << 5;
        let src = RnsBasis::generate(n, 40, 3).unwrap();
        assert!(BaseConverter::new(&src, &src).is_err());
    }

    #[test]
    fn random_full_polynomial_exact_roundtrip() {
        // Convert C -> B and back B -> C for values small relative to both products.
        let n = 1 << 5;
        let (src, dst) = bases(n);
        let fwd = BaseConverter::new(&src, &dst).unwrap();
        let bwd = BaseConverter::new(&dst, &src).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let values: Vec<i64> = (0..n)
            .map(|_| rng.gen_range(-(1i64 << 40)..(1i64 << 40)))
            .collect();
        let limbs = RnsPoly::from_signed_coefficients(&src, &values);
        let there = fwd.convert_exact(&limbs);
        let back = bwd.convert_exact(&there);
        assert_eq!(back, limbs);
    }
}
