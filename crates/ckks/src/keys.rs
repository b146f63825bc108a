//! Key material. An evaluation key stores only the `b` half of each
//! `(b, a)` pair and a 64-bit seed: the uniform `a` half is regenerated
//! wherever it is read, from a counter-based stream.
//!
//! **The stream.** Word `c` of key-basis limb `i` of a slice seeded with
//! `seed` is output number `i·2^32 + c + 1` of wyrand started at `seed`:
//! the state `seed + (i·2^32 + c + 1)·γ` (γ wyrand's odd increment) mixed
//! by one `64 × 64 → 128`-bit multiply. Each word is a pure function of
//! `(seed, i, c)`, so a block of 64 coefficients is generated where the
//! key-switch's inner product reads it, and a key for level ℓ reads the
//! same words on its limbs as the top-level key from the same seed (the
//! stream is keyed by the limb of the full basis `Q ∪ P`, not by the
//! key's own limb positions). wyrand is a fast statistical generator,
//! **not a CSPRNG**: a key whose `a` comes from it is fit for this
//! reproduction's functional checks, not for deployment, where the seed
//! would expand through a cryptographic XOF (as in seeded-key libraries).
//!
//! **The reduction.** The key-switch multiplies each raw 64-bit word into
//! its `u128` sums unreduced, since `Σ d·w ≡ Σ d·(w mod q)`; the word
//! stands for `w mod q`, the residue keygen multiplies by `s`. A uniform
//! word reduced mod `q` is within statistical distance
//! `r·(q − r) / (q·2^64) ≤ q / 2^66` of uniform on `Z_q`, where
//! `r = 2^64 mod q`: `r` residues have one preimage more than the rest.
//! That is exactly the distance of the vendored `rand`'s `gen_range`
//! (Lemire's widening multiply without rejection splits the words into
//! the same preimage counts), which drew `a` before; about `2^-6` at the
//! 60-bit moduli, `2^-26` at the 40-bit ones.

use std::collections::HashMap;

use bts_math::RnsPoly;

/// wyrand's increment: the stream's state advances by it once per word.
const WY_INCREMENT: u64 = 0xa076_1d64_78bd_642f;
/// wyrand's mixing constant.
const WY_MIX: u64 = 0xe703_7ed1_a0b4_28db;

/// Words `col, col + 1, …` of key-basis limb `limb` of the uniform stream
/// seeded by `seed` (see the module doc), without end: raw 64-bit words,
/// whose residues mod the limb's modulus are the key's `a`. Each is made as
/// it is read, so a key-switch multiplies them in without storing any.
#[inline(always)]
pub(crate) fn uniform_stream(seed: u64, limb: usize, col: usize) -> impl Iterator<Item = u64> {
    debug_assert!(col < 1 << 32, "a row holds at most 2^32 words");
    let first = ((limb as u64) << 32 | col as u64).wrapping_add(1);
    let mut state = seed.wrapping_add(first.wrapping_mul(WY_INCREMENT));
    std::iter::repeat_with(move || {
        let product = state as u128 * (state ^ WY_MIX) as u128;
        state = state.wrapping_add(WY_INCREMENT);
        (product >> 64) as u64 ^ product as u64
    })
}

/// The CKKS secret key: a dense ternary polynomial, kept both as signed
/// coefficients (to derive automorphism images during rotation-key generation)
/// and as an NTT-domain polynomial on the full key basis `Q ∪ P`.
#[derive(Clone)]
pub struct SecretKey {
    pub(crate) coefficients: Vec<i64>,
    pub(crate) poly: RnsPoly,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("SecretKey")
            .field("degree", &self.coefficients.len())
            .finish_non_exhaustive()
    }
}

impl SecretKey {
    /// Ring degree.
    pub fn degree(&self) -> usize {
        self.coefficients.len()
    }
}

/// The public encryption key `(p0, p1) = (-a·s + e, a)` on the top-level
/// ciphertext basis.
#[derive(Clone)]
pub struct PublicKey {
    pub(crate) p0: RnsPoly,
    pub(crate) p1: RnsPoly,
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The shape, not the words: two polynomials of N words per limb.
        f.debug_struct("PublicKey")
            .field("degree", &self.p0.degree())
            .field("limbs", &self.p0.limb_count())
            .finish()
    }
}

/// A generalized key-switching key (an "evk" in the paper): pairs of
/// polynomials on the extended basis `{q_0, …, q_ℓ} ∪ P`, one pair per
/// decomposition slice live at the level ℓ the key serves (§2.5; see
/// `bts_params::Decomposition`). The same structure serves as the
/// relinearization key (target key `s²`), rotation keys (`σ_r(s)`) and the
/// conjugation key.
///
/// A key generated for level ℓ switches the digits of any level up to ℓ
/// and reads exactly the words a level-ℓ key-switch reads (Eq. 10:
/// `⌈(ℓ+1)/k⌉` slices × `k + ℓ + 1` limbs, both halves), [`Self::size_bytes`].
/// It stores half of them: each slice keeps `b_j` and the 64-bit seed its
/// uniform `a_j` is regenerated from as the key-switch's inner product
/// reads it ([`Self::stored_bytes`]). The relinearization key is
/// generated at the top level L.
#[derive(Clone)]
pub struct EvaluationKey {
    /// The highest level the key switches.
    pub(crate) level: usize,
    /// One per live decomposition slice.
    pub(crate) slices: Vec<KeySlice>,
}

/// One slice of an [`EvaluationKey`]: `b_j = −a_j·s + e_j + P·[target]_slice`
/// on limbs `q_0..q_ℓ ∪ P`, and the seed of `a_j`'s stream.
#[derive(Clone)]
pub(crate) struct KeySlice {
    pub(crate) b: RnsPoly,
    pub(crate) seed: u64,
}

impl std::fmt::Debug for EvaluationKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The shape, not the words: a bundle holds megabytes of them.
        f.debug_struct("EvaluationKey")
            .field("level", &self.level)
            .field("slices", &self.slices.len())
            .field("bytes", &self.size_bytes())
            .field("stored_bytes", &self.stored_bytes())
            .finish()
    }
}

impl EvaluationKey {
    /// The highest ciphertext level the key switches.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of key pairs: the decomposition slices live at the key's level.
    pub fn dnum(&self) -> usize {
        self.slices.len()
    }

    /// The words a key-switch at the key's own level ℓ reads, in bytes:
    /// `2 · slices · N · (k + ℓ + 1)` words, both halves of every pair —
    /// the quantity whose streaming dominates HMult/HRot in the paper's
    /// analysis (`CkksInstance::evk_bytes_at_level(ℓ)`), whether the `a`
    /// half is read from memory or regenerated from its seed.
    pub fn size_bytes(&self) -> u64 {
        2 * self.b_bytes()
    }

    /// The bytes the key holds: every slice's `b` and its 8-byte seed,
    /// `size_bytes() / 2 + 8 · slices`.
    pub fn stored_bytes(&self) -> u64 {
        self.b_bytes() + 8 * self.slices.len() as u64
    }

    fn b_bytes(&self) -> u64 {
        self.slices
            .iter()
            .map(|slice| (slice.b.limb_count() * slice.b.degree()) as u64 * 8)
            .sum()
    }
}

#[cfg(test)]
impl EvaluationKey {
    /// Slice `j`'s uniform half expanded into a polynomial on the key's
    /// limbs: the `a_j` a key stored before it was seeded, each stream word
    /// reduced mod its limb. `max_level` is the context's L, which places
    /// the key's limbs in the full key basis.
    pub(crate) fn expanded_a(&self, j: usize, max_level: usize) -> RnsPoly {
        let KeySlice { b, seed } = &self.slices[j];
        let mut a = RnsPoly::zero(b.basis(), b.representation());
        for at in 0..b.limb_count() {
            let q = b.basis().modulus(at);
            let words =
                uniform_stream(*seed, crate::context::ks_limb(self.level, max_level, at), 0);
            for (x, w) in a.limb_mut(at).iter_mut().zip(words) {
                *x = q.reduce(w);
            }
        }
        a
    }
}

/// All public key material a workload needs: encryption key, relinearization
/// key, rotation keys and the conjugation key.
#[derive(Debug, Clone)]
pub struct KeyBundle {
    pub(crate) public: PublicKey,
    pub(crate) relin: EvaluationKey,
    pub(crate) rotations: HashMap<i64, EvaluationKey>,
    pub(crate) conjugation: Option<EvaluationKey>,
}

impl KeyBundle {
    /// The public encryption key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The relinearization (multiplication) key.
    pub fn relin(&self) -> &EvaluationKey {
        &self.relin
    }

    /// The rotation key for rotation amount `r`, if generated.
    pub fn rotation(&self, r: i64) -> Option<&EvaluationKey> {
        self.rotations.get(&r)
    }

    /// Every stored rotation key with its rotation amount, in no particular
    /// order.
    pub fn rotations(&self) -> impl Iterator<Item = (i64, &EvaluationKey)> {
        self.rotations.iter().map(|(&r, key)| (r, key))
    }

    /// The conjugation key, if generated.
    pub fn conjugation(&self) -> Option<&EvaluationKey> {
        self.conjugation.as_ref()
    }

    /// Inserts a rotation key.
    pub fn insert_rotation(&mut self, r: i64, key: EvaluationKey) {
        self.rotations.insert(r, key);
    }

    /// Sets the conjugation key.
    pub fn set_conjugation(&mut self, key: EvaluationKey) {
        self.conjugation = Some(key);
    }
}

#[cfg(test)]
mod tests {
    use bts_math::Modulus;
    use bts_params::CkksInstance;
    use rand::SeedableRng;

    use super::{uniform_stream, EvaluationKey};
    use crate::context::ks_limb;
    use crate::CkksContext;

    /// A key for level ℓ regenerates the top-level key's `a` on every limb
    /// and slice it keeps: the stream is keyed by the limb of `Q ∪ P`, and
    /// both keys draw the same seeds from the same RNG state.
    #[test]
    fn a_level_l_key_reads_the_top_level_keys_a_limbs() {
        for (max_level, dnum) in [(4, 1), (5, 2), (6, 3), (3, 4)] {
            let ctx = CkksContext::new_toy(1 << 6, max_level, dnum).unwrap();
            let sk = ctx.gen_secret_key(&mut rand::rngs::StdRng::seed_from_u64(52));
            let key_at = |level| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(5252);
                ctx.gen_rotation_key(&sk, 3, level, &mut rng).unwrap()
            };
            let top = key_at(max_level);
            for level in 0..=max_level {
                let key = key_at(level);
                for j in 0..key.dnum() {
                    let (a, a_top) = (key.expanded_a(j, max_level), top.expanded_a(j, max_level));
                    for at in 0..a.limb_count() {
                        let top_at = ks_limb(level, max_level, at);
                        assert_eq!(
                            a.limb(at),
                            a_top.limb(top_at),
                            "L = {max_level}, dnum = {dnum}, level {level}, slice {j}, limb {at}"
                        );
                    }
                }
            }
        }
    }

    /// Keygen forms `b` from the stream words the key-switch regenerates:
    /// for every slice of a conjugation key at every level,
    /// `b_j + a_j·s − P·[σ(s)]_slice` is the key's clipped Gaussian error
    /// (|e| ≤ 6σ = 20), limb for limb.
    #[test]
    fn every_slice_satisfies_its_key_equation() {
        let (max_level, dnum) = (5, 2);
        let ctx = CkksContext::new_toy(1 << 6, max_level, dnum).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1212);
        let sk = ctx.gen_secret_key(&mut rng);
        let galois = bts_math::galois_element(0, ctx.degree(), true);
        let table = ctx.automorphism_table(galois).unwrap();
        let special = max_level + 1..max_level + 1 + ctx.num_special();
        for level in 0..=max_level {
            let key = ctx.gen_conjugation_key(&sk, level, &mut rng).unwrap();
            let limbs: Vec<usize> = (0..=level).chain(special.clone()).collect();
            let s = sk.poly.select_limbs(&limbs);
            let target = s.automorphism(&table);
            for j in 0..key.dnum() {
                let a = key.expanded_a(j, max_level);
                let mut e = key.slices[j].b.add(&a.mul(&s).unwrap()).unwrap();
                let slice = ctx.decomposition().slice(j, level);
                for (at, &i) in limbs.iter().enumerate() {
                    if slice.contains(&i) {
                        let q = *e.basis().modulus(at);
                        let gadget = ctx.p_basis().product_mod(&q);
                        for (x, &t) in e.limb_mut(at).iter_mut().zip(target.limb(at)) {
                            *x = q.sub(*x, q.mul(t, gadget));
                        }
                    }
                }
                e.to_coefficient();
                for at in 0..e.limb_count() {
                    let q = e.basis().modulus(at);
                    let worst = e.limb(at).iter().map(|&x| q.to_signed(x).abs()).max();
                    assert!(
                        worst <= Some(20),
                        "level {level}, slice {j}, limb {at}: |e| = {worst:?}"
                    );
                }
            }
        }
    }

    /// Every regenerated word reduces below its modulus, and the streams
    /// of two slices of a key, and of two keys drawn from one RNG, differ.
    #[test]
    fn streams_reduce_below_q_and_differ_across_slices_and_keys() {
        let ctx = CkksContext::new_toy(1 << 8, 5, 2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1952);
        let (sk, mut bundle) = ctx.generate_keys(&mut rng).unwrap();
        ctx.add_rotation_keys(&sk, &mut bundle, &[1, 2, -1], &mut rng)
            .unwrap();
        let mut keys: Vec<&EvaluationKey> = vec![bundle.relin()];
        keys.extend(bundle.rotations().map(|(_, key)| key));
        keys.extend(bundle.conjugation());
        let mut first_rows: Vec<Vec<u64>> = Vec::new();
        for key in keys {
            assert_eq!(key.dnum(), 2);
            for j in 0..key.dnum() {
                let a = key.expanded_a(j, ctx.max_level());
                for at in 0..a.limb_count() {
                    let q = a.basis().modulus(at).value();
                    assert!(a.limb(at).iter().all(|&w| w < q), "slice {j}, limb {at}");
                }
                first_rows.push(a.limb(0).to_vec());
            }
        }
        // 2 slices × (relin + 3 rotations + conjugation), all distinct.
        let distinct: std::collections::HashSet<_> = first_rows.iter().collect();
        assert_eq!((first_rows.len(), distinct.len()), (10, 10));
        // And within one row the stream does not repeat itself.
        let row: std::collections::HashSet<_> = first_rows[0].iter().collect();
        assert_eq!(row.len(), first_rows[0].len());
    }

    /// Statistical distance from uniform on `Z_q` of `reduce` applied to a
    /// uniform `bits`-bit word, by counting every word's image.
    fn counted_distance(bits: u32, q: u64, reduce: impl Fn(u64) -> u64) -> f64 {
        let mut hits = vec![0u64; q as usize];
        for w in 0..1u64 << bits {
            hits[reduce(w) as usize] += 1;
        }
        let words = (1u64 << bits) as f64;
        let uniform = 1.0 / q as f64;
        hits.iter()
            .map(|&h| (h as f64 / words - uniform).abs())
            .sum::<f64>()
            / 2.0
    }

    /// `r·(q − r) / (q·2^bits)` with `r = 2^bits mod q`: the distance of a
    /// uniform `bits`-bit word reduced mod `q` (`r` residues have one
    /// preimage more than the other `q − r`).
    fn reduced_distance(bits: u32, q: u64) -> f64 {
        let r = ((1u128 << bits) % q as u128) as f64;
        let q = q as f64;
        r * (q - r) / (q * 2f64.powi(bits as i32))
    }

    /// The stream's reduction (`w mod q`) is exactly as far from uniform as
    /// the vendored `rand`'s `gen_range` that drew `a` before (Lemire's
    /// widening multiply without rejection), and within the module doc's
    /// `q / 2^66` for every modulus of every context the crate builds:
    /// counted exhaustively on 16-bit words against both reductions, then
    /// in closed form for the 64-bit words and every prime of the
    /// `new_toy` (60/40/60-bit) and bootstrapping (45/40/60-bit) chains at
    /// N = 2^3 .. 2^13 (52 levels, dnum = 1: the longest chains built).
    #[test]
    fn the_reduction_is_as_close_to_uniform_as_gen_range() {
        for q in [3, 97, 641, 12_289, 40_961, 65_521] {
            let modular = counted_distance(16, q, |w| w % q);
            let lemire = counted_distance(16, q, |w| (w * q) >> 16);
            let closed = reduced_distance(16, q);
            assert!((modular - closed).abs() < 1e-12, "q = {q}");
            assert!((lemire - closed).abs() < 1e-12, "q = {q}");
            assert!(closed <= q as f64 / 2f64.powi(18), "q = {q}");
        }
        let mut moduli = 0;
        for log_n in 3..=13 {
            for q0_bits in [60, 45] {
                let ctx = CkksContext::new(1 << log_n, 52, 1, q0_bits, 40, 60).unwrap();
                for basis in [ctx.q_basis(), ctx.p_basis()] {
                    for q in basis.moduli() {
                        let distance = reduced_distance(64, q);
                        assert!(distance <= q as f64 / 2f64.powi(66), "q = {q}");
                        // Word-for-word the reduction keygen applies.
                        let m = Modulus::new(q);
                        assert_eq!(m.reduce(u64::MAX), u64::MAX % q);
                        moduli += 1;
                    }
                }
            }
        }
        assert_eq!(moduli, 11 * 2 * 106);
    }

    /// The stream's words look uniform: the top four bits of 2^14 words
    /// fall evenly into 16 buckets (chi-square, 15 degrees of freedom,
    /// far below the 1e-5 tail at 44.3), and a reduced 40-bit row averages
    /// `q / 2`.
    #[test]
    fn stream_words_spread_evenly() {
        let words: Vec<u64> = uniform_stream(0x5eed, 7, 0).take(1 << 14).collect();
        let mut buckets = [0u32; 16];
        for &w in &words {
            buckets[(w >> 60) as usize] += 1;
        }
        let expected = words.len() as f64 / 16.0;
        let chi2: f64 = buckets
            .iter()
            .map(|&b| (b as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 44.3, "chi-square {chi2}");
        let q = Modulus::new(bts_math::generate_ntt_primes(1 << 12, 40, 1)[0]);
        let mean = words.iter().map(|&w| q.reduce(w) as f64).sum::<f64>()
            / (words.len() as f64 * q.value() as f64);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        // A block read from the middle of the row is the row's words.
        let block: Vec<u64> = uniform_stream(0x5eed, 7, 640).take(64).collect();
        assert_eq!(block, words[640..704]);
    }

    /// A key stores `b` and a seed per slice: half the words a key-switch
    /// reads, plus 8 bytes a slice, at every level; what it reads stays
    /// the instance's `evk_bytes_at_level`.
    #[test]
    fn stored_bytes_are_half_the_read_bytes_plus_the_seeds() {
        for (log_n, max_level, dnum) in [(6, 4, 1), (6, 5, 2), (6, 6, 3), (6, 3, 4), (8, 7, 2)] {
            let instance = CkksInstance::toy(log_n, max_level, dnum);
            let ctx = CkksContext::from_instance(&instance).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(8);
            let sk = ctx.gen_secret_key(&mut rng);
            for level in 0..=max_level {
                let key = ctx.gen_conjugation_key(&sk, level, &mut rng).unwrap();
                let slices = key.dnum() as u64;
                assert_eq!(key.size_bytes(), instance.evk_bytes_at_level(level));
                assert_eq!(key.stored_bytes(), key.size_bytes() / 2 + 8 * slices);
                let b_words: usize = key
                    .slices
                    .iter()
                    .map(|s| s.b.limb_count() * s.b.degree())
                    .sum();
                assert_eq!(key.stored_bytes(), 8 * (b_words as u64 + slices));
            }
        }
    }

    #[test]
    fn a_bundle_prints_its_shape_not_its_words() {
        // N = 2^12: the public key alone is 2 × 4 limbs × 4 096 words.
        let ctx = CkksContext::new_toy(1 << 12, 3, 2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let (sk, mut bundle) = ctx.generate_keys(&mut rng).unwrap();
        ctx.add_rotation_keys(&sk, &mut bundle, &[1, 2, 4, 8], &mut rng)
            .unwrap();
        let printed = format!("{bundle:?}");
        assert!(printed.len() < 4096, "{} bytes of Debug", printed.len());
        assert!(printed.contains("PublicKey { degree: 4096, limbs: 4 }"));
        // toy(12, 3, 2): 2 slices × 6 limbs × 4 096 words per half.
        assert!(
            printed.contains("bytes: 786432, stored_bytes: 393232"),
            "{printed}"
        );
        assert!(!format!("{sk:?}").contains('['), "no key material");
    }
}
