use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use rand::Rng;

use bts_math::{
    resize_exact, sample_gaussian, sample_ternary, AutomorphismTable, BaseConverter, BconvScratch,
    Modulus, Representation, RnsBasis, RnsPoly, ShoupMul, TERNARY_HAMMING_DENSE,
};
use bts_params::{CkksInstance, Decomposition};

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::encoding::{CkksEncoder, Complex};
use crate::error::CkksError;
use crate::evaluator::Evaluator;
use crate::keys::{uniform_stream, EvaluationKey, KeyBundle, KeySlice, PublicKey, SecretKey};

/// Standard deviation of the RLWE error distribution.
const ERROR_SIGMA: f64 = 3.2;

/// Reusable working memory for one evaluator op: a key-switch's ModDown
/// rows and BConv sources, and rescale's dropped limb. Pooled on the context
/// ([`CkksContext::with_scratch`]) — the software form of the fixed
/// temporary region BTS reserves in its scratchpad — so a warm op allocates
/// nothing: it writes its result into the caller's destination and every
/// temporary into one of these. With the digit matrix, a key-switch's
/// buffers fit Table 4's temp-data model,
/// [`CkksInstance::modelled_temp_bytes`]: the inner product's sums live on
/// the stack, one block of coefficients at a time ([`InnerProduct`]), and
/// only ModDown's rows are stored.
#[derive(Debug, Default)]
pub(crate) struct KsScratch {
    /// BConv's sources (ModUp's slice limbs, ModDown's special limbs).
    bconv: BconvScratch,
    /// ModDown: one half's inner product on the k special limbs,
    /// inverse-transformed in place (`k · N` words).
    special: Vec<u64>,
    /// ModDown: the special limbs converted to the q limbs and transformed
    /// back (`(ℓ+1) · N` words).
    conv: Vec<u64>,
    /// Rescale's dropped limb, inverse-transformed.
    pub(crate) limb: Vec<u64>,
}

/// How ModDown's last pass lands in its destination: written over it, or
/// added onto the value already there (HMult's `d0` / `d1`, a rotation's
/// permuted `c0`) — the addition the op would otherwise make in a pass of
/// its own.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Land {
    Overwrite,
    Accumulate,
}

/// Lazily-memoized key-switching machinery shared by all clones of a context:
/// ModUp converters per `(level, slice)`, ModDown converters per level,
/// automorphism tables per Galois element, a pool of [`KsScratch`] buffers
/// and the recycled digit matrices of dropped [`Decomposed`] values. Interior
/// mutability keeps [`CkksContext::key_switch`] callable through `&self`.
#[derive(Debug, Default)]
struct KsCache {
    modup: Mutex<HashMap<(usize, usize), Arc<BaseConverter>>>,
    moddown: Mutex<HashMap<usize, Arc<BaseConverter>>>,
    galois: Mutex<HashMap<u64, Arc<AutomorphismTable>>>,
    scratch: Mutex<Vec<KsScratch>>,
    digits: Mutex<Vec<Vec<u64>>>,
}

/// The key-switch digits of one level-ℓ polynomial: every decomposition
/// slice raised to the extended basis `{q_0..q_ℓ, p_0..p_{k-1}}` (ModUp) and
/// held in the NTT domain, `slices × (ℓ+1+k) × N` words in one pooled buffer.
///
/// Produced by [`CkksContext::decompose`] and consumed, any number of times,
/// by [`CkksContext::switch_decomposed`]. It is a pure function of the
/// polynomial it was cut from, so sharing one across the rotations of a
/// ciphertext (hoisting) can never change a result, only skip recomputing
/// it. Dropping the value returns its buffer to the context's pool.
#[derive(Debug)]
pub struct Decomposed {
    level: usize,
    decomposition: Decomposition,
    digits: Vec<u64>,
    pool: Arc<KsCache>,
}

impl Decomposed {
    /// Level ℓ of the polynomial the digits were cut from.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of decomposition slices, `⌈(ℓ+1)/k⌉`.
    pub fn slices(&self) -> usize {
        self.decomposition.slices_at_level(self.level)
    }

    /// Whether these are the digits of `d`: slice `j`'s block carries the
    /// limbs of `d` in slice `j` verbatim, so the test is one pass over `d`.
    pub(crate) fn is_cut_from(&self, d: &RnsPoly) -> bool {
        let n = d.degree();
        if d.limb_count() != self.level + 1 || d.representation() != Representation::Ntt {
            return false;
        }
        // A block is the ℓ+1 ciphertext limbs followed by the k special ones.
        let block = self.digits.len() / self.slices();
        (0..self.slices()).all(|j| {
            self.decomposition.slice(j, self.level).all(|t| {
                let at = j * block + t * n;
                self.digits[at..at + n] == *d.limb(t)
            })
        })
    }
}

impl Drop for Decomposed {
    fn drop(&mut self) {
        // A poisoned pool only costs the recycling; never panic in drop.
        if let Ok(mut pool) = self.pool.digits.lock() {
            pool.push(std::mem::take(&mut self.digits));
        }
    }
}

/// Where limb `t` of the extended basis `{q_0..q_level} ∪ P` sits in a
/// basis `{q_0..q_top} ∪ P` with `top ≥ level`: the full key basis, or an
/// evaluation key generated for level `top`.
pub(crate) fn ks_limb(level: usize, top: usize, t: usize) -> usize {
    if t <= level {
        t
    } else {
        top + (t - level)
    }
}

/// Adjacent coefficients whose inner-product sums
/// [`CkksContext::switch_into`] keeps live together, in the shape of BConv's
/// MAC block: a block sums every slice's products into stack `u128`s (1 KiB,
/// L1-resident) and reduces each once, and no row of sums is stored. A
/// block this wide spreads each slice's setup (its digit and key rows) over
/// 64 products; at BConv's four register-held lanes that setup is most of
/// the work: against the row-at-a-time body, HMult read level to 7 %
/// slower at 4 lanes and level to 6 % faster at 64 (an in-process A/B,
/// BENCH_NOTES "PR 49").
const IP_LANES: usize = 64;

/// One half (`b` or `a`) of a key-switch's inner product with its key:
/// limb row `t` of `Σ_j digit_j ⊙ key_j` over the decomposition slices, on
/// the extended basis `{q_0..q_ℓ} ∪ P`.
struct InnerProduct<'a> {
    /// The digit matrix: one `stride = (ℓ+1+k) · N`-word block per slice.
    digits: &'a [u64],
    stride: usize,
    /// The key's slices: `b` stored, `a` regenerated from the seed.
    keys: &'a [KeySlice],
    /// Which half of each pair this is. The `a` half's key words are the
    /// raw 64-bit stream words, multiplied in unreduced (`Σ d·w ≡
    /// Σ d·(w mod p)`; see the `keys` module doc).
    a_half: bool,
    /// The automorphism's NTT gather the digits are read through, if any.
    gather: Option<&'a [u32]>,
    /// The digits' level ℓ, the key's, and the context's L (which places
    /// a row in the full key basis the `a` stream is keyed by).
    level: usize,
    key_level: usize,
    max_level: usize,
    n: usize,
    /// Slices whose `u128` sums cannot overflow between two reductions.
    fold_every: usize,
}

impl InnerProduct<'_> {
    /// Row `t`, reduced mod `p` (the row's modulus), handed to `land` one
    /// block of adjacent coefficients at a time with the block's first
    /// coefficient.
    #[inline(always)]
    fn row(&self, t: usize, p: &Modulus, mut land: impl FnMut(usize, &[u64])) {
        // Where the row sits in the key (`b`) and in the full key basis
        // (the `a` stream).
        let limbs = (
            ks_limb(self.level, self.key_level, t),
            ks_limb(self.level, self.max_level, t),
        );
        // Full blocks have a length the compiler can see, so their lane
        // loops unroll; N is a power of two, so there is a remainder only
        // when the whole row is shorter than one block.
        let full = self.n - self.n % IP_LANES;
        for col in (0..full).step_by(IP_LANES) {
            land(col, &self.block(t, limbs, p, col, IP_LANES)[..IP_LANES]);
        }
        let rest = self.n - full;
        if rest > 0 {
            land(full, &self.block(t, limbs, p, full, rest)[..rest]);
        }
    }

    /// Coefficients `col..col + lanes` of row `t`: every slice's products
    /// summed in `u128` and reduced once per element. The `a` half's key
    /// words come off the stream as the MAC reads them, so no row of `a`,
    /// nor any block of it, exists in memory.
    #[inline(always)]
    fn block(
        &self,
        t: usize,
        (key_limb, basis_limb): (usize, usize),
        p: &Modulus,
        col: usize,
        lanes: usize,
    ) -> [u64; IP_LANES] {
        let n = self.n;
        let mut acc = [0u128; IP_LANES];
        let slices = self.digits.chunks_exact(self.stride).zip(self.keys);
        for (j, (ext, slice)) in slices.enumerate() {
            if j > 0 && j.is_multiple_of(self.fold_every) {
                // `fold_every` more terms could overflow: fold first.
                for a in &mut acc[..lanes] {
                    *a = p.reduce_u128(*a) as u128;
                }
            }
            let digit = &ext[t * n..(t + 1) * n];
            let block = col..col + lanes;
            let b = || slice.b.limb(key_limb)[block.clone()].iter().copied();
            let a = || uniform_stream(slice.seed, basis_limb, col);
            let sums = &mut acc[..lanes];
            match self.gather {
                None => {
                    let digits = digit[block.clone()].iter().copied();
                    if self.a_half {
                        mac(sums, digits, a())
                    } else {
                        mac(sums, digits, b())
                    }
                }
                Some(gather) => {
                    let digits = gather[block.clone()].iter().map(|&g| digit[g as usize]);
                    if self.a_half {
                        mac(sums, digits, a())
                    } else {
                        mac(sums, digits, b())
                    }
                }
            }
        }
        acc.map(|a| p.reduce_u128(a))
    }
}

/// `sums[c] += x_c · w_c`: a block's digits times its key words.
#[inline(always)]
fn mac(sums: &mut [u128], digits: impl Iterator<Item = u64>, key: impl Iterator<Item = u64>) {
    for ((sum, x), w) in sums.iter_mut().zip(digits).zip(key) {
        *sum += x as u128 * w as u128;
    }
}

/// A fully instantiated Full-RNS CKKS context: moduli chains, NTT tables,
/// encoder and the key-switching machinery.
///
/// The context owns everything that depends only on the parameter set; keys
/// and ciphertexts reference it. Ring degrees up to 2^13 are practical for the
/// functional software path (tests, examples); the accelerator simulator works
/// directly on the parameter model for the paper's 2^17 instances.
#[derive(Debug, Clone)]
pub struct CkksContext {
    degree: usize,
    max_level: usize,
    decomposition: Decomposition,
    scale: f64,
    q_basis: RnsBasis,
    p_basis: RnsBasis,
    key_basis: RnsBasis,
    encoder: CkksEncoder,
    /// `[P]_{q_i}` for every ciphertext modulus.
    p_mod_q: Vec<u64>,
    /// `[P^{-1}]_{q_i}` for every ciphertext modulus, Shoup-precomputed for
    /// the mod-down scaling pass.
    p_inv_mod_q: Vec<ShoupMul>,
    /// `[q_ℓ^{-1}]_{q_i}` for every level ℓ ≥ 1 and limb i < ℓ: the HRescale
    /// constants, precomputed once instead of re-inverted per rescale call.
    rescale_inv: Vec<Vec<u64>>,
    /// Shared key-switch converter cache + scratch pool.
    ks: Arc<KsCache>,
}

impl CkksContext {
    /// Builds a context with explicit prime bit-sizes.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParameters`] for inconsistent requests and
    /// propagates prime-generation failures.
    pub fn new(
        degree: usize,
        max_level: usize,
        dnum: usize,
        log_q0: u32,
        log_scale: u32,
        log_special: u32,
    ) -> crate::Result<Self> {
        let decomposition = Decomposition::new(max_level, dnum).ok_or_else(|| {
            CkksError::InvalidParameters(format!("dnum {dnum} must be in [1, L+1]"))
        })?;
        let num_special = decomposition.special_primes();
        // Generate every prime from a single pool so the ciphertext and
        // special moduli are guaranteed distinct even when their bit sizes
        // coincide; q0 is the largest.
        let mut bit_sizes = vec![log_q0];
        bit_sizes.extend(std::iter::repeat_n(log_scale, max_level));
        bit_sizes.extend(std::iter::repeat_n(log_special, num_special));
        let key_basis =
            RnsBasis::generate_with_bit_sizes(degree, &bit_sizes).map_err(CkksError::Math)?;
        let q_basis = key_basis.prefix(max_level + 1);
        let p_basis =
            key_basis.select(&((max_level + 1)..(max_level + 1 + num_special)).collect::<Vec<_>>());
        let encoder = CkksEncoder::new(degree)?;
        let p_mod_q: Vec<u64> = (0..q_basis.len())
            .map(|i| p_basis.product_mod(q_basis.modulus(i)))
            .collect();
        let p_inv_mod_q: Vec<ShoupMul> = (0..q_basis.len())
            .map(|i| {
                let qi = q_basis.modulus(i);
                Ok(qi.shoup(qi.inv(p_mod_q[i]).map_err(CkksError::Math)?))
            })
            .collect::<crate::Result<_>>()?;
        let rescale_inv: Vec<Vec<u64>> = (0..=max_level)
            .map(|l| {
                if l == 0 {
                    return Ok(Vec::new());
                }
                let q_last = q_basis.modulus(l).value();
                (0..l)
                    .map(|i| {
                        let qi = q_basis.modulus(i);
                        qi.inv(qi.reduce(q_last)).map_err(CkksError::Math)
                    })
                    .collect()
            })
            .collect::<crate::Result<_>>()?;
        Ok(Self {
            degree,
            max_level,
            decomposition,
            scale: 2f64.powi(log_scale as i32),
            q_basis,
            p_basis,
            key_basis,
            encoder,
            p_mod_q,
            p_inv_mod_q,
            rescale_inv,
            ks: Arc::new(KsCache::default()),
        })
    }

    /// A small, insecure context for tests and examples (40-bit scale).
    ///
    /// # Errors
    ///
    /// Propagates [`CkksContext::new`] failures.
    pub fn new_toy(degree: usize, max_level: usize, dnum: usize) -> crate::Result<Self> {
        Self::new(degree, max_level, dnum, 60, 40, 60)
    }

    /// Builds a context from a [`CkksInstance`] parameter description.
    ///
    /// Only practical for moderate ring degrees; the paper-scale 2^17
    /// instances are handled analytically by the simulator rather than
    /// instantiated in software.
    ///
    /// # Errors
    ///
    /// Propagates [`CkksContext::new`] failures.
    pub fn from_instance(instance: &CkksInstance) -> crate::Result<Self> {
        Self::new(
            instance.n(),
            instance.max_level(),
            instance.dnum(),
            instance.log_q0(),
            instance.log_scale(),
            instance.log_special(),
        )
    }

    /// Ring degree N.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of message slots (N/2).
    pub fn slots(&self) -> usize {
        self.degree / 2
    }

    /// Maximum multiplicative level L.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// The key-switching decomposition (§2.5) the keys and the key-switch
    /// slice the modulus chain by.
    pub fn decomposition(&self) -> Decomposition {
        self.decomposition
    }

    /// Decomposition number dnum.
    pub fn dnum(&self) -> usize {
        self.decomposition.dnum()
    }

    /// Number of special primes k.
    pub fn num_special(&self) -> usize {
        self.decomposition.special_primes()
    }

    /// Default encoding scale Δ.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The ciphertext-modulus basis `{q_0, …, q_L}`.
    pub fn q_basis(&self) -> &RnsBasis {
        &self.q_basis
    }

    /// The special-modulus basis `{p_0, …, p_{k-1}}`.
    pub fn p_basis(&self) -> &RnsBasis {
        &self.p_basis
    }

    /// The encoder.
    pub fn encoder(&self) -> &CkksEncoder {
        &self.encoder
    }

    /// The ciphertext basis truncated to level ℓ (ℓ+1 limbs): a view of the
    /// chain's one table list, so a reference-count bump — every level's
    /// basis exists once the chain does.
    pub fn basis_at_level(&self, level: usize) -> RnsBasis {
        self.q_basis.prefix(level + 1)
    }

    /// A ciphertext with no limbs but room for a top-level one: the
    /// destination a pool of `_into` results hands out. Like the fixed
    /// ciphertext regions of BTS's scratchpad it fits a result of any level,
    /// so no op writing into it ever grows it.
    pub fn ciphertext_buffer(&self) -> Ciphertext {
        let mut buffer = self.empty_ciphertext();
        for poly in [&mut buffer.c0, &mut buffer.c1] {
            poly.reserve_limbs(self.max_level + 1);
        }
        buffer
    }

    /// A ciphertext with no limbs and no room: where the allocating ops
    /// start, so a result is allocated at exactly its size.
    pub(crate) fn empty_ciphertext(&self) -> Ciphertext {
        Ciphertext::new(self.empty_poly(), self.empty_poly(), 0, 0.0)
    }

    fn empty_poly(&self) -> RnsPoly {
        RnsPoly::zero(&self.q_basis.prefix(0), Representation::Ntt)
    }

    /// The prime modulus q_i.
    pub fn q_modulus(&self, i: usize) -> u64 {
        self.q_basis.modulus(i).value()
    }

    /// The precomputed HRescale constants `[q_ℓ^{-1}]_{q_i}` (`i < ℓ`) for
    /// dropping from level `level`.
    pub(crate) fn rescale_constants(&self, level: usize) -> &[u64] {
        &self.rescale_inv[level]
    }

    /// Creates an evaluator bound to this context and a key bundle.
    pub fn evaluator<'a>(&'a self, keys: &'a KeyBundle) -> Evaluator<'a> {
        Evaluator::new(self, keys)
    }

    // ------------------------------------------------------------------
    // Encoding
    // ------------------------------------------------------------------

    /// Encodes a complex message at the maximum level and default scale.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors.
    pub fn encode(&self, message: &[Complex]) -> crate::Result<Plaintext> {
        self.encode_at(message, self.max_level, self.scale)
    }

    /// Encodes a real-valued message at the maximum level and default scale.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors.
    pub fn encode_real(&self, message: &[f64]) -> crate::Result<Plaintext> {
        let msg: Vec<Complex> = message.iter().map(|&x| Complex::new(x, 0.0)).collect();
        self.encode(&msg)
    }

    /// Encodes a message at an explicit level and scale.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors and rejects out-of-range levels.
    pub fn encode_at(
        &self,
        message: &[Complex],
        level: usize,
        scale: f64,
    ) -> crate::Result<Plaintext> {
        if level > self.max_level {
            return Err(CkksError::InvalidParameters(format!(
                "level {level} exceeds the maximum {}",
                self.max_level
            )));
        }
        let coeffs = self.encoder.encode_to_coefficients(message, scale)?;
        let signed: Vec<i64> = coeffs.iter().map(|&c| c as i64).collect();
        let mut poly = RnsPoly::from_signed_coefficients(&self.basis_at_level(level), &signed);
        poly.to_ntt();
        Ok(Plaintext::new(poly, level, scale))
    }

    /// Decodes a plaintext back to complex slots.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors.
    pub fn decode(&self, plaintext: &Plaintext) -> crate::Result<Vec<Complex>> {
        let limbs_to_use = plaintext.poly.limb_count().min(2);
        let selected: Vec<usize> = (0..limbs_to_use).collect();
        let reduced = plaintext.poly.select_limbs(&selected);
        let signed = reduced.to_signed_coefficients();
        let coeffs: Vec<f64> = signed.iter().map(|&c| c as f64).collect();
        self.encoder
            .decode_from_coefficients(&coeffs, plaintext.scale)
    }

    // ------------------------------------------------------------------
    // Key generation
    // ------------------------------------------------------------------

    /// Samples a fresh secret key (dense ternary, §2.5 non-sparse setting).
    pub fn gen_secret_key<R: Rng + ?Sized>(&self, rng: &mut R) -> SecretKey {
        let coefficients = sample_ternary(rng, self.degree, TERNARY_HAMMING_DENSE);
        let mut poly = RnsPoly::from_signed_coefficients(&self.key_basis, &coefficients);
        poly.to_ntt();
        SecretKey { coefficients, poly }
    }

    /// Samples a sparse ternary secret key with exactly `hamming_weight`
    /// non-zero coefficients. Sparse secrets keep the ModRaise overflow small,
    /// which is what shallow bootstrapping configurations rely on (§2.4, \[17\]).
    pub fn gen_sparse_secret_key<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        hamming_weight: usize,
    ) -> SecretKey {
        let coefficients = sample_ternary(rng, self.degree, hamming_weight);
        let mut poly = RnsPoly::from_signed_coefficients(&self.key_basis, &coefficients);
        poly.to_ntt();
        SecretKey { coefficients, poly }
    }

    /// Derives the public encryption key from a secret key.
    pub fn gen_public_key<R: Rng + ?Sized>(&self, sk: &SecretKey, rng: &mut R) -> PublicKey {
        let basis = self.q_basis.clone();
        let s_q = sk.poly.select_limbs(&(0..basis.len()).collect::<Vec<_>>());
        let a = RnsPoly::sample_uniform(&basis, Representation::Ntt, rng);
        let mut e = RnsPoly::from_signed_coefficients(
            &basis,
            &sample_gaussian(rng, self.degree, ERROR_SIGMA),
        );
        e.to_ntt();
        let p0 = a
            .mul(&s_q)
            .expect("same basis")
            .neg()
            .add(&e)
            .expect("same basis");
        PublicKey { p0, p1: a }
    }

    /// Generates a key-switching key that re-encrypts products of the target
    /// key — `target` of the secret key, a limb-wise map — under the secret
    /// key `sk` (generalized dnum decomposition, §2.5), for key-switches at
    /// levels up to `level`.
    ///
    /// Each slice's uniform `a_j` is the stream of a seed drawn from `rng`
    /// (see the `keys` module doc); `b_j = −a_j·s + e_j + gadget` is formed
    /// limb by limb from it, and `a_j` is never stored. The draws are those
    /// of a top-level key whatever `level` is — a seed and an error
    /// polynomial for every slice live at L — so the RNG stream, and every
    /// later encryption, does not depend on the level; and since the stream
    /// is keyed by the limb of the full key basis, a level-ℓ key's `a` is
    /// the top-level key's on the limbs `q_0..q_ℓ ∪ P` of the slices live at
    /// ℓ, the only ones it keeps.
    fn gen_switching_key<R: Rng + ?Sized>(
        &self,
        sk: &SecretKey,
        target: impl FnOnce(&RnsPoly) -> RnsPoly,
        level: usize,
        rng: &mut R,
    ) -> crate::Result<EvaluationKey> {
        if level > self.max_level {
            return Err(CkksError::InvalidParameters(format!(
                "a key for level {level} exceeds the maximum {}",
                self.max_level
            )));
        }
        // The key keeps key-basis limbs q_0..q_ℓ and P, in that order.
        let limbs: Vec<usize> = (0..self.key_basis.len())
            .filter(|&i| i <= level || i > self.max_level)
            .collect();
        let basis = self.key_basis.select(&limbs);
        let s = sk.poly.select_limbs(&limbs);
        let target = target(&s);
        let kept = self.decomposition.slices_at_level(level);
        let live = self.decomposition.slices_at_level(self.max_level);
        let mut slices = Vec::with_capacity(kept);
        for j in 0..live {
            let seed = rng.next_u64();
            let error = sample_gaussian(rng, self.degree, ERROR_SIGMA);
            if j >= kept {
                continue;
            }
            let mut b_j = RnsPoly::from_signed_coefficients(&basis, &error);
            b_j.to_ntt();
            let slice = self.decomposition.slice(j, level);
            // b_j = e_j − a_j·s + gadget·target, the gadget factor P mod q_i
            // inside the slice and 0 elsewhere, one limb of a_j at a time.
            for (at, &i) in limbs.iter().enumerate() {
                let q = basis.modulus(at);
                let gadget = if slice.contains(&i) {
                    self.p_mod_q[i]
                } else {
                    0
                };
                let words = uniform_stream(seed, i, 0);
                let terms = words.zip(s.limb(at)).zip(target.limb(at));
                for (x, ((w, &s_c), &t_c)) in b_j.limb_mut(at).iter_mut().zip(terms) {
                    *x = q.add(q.sub(*x, q.mul(q.reduce(w), s_c)), q.mul(t_c, gadget));
                }
            }
            slices.push(KeySlice { b: b_j, seed });
        }
        Ok(EvaluationKey { level, slices })
    }

    /// Generates the relinearization key (target key `s²`), at the top level.
    pub fn gen_relin_key<R: Rng + ?Sized>(&self, sk: &SecretKey, rng: &mut R) -> EvaluationKey {
        let s_squared = |s: &RnsPoly| s.mul(s).expect("same basis");
        self.gen_switching_key(sk, s_squared, self.max_level, rng)
            .expect("the top level is a level")
    }

    /// Generates a rotation key for rotation amount `r` (target key `σ_r(s)`)
    /// that serves ciphertexts up to `level`; its draws do not depend on
    /// `level`.
    ///
    /// # Errors
    ///
    /// Propagates Galois-element validation errors and rejects a level above
    /// the maximum.
    pub fn gen_rotation_key<R: Rng + ?Sized>(
        &self,
        sk: &SecretKey,
        rotation: i64,
        level: usize,
        rng: &mut R,
    ) -> crate::Result<EvaluationKey> {
        let table =
            self.automorphism_table(bts_math::galois_element(rotation, self.degree, false))?;
        self.gen_switching_key(sk, |s| s.automorphism(&table), level, rng)
    }

    /// Generates the conjugation key (target key `σ_{-1}(s)`) that serves
    /// ciphertexts up to `level`; its draws do not depend on `level`.
    ///
    /// # Errors
    ///
    /// Propagates Galois-element validation errors and rejects a level above
    /// the maximum.
    pub fn gen_conjugation_key<R: Rng + ?Sized>(
        &self,
        sk: &SecretKey,
        level: usize,
        rng: &mut R,
    ) -> crate::Result<EvaluationKey> {
        let table = self.automorphism_table(bts_math::galois_element(0, self.degree, true))?;
        self.gen_switching_key(sk, |s| s.automorphism(&table), level, rng)
    }

    /// One-call key generation: secret key plus a bundle containing the public
    /// and relinearization keys (rotation keys are added on demand).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for future validation.
    pub fn generate_keys<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> crate::Result<(SecretKey, KeyBundle)> {
        let sk = self.gen_secret_key(rng);
        let bundle = self.generate_bundle_for(&sk, rng)?;
        Ok((sk, bundle))
    }

    /// Builds a key bundle (public + relinearization keys) for an externally
    /// generated secret key, e.g. a sparse secret used for bootstrapping.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for API stability.
    pub fn generate_bundle_for<R: Rng + ?Sized>(
        &self,
        sk: &SecretKey,
        rng: &mut R,
    ) -> crate::Result<KeyBundle> {
        Ok(KeyBundle {
            public: self.gen_public_key(sk, rng),
            relin: self.gen_relin_key(sk, rng),
            rotations: std::collections::HashMap::new(),
            conjugation: None,
        })
    }

    /// Generates top-level rotation keys for a set of rotation amounts and
    /// adds them to the bundle, plus the conjugation key:
    /// [`CkksContext::provision_keys`] with every level at L.
    ///
    /// # Errors
    ///
    /// Propagates rotation-key generation failures.
    pub fn add_rotation_keys<R: Rng + ?Sized>(
        &self,
        sk: &SecretKey,
        bundle: &mut KeyBundle,
        rotations: &[i64],
        rng: &mut R,
    ) -> crate::Result<()> {
        let top = self.max_level;
        let rotations = rotations.iter().map(|&r| (r, top));
        self.provision_keys(sk, bundle, rotations, top, rng)
    }

    /// Provisions a program's rotation and conjugation keys, each sized by
    /// the highest level it is read at: for every `(r, level)` in order, then
    /// for the conjugation key at `conjugation_level`, draws a key if the
    /// bundle has none or holds one for a lower level. A key already serving
    /// the level is kept, so provisioning the same program again draws
    /// nothing. The conjugation key is always provisioned; a program that
    /// never conjugates passes level 0.
    ///
    /// # Errors
    ///
    /// Propagates key generation failures (a level above L among them).
    pub fn provision_keys<R: Rng + ?Sized>(
        &self,
        sk: &SecretKey,
        bundle: &mut KeyBundle,
        rotations: impl IntoIterator<Item = (i64, usize)>,
        conjugation_level: usize,
        rng: &mut R,
    ) -> crate::Result<()> {
        let serves = |key: Option<&EvaluationKey>, level| key.is_some_and(|k| k.level >= level);
        for (r, level) in rotations {
            if !serves(bundle.rotation(r), level) {
                let key = self.gen_rotation_key(sk, r, level, rng)?;
                bundle.insert_rotation(r, key);
            }
        }
        if !serves(bundle.conjugation(), conjugation_level) {
            bundle.set_conjugation(self.gen_conjugation_key(sk, conjugation_level, rng)?);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Encryption / decryption
    // ------------------------------------------------------------------

    /// Encrypts a plaintext under the secret key (symmetric encryption).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for API stability.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        plaintext: &Plaintext,
        sk: &SecretKey,
        rng: &mut R,
    ) -> crate::Result<Ciphertext> {
        let mut ct = self.empty_ciphertext();
        self.encrypt_into(plaintext, sk, rng, &mut ct)?;
        Ok(ct)
    }

    /// [`CkksContext::encrypt`] written into `dst`: `c1` uniform, then
    /// `c0 = −c1·s + e + m`, drawing from `rng` exactly as `encrypt` does.
    ///
    /// # Errors
    ///
    /// Rejects a plaintext that is not an NTT-domain polynomial of this
    /// context at its level.
    pub fn encrypt_into<R: Rng + ?Sized>(
        &self,
        plaintext: &Plaintext,
        sk: &SecretKey,
        rng: &mut R,
        dst: &mut Ciphertext,
    ) -> crate::Result<()> {
        let level = plaintext.level;
        let basis = self.basis_at_level(level);
        let m = &plaintext.poly;
        if m.basis() != &basis || m.representation() != Representation::Ntt {
            return Err(CkksError::OperandMismatch(format!(
                "plaintext is not an NTT-domain polynomial of this context at level {level}"
            )));
        }
        let Ciphertext { c0, c1, .. } = dst;
        c1.sample_uniform_into(&basis, Representation::Ntt, rng);
        let error = sample_gaussian(rng, self.degree, ERROR_SIGMA);
        c0.reshape(&basis, Representation::Coefficient)
            .for_each_limb_mut(|_, table, limb| {
                let q = table.modulus();
                for (x, &v) in limb.iter_mut().zip(&error) {
                    *x = q.from_i64(v);
                }
            });
        c0.to_ntt();
        let c1 = &*c1;
        c0.for_each_limb_mut(|j, table, limb| {
            let q = table.modulus();
            let terms = c1.limb(j).iter().zip(sk.poly.limb(j)).zip(m.limb(j));
            for (x, ((&a, &s), &m)) in limb.iter_mut().zip(terms) {
                *x = q.add(q.add(q.neg(q.mul(a, s)), *x), m);
            }
        });
        dst.level = level;
        dst.scale = plaintext.scale;
        Ok(())
    }

    /// Encrypts a plaintext under the public key.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for API stability.
    pub fn encrypt_public<R: Rng + ?Sized>(
        &self,
        plaintext: &Plaintext,
        keys: &KeyBundle,
        rng: &mut R,
    ) -> crate::Result<Ciphertext> {
        let level = plaintext.level;
        let idx: Vec<usize> = (0..=level).collect();
        let p0 = keys.public.p0.select_limbs(&idx);
        let p1 = keys.public.p1.select_limbs(&idx);
        let basis = self.basis_at_level(level);
        let mut v = RnsPoly::from_signed_coefficients(
            &basis,
            &sample_ternary(rng, self.degree, TERNARY_HAMMING_DENSE),
        );
        v.to_ntt();
        let mut e0 = RnsPoly::from_signed_coefficients(
            &basis,
            &sample_gaussian(rng, self.degree, ERROR_SIGMA),
        );
        e0.to_ntt();
        let mut e1 = RnsPoly::from_signed_coefficients(
            &basis,
            &sample_gaussian(rng, self.degree, ERROR_SIGMA),
        );
        e1.to_ntt();
        let c0 = v
            .mul(&p0)
            .expect("same basis")
            .add(&e0)
            .expect("same basis")
            .add(&plaintext.poly)
            .expect("same basis");
        let c1 = v
            .mul(&p1)
            .expect("same basis")
            .add(&e1)
            .expect("same basis");
        Ok(Ciphertext::new(c0, c1, level, plaintext.scale))
    }

    /// Decrypts a ciphertext with the secret key.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for API stability.
    pub fn decrypt(&self, ciphertext: &Ciphertext, sk: &SecretKey) -> crate::Result<Plaintext> {
        let level = ciphertext.level;
        let s_q = sk.poly.select_limbs(&(0..=level).collect::<Vec<_>>());
        let m = ciphertext
            .c1
            .mul(&s_q)
            .expect("same basis")
            .add(&ciphertext.c0)
            .expect("same basis");
        Ok(Plaintext::new(m, level, ciphertext.scale))
    }

    /// ModRaise: re-interprets a ciphertext's level-0 residue on the full
    /// modulus chain. The underlying plaintext becomes `m + q0·I` for a small
    /// integer polynomial `I` (§2.4).
    pub fn mod_raise(&self, ct: &Ciphertext) -> Ciphertext {
        let mut raised = self.empty_ciphertext();
        self.mod_raise_into(ct, &mut raised);
        raised
    }

    /// [`CkksContext::mod_raise`] written into `dst`: limb 0 of each
    /// polynomial is inverse-transformed in place in `dst`'s first limb,
    /// every other limb is its centered lift, and all of them go back to the
    /// NTT domain.
    pub fn mod_raise_into(&self, ct: &Ciphertext, dst: &mut Ciphertext) {
        let n = self.degree;
        let q0 = self.q_basis.modulus(0);
        for (out, poly) in [(&mut dst.c0, &ct.c0), (&mut dst.c1, &ct.c1)] {
            out.reshape(&self.q_basis, Representation::Coefficient);
            let (first, rest) = out.data_mut().split_at_mut(n);
            first.copy_from_slice(poly.limb(0));
            if poly.representation() == Representation::Ntt {
                self.q_basis.table(0).inverse(first);
            }
            // Limb 0 already is the centered residue's image mod q0.
            let first = &*first;
            for (j, limb) in rest.chunks_exact_mut(n).enumerate() {
                let q = self.q_basis.modulus(j + 1);
                for (x, &c) in limb.iter_mut().zip(first) {
                    *x = q.from_i64(q0.to_signed(c));
                }
            }
            out.to_ntt();
        }
        dst.level = self.max_level;
        dst.scale = ct.scale;
    }

    // ------------------------------------------------------------------
    // Key switching (the core of HMult and HRot)
    // ------------------------------------------------------------------

    /// The memoized ModUp converter for decomposition slice `j` at `level`:
    /// slice base `{q_lo..q_hi}` → complement base (other q limbs, then the
    /// special limbs).
    fn modup_converter(&self, level: usize, j: usize) -> crate::Result<Arc<BaseConverter>> {
        if let Some(conv) = self.ks.modup.lock().expect("ks cache").get(&(level, j)) {
            return Ok(Arc::clone(conv));
        }
        let Range { start: lo, end: hi } = self.decomposition.slice(j, level);
        let q_prefix = self.basis_at_level(level);
        let slice_basis = q_prefix.select(&(lo..hi).collect::<Vec<_>>());
        let complement_idx: Vec<usize> = (0..=level).filter(|i| *i < lo || *i >= hi).collect();
        let complement_basis = if complement_idx.is_empty() {
            self.p_basis.clone()
        } else {
            q_prefix
                .select(&complement_idx)
                .concat(&self.p_basis)
                .map_err(CkksError::Math)?
        };
        let conv =
            Arc::new(BaseConverter::new(&slice_basis, &complement_basis).map_err(CkksError::Math)?);
        self.ks
            .modup
            .lock()
            .expect("ks cache")
            .insert((level, j), Arc::clone(&conv));
        Ok(conv)
    }

    /// The memoized ModDown converter for `level`: special base → `{q_0..q_ℓ}`.
    fn moddown_converter(&self, level: usize) -> crate::Result<Arc<BaseConverter>> {
        if let Some(conv) = self.ks.moddown.lock().expect("ks cache").get(&level) {
            return Ok(Arc::clone(conv));
        }
        let conv = Arc::new(
            BaseConverter::new(&self.p_basis, &self.basis_at_level(level))
                .map_err(CkksError::Math)?,
        );
        self.ks
            .moddown
            .lock()
            .expect("ks cache")
            .insert(level, Arc::clone(&conv));
        Ok(conv)
    }

    /// The memoized permutation tables (coefficient form and NTT gather) of
    /// the automorphism `X ↦ X^galois`.
    ///
    /// # Errors
    ///
    /// Rejects even Galois elements.
    pub(crate) fn automorphism_table(&self, galois: u64) -> crate::Result<Arc<AutomorphismTable>> {
        if let Some(table) = self.ks.galois.lock().expect("ks cache").get(&galois) {
            return Ok(Arc::clone(table));
        }
        let table = Arc::new(AutomorphismTable::new(self.degree, galois)?);
        self.ks
            .galois
            .lock()
            .expect("ks cache")
            .insert(galois, Arc::clone(&table));
        Ok(table)
    }

    /// Where limb `t` of the level-`level` extended basis `{q_0..q_ℓ, p_*}`
    /// sits in the full key basis `{q_0..q_L, p_*}`: its NTT table and its
    /// modulus.
    fn key_limb(&self, level: usize, t: usize) -> usize {
        ks_limb(level, self.max_level, t)
    }

    /// Switches the polynomial `d` (NTT domain, level-ℓ ciphertext basis) from
    /// the key implicit in `evk` back to the canonical secret key, returning
    /// the `(b, a)` contribution pair on the same basis.
    ///
    /// This is the iNTT → BConv → NTT → ⊙evk → iNTT → BConv → NTT → SSA flow
    /// of Fig. 3(a), and exactly the composition of its two halves:
    /// [`CkksContext::decompose`] (the ModUp of every slice) followed by
    /// [`CkksContext::switch_decomposed`] (inner product with the key, then
    /// ModDown).
    ///
    /// # Errors
    ///
    /// Fails with [`CkksError::MissingKey`] if `evk` serves a lower level
    /// than `d`, and propagates basis-construction failures.
    pub fn key_switch(
        &self,
        d: &RnsPoly,
        evk: &EvaluationKey,
    ) -> crate::Result<(RnsPoly, RnsPoly)> {
        let _span = bts_telemetry::span("ckks.key_switch");
        self.switch_decomposed(&self.decompose(d)?, evk, None)
    }

    /// ModUp: cuts `d` (NTT domain, level-ℓ ciphertext basis) into its
    /// `⌈(ℓ+1)/k⌉` decomposition slices and raises each to the extended basis.
    ///
    /// Every slice is staged inside its own `(ℓ+1+k) × N` block of one flat
    /// digit matrix (slice limbs copied into their ks-basis positions, BConv
    /// writing the complement limbs straight into theirs) and the (i)NTT
    /// passes run limb by limb. The matrix comes from the context's digit
    /// pool and the BConv scratch from its op scratch, so a warm call makes
    /// no heap allocation (`tests/functional_allocs.rs` holds it to zero).
    ///
    /// # Errors
    ///
    /// Rejects coefficient-domain input and propagates converter-construction
    /// failures.
    pub fn decompose(&self, d: &RnsPoly) -> crate::Result<Decomposed> {
        if d.representation() != Representation::Ntt {
            return Err(CkksError::OperandMismatch(
                "key-switch input must be in the NTT domain".to_string(),
            ));
        }
        let limbs = |t: usize, row: &mut [u64]| row.copy_from_slice(d.limb(t));
        self.with_scratch(|s| self.decompose_limbs(d.limb_count() - 1, limbs, &mut s.bconv))
    }

    /// The body of [`CkksContext::decompose`] on a level-ℓ polynomial whose
    /// NTT-domain limb `t` the source `limb(t, row)` writes into `row`: the
    /// limbs of a polynomial in hand, or HMult's `x ⊙ y` formed on the spot,
    /// so no copy of the polynomial is staged. Each slice limb is written
    /// twice, once for ModUp's iNTT and once more to restore it.
    fn decompose_limbs(
        &self,
        level: usize,
        mut limb: impl FnMut(usize, &mut [u64]),
        bconv: &mut BconvScratch,
    ) -> crate::Result<Decomposed> {
        let _span = bts_telemetry::span("ckks.decompose");
        let k = self.num_special();
        let n = self.degree;
        let ext_limbs = level + 1 + k;
        let slices = self.decomposition.slices_at_level(level);

        let mut digits = self
            .ks
            .digits
            .lock()
            .expect("digit pool")
            .pop()
            .unwrap_or_default();
        resize_exact(&mut digits, slices * ext_limbs * n);
        for (j, ext) in digits.chunks_exact_mut(ext_limbs * n).enumerate() {
            let Range { start: lo, end: hi } = self.decomposition.slice(j, level);
            {
                let (left, rest) = ext.split_at_mut(lo * n);
                let (mid, right) = rest.split_at_mut((hi - lo) * n);
                // Write the slice limbs at their ks-basis positions and iNTT
                // them in place (ModUp's iNTT).
                for (t, row) in mid.chunks_exact_mut(n).enumerate() {
                    limb(lo + t, row);
                    self.q_basis.table(lo + t).inverse(row);
                }
                // BConv the slice into the complement limbs of the same block.
                let mid = &*mid;
                self.modup_converter(level, j)?.convert_limbs(
                    |t| &mid[t * n..(t + 1) * n],
                    left.chunks_exact_mut(n).chain(right.chunks_exact_mut(n)),
                    false,
                    bconv,
                );
            }
            // Rewrite the slice limbs from the source — forward∘inverse is
            // the identity bit-for-bit, so re-NTT-ing the iNTT'd slice would
            // only redo work — and forward-NTT just the freshly converted
            // complement limbs.
            for (t, row) in ext.chunks_exact_mut(n).enumerate() {
                if (lo..hi).contains(&t) {
                    limb(t, row);
                } else {
                    self.key_basis.table(self.key_limb(level, t)).forward(row);
                }
            }
        }
        Ok(Decomposed {
            level,
            decomposition: self.decomposition,
            digits,
            pool: Arc::clone(&self.ks),
        })
    }

    /// Inner product of `digits` with `evk`, then ModDown: the second half of
    /// [`CkksContext::key_switch`], returning the `(b, a)` contribution pair
    /// on the level-ℓ ciphertext basis.
    ///
    /// With `automorphism` set the digits are read through its NTT gather,
    /// i.e. the key-switch is applied to `σ(d)` for the `d` the digits were
    /// cut from: `σ` permutes NTT slots, so `σ(ModUp(d))` is a valid
    /// decomposition of `σ(d)` and one ModUp serves every rotation of a
    /// ciphertext. (It is *a* decomposition, not the one `decompose(σ(d))`
    /// would produce: fast base conversion is exact only up to a small
    /// multiple of the slice modulus, which is noise the key-switch already
    /// budgets for.)
    ///
    /// # Errors
    ///
    /// Rejects digits of another context or an automorphism table of another
    /// ring degree, fails with [`CkksError::MissingKey`] if `evk` serves a
    /// lower level than the digits, and propagates converter-construction
    /// failures.
    pub fn switch_decomposed(
        &self,
        digits: &Decomposed,
        evk: &EvaluationKey,
        automorphism: Option<&AutomorphismTable>,
    ) -> crate::Result<(RnsPoly, RnsPoly)> {
        let (mut b, mut a) = (self.empty_poly(), self.empty_poly());
        self.with_scratch(|s| {
            self.switch_into(
                digits,
                evk,
                automorphism,
                (&mut b, Land::Overwrite),
                (&mut a, Land::Overwrite),
                s,
            )
        })?;
        Ok((b, a))
    }

    /// HMult's relinearization: key-switches `x ⊙ y` over the first ℓ+1
    /// limbs — the tensor product's `d2`, which ModUp forms limb by limb
    /// where it reads it, ℓ being `out_b`'s level — and adds the `(b, a)`
    /// pair onto `out_b` / `out_a`.
    pub(crate) fn relinearize_into(
        &self,
        x: &RnsPoly,
        y: &RnsPoly,
        evk: &EvaluationKey,
        out_b: &mut RnsPoly,
        out_a: &mut RnsPoly,
    ) -> crate::Result<()> {
        let _span = bts_telemetry::span("ckks.key_switch");
        let level = out_b.limb_count() - 1;
        let d2 = |t: usize, row: &mut [u64]| {
            let q = self.q_basis.modulus(t);
            for ((out, &u), &v) in row.iter_mut().zip(x.limb(t)).zip(y.limb(t)) {
                *out = q.mul(u, v);
            }
        };
        self.with_scratch(|s| {
            let digits = self.decompose_limbs(level, d2, &mut s.bconv)?;
            self.switch_into(
                &digits,
                evk,
                None,
                (out_b, Land::Accumulate),
                (out_a, Land::Accumulate),
                s,
            )
        })
    }

    /// The body behind every key-switch's second half, one half of the
    /// `(b, a)` pair at a time: ModDown's k special rows of the inner
    /// product first, which it converts to the q basis, then the q rows,
    /// each landing in its destination as `land` says through ModDown's
    /// last pass. Every row is summed over the slices one block of adjacent
    /// coefficients at a time in `u128` registers, with a single Barrett
    /// reduction per element (see [`InnerProduct`]), so no row of sums is
    /// stored. The key is read at its own level, and one for a lower level
    /// than the digits' is [`CkksError::MissingKey`]: it holds neither their
    /// limbs nor all of their slices.
    pub(crate) fn switch_into(
        &self,
        digits: &Decomposed,
        evk: &EvaluationKey,
        automorphism: Option<&AutomorphismTable>,
        out_b: (&mut RnsPoly, Land),
        out_a: (&mut RnsPoly, Land),
        s: &mut KsScratch,
    ) -> crate::Result<()> {
        let _span = bts_telemetry::span("ckks.switch_decomposed");
        let level = digits.level;
        let k = self.num_special();
        let n = self.degree;
        if !Arc::ptr_eq(&digits.pool, &self.ks) {
            return Err(CkksError::OperandMismatch(
                "digits were decomposed by another context".to_string(),
            ));
        }
        if automorphism.is_some_and(|table| table.degree() != n) {
            return Err(CkksError::OperandMismatch(
                "automorphism table is for another ring degree".to_string(),
            ));
        }
        if evk.level < level {
            return Err(CkksError::MissingKey(format!(
                "a key for level {level} (the one given serves up to level {})",
                evk.level
            )));
        }
        let ext_limbs = level + 1 + k;
        // The u128 sums overflow after about 2^(128 - digit bits - key
        // bits) MAC terms; fold them with a reduction if the slice count
        // could exceed that. It never does for the `b` half's residues; the
        // `a` half's 64-bit stream words leave room for 2^(63 - max_bits)
        // terms, 8 at 60-bit moduli.
        let max_bits = (0..ext_limbs)
            .map(|t| self.key_basis.modulus(self.key_limb(level, t)).bits())
            .max()
            .unwrap_or(1);
        let half = |a_half: bool| {
            let key_bits = if a_half { u64::BITS } else { max_bits };
            InnerProduct {
                digits: &digits.digits,
                stride: ext_limbs * n,
                keys: &evk.slices,
                a_half,
                gather: automorphism.map(AutomorphismTable::ntt_gather),
                level,
                key_level: evk.level,
                max_level: self.max_level,
                n,
                fold_every: 1usize << 127u32.saturating_sub(max_bits + key_bits).min(24),
            }
        };
        self.mod_down(&half(false), out_b, s)?;
        self.mod_down(&half(true), out_a, s)
    }

    /// Runs `body` on a [`KsScratch`] from the context's pool and returns it
    /// there afterwards, so each op reuses the buffers of the ones before.
    pub(crate) fn with_scratch<T>(&self, body: impl FnOnce(&mut KsScratch) -> T) -> T {
        let mut scratch = self
            .ks
            .scratch
            .lock()
            .expect("scratch pool")
            .pop()
            .unwrap_or_default();
        let out = body(&mut scratch);
        self.ks.scratch.lock().expect("scratch pool").push(scratch);
        out
    }

    /// ModDown of one half of the inner product: divides the extended-basis
    /// polynomial `ip` by `P` and lands the level-ℓ quotient in `out` — over
    /// it, or added onto it. Only the k special rows are stored, in
    /// `s.special`; each q row is summed where ModDown's last pass reads it.
    fn mod_down(
        &self,
        ip: &InnerProduct<'_>,
        (out, land): (&mut RnsPoly, Land),
        s: &mut KsScratch,
    ) -> crate::Result<()> {
        let n = self.degree;
        let level = ip.level;
        let modulus = |t: usize| self.key_basis.modulus(self.key_limb(level, t));
        // The special rows, iNTT'd in place.
        resize_exact(&mut s.special, self.num_special() * n);
        for (i, row) in s.special.chunks_exact_mut(n).enumerate() {
            ip.row(level + 1 + i, modulus(level + 1 + i), |col, sums| {
                row[col..col + sums.len()].copy_from_slice(sums)
            });
            self.p_basis.table(i).inverse(row);
        }
        // BConv them down to the q base, then NTT back.
        resize_exact(&mut s.conv, (level + 1) * n);
        let special = &s.special;
        self.moddown_converter(level)?.convert_limbs(
            |i| &special[i * n..(i + 1) * n],
            s.conv.chunks_exact_mut(n),
            false,
            &mut s.bconv,
        );
        for (i, row) in s.conv.chunks_exact_mut(n).enumerate() {
            self.q_basis.table(i).forward(row);
        }
        // out_i (+)= (x_i - conv_i) · P^{-1} mod q_i, x_i the q row of the
        // inner product, summed block by block as the pass reaches it.
        match land {
            Land::Overwrite => {
                out.reshape(&self.basis_at_level(level), Representation::Ntt);
            }
            Land::Accumulate if out.limb_count() != level + 1 => {
                return Err(CkksError::OperandMismatch(format!(
                    "a level-{level} key-switch cannot land on {} limbs",
                    out.limb_count()
                )));
            }
            Land::Accumulate => {}
        }
        let conv = &*s.conv;
        out.for_each_limb_mut(|i, _, limb| {
            let qi = self.q_basis.modulus(i);
            let p_inv = &self.p_inv_mod_q[i];
            let conv = &conv[i * n..(i + 1) * n];
            ip.row(i, qi, |col, sums| {
                let slots = limb[col..col + sums.len()].iter_mut();
                let terms = slots.zip(sums.iter().zip(&conv[col..]));
                let quotient = |x: u64, c: u64| qi.mul_shoup(qi.sub(x, c), p_inv);
                match land {
                    Land::Overwrite => {
                        for (slot, (&x, &c)) in terms {
                            *slot = quotient(x, c);
                        }
                    }
                    Land::Accumulate => {
                        for (slot, (&x, &c)) in terms {
                            *slot = qi.add(*slot, quotient(x, c));
                        }
                    }
                }
            });
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Complex;
    use rand::SeedableRng;

    impl CkksContext {
        /// The key-switch body `decompose` + `switch_decomposed` replaced,
        /// kept as their oracle: one slice at a time through a single
        /// extended matrix, MACs over the whole matrix per slice, then
        /// ModDown of the two reduced accumulators. It reads the key's `a`
        /// halves expanded into polynomials.
        fn key_switch_reference(&self, d: &RnsPoly, evk: &EvaluationKey) -> (RnsPoly, RnsPoly) {
            let level = d.limb_count() - 1;
            let k = self.num_special();
            let n = self.degree;
            let q_prefix = self.basis_at_level(level);
            let ks_basis = q_prefix.concat(&self.p_basis).unwrap();
            let ext_limbs = level + 1 + k;
            let evk_indices: Vec<usize> = (0..=level)
                .chain(self.max_level + 1..self.max_level + 1 + k)
                .collect();
            let num_slices = (level + 1).div_ceil(k).min(evk.slices.len());
            let mut bconv = BconvScratch::new();
            let mut ext = vec![0u64; ext_limbs * n];
            let mut acc_b = vec![0u128; ext_limbs * n];
            let mut acc_a = vec![0u128; ext_limbs * n];
            for j in 0..num_slices {
                let lo = j * k;
                let hi = ((j + 1) * k).min(level + 1);
                ext[lo * n..hi * n].copy_from_slice(&d.data()[lo * n..hi * n]);
                for (t, limb) in ext[lo * n..hi * n].chunks_exact_mut(n).enumerate() {
                    self.q_basis.table(lo + t).inverse(limb);
                }
                let converter = self.modup_converter(level, j).unwrap();
                let (left, rest) = ext.split_at_mut(lo * n);
                let (mid, right) = rest.split_at_mut((hi - lo) * n);
                {
                    let srcs: Vec<&[u64]> = mid.chunks_exact(n).collect();
                    let mut outs: Vec<&mut [u64]> = left
                        .chunks_exact_mut(n)
                        .chain(right.chunks_exact_mut(n))
                        .collect();
                    converter.convert_into(&srcs, &mut outs, false, &mut bconv);
                }
                mid.copy_from_slice(&d.data()[lo * n..hi * n]);
                for (t, limb) in left
                    .chunks_exact_mut(n)
                    .chain(right.chunks_exact_mut(n))
                    .enumerate()
                {
                    let idx = if t < lo { t } else { hi + (t - lo) };
                    ks_basis.table(idx).forward(limb);
                }
                let (evk_b, evk_a) = (&evk.slices[j].b, evk.expanded_a(j, self.max_level));
                for t in 0..ext_limbs {
                    let kb = evk_b.limb(evk_indices[t]);
                    let ka = evk_a.limb(evk_indices[t]);
                    for c in 0..n {
                        acc_b[t * n + c] += ext[t * n + c] as u128 * kb[c] as u128;
                        acc_a[t * n + c] += ext[t * n + c] as u128 * ka[c] as u128;
                    }
                }
            }
            let mod_down = |acc: &[u128]| -> RnsPoly {
                let reduced = |t: usize, c: usize| ks_basis.modulus(t).reduce_u128(acc[t * n + c]);
                let mut p_part: Vec<Vec<u64>> = (0..k)
                    .map(|i| (0..n).map(|c| reduced(level + 1 + i, c)).collect())
                    .collect();
                for (i, limb) in p_part.iter_mut().enumerate() {
                    self.p_basis.table(i).inverse(limb);
                }
                let mut conv = vec![vec![0u64; n]; level + 1];
                {
                    let srcs: Vec<&[u64]> = p_part.iter().map(Vec::as_slice).collect();
                    let mut outs: Vec<&mut [u64]> =
                        conv.iter_mut().map(Vec::as_mut_slice).collect();
                    self.moddown_converter(level).unwrap().convert_into(
                        &srcs,
                        &mut outs,
                        false,
                        &mut BconvScratch::new(),
                    );
                }
                let mut out = RnsPoly::zero(&q_prefix, Representation::Ntt);
                for (i, conv_i) in conv.iter_mut().enumerate() {
                    self.q_basis.table(i).forward(conv_i);
                    let qi = q_prefix.modulus(i);
                    for (c, slot) in out.limb_mut(i).iter_mut().enumerate() {
                        *slot =
                            qi.mul_shoup(qi.sub(reduced(i, c), conv_i[c]), &self.p_inv_mod_q[i]);
                    }
                }
                out
            };
            (mod_down(&acc_b), mod_down(&acc_a))
        }
    }

    /// `row_b += digit ⊙ kb`, `row_a += digit ⊙ ka` with deferred reduction.
    fn mac_rows(
        row_b: &mut [u128],
        row_a: &mut [u128],
        kb: &[u64],
        ka: &[u64],
        digit: impl Iterator<Item = u64>,
    ) {
        for ((((b, a), &kb), &ka), x) in row_b.iter_mut().zip(row_a).zip(kb).zip(ka).zip(digit) {
            *b += x as u128 * kb as u128;
            *a += x as u128 * ka as u128;
        }
    }

    impl CkksContext {
        /// The `switch_into` body the register-blocked one replaced, kept as
        /// its oracle: the inner product one limb row at a time into
        /// `(ℓ+1+k)`-row `u128` accumulators for both halves, reduced into
        /// two extended-basis polynomials, then a ModDown of each. It reads
        /// the key's `a` halves expanded into polynomials, reduced words
        /// where the seeded body multiplies in raw stream words.
        fn switch_into_reference(
            &self,
            digits: &Decomposed,
            evk: &EvaluationKey,
            automorphism: Option<&AutomorphismTable>,
            out_b: (&mut RnsPoly, Land),
            out_a: (&mut RnsPoly, Land),
        ) -> crate::Result<()> {
            let level = digits.level;
            let k = self.num_special();
            let n = self.degree;
            assert!(evk.level >= level);
            let gather = automorphism.map(AutomorphismTable::ntt_gather);
            let ext_limbs = level + 1 + k;
            let max_bits = (0..ext_limbs)
                .map(|t| self.key_basis.modulus(self.key_limb(level, t)).bits())
                .max()
                .unwrap_or(1);
            let fold_every = 1usize << 128u32.saturating_sub(2 * max_bits + 1).min(24);
            let mut acc_b = vec![0u128; ext_limbs * n];
            let mut acc_a = vec![0u128; ext_limbs * n];
            let mut ext_b = vec![0u64; ext_limbs * n];
            let mut ext_a = vec![0u64; ext_limbs * n];
            let pairs: Vec<(&RnsPoly, RnsPoly)> = (0..evk.slices.len())
                .map(|j| (&evk.slices[j].b, evk.expanded_a(j, self.max_level)))
                .collect();
            let rows = acc_b
                .chunks_exact_mut(n)
                .zip(acc_a.chunks_exact_mut(n))
                .zip(ext_b.chunks_exact_mut(n))
                .zip(ext_a.chunks_exact_mut(n));
            for (t, (((row_b, row_a), dst_b), dst_a)) in rows.enumerate() {
                let p = self.key_basis.modulus(self.key_limb(level, t));
                let key_limb = ks_limb(level, evk.level, t);
                let blocks = digits.digits.chunks_exact(ext_limbs * n);
                for (j, (ext, (evk_b, evk_a))) in blocks.zip(&pairs).enumerate() {
                    let digit = &ext[t * n..(t + 1) * n];
                    let kb = evk_b.limb(key_limb);
                    let ka = evk_a.limb(key_limb);
                    match gather {
                        None => mac_rows(row_b, row_a, kb, ka, digit.iter().copied()),
                        Some(gather) => {
                            let permuted = gather.iter().map(|&g| digit[g as usize]);
                            mac_rows(row_b, row_a, kb, ka, permuted);
                        }
                    }
                    if (j + 1).is_multiple_of(fold_every) {
                        for x in row_b.iter_mut().chain(row_a.iter_mut()) {
                            *x = p.reduce_u128(*x) as u128;
                        }
                    }
                }
                for (dst, &acc) in dst_b.iter_mut().zip(row_b.iter()) {
                    *dst = p.reduce_u128(acc);
                }
                for (dst, &acc) in dst_a.iter_mut().zip(row_a.iter()) {
                    *dst = p.reduce_u128(acc);
                }
            }
            self.mod_down_reference(&mut ext_b, out_b)?;
            self.mod_down_reference(&mut ext_a, out_a)
        }

        /// The two-pass ModDown behind [`Self::switch_into_reference`]:
        /// `ext` holds a reduced inner product's q limbs followed by its k
        /// special limbs.
        fn mod_down_reference(
            &self,
            ext: &mut [u64],
            (out, land): (&mut RnsPoly, Land),
        ) -> crate::Result<()> {
            let n = self.degree;
            let level = ext.len() / n - self.num_special() - 1;
            let (x, p_part) = ext.split_at_mut((level + 1) * n);
            for (i, limb) in p_part.chunks_exact_mut(n).enumerate() {
                self.p_basis.table(i).inverse(limb);
            }
            let mut conv = vec![0u64; (level + 1) * n];
            let p_part = &*p_part;
            self.moddown_converter(level)?.convert_limbs(
                |i| &p_part[i * n..(i + 1) * n],
                conv.chunks_exact_mut(n),
                false,
                &mut BconvScratch::new(),
            );
            for (i, limb) in conv.chunks_exact_mut(n).enumerate() {
                self.q_basis.table(i).forward(limb);
            }
            match land {
                Land::Overwrite => {
                    out.reshape(&self.basis_at_level(level), Representation::Ntt);
                }
                Land::Accumulate if out.limb_count() != level + 1 => {
                    return Err(CkksError::OperandMismatch(format!(
                        "a level-{level} key-switch cannot land on {} limbs",
                        out.limb_count()
                    )));
                }
                Land::Accumulate => {}
            }
            for i in 0..=level {
                let qi = self.q_basis.modulus(i);
                let p_inv = &self.p_inv_mod_q[i];
                let terms = x[i * n..(i + 1) * n].iter().zip(&conv[i * n..(i + 1) * n]);
                for (slot, (&x, &c)) in out.limb_mut(i).iter_mut().zip(terms) {
                    let quotient = qi.mul_shoup(qi.sub(x, c), p_inv);
                    *slot = match land {
                        Land::Overwrite => quotient,
                        Land::Accumulate => qi.add(*slot, quotient),
                    };
                }
            }
            Ok(())
        }
    }

    /// `key_switch` — and with it HMult — is bit-identical to the body it
    /// replaced, at every level (full and ragged last slices) and for
    /// dnum = 1, 2, 3 and L + 1.
    #[test]
    fn key_switch_matches_the_slice_at_a_time_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1717);
        for (max_level, dnum) in [(4, 1), (5, 2), (6, 3), (3, 4)] {
            let ctx = CkksContext::new_toy(1 << 6, max_level, dnum).unwrap();
            let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
            let msg = vec![Complex::new(0.3, -0.1); ctx.slots()];
            for level in 0..=max_level {
                let pt = ctx.encode_at(&msg, level, ctx.scale()).unwrap();
                let ct = ctx.encrypt(&pt, &sk, &mut rng).unwrap();
                let d = ct.c1().mul(ct.c1()).unwrap();
                let expected = ctx.key_switch_reference(&d, keys.relin());
                assert_eq!(
                    ctx.key_switch(&d, keys.relin()).unwrap(),
                    expected,
                    "L = {max_level}, dnum = {dnum}, level {level}"
                );
                // The composition, spelled out, with the digits reused.
                let digits = ctx.decompose(&d).unwrap();
                assert_eq!(digits.slices(), (level + 1).div_ceil(ctx.num_special()));
                assert!(digits.is_cut_from(&d) && !digits.is_cut_from(ct.c1()));
                for _ in 0..2 {
                    let again = ctx.switch_decomposed(&digits, keys.relin(), None).unwrap();
                    assert_eq!(again, expected);
                }
            }
        }
    }

    /// The blocked, seeded `switch_into` is bit-identical to the
    /// row-at-a-time body it replaced reading the expanded key (every `a`
    /// half a stored polynomial, as before keys were seeded):
    /// relinearization, rotation (top-level and sized by the digits' level)
    /// and conjugation keys, with and without the automorphism gather, both
    /// landings on both halves, at every level of four (L, dnum) shapes, on
    /// rings shorter than one coefficient block (N = 8, the smallest the
    /// encoder takes, and 16), of exactly one (64) and of many (2^12).
    #[test]
    fn switch_into_matches_the_row_at_a_time_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4949);
        for log_n in [3, 4, 6, 12] {
            for (max_level, dnum) in [(4, 1), (5, 2), (6, 3), (3, 4)] {
                let ctx = CkksContext::new_toy(1 << log_n, max_level, dnum).unwrap();
                let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
                ctx.add_rotation_keys(&sk, &mut keys, &[1], &mut rng)
                    .unwrap();
                let rotation = keys.rotation(1).unwrap();
                let conjugation = keys.conjugation().unwrap();
                let table = |r, conjugate| {
                    let galois = bts_math::galois_element(r, ctx.degree(), conjugate);
                    ctx.automorphism_table(galois).unwrap()
                };
                let (rotate, conjugate) = (table(1, false), table(0, true));
                let msg = vec![Complex::new(0.3, -0.1); ctx.slots()];
                for level in 0..=max_level {
                    let pt = ctx.encode_at(&msg, level, ctx.scale()).unwrap();
                    let ct = ctx.encrypt(&pt, &sk, &mut rng).unwrap();
                    let digits = ctx.decompose(&ct.c1().mul(ct.c1()).unwrap()).unwrap();
                    // A key sized by this level reads its stream at the
                    // limbs of the full key basis, not its own positions.
                    let sized = ctx.gen_rotation_key(&sk, 1, level, &mut rng).unwrap();
                    let cases = [
                        (keys.relin(), None),
                        (rotation, Some(&*rotate)),
                        (&sized, Some(&*rotate)),
                        (conjugation, Some(&*conjugate)),
                    ];
                    let lands = [
                        (Land::Overwrite, Land::Accumulate),
                        (Land::Accumulate, Land::Overwrite),
                    ];
                    for ((evk, gather), (land_b, land_a)) in
                        cases.into_iter().flat_map(|c| lands.map(|l| (c, l)))
                    {
                        let (mut b, mut a) = (ct.c0().clone(), ct.c1().clone());
                        ctx.with_scratch(|s| {
                            ctx.switch_into(
                                &digits,
                                evk,
                                gather,
                                (&mut b, land_b),
                                (&mut a, land_a),
                                s,
                            )
                        })
                        .unwrap();
                        let (mut want_b, mut want_a) = (ct.c0().clone(), ct.c1().clone());
                        ctx.switch_into_reference(
                            &digits,
                            evk,
                            gather,
                            (&mut want_b, land_b),
                            (&mut want_a, land_a),
                        )
                        .unwrap();
                        assert!(
                            b == want_b && a == want_a,
                            "N = 2^{log_n}, L = {max_level}, dnum = {dnum}, level {level}, \
                             gather {}, landings {land_b:?} / {land_a:?}",
                            gather.is_some()
                        );
                    }
                }
            }
        }
    }

    /// A key-switch's buffers fit Table 4's temp-data model: after
    /// key-switches at rising levels (so `Vec` growth slack would show), the
    /// digit matrix, ModDown's special and converted rows and BConv's
    /// sources hold `slices · (L+1+k) + k + (L+1) + k` limb rows, within
    /// `modelled_temp_bytes()` of the matching instance — 70 rows against
    /// 84 on the `fhe_exec` ring, toy(12, 13, 2).
    #[test]
    fn key_switch_buffers_fit_the_modelled_temp_bytes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(49);
        let shapes = [(6, 4, 1), (6, 5, 2), (6, 6, 3), (6, 3, 4), (12, 13, 2)];
        for (log_n, max_level, dnum) in shapes {
            let instance = CkksInstance::toy(log_n, max_level, dnum);
            let ctx = CkksContext::from_instance(&instance).unwrap();
            let sk = ctx.gen_secret_key(&mut rng);
            let relin = ctx.gen_relin_key(&sk, &mut rng);
            let msg = vec![Complex::new(0.25, 0.5); ctx.slots()];
            for level in 0..=max_level {
                let pt = ctx.encode_at(&msg, level, ctx.scale()).unwrap();
                let ct = ctx.encrypt(&pt, &sk, &mut rng).unwrap();
                ctx.key_switch(ct.c1(), &relin).unwrap();
                let (mut b, mut a) = (ct.c0().clone(), ct.c1().clone());
                ctx.relinearize_into(ct.c0(), ct.c1(), &relin, &mut b, &mut a)
                    .unwrap();
            }
            let digits = ctx.ks.digits.lock().unwrap();
            let scratch = ctx.ks.scratch.lock().unwrap();
            assert_eq!((digits.len(), scratch.len()), (1, 1), "one of each, reused");
            let s = &scratch[0];
            let words = digits[0].capacity()
                + s.special.capacity()
                + s.conv.capacity()
                + s.bconv.capacity_words();
            let n = ctx.degree();
            let (k, top) = (ctx.num_special(), max_level + 1);
            let slices = ctx.decomposition().slices_at_level(max_level);
            let rows = slices * (top + k) + k + top + k;
            assert_eq!(words, rows * n, "{}: {rows} limb rows", instance.name());
            assert!(
                (words * 8) as u64 <= instance.modelled_temp_bytes(),
                "{}: {rows} limb rows exceed the model's {}",
                instance.name(),
                instance.modelled_temp_bytes() / instance.limb_bytes()
            );
            if (log_n, max_level, dnum) == (12, 13, 2) {
                assert_eq!(rows, 70);
            }
        }
    }

    /// Digit buffers and automorphism tables are recycled, not rebuilt.
    #[test]
    fn digit_buffers_and_galois_tables_are_memoized() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let ctx = CkksContext::new_toy(1 << 6, 3, 2).unwrap();
        let (sk, _) = ctx.generate_keys(&mut rng).unwrap();
        let ct = ctx
            .encrypt(
                &ctx.encode(&[Complex::new(0.5, 0.0)]).unwrap(),
                &sk,
                &mut rng,
            )
            .unwrap();
        let first = ctx.decompose(ct.c1()).unwrap();
        let buffer = first.digits.as_ptr();
        drop(first);
        assert_eq!(ctx.ks.digits.lock().unwrap().len(), 1);
        let second = ctx.decompose(ct.c1()).unwrap();
        assert_eq!(
            second.digits.as_ptr(),
            buffer,
            "the pooled buffer is reused"
        );
        assert!(ctx.ks.digits.lock().unwrap().is_empty());

        let a = ctx.automorphism_table(5).unwrap();
        let b = ctx.clone().automorphism_table(5).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "one table per Galois element, shared by clones"
        );
        assert!(ctx.automorphism_table(4).is_err());
    }
}
