use std::collections::HashMap;

use bts_math::RnsPoly;

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
#[derive(Debug, Clone)]
pub struct PublicKey {
    pub(crate) p0: RnsPoly,
    pub(crate) p1: RnsPoly,
}

/// A generalized key-switching key (an "evk" in the paper): pairs of
/// polynomials on the extended basis `{q_0, …, q_ℓ} ∪ P`, one pair per
/// decomposition slice live at the level ℓ the key serves (§2.5; see
/// `bts_params::Decomposition`). The same structure serves as the
/// relinearization key (target key `s²`), rotation keys (`σ_r(s)`) and the
/// conjugation key.
///
/// A key generated for level ℓ holds exactly the words a level-ℓ key-switch
/// reads (Eq. 10: `⌈(ℓ+1)/k⌉` slices × `k + ℓ + 1` limbs), and switches the
/// digits of any level up to ℓ; the relinearization key is generated at the
/// top level L.
#[derive(Clone)]
pub struct EvaluationKey {
    /// The highest level the key switches.
    pub(crate) level: usize,
    /// `(b_j, a_j)` per live decomposition slice, on limbs `q_0..q_ℓ ∪ P`.
    pub(crate) slices: Vec<(RnsPoly, RnsPoly)>,
}

impl std::fmt::Debug for EvaluationKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The shape, not the words: a bundle holds megabytes of them.
        f.debug_struct("EvaluationKey")
            .field("level", &self.level)
            .field("slices", &self.slices.len())
            .field("bytes", &self.size_bytes())
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

    /// Total size in bytes: `2 · slices · N · (k + ℓ + 1)` words at the key's
    /// own level ℓ, the quantity whose streaming dominates HMult/HRot in the
    /// paper's analysis (`CkksInstance::evk_bytes_at_level(ℓ)`).
    pub fn size_bytes(&self) -> u64 {
        self.slices
            .iter()
            .map(|(b, a)| ((b.limb_count() + a.limb_count()) * b.degree()) as u64 * 8)
            .sum()
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
