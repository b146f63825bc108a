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
/// polynomials on the extended basis `Q ∪ P`, one pair per live decomposition
/// slice (§2.5; `dnum` of them unless trailing slices are empty — see
/// `bts_params::Decomposition`). The same structure serves as the
/// relinearization key (target key `s²`), rotation keys (`σ_r(s)`) and the
/// conjugation key.
#[derive(Debug, Clone)]
pub struct EvaluationKey {
    /// `(b_j, a_j)` per decomposition slice.
    pub(crate) slices: Vec<(RnsPoly, RnsPoly)>,
}

impl EvaluationKey {
    /// Number of key pairs: the live decomposition slices at the top level.
    pub fn dnum(&self) -> usize {
        self.slices.len()
    }

    /// Total size in bytes: `2 · slices · N · (k + L + 1)` words, the quantity
    /// whose streaming dominates HMult/HRot in the paper's analysis
    /// (`CkksInstance::evk_bytes_at_level(L)`).
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

    /// Rotation amounts for which keys are present.
    pub fn rotation_amounts(&self) -> Vec<i64> {
        let mut v: Vec<i64> = self.rotations.keys().copied().collect();
        v.sort_unstable();
        v
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
