use bts_math::RnsPoly;

/// An encoded (but not encrypted) CKKS message: a scaled integer polynomial on
/// the ciphertext-modulus basis at some level.
#[derive(Debug, Clone, PartialEq)]
pub struct Plaintext {
    pub(crate) poly: RnsPoly,
    pub(crate) level: usize,
    pub(crate) scale: f64,
}

impl Plaintext {
    /// Creates a plaintext from its parts.
    pub fn new(poly: RnsPoly, level: usize, scale: f64) -> Self {
        Self { poly, level, scale }
    }

    /// The underlying polynomial.
    pub fn poly(&self) -> &RnsPoly {
        &self.poly
    }

    /// Current multiplicative level ℓ.
    pub fn level(&self) -> usize {
        self.level
    }

    /// CKKS scaling factor Δ attached to this plaintext.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// A CKKS ciphertext: a pair of polynomials `(c0, c1)` on the level-ℓ
/// ciphertext-modulus basis such that `c0 + c1·s ≈ Δ·m` (§2.2).
///
/// Every evaluator op writes its result into a caller-supplied ciphertext
/// (`Evaluator::mul_into` and friends), whose two residue matrices are
/// re-purposed for the result's level; `clone_from` copies into an
/// existing one the same way. A ciphertext whose value is dead is therefore
/// a buffer, not garbage.
#[derive(Debug, PartialEq)]
pub struct Ciphertext {
    pub(crate) c0: RnsPoly,
    pub(crate) c1: RnsPoly,
    pub(crate) level: usize,
    pub(crate) scale: f64,
}

impl Clone for Ciphertext {
    fn clone(&self) -> Self {
        Self::new(self.c0.clone(), self.c1.clone(), self.level, self.scale)
    }

    /// Copies `source` into this ciphertext's residue matrices.
    fn clone_from(&mut self, source: &Self) {
        self.c0.clone_from(&source.c0);
        self.c1.clone_from(&source.c1);
        self.level = source.level;
        self.scale = source.scale;
    }
}

impl Ciphertext {
    /// Creates a ciphertext from its parts.
    pub fn new(c0: RnsPoly, c1: RnsPoly, level: usize, scale: f64) -> Self {
        Self {
            c0,
            c1,
            level,
            scale,
        }
    }

    /// The `c0` (a.k.a. `b`) polynomial.
    pub fn c0(&self) -> &RnsPoly {
        &self.c0
    }

    /// The `c1` (a.k.a. `a`) polynomial.
    pub fn c1(&self) -> &RnsPoly {
        &self.c1
    }

    /// Current multiplicative level ℓ (number of rescalings still possible).
    pub fn level(&self) -> usize {
        self.level
    }

    /// CKKS scaling factor currently attached to the ciphertext.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Ring degree N.
    pub fn degree(&self) -> usize {
        self.c0.degree()
    }

    /// Size of the ciphertext in bytes (two N×(ℓ+1) residue matrices of
    /// 64-bit words), matching the paper's accounting.
    pub fn size_bytes(&self) -> u64 {
        2 * (self.level as u64 + 1) * self.c0.degree() as u64 * 8
    }
}
