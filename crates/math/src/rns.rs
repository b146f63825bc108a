use std::sync::Arc;

use crate::ntt::NttTable;
use crate::prime::try_generate_ntt_primes;
use crate::{MathError, Modulus};

/// An ordered residue-number-system basis: a set of word-sized NTT-friendly
/// prime moduli `{q_0, ..., q_{L}}` together with their transform tables.
///
/// In the paper a polynomial in `R_Q` is stored as an `N × (L+1)` matrix of
/// residues (Eq. 1); an [`RnsBasis`] describes the columns of that matrix.
///
/// A basis is a view: the first `len` of one shared table list. Cloning it,
/// or cutting a prefix ([`RnsBasis::prefix`] — every level of a modulus
/// chain), is a reference-count bump, so every [`crate::RnsPoly`] can carry
/// its own basis without a heap allocation.
#[derive(Debug, Clone)]
pub struct RnsBasis {
    degree: usize,
    tables: Arc<[Arc<NttTable>]>,
    len: usize,
}

impl PartialEq for RnsBasis {
    fn eq(&self, other: &Self) -> bool {
        self.degree == other.degree && self.len == other.len && self.same_limbs(other)
    }
}

impl Eq for RnsBasis {}

impl RnsBasis {
    /// Builds a basis from explicit prime moduli.
    ///
    /// # Errors
    ///
    /// Fails if any modulus does not support a degree-`degree` negacyclic NTT
    /// or if the moduli are not pairwise distinct.
    pub fn from_moduli(degree: usize, moduli: &[u64]) -> crate::Result<Self> {
        if !crate::is_power_of_two_at_least(degree, 2) {
            return Err(MathError::InvalidDegree(degree));
        }
        let mut seen = std::collections::HashSet::new();
        let mut tables = Vec::with_capacity(moduli.len());
        for &q in moduli {
            if !seen.insert(q) {
                return Err(MathError::BasisMismatch(format!("duplicate modulus {q}")));
            }
            tables.push(Arc::new(NttTable::new(degree, Modulus::try_new(q)?)?));
        }
        Ok(Self::from_tables(degree, tables))
    }

    fn from_tables(degree: usize, tables: Vec<Arc<NttTable>>) -> Self {
        Self {
            degree,
            len: tables.len(),
            tables: tables.into(),
        }
    }

    /// Whether the limbs the two bases have in common carry equal moduli.
    /// Bases cut from one chain share their table list (or at least their
    /// tables), so the pointer tests settle almost every case without
    /// reading a modulus.
    fn same_limbs(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
            || self
                .tables()
                .iter()
                .zip(other.tables())
                .all(|(a, b)| Arc::ptr_eq(a, b) || a.modulus().value() == b.modulus().value())
    }

    /// Generates a basis of `count` primes of roughly `bits` bits each.
    ///
    /// # Errors
    ///
    /// Propagates prime-search failures.
    pub fn generate(degree: usize, bits: u32, count: usize) -> crate::Result<Self> {
        let primes = try_generate_ntt_primes(degree, bits, count)?;
        Self::from_moduli(degree, &primes)
    }

    /// Generates a basis whose prime bit-sizes follow `bit_sizes` exactly,
    /// ensuring all primes are distinct even across repeated bit sizes. This is
    /// how CKKS picks a large first prime, `L` scaling primes and `k` special
    /// primes.
    ///
    /// # Errors
    ///
    /// Propagates prime-search failures.
    pub fn generate_with_bit_sizes(degree: usize, bit_sizes: &[u32]) -> crate::Result<Self> {
        let mut by_bits: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for &b in bit_sizes {
            *by_bits.entry(b).or_insert(0) += 1;
        }
        let mut pools: std::collections::HashMap<u32, Vec<u64>> = std::collections::HashMap::new();
        for (&b, &cnt) in &by_bits {
            pools.insert(b, try_generate_ntt_primes(degree, b, cnt)?);
        }
        let mut moduli = Vec::with_capacity(bit_sizes.len());
        for &b in bit_sizes {
            let pool = pools.get_mut(&b).expect("pool exists");
            moduli.push(pool.remove(0));
        }
        Self::from_moduli(degree, &moduli)
    }

    /// The ring degree N.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of limbs (prime moduli) in the basis.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the basis is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The NTT tables of the basis, in order.
    pub fn tables(&self) -> &[Arc<NttTable>] {
        &self.tables[..self.len]
    }

    /// The NTT table of limb `i`.
    pub fn table(&self, i: usize) -> &Arc<NttTable> {
        &self.tables()[i]
    }

    /// The modulus of limb `i`.
    pub fn modulus(&self, i: usize) -> &Modulus {
        self.table(i).modulus()
    }

    /// The raw modulus values, in order.
    pub fn moduli(&self) -> Vec<u64> {
        self.tables().iter().map(|t| t.modulus().value()).collect()
    }

    /// A basis containing only the first `count` limbs: a view of the same
    /// table list, so no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the number of limbs.
    pub fn prefix(&self, count: usize) -> Self {
        assert!(count <= self.len());
        Self {
            degree: self.degree,
            tables: Arc::clone(&self.tables),
            len: count,
        }
    }

    /// A basis containing the limbs at `indices`, in that order (shares tables).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select(&self, indices: &[usize]) -> Self {
        Self::from_tables(
            self.degree,
            indices.iter().map(|&i| self.table(i).clone()).collect(),
        )
    }

    /// Concatenates two bases (e.g. `C_ℓ ∪ B` during key-switching).
    ///
    /// # Errors
    ///
    /// Fails if the degrees differ or a modulus appears in both bases.
    pub fn concat(&self, other: &RnsBasis) -> crate::Result<Self> {
        if self.degree != other.degree {
            return Err(MathError::BasisMismatch(format!(
                "degree {} vs {}",
                self.degree, other.degree
            )));
        }
        let mut moduli = self.moduli();
        moduli.extend(other.moduli());
        let unique: std::collections::HashSet<_> = moduli.iter().collect();
        if unique.len() != moduli.len() {
            return Err(MathError::BasisMismatch(
                "bases share a modulus".to_string(),
            ));
        }
        let tables = self.tables().iter().chain(other.tables()).cloned();
        Ok(Self::from_tables(self.degree, tables.collect()))
    }

    /// The product of all moduli reduced modulo `p`.
    pub fn product_mod(&self, p: &Modulus) -> u64 {
        self.tables()
            .iter()
            .fold(1u64, |acc, t| p.mul(acc, p.reduce(t.modulus().value())))
    }

    /// `q̂_j mod p` where `q̂_j = Π_{i≠j} q_i` (the CRT punctured product).
    pub fn punctured_product_mod(&self, j: usize, p: &Modulus) -> u64 {
        self.tables()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != j)
            .fold(1u64, |acc, (_, t)| {
                p.mul(acc, p.reduce(t.modulus().value()))
            })
    }

    /// `q̂_j^{-1} mod q_j`, the CRT reconstruction constants.
    ///
    /// # Errors
    ///
    /// Returns an error if the moduli are not pairwise coprime (cannot happen
    /// for distinct primes).
    pub fn punctured_product_inverses(&self) -> crate::Result<Vec<u64>> {
        let mut out = Vec::with_capacity(self.len());
        for j in 0..self.len() {
            let qj = self.modulus(j);
            let prod = self.punctured_product_mod(j, qj);
            out.push(qj.inv(prod)?);
        }
        Ok(out)
    }

    /// Checks whether `other` has the same degree and identical moduli prefix.
    /// Allocation-free: the evaluator asks it of every operand.
    pub fn is_prefix_of(&self, other: &RnsBasis) -> bool {
        self.degree == other.degree && self.len <= other.len && self.same_limbs(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_produces_distinct_supported_primes() {
        let basis = RnsBasis::generate(1 << 8, 40, 5).unwrap();
        assert_eq!(basis.len(), 5);
        let moduli = basis.moduli();
        let unique: std::collections::HashSet<_> = moduli.iter().collect();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn generate_with_bit_sizes_handles_repeats() {
        let basis = RnsBasis::generate_with_bit_sizes(1 << 8, &[50, 40, 40, 40, 45]).unwrap();
        assert_eq!(basis.len(), 5);
        let bits: Vec<u32> = basis
            .moduli()
            .iter()
            .map(|m| 64 - m.leading_zeros())
            .collect();
        assert_eq!(bits, vec![50, 40, 40, 40, 45]);
        let unique: std::collections::HashSet<_> = basis.moduli().into_iter().collect();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn crt_constants_are_consistent() {
        let basis = RnsBasis::generate(1 << 8, 40, 4).unwrap();
        let invs = basis.punctured_product_inverses().unwrap();
        for (j, &inv) in invs.iter().enumerate() {
            let qj = basis.modulus(j);
            let prod = basis.punctured_product_mod(j, qj);
            assert_eq!(qj.mul(prod, inv), 1);
        }
    }

    #[test]
    fn prefix_and_concat() {
        let basis = RnsBasis::generate(1 << 8, 40, 4).unwrap();
        let special = RnsBasis::generate(1 << 8, 42, 2).unwrap();
        let pre = basis.prefix(2);
        assert_eq!(pre.len(), 2);
        assert!(pre.is_prefix_of(&basis));
        let joined = basis.concat(&special).unwrap();
        assert_eq!(joined.len(), 6);
        assert!(basis.concat(&basis).is_err());
    }

    #[test]
    fn prefixes_are_views_of_one_table_list() {
        let basis = RnsBasis::generate(1 << 8, 40, 4).unwrap();
        let pre = basis.prefix(2);
        assert_eq!(pre.tables().as_ptr(), basis.tables().as_ptr());
        assert_eq!(pre.len(), 2);
        // Equal to the same limbs gathered into a list of their own, and a
        // prefix of the whole in one direction only.
        assert_eq!(pre, basis.select(&[0, 1]));
        assert_ne!(pre, basis.prefix(3));
        assert!(pre.is_prefix_of(&basis) && !basis.is_prefix_of(&pre));
        assert!(basis.select(&[0, 1, 2]).is_prefix_of(&basis));
        assert!(!basis.select(&[1, 0]).is_prefix_of(&basis));
    }

    #[test]
    #[should_panic]
    fn a_view_never_reads_past_its_length() {
        let basis = RnsBasis::generate(1 << 8, 40, 4).unwrap();
        let _ = basis.prefix(2).table(2);
    }

    #[test]
    fn product_mod_matches_naive() {
        let basis = RnsBasis::generate(1 << 8, 30, 3).unwrap();
        let p = Modulus::new(previous_prime_for_test());
        let mut expect = 1u128;
        for q in basis.moduli() {
            expect = expect * (q as u128) % p.value() as u128;
        }
        assert_eq!(basis.product_mod(&p) as u128, expect);
    }

    fn previous_prime_for_test() -> u64 {
        crate::prime::previous_ntt_prime(1 << 8, 1 << 45).unwrap()
    }
}
