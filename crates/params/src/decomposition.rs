//! The generalized (`dnum`) decomposition of key-switching (§2.5, Eq. 7):
//! the ciphertext modulus chain `{q_0, …, q_L}` is cut into `dnum`
//! contiguous slices of `k = ⌈(L+1)/dnum⌉` primes, each slice is raised to
//! the extended basis and paired with its own evaluation-key component, and
//! `k` special primes make up `P`.
//!
//! Everything that follows from that structure — which limbs a slice holds,
//! how many slices a level-ℓ ciphertext touches, how many words an
//! evaluation key has and how many of them one key-switch streams — is
//! answered here and nowhere else: the parameter study (Fig. 1, Eq. 10,
//! Table 4), the CKKS key generator and key-switch, the kernel counts of
//! [`crate::KernelCalls`] and the simulator's op costs all read one
//! [`Decomposition`].

use std::ops::Range;

/// The slice structure of a generalized key-switching decomposition.
///
/// **Nominal and live slice counts.** [`Decomposition::dnum`] is the nominal
/// slice count; [`Decomposition::slices_at_level`] is how many slices hold a
/// limb at a level. At the top level they differ exactly when trailing slices
/// are empty (`⌈(L+1)/k⌉ < dnum`, e.g. L = 8, dnum = 4: k = 3 and only three
/// slices are live). Key generation makes one key pair per *live* slice, so a
/// generated key has [`Decomposition::evk_words_at_level`]`(n, L)` words,
/// while [`Decomposition::evk_words`] charges all `dnum` slices — the
/// paper's `2·dnum·(k+L+1)·N` formula, which Fig. 1, Eq. 10 and Table 4 are
/// drawn with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomposition {
    max_level: usize,
    dnum: usize,
}

impl Decomposition {
    /// The decomposition of the chain `{q_0, …, q_L}` (`L = max_level`) into
    /// `dnum` slices; `None` unless `1 ≤ dnum ≤ L+1`.
    pub fn new(max_level: usize, dnum: usize) -> Option<Self> {
        (1..=max_level + 1)
            .contains(&dnum)
            .then_some(Self { max_level, dnum })
    }

    /// Maximum multiplicative level L.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// The nominal slice count dnum.
    pub fn dnum(&self) -> usize {
        self.dnum
    }

    /// Primes per slice, `k = ⌈(L+1)/dnum⌉`, which is also the number of
    /// special primes.
    pub fn special_primes(&self) -> usize {
        (self.max_level + 1).div_ceil(self.dnum)
    }

    /// The limb indices of slice `j` in a level-`level` ciphertext: `[jk,
    /// (j+1)k)` clipped at `ℓ+1`, so a slice past the level is empty.
    ///
    /// # Panics
    ///
    /// Panics if `j >= dnum`.
    pub fn slice(&self, j: usize, level: usize) -> Range<usize> {
        assert!(j < self.dnum, "slice index {j} out of range");
        let k = self.special_primes();
        let end = (level + 1).min((j + 1) * k);
        (j * k).min(end)..end
    }

    /// Number of slices a level-`level` ciphertext touches, `⌈(ℓ+1)/k⌉ ≤
    /// dnum`: lower-level ciphertexts decompose into fewer slices, which is
    /// why both compute and evk streaming shrink with the level (Eq. 10).
    pub fn slices_at_level(&self, level: usize) -> usize {
        (level + 1).div_ceil(self.special_primes()).min(self.dnum)
    }

    /// Words in one evaluation key over a degree-`n` ring, `2·dnum·(k+L+1)·N`
    /// (Fig. 1(b); §2.5): the nominal count, see the type docs.
    pub fn evk_words(&self, n: usize) -> u64 {
        let limbs = self.special_primes() + self.max_level + 1;
        2 * self.dnum as u64 * limbs as u64 * n as u64
    }

    /// Words of evaluation key one key-switch at `level` streams (Eq. 10's
    /// memory term): the `k + ℓ + 1` live limbs of each live slice.
    pub fn evk_words_at_level(&self, n: usize, level: usize) -> u64 {
        let limbs = self.special_primes() + level + 1;
        2 * self.slices_at_level(level) as u64 * limbs as u64 * n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_structure_matches_table4_instances() {
        // INS-1: 28 primes, dnum 1 → one slice of 28 (k = 28).
        let d1 = Decomposition::new(27, 1).unwrap();
        assert_eq!(d1.special_primes(), 28);
        assert_eq!(d1.slice(0, 27), 0..28);
        // INS-2: 40 primes, dnum 2 → two slices of 20.
        let d2 = Decomposition::new(39, 2).unwrap();
        assert_eq!(d2.special_primes(), 20);
        assert_eq!(d2.slice(1, 39), 20..40);
        // INS-3: 45 primes, dnum 3 → three slices of 15; prime 44 is in the
        // last one, and a level-20 ciphertext fills one slice and a part.
        let d3 = Decomposition::new(44, 3).unwrap();
        assert_eq!(d3.special_primes(), 15);
        assert!(d3.slice(2, 44).contains(&44));
        assert_eq!(d3.slice(1, 20), 15..21);
        assert!(d3.slice(2, 20).is_empty());
    }

    #[test]
    fn slices_at_level_shrink_with_the_level() {
        let d = Decomposition::new(44, 3).unwrap();
        assert_eq!(d.slices_at_level(44), 3);
        assert_eq!(d.slices_at_level(29), 2);
        assert_eq!(d.slices_at_level(14), 1);
        assert_eq!(d.slices_at_level(0), 1);
        // Trailing slices can be empty even at the top level.
        let ragged = Decomposition::new(8, 4).unwrap();
        assert_eq!(ragged.special_primes(), 3);
        assert_eq!(ragged.slices_at_level(8), 3);
    }

    #[test]
    fn evk_sizes_match_the_instance_formulas() {
        // Table 4 / §3.4: INS-1's key is 112 MiB at 8 bytes per word.
        let n = 1usize << 17;
        let d = Decomposition::new(27, 1).unwrap();
        assert_eq!(d.evk_words(n) * 8, 112 * 1024 * 1024);
        assert_eq!(d.evk_words_at_level(n, 27), d.evk_words(n));
        let d2 = Decomposition::new(39, 2).unwrap();
        assert!(d2.evk_words(n) > d.evk_words(n));
        // Streaming at a low level touches far fewer words.
        assert!(d2.evk_words_at_level(n, 5) < d2.evk_words(n) / 3);
    }

    #[test]
    fn nominal_words_charge_the_empty_trailing_slices() {
        // (N, L, dnum) → (live slices, live-slice bytes, nominal bytes).
        for (n, max_level, dnum, live, at_top, nominal) in [
            (64, 8, 4, 3, 36_864, 49_152),
            (64, 3, 3, 2, 12_288, 18_432),
            // F1's preset: k = 2, so 9 of its 16 slices hold a limb
            // (42.75 MiB generated against 76 MiB charged).
            (1 << 14, 16, 16, 9, 44_826_624, 76 << 20),
        ] {
            let d = Decomposition::new(max_level, dnum).unwrap();
            assert_eq!(d.slices_at_level(max_level), live);
            assert_eq!(d.evk_words_at_level(n, max_level) * 8, at_top);
            assert_eq!(d.evk_words(n) * 8, nominal);
        }
    }

    #[test]
    fn rejects_invalid_dnum() {
        assert!(Decomposition::new(9, 0).is_none());
        assert!(Decomposition::new(9, 11).is_none());
        assert!(Decomposition::new(9, 10).is_some());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_index_past_dnum_panics() {
        let _ = Decomposition::new(9, 2).unwrap().slice(2, 9);
    }
}
