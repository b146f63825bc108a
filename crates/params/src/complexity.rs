//! Kernel and modular-multiplication counts of key-switching, read off the
//! [`Decomposition`]: what the functional library executes per HMult or
//! hoisted rotation group, what Fig. 3(b) breaks down, and what the
//! simulator's op costs charge.

use crate::decomposition::Decomposition;

/// Breakdown of the modular-multiplication count of one HMult (tensor product
/// plus key-switching), the quantity Fig. 3(b) reports as "relative
/// complexity".
///
/// Counts are in units of modular multiplications (a butterfly counts as one,
/// a modular multiply-accumulate counts as one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComplexityBreakdown {
    /// Forward NTT multiplications.
    pub ntt: u64,
    /// Inverse NTT multiplications.
    pub intt: u64,
    /// Base-conversion (BConv) multiplications (both parts).
    pub bconv: u64,
    /// Everything else: tensor product, evk products, SSA, rescale.
    pub others: u64,
}

impl ComplexityBreakdown {
    /// Total multiplication count.
    pub fn total(&self) -> u64 {
        self.ntt + self.intt + self.bconv + self.others
    }

    /// Fraction of the total taken by each category, in the order
    /// `(bconv, ntt, intt, others)` to match Fig. 3(b)'s legend.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total() as f64;
        (
            self.bconv as f64 / t,
            self.ntt as f64 / t,
            self.intt as f64 / t,
            self.others as f64 / t,
        )
    }
}

/// Kernel invocations of a key-switch group: how many single-limb transforms
/// and base conversions the functional library performs for it, i.e. the
/// `ntt.forward` / `ntt.inverse` / `bconv.convert_into` spans a traced run
/// records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCalls {
    /// Forward single-limb NTTs.
    pub ntt: u64,
    /// Inverse single-limb NTTs.
    pub intt: u64,
    /// Base conversions (one per ModUp slice, one per ModDown).
    pub bconv: u64,
}

/// A key-switch group on one level-`level` polynomial (Fig. 3(a)'s dataflow,
/// counted exactly as the simulator schedules it and as
/// `CkksContext::{decompose, switch_decomposed}` execute it): the ModUp of
/// every live slice once, then `steps` times an inner product with an evk and
/// the ModDown of both result polynomials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySwitchGroup {
    /// Single-limb transforms and base conversions.
    pub calls: KernelCalls,
    /// Modular multiplications of the base conversions.
    pub bconv_mults: u64,
    /// Element-wise modular multiplications: evk inner products and SSA.
    pub other_mults: u64,
}

impl KeySwitchGroup {
    /// The group of `steps` key-switches sharing one ModUp of a level-`level`
    /// polynomial over a degree-`n` ring.
    pub fn new(n: usize, level: usize, decomposition: Decomposition, steps: usize) -> Self {
        let (n, steps) = (n as u64, steps as u64);
        let l1 = level as u64 + 1; // ℓ + 1
        let k = decomposition.special_primes() as u64;
        let slices = decomposition.slices_at_level(level);
        // ModUp per slice: iNTT of the slice limbs, BConv to the complement,
        // NTT of the converted limbs.
        let mut calls = KernelCalls {
            ntt: 0,
            intt: 0,
            bconv: slices as u64,
        };
        let mut bconv_mults = 0u64;
        for j in 0..slices {
            let slice = decomposition.slice(j, level).len() as u64;
            let target = (l1 - slice) + k;
            calls.intt += slice;
            calls.ntt += target;
            bconv_mults += slice * n + slice * target * n;
        }
        // evk inner products and accumulation: 2 polynomials × (ℓ+1+k) limbs
        // × slices.
        let evk_mults = 2 * slices as u64 * (l1 + k) * n;
        // ModDown for ax and bx: iNTT of the k special limbs, BConv to Cℓ, NTT
        // of the converted limbs, then the P^{-1} scaling (SSA).
        calls.intt += steps * 2 * k;
        calls.ntt += steps * 2 * l1;
        calls.bconv += steps * 2;
        bconv_mults += steps * 2 * (k * n + k * l1 * n);
        let ssa = 2 * l1 * n;
        Self {
            calls,
            bconv_mults,
            other_mults: steps * (evk_mults + ssa),
        }
    }

    fn breakdown(&self, n: u64, extra_mults: u64) -> ComplexityBreakdown {
        let limb_ntt = n / 2 * n.trailing_zeros() as u64; // muls per limb transform
        ComplexityBreakdown {
            ntt: self.calls.ntt * limb_ntt,
            intt: self.calls.intt * limb_ntt,
            bconv: self.bconv_mults,
            others: self.other_mults + extra_mults,
        }
    }
}

/// Modular-multiplication complexity of an HMult on a ciphertext at level
/// `level` for a ring of degree `n` under `decomposition`: the tensor product
/// plus a key-switch group of one step.
pub fn hmult_complexity(
    n: usize,
    level: usize,
    decomposition: Decomposition,
) -> ComplexityBreakdown {
    assert!(n.is_power_of_two(), "ring degree must be a power of two");
    // Tensor product: d0 (1 mul), d1 (2 muls), d2 (1 mul) per limb.
    let tensor = 4 * (level as u64 + 1) * n as u64;
    KeySwitchGroup::new(n, level, decomposition, 1).breakdown(n as u64, tensor)
}

/// Complexity of a hoisted rotation group — `steps` rotations (or
/// conjugations) of one level-`level` ciphertext, as
/// `Evaluator::rotate_hoisted` and the BSGS baby steps perform them: the
/// ModUp of `c1` once for the group, then per step an inner product with that
/// step's key and the ModDown of both result polynomials. The automorphism
/// itself is a permutation and multiplies nothing; `steps = 1` is a plain
/// HRot.
pub fn hoisted_rotations_complexity(
    n: usize,
    level: usize,
    decomposition: Decomposition,
    steps: usize,
) -> ComplexityBreakdown {
    assert!(n.is_power_of_two(), "ring degree must be a power of two");
    KeySwitchGroup::new(n, level, decomposition, steps).breakdown(n as u64, 0)
}

/// The kernel invocations of the same hoisted rotation group (they do not
/// depend on the ring degree).
pub fn hoisted_rotations_calls(
    level: usize,
    decomposition: Decomposition,
    steps: usize,
) -> KernelCalls {
    KeySwitchGroup::new(1, level, decomposition, steps).calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decomposition(max_level: usize, dnum: usize) -> Decomposition {
        Decomposition::new(max_level, dnum).unwrap()
    }

    #[test]
    fn bconv_share_shrinks_as_dnum_grows() {
        // Fig. 3(b): the relative complexity of BConv falls from its dnum = 1
        // peak towards ~12% at dnum = max (with the level budget adjusted per
        // dnum as in the paper's λ-matched instances).
        let n = 1 << 17;
        let share = |level: usize, dnum: usize| {
            let c = hmult_complexity(n, level, decomposition(level, dnum));
            c.fractions().0
        };
        let d1 = share(27, 1);
        let d3 = share(44, 3);
        let dmax = share(60, 61);
        assert!(d1 > d3, "BConv share should fall with dnum: {d1} vs {d3}");
        assert!(d3 > dmax);
        assert!(
            dmax < 0.15,
            "dnum=max BConv share should be ~12%, got {dmax}"
        );
    }

    #[test]
    fn ntt_dominates_at_max_dnum() {
        let c = hmult_complexity(1 << 17, 60, decomposition(60, 61));
        let (bconv, ntt, intt, _) = c.fractions();
        assert!(ntt + intt > 0.6);
        assert!(bconv < ntt);
    }

    #[test]
    fn totals_scale_with_ring_degree() {
        let small = hmult_complexity(1 << 14, 20, decomposition(20, 1)).total();
        let large = hmult_complexity(1 << 15, 20, decomposition(20, 1)).total();
        assert!(large > 2 * small - small / 4); // ~2x plus the log N factor
    }

    #[test]
    fn hoisting_saves_exactly_the_repeated_mod_ups() {
        // g un-hoisted rotations minus one hoisted group of g steps is g − 1
        // ModUps, in every category.
        let (n, level, k) = (1usize << 12, 13, 7);
        let d = decomposition(level, 2);
        assert_eq!(d.special_primes(), k);
        let single = hoisted_rotations_complexity(n, level, d, 1);
        let one_step = hoisted_rotations_calls(level, d, 1);
        let slices = (level as u64 + 1).div_ceil(k as u64);
        for g in [2u64, 4, 10] {
            let group = hoisted_rotations_complexity(n, level, d, g as usize);
            let calls = hoisted_rotations_calls(level, d, g as usize);
            // Per step: two ModDowns; per group: one ModUp BConv per slice.
            assert_eq!(calls.bconv, slices + 2 * g);
            assert_eq!(g * one_step.bconv - calls.bconv, (g - 1) * slices);
            // ModUp inverse-transforms each of the ℓ+1 limbs once.
            assert_eq!(g * one_step.intt - calls.intt, (g - 1) * (level as u64 + 1));
            assert!(group.total() < g * single.total());
            assert_eq!(group.others, g * single.others);
        }
        // An HMult is the tensor product plus a one-step group.
        let hmult = hmult_complexity(n, level, d);
        assert_eq!(
            (hmult.ntt, hmult.intt, hmult.bconv),
            (single.ntt, single.intt, single.bconv)
        );
        assert_eq!(
            hmult.others - single.others,
            4 * (level as u64 + 1) * n as u64
        );
    }

    #[test]
    fn eq10_butterfly_count_consistency() {
        // The (i)NTT butterflies of our breakdown should match the Eq. 10
        // numerator (dnum+2)·(k+ℓ+1)·(N/2)·log N within ~20%.
        let n = 1u64 << 17;
        let c = hmult_complexity(1 << 17, 27, decomposition(27, 1));
        let eq10 = 3 * 56 * (n / 2) * 17;
        let ours = c.ntt + c.intt;
        let ratio = ours as f64 / eq10 as f64;
        assert!((0.8..1.2).contains(&ratio), "ratio = {ratio}");
    }
}
