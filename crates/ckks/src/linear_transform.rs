//! Baby-step/giant-step (BSGS) evaluation of homomorphic linear transforms.
//!
//! CoeffToSlot and SlotToCoeff — the linear-transformation stages that
//! dominate bootstrapping's `HRot` count (§3.3) — are slot-space
//! matrix–vector products. Evaluating an `n × n` matrix through its
//! generalized diagonals costs one rotation per non-zero diagonal; the BSGS
//! decomposition regroups the diagonals as
//!
//! ```text
//! M·v = Σ_g rot_{g·b}( Σ_j  σ_{-g·b}(diag_{g·b+j}) ⊙ rot_j(v) )
//! ```
//!
//! so only `b` baby-step rotations of the input and `⌈d/b⌉` giant-step
//! rotations of the partial sums are needed — `O(√d)` rotations instead of
//! `O(d)`, which is exactly the optimization the bootstrapping algorithms the
//! paper builds on [12, 40] use.
//!
//! The pre-rotated diagonals `σ_{-g·b}(diag)` are plaintexts fixed by the
//! matrix, `b` and the level they are multiplied at, so a transform encodes
//! them once, at the level of its first evaluation, and every later
//! evaluation at that level reuses them: a bootstrapper applies each of its
//! two transforms at one level, and re-encoding would cost a forward NTT
//! per limb per diagonal on every refresh.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::encoding::Complex;
use crate::error::CkksError;
use crate::evaluator::Evaluator;

/// A slot-space linear transform prepared for BSGS evaluation.
#[derive(Debug, Clone)]
pub struct BsgsTransform {
    /// Number of slots the transform operates on.
    slots: usize,
    /// Baby-step count `b`.
    baby_steps: usize,
    /// Non-zero generalized diagonals, keyed by diagonal index in `[0, slots)`.
    diagonals: BTreeMap<usize, Vec<Complex>>,
    /// The diagonals as the plaintexts the first evaluation multiplied by.
    encoded: OnceLock<Encoded>,
}

/// Every diagonal, in index order, pre-rotated for its giant step and
/// encoded at `level` under a context with these moduli and scale.
#[derive(Debug, Clone)]
struct Encoded {
    level: usize,
    /// `q_0..=q_level`, then the scale's bits: what the encoding depends on
    /// besides the level and the ring degree, which the slot count fixes.
    key: Vec<u64>,
    plaintexts: Vec<Plaintext>,
}

/// What [`Encoded::key`] holds for `context` at `level`.
fn encoding_key(context: &CkksContext, level: usize) -> Vec<u64> {
    let moduli = (0..=level).map(|i| context.q_modulus(i));
    moduli.chain([context.scale().to_bits()]).collect()
}

impl BsgsTransform {
    /// Builds a BSGS plan from a dense `slots × slots` matrix, extracting its
    /// non-zero generalized diagonals and choosing `b ≈ √d`.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParameters`] if the matrix is empty or not
    /// square.
    pub fn from_matrix(matrix: &[Vec<Complex>]) -> crate::Result<Self> {
        let slots = matrix.len();
        if matrix.iter().any(|row| row.len() != slots) {
            return Err(CkksError::InvalidParameters(
                "linear transform matrix must be square".to_string(),
            ));
        }
        let mut diagonals = BTreeMap::new();
        for r in 0..slots {
            let diag: Vec<Complex> = (0..slots).map(|i| matrix[i][(i + r) % slots]).collect();
            if diag.iter().any(|c| c.abs() > 1e-12) {
                diagonals.insert(r, diag);
            }
        }
        Self::from_diagonals(slots, diagonals)
    }

    /// Builds a plan directly from non-zero diagonals (indices in `[0, slots)`).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParameters`] if no diagonals are provided or
    /// their lengths disagree.
    pub fn from_diagonals(
        slots: usize,
        diagonals: BTreeMap<usize, Vec<Complex>>,
    ) -> crate::Result<Self> {
        if diagonals.is_empty() {
            return Err(CkksError::InvalidParameters(
                "linear transform has no non-zero diagonals".to_string(),
            ));
        }
        if diagonals.values().any(|d| d.len() != slots) {
            return Err(CkksError::InvalidParameters(
                "diagonal length must equal the slot count".to_string(),
            ));
        }
        let baby_steps = Self::default_baby_steps(diagonals.len(), slots);
        Ok(Self {
            slots,
            baby_steps,
            diagonals,
            encoded: OnceLock::new(),
        })
    }

    fn default_baby_steps(diagonal_count: usize, slots: usize) -> usize {
        let b = (diagonal_count as f64).sqrt().ceil() as usize;
        b.clamp(1, slots)
    }

    /// Overrides the baby-step count (must be in `[1, slots]`).
    pub fn with_baby_steps(mut self, baby_steps: usize) -> Self {
        self.baby_steps = baby_steps.clamp(1, self.slots);
        // The giant steps the diagonals were pre-rotated for moved.
        self.encoded = OnceLock::new();
        self
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of non-zero generalized diagonals.
    pub fn diagonal_count(&self) -> usize {
        self.diagonals.len()
    }

    /// The baby-step count `b`.
    pub fn baby_steps(&self) -> usize {
        self.baby_steps
    }

    /// Rotation amounts required by the BSGS evaluation: the baby steps
    /// `1..b` that actually appear in some diagonal index, plus the giant
    /// steps `g·b` for the populated giant-step groups.
    pub fn required_rotations(&self) -> Vec<i64> {
        let b = self.baby_steps;
        let mut rotations = std::collections::BTreeSet::new();
        for &idx in self.diagonals.keys() {
            let baby = idx % b;
            let giant = idx - baby;
            if baby != 0 {
                rotations.insert(baby as i64);
            }
            if giant != 0 {
                rotations.insert(giant as i64);
            }
        }
        rotations.into_iter().collect()
    }

    /// Number of key-switching operations (rotations) one evaluation performs;
    /// the quantity the `O(√d)` decomposition minimizes.
    pub fn rotation_count(&self) -> usize {
        // Baby steps lie in [1, b) and giant steps are multiples of b that
        // are >= b, so the two sets are disjoint.
        self.required_rotations().len()
    }

    /// Applies the transform to a plaintext slot vector (reference
    /// implementation used in tests and to validate the homomorphic path).
    pub fn apply_plain(&self, input: &[Complex]) -> Vec<Complex> {
        let n = self.slots;
        let mut out = vec![Complex::default(); n];
        for (&r, diag) in &self.diagonals {
            for i in 0..n {
                out[i] = out[i] + diag[i] * input[(i + r) % n];
            }
        }
        out
    }

    /// Evaluates the transform homomorphically with the BSGS strategy,
    /// consuming one multiplicative level. The first evaluation encodes the
    /// diagonals at `ct`'s level and keeps them; later ones at that level
    /// and under the same moduli and scale reuse them, others encode anew.
    ///
    /// # Errors
    ///
    /// Fails if a required rotation key is missing or on level exhaustion.
    pub fn evaluate(&self, eval: &Evaluator<'_>, ct: &Ciphertext) -> crate::Result<Ciphertext> {
        let context = eval.context();
        let b = self.baby_steps;

        // Baby-step rotations of the input, computed once and shared by every
        // giant-step group (this sharing is where the rotation savings come
        // from). They all rotate the same ciphertext, so they also share one
        // ModUp — the hoisting BTS applies to these transforms, counted by
        // `bts_params::hoisted_rotations_complexity`.
        let babies: std::collections::BTreeSet<usize> =
            self.diagonals.keys().map(|&idx| idx % b).collect();
        let steps: Vec<i64> = babies.iter().map(|&baby| baby as i64).collect();
        let baby_rotations: BTreeMap<usize, Ciphertext> = babies
            .into_iter()
            .zip(eval.rotate_hoisted(ct, &steps)?)
            .collect();

        // Group diagonals by giant step g·b and accumulate
        // Σ_j σ_{-g·b}(diag) ⊙ rot_j(ct) inside each group.
        // Giant steps grow with the diagonal index, so the groups in giant
        // order list the diagonals in index order: the plaintexts' order.
        let plaintexts = self.plaintexts(context, ct.level())?;
        let mut plaintexts = plaintexts.iter();
        let mut result: Option<Ciphertext> = None;
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &idx in self.diagonals.keys() {
            groups.entry(idx - idx % b).or_default().push(idx);
        }
        for (&giant, indices) in &groups {
            let mut inner: Option<Ciphertext> = None;
            for (&idx, pt) in indices.iter().zip(&mut plaintexts) {
                let term = eval.mul_plain(&baby_rotations[&(idx % b)], pt)?;
                inner = Some(match inner {
                    None => term,
                    Some(acc) => eval.add(&acc, &term)?,
                });
            }
            let inner = inner.expect("group has at least one diagonal");
            let lifted = if giant == 0 {
                inner
            } else {
                eval.rotate(&inner, giant as i64)?
            };
            result = Some(match result {
                None => lifted,
                Some(acc) => eval.add(&acc, &lifted)?,
            });
        }
        eval.rescale(&result.expect("transform has at least one diagonal"))
    }

    /// The diagonals as plaintexts at `level` of `context`: the ones the
    /// first evaluation encoded, if it ran there, else encoded now.
    fn plaintexts(
        &self,
        context: &CkksContext,
        level: usize,
    ) -> crate::Result<Cow<'_, [Plaintext]>> {
        if self.encoded.get().is_none() {
            let plaintexts = self.encode(context, level)?;
            let key = encoding_key(context, level);
            // A concurrent first evaluation may have set it first.
            let _ = self.encoded.set(Encoded {
                level,
                key,
                plaintexts,
            });
        }
        match self.encoded.get() {
            Some(e) if e.level == level && e.key == encoding_key(context, level) => {
                Ok(Cow::Borrowed(&e.plaintexts))
            }
            _ => self.encode(context, level).map(Cow::Owned),
        }
    }

    /// Every diagonal, in index order, pre-rotated by minus its giant step
    /// — so the outer rotation of its group lands its entries in the right
    /// slots — and encoded at `level`.
    fn encode(&self, context: &CkksContext, level: usize) -> crate::Result<Vec<Plaintext>> {
        let n = self.slots;
        let b = self.baby_steps;
        let encode_one = |(&idx, diag): (&usize, &Vec<Complex>)| {
            let giant = idx - idx % b;
            let shifted: Vec<Complex> = (0..n).map(|i| diag[(i + n - giant % n) % n]).collect();
            context.encode_at(&shifted, level, context.scale())
        };
        self.diagonals.iter().map(encode_one).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The level `t` keeps its plaintexts at, if it has encoded them.
    pub(crate) fn encoded_level(t: &BsgsTransform) -> Option<usize> {
        t.encoded.get().map(|e| e.level)
    }

    /// [`BsgsTransform::evaluate`] as it was before it kept its plaintexts:
    /// every diagonal shifted and encoded inside the loop, on every call.
    pub(crate) fn evaluate_encoding_per_call(
        t: &BsgsTransform,
        eval: &Evaluator<'_>,
        ct: &Ciphertext,
    ) -> crate::Result<Ciphertext> {
        let context = eval.context();
        let (b, n) = (t.baby_steps, t.slots);
        let babies: std::collections::BTreeSet<usize> =
            t.diagonals.keys().map(|&idx| idx % b).collect();
        let steps: Vec<i64> = babies.iter().map(|&baby| baby as i64).collect();
        let baby_rotations: BTreeMap<usize, Ciphertext> = babies
            .into_iter()
            .zip(eval.rotate_hoisted(ct, &steps)?)
            .collect();
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &idx in t.diagonals.keys() {
            groups.entry(idx - idx % b).or_default().push(idx);
        }
        let mut result: Option<Ciphertext> = None;
        for (&giant, indices) in &groups {
            let mut inner: Option<Ciphertext> = None;
            for &idx in indices {
                let diag = &t.diagonals[&idx];
                let shifted: Vec<Complex> = (0..n).map(|i| diag[(i + n - giant % n) % n]).collect();
                let rotated_ct = &baby_rotations[&(idx % b)];
                let pt = context.encode_at(&shifted, rotated_ct.level(), context.scale())?;
                let term = eval.mul_plain(rotated_ct, &pt)?;
                inner = Some(match inner {
                    None => term,
                    Some(acc) => eval.add(&acc, &term)?,
                });
            }
            let inner = inner.expect("group has at least one diagonal");
            let lifted = if giant == 0 {
                inner
            } else {
                eval.rotate(&inner, giant as i64)?
            };
            result = Some(match result {
                None => lifted,
                Some(acc) => eval.add(&acc, &lifted)?,
            });
        }
        eval.rescale(&result.expect("transform has at least one diagonal"))
    }

    fn rotation_matrix(slots: usize, by: usize) -> Vec<Vec<Complex>> {
        // out_i = in_{i+by}: a pure generalized diagonal at index `by`.
        let mut m = vec![vec![Complex::default(); slots]; slots];
        for i in 0..slots {
            m[i][(i + by) % slots] = Complex::new(1.0, 0.0);
        }
        m
    }

    fn random_sparse_matrix(slots: usize, diagonals: usize) -> Vec<Vec<Complex>> {
        let mut m = vec![vec![Complex::default(); slots]; slots];
        for d in 0..diagonals {
            let r = (d * 7 + 1) % slots;
            for i in 0..slots {
                m[i][(i + r) % slots] =
                    Complex::new(0.05 + 0.01 * (d as f64), 0.02 * ((i % 5) as f64));
            }
        }
        m
    }

    #[test]
    fn bsgs_uses_fewer_rotations_than_the_naive_diagonal_method() {
        let slots = 64;
        let m = random_sparse_matrix(slots, 32);
        let t = BsgsTransform::from_matrix(&m).unwrap();
        assert!(t.diagonal_count() >= 30);
        // Naive: one rotation per non-zero diagonal; BSGS: O(√n) baby steps
        // plus O(√n) giant steps for diagonals scattered over the whole range.
        assert!(t.rotation_count() < t.diagonal_count());
        assert!(t.rotation_count() <= 2 * (slots as f64).sqrt().ceil() as usize + 4);
    }

    #[test]
    fn plain_application_matches_direct_matrix_product() {
        let slots = 32;
        let m = random_sparse_matrix(slots, 11);
        let t = BsgsTransform::from_matrix(&m).unwrap();
        let input: Vec<Complex> = (0..slots)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.17).cos()))
            .collect();
        let via_diagonals = t.apply_plain(&input);
        for i in 0..slots {
            let mut direct = Complex::default();
            for j in 0..slots {
                direct = direct + m[i][j] * input[j];
            }
            assert!((direct - via_diagonals[i]).abs() < 1e-9, "slot {i}");
        }
    }

    #[test]
    fn homomorphic_evaluation_matches_plain_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        let ctx = CkksContext::new_toy(1 << 8, 6, 1).unwrap();
        let slots = ctx.slots();
        let m = random_sparse_matrix(slots, 9);
        let t = BsgsTransform::from_matrix(&m).unwrap();

        let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
        ctx.add_rotation_keys(&sk, &mut keys, &t.required_rotations(), &mut rng)
            .unwrap();
        let eval = ctx.evaluator(&keys);

        let msg: Vec<Complex> = (0..slots)
            .map(|i| Complex::new(0.4 * (i as f64 * 0.21).cos(), 0.1))
            .collect();
        let ct = ctx
            .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
            .unwrap();
        let out_ct = t.evaluate(&eval, &ct).unwrap();
        assert_eq!(out_ct.level(), ctx.max_level() - 1);
        let out = ctx.decode(&ctx.decrypt(&out_ct, &sk).unwrap()).unwrap();
        let expect = t.apply_plain(&msg);
        for i in 0..slots {
            assert!(
                (out[i] - expect[i]).abs() < 2e-2,
                "slot {i}: {:?} vs {:?}",
                out[i],
                expect[i]
            );
        }
    }

    /// The hoisting the module doc promises, held by counts: a traced BSGS
    /// evaluation records exactly the transforms and base conversions
    /// `bts_params::KernelCalls` charges — one hoisted group for the baby
    /// steps (their `b − 1` ModUps collapse to one), a one-step group per
    /// giant step, one encode per diagonal and the closing rescale.
    #[test]
    fn traced_kernel_counts_match_the_hoisted_model() {
        use bts_params::hoisted_rotations_calls;

        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let (max_level, dnum) = (5, 2);
        let ctx = CkksContext::new_toy(1 << 6, max_level, dnum).unwrap();
        let slots = ctx.slots();
        // Diagonals 0..12 with b = 4: babies {0,1,2,3}, giants {0,4,8}.
        let mut diagonals = BTreeMap::new();
        for r in 0..12 {
            diagonals.insert(r, vec![Complex::new(0.1 + 0.01 * r as f64, 0.0); slots]);
        }
        let t = BsgsTransform::from_diagonals(slots, diagonals)
            .unwrap()
            .with_baby_steps(4);
        let (baby_rotations, giant_rotations) = (3, 2);
        assert_eq!(t.rotation_count(), baby_rotations + giant_rotations);

        let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
        ctx.add_rotation_keys(&sk, &mut keys, &t.required_rotations(), &mut rng)
            .unwrap();
        let eval = ctx.evaluator(&keys);
        let msg = vec![Complex::new(0.25, 0.0); slots];
        let ct = ctx
            .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
            .unwrap();

        let run = bts_telemetry::capture();
        t.evaluate(&eval, &ct).unwrap();
        let events = run.finish().events;
        let spans = |name: &str| events.iter().filter(|e| e.name == name).count() as u64;

        let k = ctx.num_special();
        let level = max_level as u64;
        let babies = hoisted_rotations_calls(max_level, ctx.decomposition(), baby_rotations);
        let giant = hoisted_rotations_calls(max_level, ctx.decomposition(), 1);
        let giants = giant_rotations as u64;
        let encodes = t.diagonal_count() as u64 * (level + 1);
        // Rescale: per polynomial one iNTT of the dropped limb and one NTT
        // per kept limb.
        assert_eq!(
            spans("bconv.convert_into"),
            babies.bconv + giants * giant.bconv
        );
        assert_eq!(spans("ntt.inverse"), babies.intt + giants * giant.intt + 2);
        assert_eq!(
            spans("ntt.forward"),
            babies.ntt + giants * giant.ntt + encodes + 2 * level
        );
        // The ModUp share: one per group where un-hoisted rotations paid one
        // per rotation.
        let slices = (level + 1).div_ceil(k as u64);
        assert_eq!(spans("ckks.decompose"), 1 + giants);
        assert_eq!(
            spans("bconv.convert_into"),
            (1 + giants) * slices + 2 * (baby_rotations as u64 + giants)
        );
    }

    #[test]
    fn single_diagonal_transform_is_a_rotation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ctx = CkksContext::new_toy(1 << 8, 4, 1).unwrap();
        let slots = ctx.slots();
        let t = BsgsTransform::from_matrix(&rotation_matrix(slots, 3)).unwrap();
        assert_eq!(t.diagonal_count(), 1);
        let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
        ctx.add_rotation_keys(&sk, &mut keys, &t.required_rotations(), &mut rng)
            .unwrap();
        let eval = ctx.evaluator(&keys);
        let msg: Vec<Complex> = (0..slots)
            .map(|i| Complex::new(i as f64 * 0.01, 0.0))
            .collect();
        let ct = ctx
            .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
            .unwrap();
        let out = ctx
            .decode(&ctx.decrypt(&t.evaluate(&eval, &ct).unwrap(), &sk).unwrap())
            .unwrap();
        for i in 0..slots {
            assert!((out[i] - msg[(i + 3) % slots]).abs() < 1e-2, "slot {i}");
        }
    }

    #[test]
    fn rejects_degenerate_matrices() {
        assert!(BsgsTransform::from_matrix(&[]).is_err());
        let ragged = vec![vec![Complex::default(); 3], vec![Complex::default(); 2]];
        assert!(BsgsTransform::from_matrix(&ragged).is_err());
        let zero = vec![vec![Complex::default(); 4]; 4];
        assert!(BsgsTransform::from_matrix(&zero).is_err());
        assert!(BsgsTransform::from_diagonals(4, BTreeMap::new()).is_err());
    }

    #[test]
    fn baby_step_override_changes_the_schedule_not_the_result() {
        let slots = 16;
        let m = random_sparse_matrix(slots, 7);
        let base = BsgsTransform::from_matrix(&m).unwrap();
        let custom = BsgsTransform::from_matrix(&m).unwrap().with_baby_steps(2);
        let input: Vec<Complex> = (0..slots).map(|i| Complex::new(i as f64, 0.5)).collect();
        let a = base.apply_plain(&input);
        let b = custom.apply_plain(&input);
        for i in 0..slots {
            assert!((a[i] - b[i]).abs() < 1e-12);
        }
        assert_ne!(base.baby_steps(), custom.baby_steps());
    }
}
