use bts_params::CkksInstance;
use bts_sim::{CtId, OpTrace, TraceBuilder};

/// Structural plan of one CKKS bootstrapping invocation (Han–Ki generalized
/// bootstrapping with the updates of [12, 21, 60]; L_boot = 19, §2.4).
///
/// The plan describes how many homomorphic linear-transform stages CoeffToSlot
/// and SlotToCoeff use, how many rotations each stage needs (BSGS), and how
/// many multiplications the approximate-sine EvalMod performs. The default
/// plan consumes exactly [`bts_params::L_BOOT`] levels and contains 123
/// key-switching operations, matching the ballpark the paper's minimum-bound
/// analysis implies (§3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootstrapPlan {
    /// Number of CoeffToSlot linear-transform stages (levels consumed).
    pub c2s_stages: usize,
    /// Number of SlotToCoeff stages.
    pub s2c_stages: usize,
    /// HRot count per CoeffToSlot/SlotToCoeff stage (BSGS rotations).
    pub rotations_per_stage: usize,
    /// PMult count per stage (one per matrix diagonal group).
    pub pmults_per_stage: usize,
    /// Levels consumed by EvalMod (approximate modular reduction).
    pub evalmod_levels: usize,
    /// HMult count inside EvalMod (Chebyshev + double-angle).
    pub evalmod_mults: usize,
    /// Extra conjugations (real/imaginary split and merge).
    pub conjugations: usize,
}

impl BootstrapPlan {
    /// The default plan used throughout the evaluation: 4 CoeffToSlot stages,
    /// 3 SlotToCoeff stages, 11 EvalMod levels, 123 key-switches.
    pub fn paper_default() -> Self {
        Self {
            c2s_stages: 4,
            s2c_stages: 3,
            rotations_per_stage: 13,
            pmults_per_stage: 16,
            evalmod_levels: 11,
            evalmod_mults: 30,
            conjugations: 2,
        }
    }

    /// Total levels the bootstrap consumes (must equal
    /// [`bts_params::L_BOOT`]): the CoeffToSlot, EvalMod and SlotToCoeff
    /// stages plus the final scale-correction rescale.
    pub fn levels_consumed(&self) -> usize {
        self.c2s_stages + self.evalmod_levels + self.s2c_stages + 1
    }

    /// Total key-switching operations (HRot + HMult + conjugations) in one
    /// bootstrap.
    pub fn key_switch_count(&self) -> usize {
        (self.c2s_stages + self.s2c_stages) * self.rotations_per_stage
            + self.evalmod_mults
            + self.conjugations
    }

    /// Number of distinct rotation keys the bootstrap needs (§3.3: "more than
    /// 40 evks"). Matches the rotation amounts [`BootstrapPlan::append_to`]
    /// actually emits: each CoeffToSlot stage uses its own amounts and each
    /// SlotToCoeff stage uses their negations.
    pub fn rotation_key_count(&self) -> usize {
        (self.c2s_stages + self.s2c_stages) * self.rotations_per_stage
    }

    /// Ops one bootstrap appends to a trace ([`BootstrapPlan::append_to`]):
    /// the modulus raise, a BSGS stage per CoeffToSlot / SlotToCoeff level
    /// (rotate → scale → accumulate per rotation, the extra diagonals of
    /// CoeffToSlot, a rescale), the conjugation splits, EvalMod's
    /// multiply-accumulates and per-level scale + rescale, the final scale +
    /// rescale.
    pub fn op_count(&self) -> usize {
        let stage = 3 * self.rotations_per_stage + 1;
        let c2s_extra = 2 * self
            .pmults_per_stage
            .saturating_sub(self.rotations_per_stage);
        let conjugations =
            usize::from(self.conjugations > 0) + 2 * usize::from(self.conjugations > 1);
        1 + self.c2s_stages * (stage + c2s_extra)
            + conjugations
            + 1
            + 2 * (self.evalmod_mults + self.evalmod_levels)
            + self.s2c_stages * stage
            + 2
    }

    /// Appends one bootstrap to a trace builder. `ct` is the exhausted
    /// ciphertext; returns the refreshed ciphertext id, which ends up at level
    /// `instance.max_level() - L_BOOT`.
    ///
    /// # Panics
    ///
    /// Panics if the instance's level budget is below the plan's consumption.
    pub fn append_to(&self, builder: &mut TraceBuilder, ct: CtId) -> CtId {
        let top = builder.instance().max_level();
        assert!(
            top >= self.levels_consumed(),
            "instance level budget {} cannot bootstrap ({} levels needed)",
            top,
            self.levels_consumed()
        );
        builder.set_bootstrap_region(true);
        let mut current = builder.mod_raise(ct, top);
        let mut level = top;

        // CoeffToSlot: BSGS linear transforms, one level each. The rotations
        // of a stage all act on the *stage input* (the baby steps of BSGS),
        // not on the running sum — they are mutually independent, which is
        // exactly the parallelism `bts-sched` overlaps across the NTTUs and
        // the evk stream.
        for stage in 0..self.c2s_stages {
            let mut acc = current;
            for r in 0..self.rotations_per_stage {
                let rotated = builder.hrot(current, (stage * 16 + r + 1) as i64, level);
                let scaled = builder.pmult(rotated, level);
                acc = builder.hadd(acc, scaled, level);
            }
            for _ in self.rotations_per_stage..self.pmults_per_stage {
                let scaled = builder.pmult(current, level);
                acc = builder.hadd(acc, scaled, level);
            }
            current = builder.hrescale_at(acc, level);
            level -= 1;
        }
        // Real/imaginary split.
        let conj = if self.conjugations > 0 {
            builder.conjugate(current, level)
        } else {
            current
        };
        current = builder.hadd(current, conj, level);

        // EvalMod: Chebyshev sine evaluation plus double-angle corrections.
        let mults_per_level = self.evalmod_mults.div_ceil(self.evalmod_levels);
        let mut remaining = self.evalmod_mults;
        for _ in 0..self.evalmod_levels {
            let here = mults_per_level.min(remaining);
            for _ in 0..here {
                let prod = builder.hmult_at(current, current, level);
                current = builder.hadd(prod, current, level);
            }
            remaining -= here;
            let scaled = builder.cmult(current, level);
            current = builder.hrescale_at(scaled, level);
            level -= 1;
        }
        // Recombination conjugation.
        if self.conjugations > 1 {
            let conj = builder.conjugate(current, level);
            current = builder.hadd(current, conj, level);
        }
        // SlotToCoeff: same BSGS shape, rotations independent per stage.
        for stage in 0..self.s2c_stages {
            let mut acc = current;
            for r in 0..self.rotations_per_stage {
                let rotated = builder.hrot(current, -((stage * 16 + r + 1) as i64), level);
                let scaled = builder.pmult(rotated, level);
                acc = builder.hadd(acc, scaled, level);
            }
            current = builder.hrescale_at(acc, level);
            level -= 1;
        }
        // Final scale correction: one more CMult + rescale so the refreshed
        // ciphertext really lands at `max_level - L_BOOT`, the level the
        // circuit IR (and everything scheduled after the bootstrap) assumes.
        let scaled = builder.cmult(current, level);
        current = builder.hrescale_at(scaled, level);
        builder.set_bootstrap_region(false);
        current
    }

    /// A standalone single-bootstrap trace for an instance.
    pub fn trace(&self, instance: &CkksInstance) -> OpTrace {
        let mut builder = TraceBuilder::new(instance);
        let ct = builder.fresh_ct(0);
        self.append_to(&mut builder, ct);
        builder.build()
    }

    /// Key-switch counts per level, `(level, count)`, for the minimum-bound
    /// model of Fig. 2 (`MinBoundModel::amortized_mult_per_slot_from_trace`).
    pub fn keyswitch_histogram(&self, instance: &CkksInstance) -> Vec<(usize, usize)> {
        let trace = self.trace(instance);
        let mut per_level = std::collections::BTreeMap::new();
        for op in trace.ops() {
            if op.op.is_key_switching() {
                *per_level.entry(op.level).or_insert(0usize) += 1;
            }
        }
        per_level.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_params::L_BOOT;
    use bts_sim::HeOp;

    #[test]
    fn plan_consumes_l_boot_levels() {
        let plan = BootstrapPlan::paper_default();
        assert_eq!(plan.levels_consumed(), L_BOOT);
    }

    #[test]
    fn keyswitch_count_is_in_the_expected_range() {
        // §3.4's min-bound numbers imply roughly 110–145 key-switches per
        // bootstrap; §3.3 says bootstrapping needs more than 40 rotation keys.
        let plan = BootstrapPlan::paper_default();
        let ks = plan.key_switch_count();
        assert!((100..=150).contains(&ks), "key switches = {ks}");
        assert!(plan.rotation_key_count() >= 40);
    }

    #[test]
    fn trace_structure_matches_plan() {
        let ins = CkksInstance::ins1();
        let plan = BootstrapPlan::paper_default();
        let trace = plan.trace(&ins);
        assert_eq!(trace.key_switch_count(), plan.key_switch_count());
        assert_eq!(trace.count(HeOp::ModRaise), 1);
        assert!(trace.ops().all(|o| o.in_bootstrap));
        // Levels stay within the instance's budget and end above zero.
        let min_level = trace.ops().map(|o| o.level).min().unwrap();
        assert!(min_level >= ins.max_level() - L_BOOT);
        // HMult and HRot dominate the key-switches (77% of bootstrap time on
        // CPU per §2.4 is HMult/HRot; here they are the only key-switch ops
        // besides a couple of conjugations).
        let conj = trace.count(HeOp::Conjugate);
        assert!(conj <= 2);
    }

    #[test]
    fn op_count_is_what_append_to_emits() {
        let ins = CkksInstance::ins1();
        let default = BootstrapPlan::paper_default();
        let variants = [
            default.clone(),
            BootstrapPlan {
                conjugations: 0,
                pmults_per_stage: 9,
                ..default.clone()
            },
            BootstrapPlan {
                conjugations: 1,
                evalmod_mults: 7,
                ..default
            },
        ];
        for plan in variants {
            assert_eq!(plan.trace(&ins).len(), plan.op_count(), "{plan:?}");
        }
    }

    #[test]
    fn histogram_covers_the_top_levels() {
        let ins = CkksInstance::ins2();
        let plan = BootstrapPlan::paper_default();
        let hist = plan.keyswitch_histogram(&ins);
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, plan.key_switch_count());
        let lowest = hist.first().unwrap().0;
        let highest = hist.last().unwrap().0;
        assert_eq!(highest, ins.max_level());
        assert!(lowest >= ins.max_level() - L_BOOT);
    }

    #[test]
    #[should_panic(expected = "cannot bootstrap")]
    fn shallow_instances_cannot_bootstrap() {
        let ins = CkksInstance::toy(13, 10, 1);
        let plan = BootstrapPlan::paper_default();
        let mut b = TraceBuilder::new(&ins);
        let ct = b.fresh_ct(0);
        plan.append_to(&mut b, ct);
    }
}
