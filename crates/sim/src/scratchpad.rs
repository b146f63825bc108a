//! The §5.3 split of the software-managed scratchpad: a single capacity
//! shared by three client classes with strict allocation priority —
//! key-switching temporaries first, the streaming evaluation-key buffer
//! second, and the ciphertext cache with whatever remains (the engine's
//! sweep decides what that cache keeps).

use bts_params::CkksInstance;

use crate::config::BtsConfig;

/// The §5.3 allocation plan for one key-switching op of a given
/// instance — how much space each class gets on a BTS-sized scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationPlan {
    /// Bytes reserved for temporaries.
    pub temporary: u64,
    /// Bytes reserved for the evk streaming buffer.
    pub evk_buffer: u64,
    /// Bytes left over for the ciphertext cache.
    pub ct_cache: u64,
}

impl AllocationPlan {
    /// Builds the plan for a key-switch at `level` on `config`'s scratchpad:
    /// temporaries sized from the working polynomials of the decomposition,
    /// one evk slice double-buffered, and the remainder for ciphertexts.
    pub fn for_keyswitch(config: &BtsConfig, instance: &CkksInstance, level: usize) -> Self {
        let limbs = (instance.num_special() + level + 1) as u64;
        let temporary = (instance.dnum_at_level(level) as u64 + 2) * limbs * instance.limb_bytes();
        // One extended polynomial's worth of prefetched evk limbs; the rest of
        // the key streams through and is consumed immediately (§5.3).
        let evk_buffer = limbs * instance.limb_bytes();
        let ct_cache = config
            .scratchpad_bytes
            .saturating_sub(temporary + evk_buffer);
        Self {
            temporary,
            evk_buffer,
            ct_cache,
        }
    }

    /// Number of maximum-level ciphertexts the cache region can hold.
    pub fn resident_cts(&self, instance: &CkksInstance) -> u64 {
        self.ct_cache / instance.ct_bytes(instance.max_level()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_plan_matches_table4_scale() {
        // INS-1/2/3 leave progressively less room for ciphertexts at 512 MiB
        // (§6.3 puts INS-1 beating INS-3 at 512 MiB down to this).
        let cfg = BtsConfig::bts_default();
        let plans: Vec<AllocationPlan> = CkksInstance::evaluation_set()
            .iter()
            .map(|ins| AllocationPlan::for_keyswitch(&cfg, ins, ins.max_level()))
            .collect();
        assert!(plans[0].ct_cache > plans[1].ct_cache);
        assert!(plans[1].ct_cache > plans[2].ct_cache);
        let ins1 = CkksInstance::ins1();
        assert!(plans[0].resident_cts(&ins1) >= 3);
        // Temporary footprints land in the Table 4 ballpark (183–365 MiB).
        for (plan, reported) in plans.iter().zip([183u64, 304, 365]) {
            let total_mib = (plan.temporary + plan.evk_buffer) / (1024 * 1024);
            assert!(
                total_mib.abs_diff(reported) < 110,
                "temp+evk = {total_mib} MiB vs reported {reported} MiB"
            );
        }
    }
}
