//! Function-level dataflow of one key-switching operation (Fig. 3(a)) and its
//! epoch-level schedule on the BTS PE array — the machinery behind the Fig. 8
//! timeline: which functional unit executes which phase (iNTT.d2, BConv.d2,
//! NTT.d2, the evk inner products, iNTT/BConv/NTT of the ModDown, SSA), how
//! the phases overlap, and how the evaluation-key stream from HBM paces the
//! whole operation.

use bts_params::CkksInstance;

use crate::config::BtsConfig;
use crate::pe::ProcessingElement;

/// A functional-unit class inside the PE (the rows of the Fig. 8 timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionalUnit {
    /// The HBM interface streaming evaluation-key limbs.
    Hbm,
    /// The NTT unit.
    Nttu,
    /// The base-conversion unit (ModMult + MMAU).
    BconvU,
    /// The element-wise ModMult/ModAdd pair.
    ElementWise,
}

/// One phase of the key-switching dataflow, scheduled on a functional unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Descriptive name following the paper's Fig. 3(a)/Fig. 8 labels.
    pub name: String,
    /// The functional unit the phase occupies.
    pub unit: FunctionalUnit,
    /// Start time in seconds from the beginning of the op.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
    /// Number of residue-polynomial limbs the phase processes.
    pub limbs: usize,
}

impl Phase {
    /// Phase duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The scheduled dataflow of one key-switching operation.
#[derive(Debug, Clone, PartialEq)]
pub struct KeySwitchSchedule {
    /// All phases in start-time order.
    pub phases: Vec<Phase>,
    /// Total latency of the operation in seconds (the critical path).
    pub latency: f64,
    /// Seconds the evaluation-key stream occupies HBM.
    pub evk_stream_seconds: f64,
}

impl KeySwitchSchedule {
    /// Builds the schedule of one HMult (`is_mult = true`) or HRot key-switch
    /// at ciphertext level `level`.
    ///
    /// The schedule follows §5.1/§5.2: the ModUp iNTT → BConv → NTT chain runs
    /// first (BConv partially overlapped with the iNTT when the configuration
    /// enables it), the evk inner products run on the element-wise units as the
    /// evk limbs arrive from HBM, and the ModDown chain plus SSA close the op.
    /// The op's latency is the maximum of the compute critical path and the evk
    /// streaming time (§3.3).
    pub fn build(config: &BtsConfig, instance: &CkksInstance, level: usize, is_mult: bool) -> Self {
        let pe = ProcessingElement::from_config(config);
        let l1 = level + 1;
        let decomposition = instance.decomposition();
        let k = decomposition.special_primes();
        let dnum_l = decomposition.slices_at_level(level);
        let per_limb = pe.nttu_cycles_per_limb(instance) as f64 / config.frequency_hz;
        let bconv_limb = |from: usize, to: usize| {
            pe.mmau_cycles_for_bconv(instance, from, to) as f64 / config.frequency_hz
        };
        let ew_limb = pe.residues_per_pe(instance) as f64 / config.frequency_hz;
        let evk_stream_seconds =
            instance.evk_bytes_at_level(level) as f64 / config.hbm.bytes_per_sec();

        let mut phases = Vec::new();
        let mut t = 0.0f64;

        // Tensor product (HMult only) on the element-wise units.
        if is_mult {
            let dur = 4.0 * l1 as f64 * ew_limb;
            phases.push(Phase {
                name: "d0/d1/d2 tensor product".to_string(),
                unit: FunctionalUnit::ElementWise,
                start: t,
                end: t + dur,
                limbs: l1,
            });
            t += dur;
        }

        // ModUp per decomposition slice: iNTT.d2 → BConv.d2 → NTT.d2.
        let mut nttu_free = t;
        let mut bconv_free = t;
        for j in 0..dnum_l {
            let slice = decomposition.slice(j, level).len();
            let target = (l1 - slice) + k;

            let intt_dur = slice as f64 * per_limb;
            phases.push(Phase {
                name: format!("iNTT.d2 (slice {j})"),
                unit: FunctionalUnit::Nttu,
                start: nttu_free,
                end: nttu_free + intt_dur,
                limbs: slice,
            });
            let intt_end = nttu_free + intt_dur;
            nttu_free = intt_end;

            // BConv starts after l_sub limbs of the iNTT when overlapping is
            // enabled (Eq. 11), otherwise after the full iNTT.
            let bconv_start = if config.overlap_bconv_intt {
                let head = (config.lsub.min(slice)) as f64 * per_limb;
                (phases.last().unwrap().start + head).max(bconv_free)
            } else {
                intt_end.max(bconv_free)
            };
            let bconv_dur = bconv_limb(slice, target);
            phases.push(Phase {
                name: format!("BConv.d2 (slice {j})"),
                unit: FunctionalUnit::BconvU,
                start: bconv_start,
                end: bconv_start + bconv_dur,
                limbs: target,
            });
            bconv_free = bconv_start + bconv_dur;

            let ntt_start = bconv_free.max(nttu_free);
            let ntt_dur = target as f64 * per_limb;
            phases.push(Phase {
                name: format!("NTT.d2 (slice {j})"),
                unit: FunctionalUnit::Nttu,
                start: ntt_start,
                end: ntt_start + ntt_dur,
                limbs: target,
            });
            nttu_free = ntt_start + ntt_dur;
        }

        // evk inner products on the element-wise units, paced by the HBM
        // stream: they cannot finish before either the extended d2 or the evk
        // limbs are available.
        phases.push(Phase {
            name: "load evk (ax, bx)".to_string(),
            unit: FunctionalUnit::Hbm,
            start: 0.0,
            end: evk_stream_seconds,
            limbs: 2 * dnum_l * (l1 + k),
        });
        let inner_dur = 2.0 * dnum_l as f64 * (l1 + k) as f64 * ew_limb;
        let inner_start = nttu_free.min(evk_stream_seconds - inner_dur).max(0.0);
        let inner_end = (inner_start + inner_dur).max(nttu_free);
        phases.push(Phase {
            name: "d2' ⊗ evk.ax/bx".to_string(),
            unit: FunctionalUnit::ElementWise,
            start: inner_start,
            end: inner_end,
            limbs: 2 * dnum_l * (l1 + k),
        });

        // ModDown of both output polynomials: iNTT of the k special limbs,
        // BConv onto the ciphertext base, NTT, then the SSA fusion on the MMAU.
        let mut moddown_free = inner_end.max(nttu_free);
        for poly in ["ax", "bx"] {
            let intt_dur = k as f64 * per_limb;
            phases.push(Phase {
                name: format!("iNTT.{poly}"),
                unit: FunctionalUnit::Nttu,
                start: moddown_free,
                end: moddown_free + intt_dur,
                limbs: k,
            });
            let intt_end = moddown_free + intt_dur;
            let bconv_start = if config.overlap_bconv_intt {
                moddown_free + (config.lsub.min(k)) as f64 * per_limb
            } else {
                intt_end
            };
            let bconv_dur = bconv_limb(k, l1);
            phases.push(Phase {
                name: format!("BConv.{poly}"),
                unit: FunctionalUnit::BconvU,
                start: bconv_start,
                end: bconv_start + bconv_dur,
                limbs: l1,
            });
            let ntt_start = (bconv_start + bconv_dur).max(intt_end);
            let ntt_dur = l1 as f64 * per_limb;
            phases.push(Phase {
                name: format!("NTT.{poly}"),
                unit: FunctionalUnit::Nttu,
                start: ntt_start,
                end: ntt_start + ntt_dur,
                limbs: l1,
            });
            let ssa_start = ntt_start + ntt_dur;
            let ssa_dur = l1 as f64 * ew_limb;
            phases.push(Phase {
                name: format!("SSA.{poly}"),
                unit: FunctionalUnit::BconvU,
                start: ssa_start,
                end: ssa_start + ssa_dur,
                limbs: l1,
            });
            moddown_free = ssa_start + ssa_dur;
        }

        let compute_end = phases
            .iter()
            .filter(|p| p.unit != FunctionalUnit::Hbm)
            .map(|p| p.end)
            .fold(0.0f64, f64::max);
        let latency = compute_end.max(evk_stream_seconds);
        phases.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        Self {
            phases,
            latency,
            evk_stream_seconds,
        }
    }

    /// Busy time of one functional-unit class across the whole schedule.
    pub fn busy_seconds(&self, unit: FunctionalUnit) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.unit == unit)
            .map(Phase::duration)
            .sum()
    }

    /// Utilization of a functional unit relative to the op latency.
    pub fn utilization(&self, unit: FunctionalUnit) -> f64 {
        if self.latency == 0.0 {
            0.0
        } else {
            (self.busy_seconds(unit) / self.latency).min(1.0)
        }
    }

    /// Whether the operation is memory bound (the evk stream is the critical
    /// path, the §3.3 design target).
    pub fn is_memory_bound(&self) -> bool {
        self.evk_stream_seconds >= self.latency * 0.999
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_hmult_is_memory_bound_on_the_default_design() {
        let ins = CkksInstance::ins1();
        let sched =
            KeySwitchSchedule::build(&BtsConfig::bts_default(), &ins, ins.max_level(), true);
        assert!(sched.is_memory_bound());
        // ~117 µs evk stream for INS-1 at the top level.
        assert!(
            (sched.latency - 117.4e-6).abs() < 3e-6,
            "latency = {}",
            sched.latency
        );
        // NTTU utilization in the Fig. 8 ballpark.
        let u = sched.utilization(FunctionalUnit::Nttu);
        assert!(u > 0.5 && u < 0.95, "NTTU utilization = {u}");
    }

    #[test]
    fn phases_are_well_formed_and_cover_the_dataflow() {
        let ins = CkksInstance::ins2();
        let sched = KeySwitchSchedule::build(&BtsConfig::bts_default(), &ins, 30, true);
        assert!(sched
            .phases
            .iter()
            .all(|p| p.end >= p.start && p.start >= 0.0));
        let names: Vec<&str> = sched.phases.iter().map(|p| p.name.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("iNTT.d2")));
        assert!(names.iter().any(|n| n.starts_with("BConv.d2")));
        assert!(names.iter().any(|n| n.starts_with("NTT.d2")));
        assert!(names.contains(&"iNTT.ax") && names.contains(&"NTT.bx"));
        assert!(names.contains(&"SSA.ax") && names.contains(&"SSA.bx"));
        assert!(names.contains(&"load evk (ax, bx)"));
    }

    #[test]
    fn disabling_overlap_lengthens_the_compute_path() {
        let ins = CkksInstance::ins1();
        let with = KeySwitchSchedule::build(&BtsConfig::bts_default(), &ins, 27, true);
        let without = KeySwitchSchedule::build(
            &BtsConfig::bts_default().with_overlap(false),
            &ins,
            27,
            true,
        );
        let compute = |s: &KeySwitchSchedule| {
            s.phases
                .iter()
                .filter(|p| p.unit != FunctionalUnit::Hbm)
                .map(|p| p.end)
                .fold(0.0f64, f64::max)
        };
        assert!(compute(&without) >= compute(&with));
    }

    #[test]
    fn hrot_skips_the_tensor_product() {
        let ins = CkksInstance::ins1();
        let mult = KeySwitchSchedule::build(&BtsConfig::bts_default(), &ins, 20, true);
        let rot = KeySwitchSchedule::build(&BtsConfig::bts_default(), &ins, 20, false);
        assert!(mult
            .phases
            .iter()
            .any(|p| p.name.contains("tensor product")));
        assert!(!rot.phases.iter().any(|p| p.name.contains("tensor product")));
        assert!(
            rot.busy_seconds(FunctionalUnit::ElementWise)
                < mult.busy_seconds(FunctionalUnit::ElementWise)
        );
    }

    #[test]
    fn doubling_bandwidth_exposes_compute() {
        // Fig. 9's 2 TB/s ablation: the evk stream halves but the latency does
        // not, because compute becomes the limiter.
        let ins = CkksInstance::ins1();
        let base = KeySwitchSchedule::build(&BtsConfig::bts_default(), &ins, ins.max_level(), true);
        let fast = KeySwitchSchedule::build(
            &BtsConfig::bts_default().with_hbm(bts_params::BandwidthModel::hbm_2tb()),
            &ins,
            ins.max_level(),
            true,
        );
        assert!(fast.latency < base.latency);
        assert!(fast.latency > base.latency / 2.0);
        assert!(!fast.is_memory_bound() || fast.latency < base.latency * 0.75);
    }

    #[test]
    fn low_level_ops_are_cheaper() {
        let ins = CkksInstance::ins3();
        let low = KeySwitchSchedule::build(&BtsConfig::bts_default(), &ins, 5, true);
        let high = KeySwitchSchedule::build(&BtsConfig::bts_default(), &ins, ins.max_level(), true);
        assert!(low.latency < high.latency);
        assert!(low.evk_stream_seconds < high.evk_stream_seconds);
    }
}
