//! Per-PE microarchitecture model (§5, Fig. 5): the functional units inside
//! one processing element — the NTTU, the BConvU (a ModMult front-end plus an
//! `l_sub`-lane MMAU), the element-wise ModMult/ModAdd pair — their register
//! files, and the PE's slice of the scratchpad.
//!
//! The model answers throughput questions at the granularity of one epoch:
//! how many cycles the NTTU and the MMAU spend on one limb or one BConv (the
//! per-phase durations of [`crate::KeySwitchSchedule`], which sums them into
//! per-unit busy time), what the per-PE scratchpad bandwidth demand is, and
//! whether the MMAU's partial-sum traffic fits the scratchpad port
//! (§5.2/§5.3).

use bts_params::{CkksInstance, WORD_BYTES};

use crate::config::BtsConfig;

/// Static description of one BTS processing element.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingElement {
    /// NTTU operating frequency in Hz.
    pub frequency_hz: f64,
    /// Number of MMAU lanes (`l_sub`).
    pub lsub: usize,
    /// Bytes of scratchpad SRAM owned by this PE.
    pub scratchpad_bytes: u64,
    /// Scratchpad port width in bytes (128-bit single-ported SRAM → 16 B).
    pub scratchpad_port_bytes: u64,
    /// Number of PEs on the chip (used to derive the per-PE share of a
    /// residue polynomial).
    pub pe_count: usize,
}

impl ProcessingElement {
    /// Builds the PE description from a chip configuration. On
    /// `BtsConfig::bts_default` this is the paper's PE: 1.2 GHz, 4 MMAU
    /// lanes, a 256 KiB scratchpad slice with a 128-bit port, on a 2,048-PE
    /// chip.
    pub fn from_config(config: &BtsConfig) -> Self {
        Self {
            frequency_hz: config.frequency_hz,
            lsub: config.lsub,
            scratchpad_bytes: config.scratchpad_bytes / config.pe_count as u64,
            scratchpad_port_bytes: 16,
            pe_count: config.pe_count,
        }
    }

    /// Residues of one residue polynomial handled by this PE (`N / n_PE`).
    pub fn residues_per_pe(&self, instance: &CkksInstance) -> u64 {
        (instance.n() / self.pe_count) as u64
    }

    /// Scratchpad bandwidth of one PE in bytes/s (one port access per cycle).
    pub fn scratchpad_bytes_per_sec(&self) -> f64 {
        self.scratchpad_port_bytes as f64 * self.frequency_hz
    }

    /// NTTU cycles to transform this PE's share of one residue polynomial
    /// (`N log N / (2 n_PE)`, the epoch length of §5.1).
    pub fn nttu_cycles_per_limb(&self, instance: &CkksInstance) -> u64 {
        instance.n() as u64 * instance.log_n() as u64 / (2 * self.pe_count as u64)
    }

    /// MMAU cycles for this PE's share of a BConv accumulation from `from`
    /// source limbs into `to` destination limbs: each destination residue needs
    /// `from` multiply-accumulates, `l_sub` of which retire per cycle.
    pub fn mmau_cycles_for_bconv(&self, instance: &CkksInstance, from: usize, to: usize) -> u64 {
        let residues = self.residues_per_pe(instance);
        (residues * from as u64 * to as u64).div_ceil(self.lsub as u64)
    }

    /// Scratchpad traffic in bytes generated by the MMAU partial-sum update of
    /// one BConv: the `k`-limb partial sum is read and written once per group
    /// of `l_sub` source limbs (Eq. 11).
    pub fn bconv_partial_sum_bytes(&self, instance: &CkksInstance, from: usize, to: usize) -> u64 {
        let groups = (from as u64).div_ceil(self.lsub as u64);
        let partial_sum_bytes = self.residues_per_pe(instance) * to as u64 * WORD_BYTES;
        2 * groups * partial_sum_bytes
    }

    /// Average scratchpad bandwidth demand (bytes/s) of the BConv partial-sum
    /// traffic when the BConv is pipelined with the iNTT that feeds it: the
    /// source limbs arrive one per (i)NTT epoch, so each partial-sum
    /// read/write pair is spread over `l_sub` epochs (Eq. 11, §5.3).
    pub fn bconv_scratchpad_demand(&self, instance: &CkksInstance, from: usize, to: usize) -> f64 {
        let bytes = self.bconv_partial_sum_bytes(instance, from, to);
        let cycles = from as u64 * self.nttu_cycles_per_limb(instance);
        if cycles == 0 {
            return 0.0;
        }
        bytes as f64 / (cycles as f64 / self.frequency_hz)
    }

    /// Fraction of the PE's scratchpad port bandwidth the BConv partial-sum
    /// traffic consumes; §5.3 notes this is the highest-pressure client and
    /// that raising `l_sub` relieves it.
    pub fn bconv_port_pressure(&self, instance: &CkksInstance, from: usize, to: usize) -> f64 {
        self.bconv_scratchpad_demand(instance, from, to) / self.scratchpad_bytes_per_sec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuKind, KeySwitchSchedule};

    fn pe() -> ProcessingElement {
        ProcessingElement::from_config(&BtsConfig::bts_default())
    }

    #[test]
    fn default_pe_matches_paper_geometry() {
        let pe = pe();
        assert_eq!(pe.scratchpad_bytes, 256 * 1024);
        assert_eq!(pe.lsub, 4);
        let ins = CkksInstance::ins1();
        assert_eq!(pe.residues_per_pe(&ins), 64);
        // Epoch length: N log N / (2 n_PE) = 544 cycles for N = 2^17.
        assert_eq!(pe.nttu_cycles_per_limb(&ins), 544);
    }

    #[test]
    fn bconv_pressure_drops_with_more_lanes() {
        // §5.3: increasing l_sub relieves the scratchpad bandwidth pressure of
        // the partial-sum updates.
        let ins = CkksInstance::ins1();
        let narrow = ProcessingElement { lsub: 2, ..pe() };
        let wide = ProcessingElement { lsub: 8, ..pe() };
        let k = ins.num_special();
        let l1 = ins.max_level() + 1;
        assert!(wide.bconv_port_pressure(&ins, l1, k) < narrow.bconv_port_pressure(&ins, l1, k));
        // At the paper's l_sub = 4 the partial-sum traffic sits right at the
        // 128-bit port's bandwidth (§5.3 calls BConv the highest-pressure
        // scratchpad client); it must not exceed it by more than rounding.
        let pressure = pe().bconv_port_pressure(&ins, l1, k);
        assert!(pressure <= 1.0 + 1e-6, "pressure = {pressure}");
        assert!(pressure > 0.5, "pressure = {pressure}");
    }

    /// Per-unit occupancy of one key-switch, from this PE's cycle counts.
    fn occupancy(ins: &CkksInstance, level: usize, is_mult: bool) -> KeySwitchSchedule {
        KeySwitchSchedule::build(&BtsConfig::bts_default(), ins, level, is_mult)
    }

    /// Busy times are sums of phase durations, so equal work may differ in
    /// the last bits.
    fn same(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
    }

    #[test]
    fn keyswitch_occupancy_is_memory_bound_at_the_top_level() {
        // §3.3/Fig. 8: with 2,048 PEs the per-PE compute time of one HMult
        // key-switch hides underneath the ~117 µs evk stream.
        let ins = CkksInstance::ins1();
        let occ = occupancy(&ins, ins.max_level(), true);
        let evk_seconds = ins.evk_bytes_at_level(ins.max_level()) as f64 / 1e12;
        for unit in [FuKind::Nttu, FuKind::BConvU, FuKind::Elementwise] {
            assert!(occ.busy_seconds(unit) < evk_seconds, "{unit:?}");
        }
        // The NTTU is the busiest compute unit and its busy fraction relative
        // to the evk stream lands in the Fig. 8 ballpark (76%).
        let busy = occ.busy_seconds(FuKind::Nttu) / evk_seconds;
        assert!(busy > 0.5 && busy < 0.95, "NTTU busy fraction = {busy}");
    }

    #[test]
    fn hmult_costs_more_than_hrot() {
        let ins = CkksInstance::ins2();
        let mult = occupancy(&ins, 30, true);
        let rot = occupancy(&ins, 30, false);
        assert!(mult.busy_seconds(FuKind::Elementwise) > rot.busy_seconds(FuKind::Elementwise));
        assert!(same(
            mult.busy_seconds(FuKind::Nttu),
            rot.busy_seconds(FuKind::Nttu)
        ));
    }

    #[test]
    fn overlap_never_hurts() {
        let ins = CkksInstance::ins3();
        let serial = BtsConfig::bts_default().with_overlap(false);
        for level in [5usize, 20, ins.max_level()] {
            let with = occupancy(&ins, level, true);
            let without = KeySwitchSchedule::build(&serial, &ins, level, true);
            assert!(with.latency <= without.latency);
            // Overlap moves phases; it does no less and no more work.
            for unit in FuKind::ALL {
                assert!(same(with.busy_seconds(unit), without.busy_seconds(unit)));
            }
        }
    }

    #[test]
    fn occupancy_grows_with_level_and_dnum() {
        let ins1 = CkksInstance::ins1();
        let ins3 = CkksInstance::ins3();
        let low = occupancy(&ins1, 5, true);
        let high = occupancy(&ins1, ins1.max_level(), true);
        for unit in FuKind::ALL {
            assert!(high.busy_seconds(unit) > low.busy_seconds(unit), "{unit:?}");
        }
        // At the same level, a higher-dnum instance transforms more limbs per
        // key-switch: every slice's ModUp NTTs the whole complementary base.
        let d1 = occupancy(&ins1, 27, true);
        let d3 = occupancy(&ins3, 27, true);
        assert!(d3.busy_seconds(FuKind::Nttu) > d1.busy_seconds(FuKind::Nttu));
    }
}
