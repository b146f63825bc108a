//! Per-PE microarchitecture model (§5, Fig. 5): the functional units inside
//! one processing element — the NTTU, the BConvU (a ModMult front-end plus an
//! `l_sub`-lane MMAU), the element-wise ModMult/ModAdd pair — their register
//! files, and the PE's slice of the scratchpad.
//!
//! The model answers throughput and occupancy questions at the granularity the
//! epoch scheduler needs: how many cycles each functional unit is busy during
//! one key-switch, what the per-PE scratchpad bandwidth demand is, and whether
//! the MMAU's partial-sum traffic fits the scratchpad port (§5.2/§5.3).

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
    /// The paper's PE: 1.2 GHz, 4 MMAU lanes, 256 KiB scratchpad slice with a
    /// 128-bit port, on a 2,048-PE chip.
    pub fn bts_default() -> Self {
        Self {
            frequency_hz: 1.2e9,
            lsub: 4,
            scratchpad_bytes: 512 * 1024 * 1024 / 2048,
            scratchpad_port_bytes: 16,
            pe_count: 2048,
        }
    }

    /// Builds the PE description from a chip configuration.
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

    /// Element-wise ModMult cycles for `limbs` residue polynomials (one residue
    /// per cycle per PE).
    pub fn modmult_cycles(&self, instance: &CkksInstance, limbs: usize) -> u64 {
        self.residues_per_pe(instance) * limbs as u64
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

/// Cycle occupancy of each functional-unit class inside one PE for one
/// key-switching operation (the Fig. 3(a) flow), produced by
/// [`KeySwitchOccupancy::for_op`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeySwitchOccupancy {
    /// NTTU busy cycles (all iNTT and NTT phases).
    pub nttu_cycles: u64,
    /// MMAU busy cycles (both BConv phases plus the SSA fusion).
    pub mmau_cycles: u64,
    /// Element-wise ModMult cycles (evk inner products, tensor product).
    pub modmult_cycles: u64,
    /// Scratchpad bytes moved by the partial-sum updates.
    pub scratchpad_bytes: u64,
}

impl KeySwitchOccupancy {
    /// Occupancy of one HMult-style key-switch at ciphertext level `level`
    /// (tensor product included when `is_mult` is true, otherwise the
    /// automorphism flow of HRot/Conjugate).
    pub fn for_op(
        pe: &ProcessingElement,
        instance: &CkksInstance,
        level: usize,
        is_mult: bool,
    ) -> Self {
        let l1 = level + 1;
        let decomposition = instance.decomposition();
        let k = decomposition.special_primes();
        let dnum_l = decomposition.slices_at_level(level);
        let per_limb = pe.nttu_cycles_per_limb(instance);

        // ModUp: per decomposition slice, iNTT the slice limbs and NTT the
        // converted limbs on the complementary base.
        let mut nttu = 0u64;
        let mut mmau = 0u64;
        let mut scratch = 0u64;
        for j in 0..dnum_l {
            let slice = decomposition.slice(j, level).len();
            let target = (l1 - slice) + k;
            nttu += (slice + target) as u64 * per_limb;
            mmau += pe.mmau_cycles_for_bconv(instance, slice, target);
            scratch += pe.bconv_partial_sum_bytes(instance, slice, target);
        }
        // ModDown of both output polynomials: iNTT the k special limbs, BConv
        // them onto the ciphertext base, NTT the result.
        nttu += 2 * (k + l1) as u64 * per_limb;
        mmau += 2 * pe.mmau_cycles_for_bconv(instance, k, l1);
        scratch += 2 * pe.bconv_partial_sum_bytes(instance, k, l1);
        // SSA (subtract, 1/P scale, add) runs on the MMAU (§5.2).
        mmau += 2 * pe.residues_per_pe(instance) * l1 as u64;

        // Element-wise work: the evk inner products touch every extended limb
        // of both evk polynomials; HMult additionally pays the tensor product.
        let mut modmult = 2 * dnum_l as u64 * (l1 + k) as u64 * pe.residues_per_pe(instance);
        if is_mult {
            modmult += 4 * pe.residues_per_pe(instance) * l1 as u64;
        }

        Self {
            nttu_cycles: nttu,
            mmau_cycles: mmau,
            modmult_cycles: modmult,
            scratchpad_bytes: scratch,
        }
    }

    /// Seconds the NTTU is busy.
    pub fn nttu_seconds(&self, pe: &ProcessingElement) -> f64 {
        self.nttu_cycles as f64 / pe.frequency_hz
    }

    /// Seconds the MMAU is busy.
    pub fn mmau_seconds(&self, pe: &ProcessingElement) -> f64 {
        self.mmau_cycles as f64 / pe.frequency_hz
    }

    /// Critical-path compute seconds assuming the NTTU and BConvU overlap
    /// (the §5.2 partial overlap) and the element-wise units run in parallel.
    pub fn overlapped_seconds(&self, pe: &ProcessingElement) -> f64 {
        let nttu = self.nttu_seconds(pe);
        let mmau = self.mmau_seconds(pe);
        let ew = self.modmult_cycles as f64 / pe.frequency_hz;
        nttu.max(mmau).max(ew)
    }

    /// Critical-path compute seconds when the BConv must wait for the full
    /// preceding iNTT (the Fig. 9 "w/o BConvU overlapping" ablation).
    pub fn serialized_seconds(&self, pe: &ProcessingElement) -> f64 {
        self.nttu_seconds(pe) + self.mmau_seconds(pe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe() -> ProcessingElement {
        ProcessingElement::bts_default()
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

    #[test]
    fn keyswitch_occupancy_is_memory_bound_at_the_top_level() {
        // §3.3/Fig. 8: with 2,048 PEs the per-PE compute time of one HMult
        // key-switch hides underneath the ~117 µs evk stream.
        let ins = CkksInstance::ins1();
        let occ = KeySwitchOccupancy::for_op(&pe(), &ins, ins.max_level(), true);
        let evk_seconds = ins.evk_bytes_at_level(ins.max_level()) as f64 / 1e12;
        assert!(occ.overlapped_seconds(&pe()) < evk_seconds);
        // The NTTU is the busiest compute unit and its busy fraction relative
        // to the evk stream lands in the Fig. 8 ballpark (76%).
        let busy = occ.nttu_seconds(&pe()) / evk_seconds;
        assert!(busy > 0.5 && busy < 0.95, "NTTU busy fraction = {busy}");
    }

    #[test]
    fn hmult_costs_more_than_hrot() {
        let ins = CkksInstance::ins2();
        let mult = KeySwitchOccupancy::for_op(&pe(), &ins, 30, true);
        let rot = KeySwitchOccupancy::for_op(&pe(), &ins, 30, false);
        assert!(mult.modmult_cycles > rot.modmult_cycles);
        assert_eq!(mult.nttu_cycles, rot.nttu_cycles);
    }

    #[test]
    fn overlap_never_hurts() {
        let ins = CkksInstance::ins3();
        for level in [5usize, 20, ins.max_level()] {
            let occ = KeySwitchOccupancy::for_op(&pe(), &ins, level, true);
            assert!(occ.overlapped_seconds(&pe()) <= occ.serialized_seconds(&pe()));
        }
    }

    #[test]
    fn occupancy_grows_with_level_and_dnum() {
        let pe = pe();
        let ins1 = CkksInstance::ins1();
        let ins3 = CkksInstance::ins3();
        let low = KeySwitchOccupancy::for_op(&pe, &ins1, 5, true);
        let high = KeySwitchOccupancy::for_op(&pe, &ins1, ins1.max_level(), true);
        assert!(high.nttu_cycles > low.nttu_cycles);
        assert!(high.mmau_cycles > low.mmau_cycles);
        // At the same level, a higher-dnum instance does more BConv work per
        // key-switch (the (1 + 2/dnum) trend of §4.2 reverses in absolute MACs
        // because every slice converts to the complementary base).
        let d1 = KeySwitchOccupancy::for_op(&pe, &ins1, 27, true);
        let d3 = KeySwitchOccupancy::for_op(&pe, &ins3, 27, true);
        assert!(d3.nttu_cycles > 0 && d1.nttu_cycles > 0);
    }
}
