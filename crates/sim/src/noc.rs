//! Models of the three dedicated on-chip networks of BTS (§5.4): the PE-PE
//! NoC built from per-row/per-column crossbars, the PE-Mem NoC connecting HBM
//! pseudo-channels to PE regions, and the hierarchical broadcast (BrU) NoC
//! that distributes twiddle factors and BConv tables.
//!
//! Each model exposes transfer-time calculations the epoch scheduler uses to
//! decide whether inter-PE exchanges and constant broadcasts can be hidden
//! underneath the compute epochs of the 3D-NTT pipeline (§5.1).

use bts_math::{Ntt3dPlan, TransposePhase};
use bts_params::{CkksInstance, WORD_BYTES};

use crate::config::BtsConfig;

/// The PE-PE interconnect: a logical 2D flattened butterfly in which one
/// shared crossbar serves each row (`xbar_h`, used by the horizontal transpose
/// step of the 3D-NTT) and one serves each column (`xbar_v`, used by the
/// vertical step). Ports are narrow (12 bits in the paper) but every
/// row/column crossbar operates in parallel, so the aggregate bisection
/// bandwidth reaches several TB/s.
#[derive(Debug, Clone, PartialEq)]
pub struct PePeNoc {
    pe_cols: usize,
    pe_rows: usize,
    /// Port width in bits of each crossbar port.
    port_bits: u32,
    /// Crossbar operating frequency in Hz.
    frequency_hz: f64,
}

impl PePeNoc {
    /// The paper's PE-PE NoC: 64×32 grid, 12-bit ports at 1.2 GHz.
    pub fn bts_default() -> Self {
        Self {
            pe_cols: 64,
            pe_rows: 32,
            port_bits: 12,
            frequency_hz: 1.2e9,
        }
    }

    /// Builds a NoC description from a hardware configuration.
    pub fn from_config(config: &BtsConfig) -> Self {
        Self {
            pe_cols: config.pe_cols,
            pe_rows: config.pe_rows,
            port_bits: 12,
            frequency_hz: config.frequency_hz,
        }
    }

    /// Number of vertical crossbars (one per column).
    pub fn vertical_crossbars(&self) -> usize {
        self.pe_cols
    }

    /// Number of horizontal crossbars (one per row).
    pub fn horizontal_crossbars(&self) -> usize {
        self.pe_rows
    }

    /// Radix (port count) of each vertical crossbar.
    pub fn vertical_radix(&self) -> usize {
        self.pe_rows
    }

    /// Radix (port count) of each horizontal crossbar.
    pub fn horizontal_radix(&self) -> usize {
        self.pe_cols
    }

    /// Bytes per second one crossbar port sustains.
    pub fn port_bytes_per_sec(&self) -> f64 {
        self.port_bits as f64 / 8.0 * self.frequency_hz
    }

    /// Aggregate bisection bandwidth in bytes/s: half of the ports of every
    /// crossbar cross the bisection simultaneously. The paper reports 3.6 TB/s
    /// for the default configuration.
    pub fn bisection_bytes_per_sec(&self) -> f64 {
        let vertical_ports = self.vertical_crossbars() * self.vertical_radix();
        let horizontal_ports = self.horizontal_crossbars() * self.horizontal_radix();
        (vertical_ports + horizontal_ports) as f64 / 2.0 * self.port_bytes_per_sec()
    }

    /// Cycles one transpose phase of the 3D-NTT needs for a single residue
    /// polynomial. Every PE injects `exchange_words_per_pe` 64-bit words into
    /// its row/column crossbar through one 12-bit port, so the transfer is
    /// serialized over `ceil(64 / port_bits)` cycles per word.
    pub fn transpose_cycles(&self, plan: &Ntt3dPlan, phase: TransposePhase) -> u64 {
        let words = plan.exchange_words_per_pe(phase);
        let cycles_per_word = (WORD_BYTES * 8).div_ceil(self.port_bits as u64);
        words * cycles_per_word
    }

    /// Whether the vertical and horizontal transposes of the epoch-pipelined
    /// 3D-NTT (§5.1) can be fully hidden underneath one compute epoch: both
    /// must finish within `epoch_cycles` because they run on separate NoCs
    /// concurrently with the NTT stages of other residue polynomials.
    pub fn transposes_hidden(&self, plan: &Ntt3dPlan) -> bool {
        let epoch = plan.epoch_cycles();
        self.transpose_cycles(plan, TransposePhase::Vertical) <= epoch
            && self.transpose_cycles(plan, TransposePhase::Horizontal) <= epoch
    }

    /// Cycles the inter-PE permutation of one automorphism takes for a single
    /// residue polynomial. Under the BTS coefficient mapping every PE sends its
    /// whole `N_z`-residue block to exactly one destination PE (§5.5), split
    /// into a vertical and a horizontal hop handled by the two crossbar sets.
    pub fn automorphism_cycles(&self, plan: &Ntt3dPlan) -> u64 {
        let words = plan.residues_per_pe() as u64;
        let cycles_per_word = (WORD_BYTES * 8).div_ceil(self.port_bits as u64);
        // Vertical hop then horizontal hop; each moves the full block once.
        2 * words * cycles_per_word
    }

    /// Seconds for the inter-PE automorphism permutation of a full ciphertext
    /// polynomial at level `level` (all `ℓ+1` residue polynomials), assuming
    /// the per-limb permutations pipeline back to back.
    pub fn automorphism_seconds(&self, plan: &Ntt3dPlan, level: usize) -> f64 {
        (level as u64 + 1) as f64 * self.automorphism_cycles(plan) as f64 / self.frequency_hz
    }
}

/// The PE-Mem NoC: the PE grid is split into regions, each wired to one HBM
/// pseudo-channel, so off-chip traffic never crosses the full chip (§5.4).
#[derive(Debug, Clone, PartialEq)]
pub struct PeMemNoc {
    pe_count: usize,
    /// Number of HBM stacks (2 in BTS).
    stacks: usize,
    /// Pseudo-channels per stack (16 for HBM2e).
    pseudo_channels_per_stack: usize,
    /// Aggregate off-chip bandwidth in bytes/s.
    hbm_bytes_per_sec: f64,
}

impl PeMemNoc {
    /// The paper's configuration: 2,048 PEs, two HBM2e stacks of 16
    /// pseudo-channels each, 1 TB/s aggregate.
    pub fn bts_default() -> Self {
        Self {
            pe_count: 2048,
            stacks: 2,
            pseudo_channels_per_stack: 16,
            hbm_bytes_per_sec: 1e12,
        }
    }

    /// Builds the PE-Mem NoC description from a hardware configuration.
    pub fn from_config(config: &BtsConfig) -> Self {
        Self {
            pe_count: config.pe_count,
            stacks: 2,
            pseudo_channels_per_stack: 16,
            hbm_bytes_per_sec: config.hbm.bytes_per_sec(),
        }
    }

    /// Total number of pseudo-channels, which equals the number of PE regions.
    pub fn regions(&self) -> usize {
        self.stacks * self.pseudo_channels_per_stack
    }

    /// PEs per region (64 in the default configuration).
    pub fn pes_per_region(&self) -> usize {
        self.pe_count / self.regions()
    }

    /// Bandwidth of a single pseudo-channel in bytes/s.
    pub fn channel_bytes_per_sec(&self) -> f64 {
        self.hbm_bytes_per_sec / self.regions() as f64
    }

    /// Seconds to stream `bytes` spread evenly over all pseudo-channels (the
    /// layout the CLP data distribution produces: every limb is striped across
    /// all PEs and therefore across all regions).
    pub fn balanced_stream_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.hbm_bytes_per_sec
    }

    /// Seconds to stream `bytes` that all land in a single region (worst-case
    /// imbalance, e.g. a residue-polynomial-partitioned layout); this is what a
    /// rPLP data distribution would suffer and why BTS stripes by coefficient.
    pub fn single_region_stream_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.channel_bytes_per_sec()
    }

    /// Seconds to stream one evaluation key for a key-switch at `level`.
    pub fn evk_stream_seconds(&self, instance: &CkksInstance, level: usize) -> f64 {
        self.balanced_stream_seconds(instance.evk_bytes_at_level(level))
    }
}

/// The broadcast network: a global BrU loaded with all precomputed constants
/// feeds 128 local BrUs, each of which serves 16 PEs with the higher-digit
/// twiddle tables and the BConv tables they need for the current epoch (§5.4).
#[derive(Debug, Clone, PartialEq)]
pub struct BruNoc {
    pe_count: usize,
    /// Number of local BrUs (repeaters).
    local_brus: usize,
    /// Words each local BrU can deliver to each of its PEs per cycle.
    words_per_cycle: u64,
    /// Operating frequency in Hz (0.6 GHz in Table 3).
    frequency_hz: f64,
}

impl BruNoc {
    /// The paper's configuration: 128 local BrUs serving 16 PEs each at
    /// 0.6 GHz. Each local BrU delivers two words per cycle so that the
    /// higher-digit twiddle table of the next prime modulus (≈ 512 entries
    /// with the default on-the-fly-twiddling decomposition) fits within one
    /// (i)NTT epoch, as §5.1 requires.
    pub fn bts_default() -> Self {
        Self {
            pe_count: 2048,
            local_brus: 128,
            words_per_cycle: 2,
            frequency_hz: 0.6e9,
        }
    }

    /// PEs served by each local BrU.
    pub fn pes_per_local_bru(&self) -> usize {
        self.pe_count / self.local_brus
    }

    /// Seconds to broadcast a table of `words` 64-bit words to every PE (the
    /// same data goes to all PEs, so the broadcast is limited by one local
    /// BrU's delivery rate, not by the PE count).
    pub fn broadcast_seconds(&self, words: u64) -> f64 {
        words as f64 / (self.words_per_cycle as f64 * self.frequency_hz)
    }

    /// Whether broadcasting the higher-digit twiddle table for the next
    /// (i)NTT epoch fits within one epoch of `epoch_cycles` NTTU cycles at
    /// `nttu_frequency_hz`.
    pub fn twiddle_broadcast_hidden(
        &self,
        higher_digit_words: u64,
        epoch_cycles: u64,
        nttu_frequency_hz: f64,
    ) -> bool {
        self.broadcast_seconds(higher_digit_words) <= epoch_cycles as f64 / nttu_frequency_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan17() -> Ntt3dPlan {
        Ntt3dPlan::bts_default(1 << 17).unwrap()
    }

    #[test]
    fn bisection_bandwidth_matches_paper() {
        // §6.1: "crossbars ... 12-bit wide ports ... 1.2GHz, providing a
        // bisection bandwidth of 3.6TB/s".
        let noc = PePeNoc::bts_default();
        let bisection = noc.bisection_bytes_per_sec();
        assert!(
            (bisection - 3.6e12).abs() / 3.6e12 < 0.05,
            "bisection = {bisection:e}"
        );
        assert_eq!(noc.vertical_crossbars(), 64);
        assert_eq!(noc.horizontal_crossbars(), 32);
    }

    #[test]
    fn transposes_hide_under_the_epoch() {
        // §5.1: the vertical and horizontal exchanges are hidden by
        // coarse-grained epoch pipelining; this only works if each transpose
        // fits within one epoch.
        let noc = PePeNoc::bts_default();
        let plan = plan17();
        assert!(noc.transposes_hidden(&plan));
        let v = noc.transpose_cycles(&plan, TransposePhase::Vertical);
        let h = noc.transpose_cycles(&plan, TransposePhase::Horizontal);
        assert!(v <= plan.epoch_cycles());
        assert!(h <= plan.epoch_cycles());
        assert!(h >= v, "horizontal moves at least as much data");
    }

    #[test]
    fn narrow_ports_would_not_hide_transposes() {
        // Sanity check of the model: with 1-bit ports the exchange would take
        // 64 cycles per word and could no longer hide under the epoch.
        let mut noc = PePeNoc::bts_default();
        noc.port_bits = 1;
        assert!(!noc.transposes_hidden(&plan17()));
    }

    #[test]
    fn automorphism_permutation_is_cheaper_than_two_transposes() {
        let noc = PePeNoc::bts_default();
        let plan = plan17();
        let auto = noc.automorphism_cycles(&plan);
        let transposes = noc.transpose_cycles(&plan, TransposePhase::Vertical)
            + noc.transpose_cycles(&plan, TransposePhase::Horizontal);
        // The permutation moves each block twice (vertical + horizontal hop),
        // roughly the same volume as the two NTT transposes.
        assert!(auto <= transposes + 2 * plan.residues_per_pe() as u64 * 6);
        assert!(noc.automorphism_seconds(&plan, 27) > 0.0);
    }

    #[test]
    fn pe_mem_regions_match_paper() {
        // §5.4: 32 regions of 64 PEs, one HBM pseudo-channel each.
        let noc = PeMemNoc::bts_default();
        assert_eq!(noc.regions(), 32);
        assert_eq!(noc.pes_per_region(), 64);
        // Balanced streaming uses the full 1 TB/s; a single region only 1/32.
        let bytes = 112 * 1024 * 1024;
        assert!(
            noc.single_region_stream_seconds(bytes) / noc.balanced_stream_seconds(bytes) > 30.0
        );
    }

    #[test]
    fn evk_stream_time_matches_minimum_bound() {
        let noc = PeMemNoc::bts_default();
        let ins = CkksInstance::ins1();
        let t = noc.evk_stream_seconds(&ins, ins.max_level());
        // ~117 µs for the 112 MiB INS-1 evk at 1 TB/s.
        assert!((t - 117.4e-6).abs() < 2e-6, "t = {t}");
    }

    #[test]
    fn bru_broadcast_hides_under_epoch() {
        // §5.1: the BrU broadcasts one higher-digit twiddle table per (i)NTT
        // epoch. With on-the-fly twiddling the higher-digit table has
        // (N-1)/m ≈ N/m entries; for m = 256 at N = 2^17 that is 512 words.
        let bru = BruNoc::bts_default();
        let plan = plan17();
        let higher_digit_words = (plan.degree() / 256) as u64;
        assert!(bru.twiddle_broadcast_hidden(higher_digit_words, plan.epoch_cycles(), 1.2e9));
        assert_eq!(bru.pes_per_local_bru(), 16);
        // Broadcasting a full N-entry table would not hide.
        assert!(!bru.twiddle_broadcast_hidden(plan.degree() as u64, plan.epoch_cycles(), 1.2e9));
    }
}
