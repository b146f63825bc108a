use bts_params::BandwidthModel;

use crate::ticks::{ByteTicks, MAX_TICKS, TICK_HZ};

/// Why a [`BtsConfig`] was rejected by [`BtsConfig::validate`]: every variant
/// names one field whose value would otherwise surface far downstream as a
/// division-by-zero `NaN` in the cost model or a panic in the scheduler's
/// channel setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `pe_count` is zero — every compute rate divides by it.
    ZeroPeCount,
    /// `pe_cols` or `pe_rows` is zero — the NoC model indexes the grid.
    ZeroPeGridSide,
    /// `pe_cols × pe_rows` does not fit in a `usize`.
    PeGridOverflow {
        /// The configured grid width.
        pe_cols: usize,
        /// The configured grid height.
        pe_rows: usize,
    },
    /// `pe_cols × pe_rows` does not equal `pe_count`.
    PeGridMismatch {
        /// The configured PE count.
        pe_count: usize,
        /// The product `pe_cols × pe_rows` that should equal it.
        grid: usize,
    },
    /// `frequency_hz` is zero, negative or non-finite, or its cycle is
    /// shorter than one tick or longer than [`crate::ticks::MAX_TICKS`].
    InvalidFrequency(f64),
    /// The HBM bandwidth (bytes/s) has no per-byte tick factor
    /// ([`crate::ticks::ByteTicks::new`]): it is infinite, or so large a
    /// byte rounds to no tick, or so small one does not fit.
    InvalidBandwidth(f64),
    /// `scratchpad_bytes` is zero — no room for even one temporary limb.
    ZeroScratchpad,
    /// `lsub` is zero — the MMAU rate divides by it.
    ZeroLsub,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroPeCount => write!(f, "pe_count must be at least 1"),
            ConfigError::ZeroPeGridSide => write!(f, "pe_cols and pe_rows must be at least 1"),
            ConfigError::PeGridOverflow { pe_cols, pe_rows } => {
                write!(f, "pe_cols × pe_rows = {pe_cols} × {pe_rows} overflows")
            }
            ConfigError::PeGridMismatch { pe_count, grid } => write!(
                f,
                "pe_cols × pe_rows = {grid} does not match pe_count = {pe_count}"
            ),
            ConfigError::InvalidFrequency(v) => write!(
                f,
                "frequency_hz = {v} must be finite, positive and between one tick and MAX_TICKS per cycle"
            ),
            ConfigError::InvalidBandwidth(v) => write!(
                f,
                "HBM bandwidth {v} B/s has no tick factor: a byte must take 2^-32 to 2^32 ticks"
            ),
            ConfigError::ZeroScratchpad => write!(f, "scratchpad_bytes must be at least 1"),
            ConfigError::ZeroLsub => write!(f, "lsub must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Named accelerator design points: BTS itself plus FAB, another CKKS
/// bootstrapping accelerator, so sweeps can put *architectures* on an axis
/// next to instances and bandwidths ("how many FAB-class FPGAs equal one
/// BTS?").
///
/// The FAB preset is an approximation: it maps that paper's headline
/// resources (clock, on-chip SRAM, off-chip bandwidth, rough compute
/// parallelism) onto the knobs of this repo's BTS-shaped cost model, not a
/// cycle-accurate reproduction of its microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchPreset {
    /// The BTS ASIC design point of the source paper (2,048 PEs at 1.2 GHz,
    /// 512 MiB scratchpad, 1 TB/s HBM).
    Bts,
    /// FAB (HPCA 2023): a bootstrappable-FHE FPGA design on a Xilinx Alveo
    /// U280 — ~300 MHz, ~43 MiB of on-chip URAM/BRAM, ~460 GB/s HBM2.
    Fab,
}

impl ArchPreset {
    /// All presets, in display order.
    pub const ALL: [ArchPreset; 2] = [ArchPreset::Bts, ArchPreset::Fab];

    /// Stable short name (`bts`, `fab`), used as the
    /// architecture key in sweep rows and figures.
    pub fn name(&self) -> &'static str {
        match self {
            ArchPreset::Bts => "bts",
            ArchPreset::Fab => "fab",
        }
    }

    /// The preset's hardware configuration. Always passes
    /// [`BtsConfig::validate`].
    pub fn config(&self) -> BtsConfig {
        match self {
            ArchPreset::Bts => BtsConfig::bts_default(),
            ArchPreset::Fab => BtsConfig::fab(),
        }
    }
}

/// Hardware configuration of a BTS-style accelerator.
///
/// The default values reproduce the paper's BTS design point (§5, §6.1); the
/// builder-style `with_*` methods express the ablations of Fig. 9 and the
/// scratchpad sweep of Fig. 10. [`ArchPreset`] names this and FAB's published
/// design point.
#[derive(Debug, Clone, PartialEq)]
pub struct BtsConfig {
    /// Number of processing elements (2,048 in BTS).
    pub pe_count: usize,
    /// PE-grid width (n_PE_hor = 64).
    pub pe_cols: usize,
    /// PE-grid height (n_PE_ver = 32).
    pub pe_rows: usize,
    /// Operating frequency of the NTTUs/MMAUs (1.2 GHz).
    pub frequency_hz: f64,
    /// Total scratchpad capacity in bytes (512 MiB).
    pub scratchpad_bytes: u64,
    /// Off-chip (HBM) bandwidth model (1 TB/s by default).
    pub hbm: BandwidthModel,
    /// MMAU lane count `l_sub` (4 in BTS, §5.2).
    pub lsub: usize,
    /// Whether BConv is partially overlapped with the preceding iNTT (§5.2);
    /// disabled in the "w/o BConvU overlapping" ablation of Fig. 9.
    pub overlap_bconv_intt: bool,
}

impl BtsConfig {
    /// The BTS design point of the paper.
    pub fn bts_default() -> Self {
        Self {
            pe_count: 2048,
            pe_cols: 64,
            pe_rows: 32,
            frequency_hz: 1.2e9,
            scratchpad_bytes: 512 * 1024 * 1024,
            hbm: BandwidthModel::hbm_1tb(),
            lsub: 4,
            overlap_bconv_intt: true,
        }
    }

    /// The "small BTS" baseline of the Fig. 9 ablation: just enough scratchpad
    /// to hold the temporary data of one HE op and no BConv/iNTT overlap.
    pub fn small_bts(temp_bytes: u64) -> Self {
        Self {
            scratchpad_bytes: temp_bytes,
            overlap_bconv_intt: false,
            ..Self::bts_default()
        }
    }

    /// An approximation of FAB's published design point (HPCA 2023): an FPGA
    /// bootstrappable-FHE accelerator on a Xilinx Alveo U280 — ~300 MHz
    /// fabric clock, ~43 MiB of usable URAM/BRAM, 460 GB/s HBM2, and roughly
    /// a quarter of BTS's butterfly parallelism. The tiny scratchpad means
    /// most ciphertext reuse spills to HBM (the cost model handles a
    /// cache capacity of zero gracefully), which is exactly the FPGA story.
    pub fn fab() -> Self {
        Self {
            pe_count: 512,
            pe_cols: 32,
            pe_rows: 16,
            frequency_hz: 300e6,
            scratchpad_bytes: 43 * 1024 * 1024,
            hbm: BandwidthModel::new(460e9),
            lsub: 2,
            overlap_bconv_intt: true,
        }
    }

    /// Checks every field for values that would otherwise surface downstream
    /// as `NaN` rates, empty scheduler channels or panics: unit counts and
    /// the scratchpad must be non-zero, the clock must be finite and
    /// strictly positive, and the PE grid must multiply out to `pe_count`.
    /// A cycle and an HBM byte must each convert to simulated ticks
    /// ([`crate::ticks`]) by a factor that is neither 0 nor out of range, so
    /// a zero, negative or `NaN` bandwidth is refused here too.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pe_count == 0 {
            return Err(ConfigError::ZeroPeCount);
        }
        if self.pe_cols == 0 || self.pe_rows == 0 {
            return Err(ConfigError::ZeroPeGridSide);
        }
        let grid = self
            .pe_cols
            .checked_mul(self.pe_rows)
            .ok_or(ConfigError::PeGridOverflow {
                pe_cols: self.pe_cols,
                pe_rows: self.pe_rows,
            })?;
        if grid != self.pe_count {
            return Err(ConfigError::PeGridMismatch {
                pe_count: self.pe_count,
                grid,
            });
        }
        let per_cycle = TICK_HZ / self.frequency_hz;
        if !(self.frequency_hz > 0.0 && (1.0..=MAX_TICKS as f64).contains(&per_cycle)) {
            return Err(ConfigError::InvalidFrequency(self.frequency_hz));
        }
        if ByteTicks::new(self.hbm.bytes_per_sec()).is_none() {
            return Err(ConfigError::InvalidBandwidth(self.hbm.bytes_per_sec()));
        }
        if self.scratchpad_bytes == 0 {
            return Err(ConfigError::ZeroScratchpad);
        }
        if self.lsub == 0 {
            return Err(ConfigError::ZeroLsub);
        }
        Ok(())
    }

    /// Returns a copy with a different scratchpad capacity (Fig. 7a, Fig. 10).
    pub fn with_scratchpad_bytes(mut self, bytes: u64) -> Self {
        self.scratchpad_bytes = bytes;
        self
    }

    /// Returns a copy with a different HBM bandwidth (the 2 TB/s ablation).
    pub fn with_hbm(mut self, hbm: BandwidthModel) -> Self {
        self.hbm = hbm;
        self
    }

    /// Returns a copy with BConv/iNTT overlapping enabled or disabled.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap_bconv_intt = overlap;
        self
    }

    /// Butterflies the whole chip completes per second
    /// (`pe_count × frequency`, one butterfly per NTTU per cycle).
    pub fn butterfly_rate(&self) -> f64 {
        self.pe_count as f64 * self.frequency_hz
    }

    /// Modular MACs the BConvUs complete per second
    /// (`pe_count × l_sub × frequency`).
    pub fn mmau_rate(&self) -> f64 {
        self.pe_count as f64 * self.lsub as f64 * self.frequency_hz
    }

    /// Element-wise modular multiplications per second
    /// (one ModMult per PE per cycle).
    pub fn elementwise_rate(&self) -> f64 {
        self.pe_count as f64 * self.frequency_hz
    }
}

impl Default for BtsConfig {
    fn default() -> Self {
        Self::bts_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_design_point() {
        let c = BtsConfig::bts_default();
        assert_eq!(c.pe_count, 2048);
        assert_eq!(c.pe_cols * c.pe_rows, c.pe_count);
        assert_eq!(c.scratchpad_bytes, 512 * 1024 * 1024);
        assert!((c.frequency_hz - 1.2e9).abs() < 1.0);
        // 2048 NTTUs comfortably exceed the Eq. 10 minimum of 1,328.
        let min =
            bts_params::min_nttu_count(&bts_params::CkksInstance::ins1(), c.frequency_hz, c.hbm);
        assert!(c.pe_count as f64 > min);
    }

    #[test]
    fn builders_modify_single_fields() {
        let c = BtsConfig::bts_default()
            .with_scratchpad_bytes(2 << 30)
            .with_overlap(false)
            .with_hbm(BandwidthModel::hbm_2tb());
        assert_eq!(c.scratchpad_bytes, 2 << 30);
        assert!(!c.overlap_bconv_intt);
        assert!((c.hbm.bytes_per_sec() - 2.0e12).abs() < 1.0);
        assert_eq!(c.pe_count, 2048);
    }

    #[test]
    fn rates_scale_with_pe_count() {
        let c = BtsConfig::bts_default();
        assert!((c.butterfly_rate() - 2048.0 * 1.2e9).abs() < 1.0);
        assert!((c.mmau_rate() - 4.0 * c.butterfly_rate()).abs() < 1.0);
    }

    #[test]
    fn every_preset_validates_and_is_distinct() {
        let mut names = std::collections::HashSet::new();
        for preset in ArchPreset::ALL {
            let config = preset.config();
            config.validate().unwrap_or_else(|e| {
                panic!("preset {} fails validation: {e}", preset.name());
            });
            assert!(names.insert(preset.name()), "duplicate preset name");
        }
        // The FPGA preset is materially slower than the BTS ASIC.
        let bts = ArchPreset::Bts.config();
        assert!(ArchPreset::Fab.config().butterfly_rate() < bts.butterfly_rate() / 4.0);
    }

    #[test]
    fn validate_rejects_zero_pe_count() {
        let mut c = BtsConfig::bts_default();
        c.pe_count = 0;
        c.pe_cols = 0;
        c.pe_rows = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroPeCount));
    }

    #[test]
    fn validate_rejects_zero_grid_side() {
        let mut c = BtsConfig::bts_default();
        c.pe_cols = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroPeGridSide));
        let mut c = BtsConfig::bts_default();
        c.pe_rows = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroPeGridSide));
    }

    #[test]
    fn validate_rejects_grid_mismatch() {
        let mut c = BtsConfig::bts_default();
        c.pe_cols = 63;
        assert_eq!(
            c.validate(),
            Err(ConfigError::PeGridMismatch {
                pe_count: 2048,
                grid: 63 * 32,
            })
        );
    }

    #[test]
    fn validate_rejects_an_overflowing_grid() {
        let mut c = BtsConfig::bts_default();
        c.pe_cols = usize::MAX;
        c.pe_rows = 2;
        // Wrapped, the product would be usize::MAX - 1; it must not validate
        // even against a PE count that equals it.
        c.pe_count = usize::MAX - 1;
        let overflow = ConfigError::PeGridOverflow {
            pe_cols: usize::MAX,
            pe_rows: 2,
        };
        assert_eq!(c.validate(), Err(overflow));
        c.pe_count = 2048;
        assert_eq!(c.validate(), Err(overflow));
    }

    #[test]
    fn validate_rejects_bad_frequency() {
        // The last two: a cycle shorter than a tick, and one past the range.
        for bad in [0.0, -1.2e9, f64::NAN, f64::INFINITY, 1e13, 1e-7] {
            let mut c = BtsConfig::bts_default();
            c.frequency_hz = bad;
            assert!(matches!(
                c.validate(),
                Err(ConfigError::InvalidFrequency(_))
            ));
        }
    }

    #[test]
    fn validate_rejects_a_bandwidth_without_a_tick_factor() {
        for bad in [f64::INFINITY, 1e23, 1.0] {
            let c = BtsConfig::bts_default().with_hbm(BandwidthModel::new(bad));
            assert_eq!(c.validate(), Err(ConfigError::InvalidBandwidth(bad)));
        }
        let jittered = BtsConfig::bts_default().with_hbm(BandwidthModel::new(0.9993e12));
        assert_eq!(jittered.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_a_nonpositive_or_nan_bandwidth() {
        // `BandwidthModel::new` holds any value, so these reach `validate`.
        // `matches!` on the bits, not `assert_eq!`: NaN is not equal to itself.
        for bad in [0.0, -1.0, f64::NAN] {
            let c = BtsConfig::bts_default().with_hbm(BandwidthModel::new(bad));
            assert!(matches!(
                c.validate(),
                Err(ConfigError::InvalidBandwidth(v)) if v.to_bits() == bad.to_bits()
            ));
        }
    }

    #[test]
    fn validate_rejects_zero_scratchpad() {
        let c = BtsConfig::bts_default().with_scratchpad_bytes(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroScratchpad));
    }

    #[test]
    fn validate_rejects_zero_lsub() {
        let mut c = BtsConfig::bts_default();
        c.lsub = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroLsub));
    }

    #[test]
    fn config_errors_render_their_field() {
        assert!(ConfigError::ZeroPeCount.to_string().contains("pe_count"));
        assert!(ConfigError::InvalidFrequency(-1.0)
            .to_string()
            .contains("frequency_hz"));
        assert!(ConfigError::PeGridMismatch {
            pe_count: 8,
            grid: 6,
        }
        .to_string()
        .contains("pe_count = 8"));
    }
}
