//! What hardware the cluster is made of: a chip design point, how many of
//! them, and the interconnect that moves ciphertexts and evaluation keys
//! between the host and the chips.

use bts_sim::{ArchPreset, BtsConfig};

use crate::error::ClusterError;

/// The link between chips (host ↔ accelerator or accelerator ↔ accelerator):
/// a fixed per-transfer latency plus a serial bandwidth charge. The cluster
/// charges it for every ciphertext shipped to a chip and for the first copy
/// of each tenant's evaluation-key set landing on a chip; with one chip
/// nothing ever moves and the model charges exactly zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Fixed per-transfer latency in seconds (link setup + protocol).
    pub latency_seconds: f64,
    /// Link bandwidth in bytes per second.
    pub bytes_per_sec: f64,
}

impl Interconnect {
    /// An arbitrary link.
    pub fn new(latency_seconds: f64, bytes_per_sec: f64) -> Self {
        Self {
            latency_seconds,
            bytes_per_sec,
        }
    }

    /// A PCIe 5.0 ×16-class link: ~2 µs latency, 64 GB/s.
    pub fn pcie_gen5() -> Self {
        Self::new(2e-6, 64e9)
    }

    /// An NVLink-class accelerator fabric: ~1 µs latency, 450 GB/s.
    pub fn nvlink_class() -> Self {
        Self::new(1e-6, 450e9)
    }

    /// Time to move `bytes` across the link: latency + bytes / bandwidth.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.latency_seconds + bytes as f64 / self.bytes_per_sec
    }

    /// Checks the link is physically meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Interconnect`] when the latency is negative or
    /// non-finite, or the bandwidth is non-positive or non-finite.
    pub fn validate(&self) -> Result<(), ClusterError> {
        let latency_ok = self.latency_seconds.is_finite() && self.latency_seconds >= 0.0;
        let bw_ok = self.bytes_per_sec.is_finite() && self.bytes_per_sec > 0.0;
        if latency_ok && bw_ok {
            Ok(())
        } else {
            Err(ClusterError::Interconnect {
                latency_seconds: self.latency_seconds,
                bytes_per_sec: self.bytes_per_sec,
            })
        }
    }
}

impl Default for Interconnect {
    fn default() -> Self {
        Self::pcie_gen5()
    }
}

/// One homogeneous shard of hardware: `chip_count` copies of one chip design
/// point behind one interconnect. Heterogeneous fleets are modelled by
/// serving the same stream against several specs and comparing reports
/// (cross-architecture aggregation of one merged report would be
/// meaningless — and [`bts_sim::SimReport::merge`] refuses it).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Display label for reports (`"bts"`, `"fab"`, a sweep config name…).
    pub label: String,
    /// The per-chip hardware configuration.
    pub config: BtsConfig,
    /// Number of identical chips.
    pub chip_count: usize,
    /// The link jobs and keys travel over to reach a chip.
    pub interconnect: Interconnect,
}

impl ChipSpec {
    /// A spec with an explicit config and the default (PCIe 5.0) link.
    pub fn new(label: impl Into<String>, config: BtsConfig, chip_count: usize) -> Self {
        Self {
            label: label.into(),
            config,
            chip_count,
            interconnect: Interconnect::default(),
        }
    }

    /// `chip_count` copies of a named architecture preset.
    pub fn preset(preset: ArchPreset, chip_count: usize) -> Self {
        Self::new(preset.name(), preset.config(), chip_count)
    }

    /// Returns a copy with a different interconnect.
    pub fn with_interconnect(mut self, interconnect: Interconnect) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Checks the spec end to end: at least one chip, a valid per-chip
    /// configuration, a physically meaningful interconnect.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.chip_count == 0 {
            return Err(ClusterError::NoChips);
        }
        self.config.validate().map_err(ClusterError::Config)?;
        self.interconnect.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_streaming() {
        let link = Interconnect::new(1e-6, 1e9);
        assert!((link.transfer_seconds(0) - 1e-6).abs() < 1e-18);
        assert!((link.transfer_seconds(2_000_000_000) - 2.000001).abs() < 1e-9);
    }

    #[test]
    fn named_links_are_ordered_by_bandwidth() {
        assert!(
            Interconnect::pcie_gen5().bytes_per_sec < Interconnect::nvlink_class().bytes_per_sec
        );
        for link in [Interconnect::pcie_gen5(), Interconnect::nvlink_class()] {
            link.validate().unwrap();
        }
    }

    #[test]
    fn invalid_links_are_rejected() {
        assert!(Interconnect::new(-1.0, 1e9).validate().is_err());
        assert!(Interconnect::new(0.0, 0.0).validate().is_err());
        assert!(Interconnect::new(f64::NAN, 1e9).validate().is_err());
        assert!(Interconnect::new(0.0, f64::INFINITY).validate().is_err());
    }

    #[test]
    fn spec_validation_covers_chips_config_and_link() {
        let good = ChipSpec::preset(ArchPreset::Bts, 2);
        good.validate().unwrap();
        assert_eq!(good.label, "bts");

        let none = ChipSpec::preset(ArchPreset::Bts, 0);
        assert!(matches!(none.validate(), Err(ClusterError::NoChips)));

        let mut bad_config = BtsConfig::bts_default();
        bad_config.lsub = 0;
        let bad = ChipSpec::new("broken", bad_config, 2);
        assert!(matches!(bad.validate(), Err(ClusterError::Config(_))));

        let bad_link =
            ChipSpec::preset(ArchPreset::Fab, 2).with_interconnect(Interconnect::new(0.0, -5.0));
        assert!(matches!(
            bad_link.validate(),
            Err(ClusterError::Interconnect { .. })
        ));
    }
}
