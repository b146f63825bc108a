/// Area and peak power of one named component (one row of Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentCost {
    /// Component name, matching the paper's Table 3 rows.
    pub name: &'static str,
    /// Area in mm² (chip-level aggregate).
    pub area_mm2: f64,
    /// Peak power in W (chip-level aggregate).
    pub power_w: f64,
}

/// Analytical area/power model of the BTS chip, seeded with the per-component
/// numbers published in Table 3 and scaled with the scratchpad capacity for
/// the Fig. 10 sweep.
///
/// This replaces the paper's ASAP7 synthesis + FinCACTI flow (see DESIGN.md's
/// substitution table); the evaluation only consumes the resulting aggregate
/// area, power and EDAP values.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerModel {
    pe_count: usize,
    scratchpad_bytes: u64,
}

/// Table 3 per-PE figures (area in µm², power in mW) at the default 256 KiB of
/// scratchpad per PE.
const PE_SCRATCHPAD_AREA_UM2: f64 = 114_724.0;
const PE_SCRATCHPAD_POWER_MW: f64 = 9.86;
const PE_RF_AREA_UM2: f64 = 12_479.0;
const PE_RF_POWER_MW: f64 = 2.29;
const PE_NTTU_AREA_UM2: f64 = 9_501.0;
const PE_NTTU_POWER_MW: f64 = 12.17;
const PE_BCONV_MODMULT_AREA_UM2: f64 = 4_070.0;
const PE_BCONV_MODMULT_POWER_MW: f64 = 0.56;
const PE_MMAU_AREA_UM2: f64 = 9_511.0;
const PE_MMAU_POWER_MW: f64 = 8.42;
const PE_EXCHANGE_AREA_UM2: f64 = 421.0;
const PE_EXCHANGE_POWER_MW: f64 = 1.03;
const PE_MODMULT_AREA_UM2: f64 = 3_833.0;
const PE_MODMULT_POWER_MW: f64 = 1.35;
const PE_MODADD_AREA_UM2: f64 = 325.0;
const PE_MODADD_POWER_MW: f64 = 0.08;

/// Table 3 chip-level figures for the non-PE components.
const NOC_AREA_MM2: f64 = 3.06;
const NOC_POWER_W: f64 = 45.93;
const GLOBAL_BRU_AREA_MM2: f64 = 0.42;
const GLOBAL_BRU_POWER_W: f64 = 0.10;
const LOCAL_BRU_AREA_MM2: f64 = 3.69;
const LOCAL_BRU_POWER_W: f64 = 0.04;
const HBM_NOC_AREA_MM2: f64 = 0.10;
const HBM_NOC_POWER_W: f64 = 6.81;
const HBM_AREA_MM2: f64 = 29.6;
const HBM_POWER_W: f64 = 31.76;
const PCIE_AREA_MM2: f64 = 19.6;
const PCIE_POWER_W: f64 = 5.37;

/// Reference scratchpad capacity the per-PE Table 3 numbers correspond to.
const REFERENCE_SCRATCHPAD_BYTES: u64 = 512 * 1024 * 1024;

impl AreaPowerModel {
    /// Model of the paper's BTS configuration (2,048 PEs, 512 MiB scratchpad).
    pub fn bts_default() -> Self {
        Self {
            pe_count: 2048,
            scratchpad_bytes: REFERENCE_SCRATCHPAD_BYTES,
        }
    }

    /// Model with a different total scratchpad capacity (Fig. 10 sweep);
    /// scratchpad area and power scale linearly with capacity.
    pub fn with_scratchpad_bytes(mut self, bytes: u64) -> Self {
        self.scratchpad_bytes = bytes;
        self
    }

    fn scratchpad_scale(&self) -> f64 {
        self.scratchpad_bytes as f64 / REFERENCE_SCRATCHPAD_BYTES as f64
    }

    /// Area of one PE in µm².
    pub fn pe_area_um2(&self) -> f64 {
        PE_SCRATCHPAD_AREA_UM2 * self.scratchpad_scale()
            + PE_RF_AREA_UM2
            + PE_NTTU_AREA_UM2
            + PE_BCONV_MODMULT_AREA_UM2
            + PE_MMAU_AREA_UM2
            + PE_EXCHANGE_AREA_UM2
            + PE_MODMULT_AREA_UM2
            + PE_MODADD_AREA_UM2
    }

    /// Peak power of one PE in mW.
    pub fn pe_power_mw(&self) -> f64 {
        PE_SCRATCHPAD_POWER_MW * self.scratchpad_scale()
            + PE_RF_POWER_MW
            + PE_NTTU_POWER_MW
            + PE_BCONV_MODMULT_POWER_MW
            + PE_MMAU_POWER_MW
            + PE_EXCHANGE_POWER_MW
            + PE_MODMULT_POWER_MW
            + PE_MODADD_POWER_MW
    }

    /// Total chip area in mm² (Table 3 bottom).
    pub fn total_area_mm2(&self) -> f64 {
        self.pe_count as f64 * self.pe_area_um2() / 1e6
            + NOC_AREA_MM2
            + GLOBAL_BRU_AREA_MM2
            + LOCAL_BRU_AREA_MM2
            + HBM_NOC_AREA_MM2
            + HBM_AREA_MM2
            + PCIE_AREA_MM2
    }

    /// Total peak power in W (Table 3 bottom).
    pub fn total_power_w(&self) -> f64 {
        self.pe_count as f64 * self.pe_power_mw() / 1e3
            + NOC_POWER_W
            + GLOBAL_BRU_POWER_W
            + LOCAL_BRU_POWER_W
            + HBM_NOC_POWER_W
            + HBM_POWER_W
            + PCIE_POWER_W
    }

    /// The full Table 3: per-PE components followed by chip-level components
    /// and the total.
    pub fn table3(&self) -> Vec<ComponentCost> {
        let pe = self.pe_count as f64;
        let row = |name, area_um2: f64, power_mw: f64| ComponentCost {
            name,
            area_mm2: pe * area_um2 / 1e6,
            power_w: pe * power_mw / 1e3,
        };
        vec![
            row(
                "Scratchpad SRAM",
                PE_SCRATCHPAD_AREA_UM2 * self.scratchpad_scale(),
                PE_SCRATCHPAD_POWER_MW * self.scratchpad_scale(),
            ),
            row("RFs", PE_RF_AREA_UM2, PE_RF_POWER_MW),
            row("NTTU", PE_NTTU_AREA_UM2, PE_NTTU_POWER_MW),
            row(
                "ModMult (BConvU)",
                PE_BCONV_MODMULT_AREA_UM2,
                PE_BCONV_MODMULT_POWER_MW,
            ),
            row("MMAU (BConvU)", PE_MMAU_AREA_UM2, PE_MMAU_POWER_MW),
            row("Exchange unit", PE_EXCHANGE_AREA_UM2, PE_EXCHANGE_POWER_MW),
            row("ModMult", PE_MODMULT_AREA_UM2, PE_MODMULT_POWER_MW),
            row("ModAdd", PE_MODADD_AREA_UM2, PE_MODADD_POWER_MW),
            ComponentCost {
                name: "Inter-PE NoC",
                area_mm2: NOC_AREA_MM2,
                power_w: NOC_POWER_W,
            },
            ComponentCost {
                name: "Global BrU + NoC",
                area_mm2: GLOBAL_BRU_AREA_MM2,
                power_w: GLOBAL_BRU_POWER_W,
            },
            ComponentCost {
                name: "128 local BrUs",
                area_mm2: LOCAL_BRU_AREA_MM2,
                power_w: LOCAL_BRU_POWER_W,
            },
            ComponentCost {
                name: "HBM2e NoC",
                area_mm2: HBM_NOC_AREA_MM2,
                power_w: HBM_NOC_POWER_W,
            },
            ComponentCost {
                name: "2 HBM2e stacks",
                area_mm2: HBM_AREA_MM2,
                power_w: HBM_POWER_W,
            },
            ComponentCost {
                name: "PCIe5x16 interface",
                area_mm2: PCIE_AREA_MM2,
                power_w: PCIE_POWER_W,
            },
            ComponentCost {
                name: "Total",
                area_mm2: self.total_area_mm2(),
                power_w: self.total_power_w(),
            },
        ]
    }

    /// Energy in joules for a run of `seconds` with the given average
    /// utilizations of the NTTUs, BConvUs, HBM and element-wise units.
    /// Idle components draw a 20% static floor of their peak power.
    pub fn energy_joules(
        &self,
        seconds: f64,
        ntt_util: f64,
        bconv_util: f64,
        hbm_util: f64,
        elementwise_util: f64,
    ) -> f64 {
        const STATIC_FRACTION: f64 = 0.2;
        let pe = self.pe_count as f64 / 1e3; // mW → W conversion folded in
        let dynamic = |peak_w: f64, util: f64| {
            peak_w * (STATIC_FRACTION + (1.0 - STATIC_FRACTION) * util.clamp(0.0, 1.0))
        };
        let ntt_w = dynamic(pe * PE_NTTU_POWER_MW, ntt_util);
        let bconv_w = dynamic(
            pe * (PE_MMAU_POWER_MW + PE_BCONV_MODMULT_POWER_MW),
            bconv_util,
        );
        let elementwise_w = dynamic(
            pe * (PE_MODMULT_POWER_MW + PE_MODADD_POWER_MW),
            elementwise_util,
        );
        let sram_w = dynamic(
            pe * (PE_SCRATCHPAD_POWER_MW * self.scratchpad_scale() + PE_RF_POWER_MW),
            (ntt_util + bconv_util) / 2.0,
        );
        let noc_w = dynamic(
            NOC_POWER_W + GLOBAL_BRU_POWER_W + LOCAL_BRU_POWER_W + HBM_NOC_POWER_W,
            ntt_util,
        );
        let hbm_w = dynamic(HBM_POWER_W, hbm_util);
        let other_w = dynamic(PCIE_POWER_W + pe * PE_EXCHANGE_POWER_MW, 0.1);
        seconds * (ntt_w + bconv_w + elementwise_w + sram_w + noc_w + hbm_w + other_w)
    }
}

impl Default for AreaPowerModel {
    fn default() -> Self {
        Self::bts_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_totals_match_paper() {
        let m = AreaPowerModel::bts_default();
        // Paper: 373.6 mm², 163.2 W.
        assert!(
            (m.total_area_mm2() - 373.6).abs() < 2.0,
            "area = {}",
            m.total_area_mm2()
        );
        assert!(
            (m.total_power_w() - 163.2).abs() < 2.0,
            "power = {}",
            m.total_power_w()
        );
        // Per-PE: 154,863 µm², 35.75 mW.
        assert!((m.pe_area_um2() - 154_863.0).abs() < 10.0);
        assert!((m.pe_power_mw() - 35.75).abs() < 0.05);
    }

    #[test]
    fn pe_array_row_matches_paper() {
        let m = AreaPowerModel::bts_default();
        let pes_area: f64 = m.table3().iter().take(8).map(|c| c.area_mm2).sum();
        let pes_power: f64 = m.table3().iter().take(8).map(|c| c.power_w).sum();
        assert!((pes_area - 317.2).abs() < 1.0, "2048 PE area = {pes_area}");
        assert!(
            (pes_power - 73.21).abs() < 0.5,
            "2048 PE power = {pes_power}"
        );
    }

    #[test]
    fn scratchpad_scaling_moves_area_and_power() {
        let small = AreaPowerModel::bts_default().with_scratchpad_bytes(192 * 1024 * 1024);
        let big = AreaPowerModel::bts_default().with_scratchpad_bytes(1024 * 1024 * 1024);
        assert!(small.total_area_mm2() < AreaPowerModel::bts_default().total_area_mm2());
        assert!(big.total_area_mm2() > AreaPowerModel::bts_default().total_area_mm2());
        assert!(big.total_power_w() > small.total_power_w());
    }

    #[test]
    fn energy_is_monotone_in_utilization_and_bounded_by_peak() {
        let m = AreaPowerModel::bts_default();
        let low = m.energy_joules(1.0, 0.1, 0.1, 0.1, 0.1);
        let high = m.energy_joules(1.0, 0.9, 0.9, 0.9, 0.9);
        assert!(high > low);
        assert!(high <= m.total_power_w() * 1.0 * 1.05);
        assert!(low > 0.0);
    }
}
