//! Multi-instance sweeps as data: one registry-driven grid of
//! `(N, L, dnum, scratchpad, HBM)` points that the `sched`, `serve` and JSON
//! figures all consume, instead of each figure hand-rolling its own config
//! list. `(N, L, dnum)` travel inside the [`CkksInstance`]; scratchpad size
//! and HBM bandwidth span the hardware axes.

use bts_params::{BandwidthModel, CkksInstance};
use bts_sim::BtsConfig;

/// One hardware configuration of the grid, with a stable name for JSON keys
/// (`bts-1tb`, `bts-2tb`, `bts-256mib-1tb`, …).
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Stable key, used as the `config` field of every JSON row.
    pub name: String,
    /// Human-readable description for the JSON `configs` map.
    pub description: String,
    /// The configuration itself.
    pub config: BtsConfig,
}

/// A cartesian sweep grid: instances × scratchpad sizes × HBM bandwidths.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    instances: Vec<CkksInstance>,
    scratchpad_bytes: Vec<u64>,
    hbm: Vec<BandwidthModel>,
}

/// The paper's default scratchpad capacity (512 MiB), elided from config
/// names so the grid's JSON keys stay compatible with earlier schemas.
const DEFAULT_SCRATCHPAD: u64 = 512 * 1024 * 1024;

impl SweepGrid {
    /// An explicit grid.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty.
    fn new(
        instances: Vec<CkksInstance>,
        scratchpad_bytes: Vec<u64>,
        hbm: Vec<BandwidthModel>,
    ) -> Self {
        assert!(!instances.is_empty(), "grid needs at least one instance");
        assert!(
            !scratchpad_bytes.is_empty(),
            "grid needs at least one scratchpad size"
        );
        assert!(!hbm.is_empty(), "grid needs at least one HBM bandwidth");
        Self {
            instances,
            scratchpad_bytes,
            hbm,
        }
    }

    /// The grid the committed `BENCH_FIGURES.json` covers: the three Table 4
    /// instances, the 512 MiB design-point scratchpad, and the 1 TB/s design
    /// point plus the Fig. 9 2 TB/s ablation.
    pub fn paper_default() -> Self {
        Self::new(
            CkksInstance::evaluation_set(),
            vec![DEFAULT_SCRATCHPAD],
            vec![BandwidthModel::hbm_1tb(), BandwidthModel::hbm_2tb()],
        )
    }

    /// The instances of the grid.
    pub fn instances(&self) -> &[CkksInstance] {
        &self.instances
    }

    /// The hardware configurations of the grid (scratchpad × HBM cartesian),
    /// in deterministic axis order.
    pub fn configs(&self) -> Vec<GridConfig> {
        let mut out = Vec::with_capacity(self.scratchpad_bytes.len() * self.hbm.len());
        for &scratchpad in &self.scratchpad_bytes {
            for &hbm in &self.hbm {
                let tb = hbm.bytes_per_sec() / 1e12;
                let mib = scratchpad / (1024 * 1024);
                let name = if scratchpad == DEFAULT_SCRATCHPAD {
                    format!("bts-{}tb", trim_float(tb))
                } else {
                    format!("bts-{mib}mib-{}tb", trim_float(tb))
                };
                out.push(GridConfig {
                    name,
                    description: format!(
                        "BTS design point with {mib} MiB scratchpad, {} TB/s HBM",
                        trim_float(tb)
                    ),
                    config: BtsConfig::bts_default()
                        .with_scratchpad_bytes(scratchpad)
                        .with_hbm(hbm),
                });
            }
        }
        out
    }
}

/// `1.0 → "1"`, `1.5 → "1.5"` — keeps `bts-1tb` stable while allowing
/// fractional bandwidths in custom grids.
fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_grid_matches_the_committed_schema() {
        let grid = SweepGrid::paper_default();
        let configs = grid.configs();
        assert_eq!(
            configs.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            vec!["bts-1tb", "bts-2tb"]
        );
        let instances: Vec<&str> = grid.instances().iter().map(|i| i.name()).collect();
        assert_eq!(instances, ["INS-1", "INS-2", "INS-3"]);
    }

    #[test]
    fn non_default_scratchpads_get_distinct_names() {
        let grid = SweepGrid::new(
            vec![CkksInstance::ins1()],
            vec![256 * 1024 * 1024, 512 * 1024 * 1024],
            vec![BandwidthModel::hbm_1tb()],
        );
        let names: Vec<String> = grid.configs().into_iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["bts-256mib-1tb", "bts-1tb"]);
        for c in grid.configs() {
            assert!(!c.description.is_empty());
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        assert!(std::panic::catch_unwind(|| SweepGrid::new(
            vec![],
            vec![DEFAULT_SCRATCHPAD],
            vec![BandwidthModel::hbm_1tb()]
        ))
        .is_err());
    }
}
