/// Performance numbers of one platform, as reported in the paper: a prior
/// platform (the comparison points of Table 1, Table 5, Table 6 and Fig. 6),
/// or BTS itself on one Table 4 instance — what the simulator's numbers are
/// held to (the `fidelity` section of `BENCH_FIGURES.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Platform name.
    pub name: &'static str,
    /// Platform class (CPU / GPU / FPGA / ASIC).
    pub platform: &'static str,
    /// Ring degree the platform targets (Table 1).
    pub log_n: u32,
    /// Whether the platform supports (packed) bootstrapping.
    pub bootstrappable: bool,
    /// Slots refreshed per bootstrap (Table 1), if bootstrappable.
    pub slots_per_bootstrap: Option<usize>,
    /// Amortized multiplication time per slot in microseconds (Fig. 6), if
    /// reported or derivable.
    pub tmult_a_slot_us: Option<f64>,
    /// HELR training time per iteration in ms (Table 5).
    pub helr_ms_per_iter: Option<f64>,
    /// ResNet-20 inference latency in seconds (Table 6).
    pub resnet20_s: Option<f64>,
    /// Sorting (2^14 elements) time in seconds (Table 6).
    pub sorting_s: Option<f64>,
    /// Bootstraps of one ResNet-20 inference (Table 6).
    pub resnet20_bootstraps: Option<usize>,
    /// Bootstraps of one sort (Table 6).
    pub sorting_bootstraps: Option<usize>,
}

/// Unencrypted CPU baseline for HELR (per iteration, ms): the paper states
/// FHE-on-BTS HELR is 141× slower than the unencrypted run.
pub const UNENCRYPTED_HELR_MS: f64 = 28.4 / 141.0;

/// Unencrypted CPU baseline for ResNet-20 inference (seconds): FHE-on-BTS is
/// 440× slower than the unencrypted run (§6.3 "Slowdown of FHE").
pub const UNENCRYPTED_RESNET_S: f64 = 1.91 / 440.0;

/// The set of prior-work baselines used across the evaluation, and BTS's own
/// published numbers per instance.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSet {
    baselines: Vec<Baseline>,
    bts: Vec<Baseline>,
}

impl BaselineSet {
    /// The baselines reported in the paper, and BTS's own numbers: per
    /// instance its HELR time (Table 5) and bootstrap counts (Table 6), the
    /// best T_mult,a/slot on INS-2 (Fig. 6) and the ResNet-20 and sorting
    /// times on INS-1 (Table 6).
    pub fn paper() -> Self {
        let bts = |name, helr_ms, resnet20_bootstraps, sorting_bootstraps| Baseline {
            name,
            platform: "ASIC",
            log_n: 17,
            bootstrappable: true,
            slots_per_bootstrap: Some(65_536),
            tmult_a_slot_us: None,
            helr_ms_per_iter: Some(helr_ms),
            resnet20_s: None,
            sorting_s: None,
            resnet20_bootstraps: Some(resnet20_bootstraps),
            sorting_bootstraps: Some(sorting_bootstraps),
        };
        Self {
            bts: vec![
                Baseline {
                    resnet20_s: Some(1.91),
                    sorting_s: Some(15.6),
                    ..bts("INS-1", 39.9, 53, 521)
                },
                Baseline {
                    tmult_a_slot_us: Some(0.0455),
                    ..bts("INS-2", 28.4, 22, 306)
                },
                bts("INS-3", 43.5, 19, 229),
            ],
            baselines: vec![
                Baseline {
                    name: "Lattigo",
                    platform: "CPU",
                    log_n: 16,
                    bootstrappable: true,
                    slots_per_bootstrap: Some(32_768),
                    tmult_a_slot_us: Some(101.8), // 45.5 ns × 2237
                    helr_ms_per_iter: Some(37_050.0 / 30.0),
                    resnet20_s: Some(10_602.0),
                    sorting_s: Some(23_066.0),
                    resnet20_bootstraps: None,
                    sorting_bootstraps: None,
                },
                Baseline {
                    name: "100x",
                    platform: "GPU",
                    log_n: 17,
                    bootstrappable: true,
                    slots_per_bootstrap: Some(65_536),
                    tmult_a_slot_us: Some(0.743),
                    helr_ms_per_iter: Some(775.0 / 30.0),
                    resnet20_s: None,
                    sorting_s: None,
                    resnet20_bootstraps: None,
                    sorting_bootstraps: None,
                },
                Baseline {
                    name: "F1",
                    platform: "ASIC",
                    log_n: 14,
                    bootstrappable: false, // single-slot only
                    slots_per_bootstrap: Some(1),
                    tmult_a_slot_us: Some(101.8 * 2.5), // 2.5× slower than Lattigo (§6.3)
                    helr_ms_per_iter: Some(1_024.0 / 30.0),
                    resnet20_s: None,
                    sorting_s: None,
                    resnet20_bootstraps: None,
                    sorting_bootstraps: None,
                },
                Baseline {
                    name: "F1+",
                    platform: "ASIC (scaled)",
                    log_n: 14,
                    bootstrappable: false,
                    slots_per_bootstrap: Some(1),
                    tmult_a_slot_us: Some(0.0455 * 824.0), // 824× slower than BTS best
                    helr_ms_per_iter: Some(148.0 / 30.0),
                    resnet20_s: None,
                    sorting_s: None,
                    resnet20_bootstraps: None,
                    sorting_bootstraps: None,
                },
            ],
        }
    }

    /// All prior-work baselines.
    pub fn all(&self) -> &[Baseline] {
        &self.baselines
    }

    /// BTS's published numbers on the instance named `instance` (`"INS-1"`,
    /// `"INS-2"` or `"INS-3"`).
    pub fn bts(&self, instance: &str) -> Option<&Baseline> {
        self.bts.iter().find(|b| b.name == instance)
    }

    /// Looks a prior-work baseline up by name.
    pub fn get(&self, name: &str) -> Option<&Baseline> {
        self.baselines.iter().find(|b| b.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_contains_the_four_comparison_points() {
        let set = BaselineSet::paper();
        for name in ["Lattigo", "100x", "F1", "F1+"] {
            assert!(set.get(name).is_some(), "missing {name}");
        }
        assert_eq!(set.all().len(), 4);
    }

    #[test]
    fn lattigo_numbers_match_the_tables() {
        let set = BaselineSet::paper();
        let lattigo = set.get("Lattigo").unwrap();
        assert!((lattigo.helr_ms_per_iter.unwrap() - 1235.0).abs() < 1.0);
        assert_eq!(lattigo.resnet20_s, Some(10_602.0));
        assert_eq!(lattigo.sorting_s, Some(23_066.0));
        assert!(lattigo.bootstrappable);
    }

    #[test]
    fn f1_is_single_slot_and_slower_than_lattigo_per_slot() {
        let set = BaselineSet::paper();
        let f1 = set.get("F1").unwrap();
        let lattigo = set.get("Lattigo").unwrap();
        assert_eq!(f1.slots_per_bootstrap, Some(1));
        assert!(f1.tmult_a_slot_us.unwrap() > lattigo.tmult_a_slot_us.unwrap());
    }

    #[test]
    fn bts_rows_carry_the_papers_own_numbers() {
        let set = BaselineSet::paper();
        let helr: Vec<_> = ["INS-1", "INS-2", "INS-3"]
            .map(|ins| set.bts(ins).and_then(|b| b.helr_ms_per_iter))
            .into();
        assert_eq!(helr, [Some(39.9), Some(28.4), Some(43.5)]);
        let best = set.bts("INS-2").and_then(|b| b.tmult_a_slot_us).unwrap();
        let lattigo = set.get("Lattigo").and_then(|b| b.tmult_a_slot_us).unwrap();
        assert!((lattigo / best - 2237.0).abs() < 1.0, "Fig. 6: 2,237x");
        assert!(set.get("INS-1").is_none(), "BTS is not a prior baseline");
    }

    #[test]
    fn slowdown_constants_are_consistent_with_the_paper() {
        // HELR on BTS (28.4 ms/iter) is 141× slower than unencrypted;
        // ResNet-20 (1.91 s) is 440× slower.
        assert!((28.4 / UNENCRYPTED_HELR_MS - 141.0).abs() < 1.0);
        assert!((1.91 / UNENCRYPTED_RESNET_S - 440.0).abs() < 1.0);
    }
}
