use bts_circuit::{CircuitError, HeCircuit, Workload};
use bts_params::CkksInstance;

use crate::shapes::AppCircuit;

/// Configuration of the homomorphic sorting workload \[42\]: a 2-way bitonic
/// sorting network over 2^14 elements, with each comparison realized by a
/// deep composite polynomial approximation of the sign function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortingConfig {
    /// log2 of the number of elements to sort (14 in the paper).
    pub log_elements: u32,
    /// Multiplicative depth of one approximate comparison (composite minimax
    /// sign polynomials are ~40-50 levels deep at 2^-20 precision).
    pub comparison_depth: usize,
}

impl Default for SortingConfig {
    fn default() -> Self {
        Self {
            log_elements: 14,
            comparison_depth: 45,
        }
    }
}

/// The sorting workload as an [`HeCircuit`] generator: a bitonic network with
/// `log2(n)·(log2(n)+1)/2` compare-exchange stages, each consisting of a
/// rotation to align partners, a deep sign-polynomial evaluation and the
/// min/max recombination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortingWorkload {
    /// The sorting configuration.
    pub config: SortingConfig,
}

impl SortingWorkload {
    /// A workload with an explicit configuration.
    pub fn new(config: SortingConfig) -> Self {
        Self { config }
    }
}

impl Workload for SortingWorkload {
    fn name(&self) -> &str {
        "sorting"
    }

    fn build(&self, instance: &CkksInstance) -> Result<HeCircuit, CircuitError> {
        let config = self.config;
        let stages = (config.log_elements * (config.log_elements + 1) / 2) as usize;
        let mut app = AppCircuit::new(instance);
        for _stage in 0..stages {
            // Align compare partners and mask the two halves.
            app.rotate_mac_level(2, 2)?;
            // Approximate sign(x - y): deep composite polynomial.
            app.poly_eval(config.comparison_depth, 1)?;
            // min/max recombination: two PMults and adds plus one level.
            app.rotate_mac_level(1, 3)?;
        }
        Ok(app.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_sim::{BtsConfig, Simulator};

    #[test]
    fn bootstrap_counts_are_hundreds_and_fall_with_level_budget() {
        // Table 6: 521 / 306 / 229 bootstraps on INS-1/2/3. (Each count's
        // distance from the paper's is a `fidelity` row that `bts-bench`
        // gates.)
        let counts: Vec<usize> = CkksInstance::evaluation_set()
            .iter()
            .map(|ins| {
                SortingWorkload::default()
                    .lower(ins)
                    .unwrap()
                    .bootstrap_count
            })
            .collect();
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
    }

    #[test]
    fn sorting_latency_is_tens_of_seconds() {
        // Table 6: 15.6 s on INS-1 (how far ours is from it is a `fidelity`
        // row that `bts-bench` gates).
        let ins = CkksInstance::ins1();
        let lowered = SortingWorkload::default().lower(&ins).unwrap();
        let report = Simulator::new(BtsConfig::bts_default(), ins).run(&lowered.trace);
        // Bootstrapping dominates sorting (Fig. 7b shows ~90%+).
        assert!(report.bootstrap_fraction() > 0.5);
    }

    #[test]
    fn stage_count_matches_bitonic_network() {
        let lowered = SortingWorkload::new(SortingConfig {
            log_elements: 4,
            comparison_depth: 10,
        })
        .lower(&CkksInstance::ins2())
        .unwrap();
        // 4·5/2 = 10 stages; each stage has at least one HMult from poly_eval.
        assert!(lowered.trace.key_switch_count() >= 10);
    }
}
