use bts_circuit::{CircuitError, HeCircuit, Workload};
use bts_params::CkksInstance;

use crate::shapes::AppCircuit;

/// Configuration of the HELR logistic-regression training workload \[39\]:
/// binary classification on MNIST, 30 iterations, 1,024 images of 14×14
/// pixels per batch (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelrConfig {
    /// Training iterations.
    pub iterations: usize,
    /// Images per batch.
    pub batch: usize,
    /// Features per image (14×14 pixels).
    pub features: usize,
}

impl Default for HelrConfig {
    fn default() -> Self {
        Self {
            iterations: 30,
            batch: 1024,
            features: 196,
        }
    }
}

/// The HELR training workload as an [`HeCircuit`] generator.
///
/// Each iteration computes the encrypted gradient: an inner product of the
/// packed image batch with the weight vector (rotate-and-accumulate over
/// log2(features) + log2(batch-lanes) steps), a degree-3 polynomial sigmoid
/// approximation, and the weight update — about 8 multiplicative levels per
/// iteration. Bootstrap markers are inserted whenever the level budget runs
/// out: INS-1's 8 usable levels force two refreshes per iteration (one up
/// front plus one inside the weight update), while INS-2/INS-3 refresh
/// roughly every other iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HelrWorkload {
    /// The training configuration.
    pub config: HelrConfig,
}

impl HelrWorkload {
    /// A workload with an explicit configuration.
    pub fn new(config: HelrConfig) -> Self {
        Self { config }
    }
}

impl Workload for HelrWorkload {
    fn name(&self) -> &str {
        "helr"
    }

    fn build(&self, instance: &CkksInstance) -> Result<HeCircuit, CircuitError> {
        let config = self.config;
        let mut app = AppCircuit::new(instance);
        let rot_steps = (config.features.next_power_of_two().trailing_zeros()
            + (config
                .batch
                .min(instance.slots() / config.features.next_power_of_two()))
            .next_power_of_two()
            .trailing_zeros()) as usize;
        for _ in 0..config.iterations {
            // X·w inner product: rotate-and-accumulate plus masking.
            app.ensure(8)?;
            app.rotate_mac_level(rot_steps / 2, rot_steps / 2 + 2)?;
            app.rotate_mac_level(rot_steps - rot_steps / 2, rot_steps / 2 + 2)?;
            // Sigmoid: degree-3 least-squares polynomial (2 levels).
            app.poly_eval(2, 2)?;
            // Gradient aggregation across the batch and weight update.
            app.rotate_mac_level(rot_steps / 2, rot_steps / 2)?;
            app.mult_level()?;
            app.mult_level()?;
            // Learning-rate scaling + weight accumulation.
            app.poly_eval(1, 1)?;
        }
        Ok(app.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_circuit::PassPipeline;
    use bts_sim::{BtsConfig, Simulator};

    #[test]
    fn helr_per_iteration_time_is_tens_of_ms_on_bts() {
        // Table 5: 39.9 / 28.4 / 43.5 ms per iteration on INS-1/2/3, and
        // INS-2 is the fastest. (Each instance's distance from the paper is
        // a `fidelity` row that `bts-bench` gates.)
        let mut times = Vec::new();
        for ins in CkksInstance::evaluation_set() {
            let lowered = HelrWorkload::default().lower(&ins).unwrap();
            let report = Simulator::new(BtsConfig::bts_default(), ins.clone()).run(&lowered.trace);
            let ms_per_iter = report.total_seconds * 1e3 / 30.0;
            times.push((ins.name().to_string(), ms_per_iter));
        }
        let get = |n: &str| times.iter().find(|(name, _)| name == n).unwrap().1;
        assert!(get("INS-2") < get("INS-1"));
    }

    #[test]
    fn deeper_instances_bootstrap_less() {
        let w = HelrWorkload::default();
        let b1 = w.lower(&CkksInstance::ins1()).unwrap().bootstrap_count;
        let b3 = w.lower(&CkksInstance::ins3()).unwrap().bootstrap_count;
        assert!(b1 > b3);
        assert!(b1 >= 20, "INS-1 should bootstrap most iterations, got {b1}");
    }

    #[test]
    fn trace_is_nontrivial() {
        let lowered = HelrWorkload::default()
            .lower(&CkksInstance::ins2())
            .unwrap();
        assert!(lowered.trace.key_switch_count() > 500);
        assert!(lowered.trace.rotation_keys() > 5);
        assert!(lowered.trace.validate().is_ok());
    }

    #[test]
    fn circuit_and_trace_agree_on_bootstrap_count() {
        // `lower` charges the optimized circuit: its markers, not the
        // builder's, are the trace's expansions.
        let ins = CkksInstance::ins1();
        let w = HelrWorkload::default();
        let circuit = PassPipeline::standard()
            .optimize(&w.build(&ins).unwrap())
            .unwrap();
        let lowered = w.lower(&ins).unwrap();
        assert_eq!(circuit.bootstrap_count(), lowered.bootstrap_count);
    }
}
