use bts_circuit::{CircuitError, HeCircuit, Workload};
use bts_params::CkksInstance;

use crate::shapes::AppCircuit;

/// Configuration of the homomorphic ResNet-20 inference workload \[59\] with the
/// channel-packing optimization of GAZELLE \[50\] (§6.2/§6.3): CIFAR-10
/// classification, all feature-map channels packed into a single ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Number of convolutional layers (20 for ResNet-20).
    pub conv_layers: usize,
    /// Rotations per homomorphic convolution (kernel positions × packing
    /// shifts; 3×3 kernels with channel packing need ~30 rotations).
    pub rotations_per_conv: usize,
    /// Multiplicative depth of the ReLU polynomial approximation (high-degree
    /// minimax composition, ≈14 levels \[57\]).
    pub relu_depth: usize,
    /// Whether channel packing is used (disabling it multiplies the per-layer
    /// work, matching the 17.8× gain the paper attributes to packing).
    pub channel_packing: bool,
}

impl Default for ResNetConfig {
    fn default() -> Self {
        Self {
            conv_layers: 20,
            rotations_per_conv: 30,
            relu_depth: 14,
            channel_packing: true,
        }
    }
}

/// The ResNet-20 inference workload as an [`HeCircuit`] generator: per layer
/// a homomorphic convolution (rotate–multiply–accumulate groups), a
/// batch-norm/scale level and a deep polynomial ReLU, followed by average
/// pooling and the final fully connected layer. Bootstrap markers are
/// inserted on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResNetWorkload {
    /// The inference configuration.
    pub config: ResNetConfig,
}

impl ResNetWorkload {
    /// A workload with an explicit configuration.
    pub fn new(config: ResNetConfig) -> Self {
        Self { config }
    }
}

impl Workload for ResNetWorkload {
    fn name(&self) -> &str {
        "resnet20"
    }

    fn build(&self, instance: &CkksInstance) -> Result<HeCircuit, CircuitError> {
        let config = self.config;
        let mut app = AppCircuit::new(instance);
        // Without channel packing the feature maps of a layer span ~8 separate
        // ciphertexts, so every per-layer stage — convolution, batch-norm and
        // the polynomial ReLU — repeats once per ciphertext (this working-set
        // blow-up is what the paper's 17.8× packing gain removes).
        let ct_repeats = if config.channel_packing { 1 } else { 8 };
        for _layer in 0..config.conv_layers {
            for _ in 0..ct_repeats {
                // Convolution: rotate/PMult/accumulate, two levels (mask + combine).
                app.rotate_mac_level(config.rotations_per_conv / 2, config.rotations_per_conv / 2)?;
                app.rotate_mac_level(
                    config.rotations_per_conv - config.rotations_per_conv / 2,
                    config.rotations_per_conv / 2,
                )?;
                // Batch-norm / residual scaling.
                app.poly_eval(1, 1)?;
                // ReLU: high-degree minimax polynomial composition.
                app.poly_eval(config.relu_depth, 2)?;
            }
        }
        // Average pooling + fully connected layer.
        app.rotate_mac_level(10, 10)?;
        app.mult_level()?;
        Ok(app.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_sim::{BtsConfig, Simulator};

    #[test]
    fn bootstrap_counts_fall_with_deeper_instances() {
        // Table 6: 53 / 22 / 19 bootstraps on INS-1/2/3.
        let counts: Vec<usize> = CkksInstance::evaluation_set()
            .iter()
            .map(|ins| {
                ResNetWorkload::default()
                    .lower(ins)
                    .unwrap()
                    .bootstrap_count
            })
            .collect();
        assert!(
            counts[0] > counts[1] && counts[1] >= counts[2],
            "{counts:?}"
        );
        assert!(
            (30..=80).contains(&counts[0]),
            "INS-1 bootstrap count {} should be in the vicinity of the paper's 53",
            counts[0]
        );
        assert!((15..=40).contains(&counts[1]));
    }

    #[test]
    fn inference_latency_is_seconds_scale() {
        // Table 6: 1.91 s on INS-1; our model should land within a small
        // factor. §6.3's ordering — INS-1 beats INS-3 at 512 MiB — holds with
        // the scratchpad run as the paper runs it (LRU), and only there: it
        // is LRU thrashing INS-3's 147 MiB ciphertext cache. Under the
        // reuse-code policy the thrash is gone and INS-3's longer level budget
        // wins (0.787 s against 0.814 s; 0.896 s under LRU), a labelled
        // departure from the paper.
        // (policy, LRU) seconds of one inference.
        let seconds = |ins: &CkksInstance| {
            let trace = ResNetWorkload::default().lower(ins).unwrap().trace;
            let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
            let lru = sim.try_run_lru(&trace).unwrap();
            (sim.run(&trace).total_seconds, lru.total_seconds)
        };
        let (t1, t1_lru) = seconds(&CkksInstance::ins1());
        let (t3, t3_lru) = seconds(&CkksInstance::ins3());
        assert!((0.5..8.0).contains(&t1), "INS-1 latency {t1} s");
        assert_eq!(t1, t1_lru, "INS-1's cache is ample under either policy");
        assert!(
            t1_lru < t3_lru,
            "as published: smaller dnum should win when bootstrapping is rare"
        );
        assert!(
            t3 < t1,
            "without LRU thrash INS-3 overtakes INS-1 on ResNet-20"
        );
    }

    #[test]
    fn channel_packing_gives_a_large_speedup() {
        // §6.3 attributes a 17.8× gain to channel packing.
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let packed = sim.run(&ResNetWorkload::default().lower(&ins).unwrap().trace);
        let unpacked_workload = ResNetWorkload::new(ResNetConfig {
            channel_packing: false,
            ..ResNetConfig::default()
        });
        let unpacked = sim.run(&unpacked_workload.lower(&ins).unwrap().trace);
        let gain = unpacked.total_seconds / packed.total_seconds;
        assert!(gain > 3.0, "packing speedup = {gain}");
    }
}
