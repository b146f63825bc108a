//! # bts-workloads
//!
//! The BTS evaluation workloads (§6.2), each expressed as an
//! [`bts_circuit::HeCircuit`] through the [`Workload`] trait:
//!
//! * [`BootstrapWorkload`] — one CKKS bootstrapping invocation (Han–Ki style,
//!   L_boot = 19),
//! * [`AmortizedMultWorkload`] — the microbenchmark behind `T_mult,a/slot`,
//! * [`HelrWorkload`] — HELR logistic-regression training (1,024 MNIST images
//!   × 30 iterations),
//! * [`ResNetWorkload`] — ResNet-20 inference with channel packing,
//! * [`SortingWorkload`] — 2-way sorting-network sorting of 2^14 elements,
//!
//! plus the reported baseline numbers (Lattigo CPU, 100x GPU, F1, F1+) used
//! by Tables 1/5/6 and Fig. 6.
//!
//! One circuit, two backends: lowering a workload with the
//! [`bts_circuit::TraceBackend`] (see [`Workload::lower`]) yields the
//! `bts_sim::OpTrace` the accelerator simulator executes — bootstrap markers,
//! placed from the instance's usable level budget, expand into full bootstrap
//! op sequences, which is how the per-instance bootstrap counts of Table 6
//! arise. Executing the *same* circuit with the
//! [`bts_circuit::FunctionalBackend`] runs it on real RNS ciphertexts, so op
//! counts can be cross-checked between the cost and functional sides.
//! [`standard_registry`] exposes all five workloads by name.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod amortized;
mod baselines;
mod bootstrap;
mod helr;
mod resnet;
mod shapes;
mod sorting;

pub use amortized::{amortized_mult_per_slot, amortized_seconds_per_slot, AmortizedMultWorkload};
pub use baselines::{Baseline, BaselineSet, UNENCRYPTED_HELR_MS, UNENCRYPTED_RESNET_S};
pub use bootstrap::BootstrapWorkload;
pub use helr::{HelrConfig, HelrWorkload};
pub use resnet::{ResNetConfig, ResNetWorkload};
pub use sorting::{SortingConfig, SortingWorkload};

// Re-exported so downstream code that consumes workloads can name the
// circuit-pipeline types without a separate dependency.
pub use bts_circuit::{
    BootstrapPlan, HeCircuit, HeInstr, LoweredTrace, Workload, WorkloadRegistry,
};

/// All five evaluation workloads with their paper-default configurations,
/// keyed by name (`"amortized-mult"`, `"bootstrap"`, `"helr"`, `"resnet20"`,
/// `"sorting"`).
pub fn standard_registry() -> WorkloadRegistry {
    let mut registry = WorkloadRegistry::new();
    registry.register(Box::new(BootstrapWorkload));
    registry.register(Box::new(AmortizedMultWorkload));
    registry.register(Box::new(HelrWorkload::default()));
    registry.register(Box::new(ResNetWorkload::default()));
    registry.register(Box::new(SortingWorkload::default()));
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_params::CkksInstance;

    #[test]
    fn standard_registry_lists_the_five_paper_workloads() {
        let registry = standard_registry();
        assert_eq!(
            registry.names(),
            vec!["amortized-mult", "bootstrap", "helr", "resnet20", "sorting"]
        );
        // Every workload lowers for every evaluation instance.
        for ins in CkksInstance::evaluation_set() {
            for (name, workload) in registry.iter() {
                let lowered = workload
                    .lower(&ins)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", ins.name()));
                assert!(!lowered.trace.is_empty(), "{name}");
                assert!(lowered.trace.validate().is_ok(), "{name}");
            }
        }
    }
}
