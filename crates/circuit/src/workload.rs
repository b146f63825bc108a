use std::collections::BTreeMap;

use bts_params::CkksInstance;

use crate::compile::emit;
use crate::error::CircuitError;
use crate::ir::HeCircuit;
use crate::passes::PassPipeline;
use crate::trace_backend::{LoweredTrace, TraceBackend};

/// A named workload that can express itself as an [`HeCircuit`] for any
/// instance. This replaces the four divergent per-workload free functions the
/// evaluation used to hand-roll traces with: every scenario is now "build one
/// circuit", and both backends execute it.
pub trait Workload {
    /// Stable, human-readable workload name (e.g. `"resnet20"`).
    fn name(&self) -> &str;

    /// Builds the circuit for an instance.
    ///
    /// # Errors
    ///
    /// Fails when the instance cannot express the workload (e.g. a bootstrap
    /// is needed but the level budget is below `L_boot`).
    fn build(&self, instance: &CkksInstance) -> Result<HeCircuit, CircuitError>;

    /// The pair's one simulated program: the built circuit through
    /// [`PassPipeline::standard`] (its one check), compiled and lowered by
    /// the default [`TraceBackend`] (the bytecode's one check).
    ///
    /// # Errors
    ///
    /// Propagates circuit construction, pass and lowering failures.
    fn lower(&self, instance: &CkksInstance) -> Result<LoweredTrace, CircuitError> {
        let optimized = PassPipeline::standard().optimize(&self.build(instance)?)?;
        TraceBackend::new().lower_compiled(&emit(&optimized))
    }
}

/// A name-keyed collection of workloads, so drivers (the `figures` binary,
/// sweeps, future services) can enumerate scenarios without hard-coding each
/// one.
#[derive(Default)]
pub struct WorkloadRegistry {
    entries: BTreeMap<String, Box<dyn Workload>>,
}

impl std::fmt::Debug for WorkloadRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl WorkloadRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a workload under its own name, replacing any previous entry
    /// with the same name.
    pub fn register(&mut self, workload: Box<dyn Workload>) {
        self.entries.insert(workload.name().to_string(), workload);
    }

    /// Looks a workload up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Workload> {
        self.entries.get(name).map(|b| b.as_ref())
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Iterates over `(name, workload)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &dyn Workload)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_ref()))
    }

    /// Number of registered workloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    struct Square;

    impl Workload for Square {
        fn name(&self) -> &str {
            "square"
        }

        fn build(&self, instance: &CkksInstance) -> Result<HeCircuit, CircuitError> {
            let mut b = CircuitBuilder::new(instance);
            let x = b.input();
            let prod = b.hmult(x, x)?;
            let sq = b.rescale(prod)?;
            b.output(sq);
            Ok(b.build())
        }
    }

    #[test]
    fn registry_round_trips_by_name() {
        let mut reg = WorkloadRegistry::new();
        assert!(reg.is_empty());
        reg.register(Box::new(Square));
        assert_eq!(reg.names(), vec!["square"]);
        assert_eq!(reg.len(), 1);
        let ins = CkksInstance::toy(11, 4, 2);
        let lowered = reg.get("square").unwrap().lower(&ins).unwrap();
        assert_eq!(lowered.trace.len(), 2);
        assert!(reg.get("missing").is_none());
    }
}
