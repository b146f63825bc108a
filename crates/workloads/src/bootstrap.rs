use bts_circuit::{CircuitBuilder, CircuitError, HeCircuit, Workload};
use bts_params::CkksInstance;

/// A single CKKS bootstrapping invocation as an [`HeCircuit`] generator: one
/// exhausted (level-0) input refreshed by one bootstrap marker. The trace
/// backend expands the marker into the full Han–Ki op sequence of a
/// [`bts_circuit::BootstrapPlan`], reproducing the standalone bootstrap
/// traces the evaluation (Fig. 10, Fig. 7b) is built on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BootstrapWorkload;

impl Workload for BootstrapWorkload {
    fn name(&self) -> &str {
        "bootstrap"
    }

    fn build(&self, instance: &CkksInstance) -> Result<HeCircuit, CircuitError> {
        let mut b = CircuitBuilder::new(instance);
        let exhausted = b.input_at(0);
        let refreshed = b.bootstrap(exhausted)?;
        b.output(refreshed);
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_circuit::BootstrapPlan;
    use bts_params::L_BOOT;
    use bts_sim::HeOp;

    #[test]
    fn lowered_bootstrap_matches_the_plan() {
        let ins = CkksInstance::ins1();
        let plan = BootstrapPlan::paper_default();
        let lowered = BootstrapWorkload.lower(&ins).unwrap();
        assert_eq!(lowered.bootstrap_count, 1);
        assert_eq!(lowered.trace.key_switch_count(), plan.key_switch_count());
        assert_eq!(lowered.trace.count(HeOp::ModRaise), 1);
        assert!(lowered.trace.ops().all(|o| o.in_bootstrap));
        // Levels stay within the instance's budget and end above zero.
        let min_level = lowered.trace.ops().map(|o| o.level).min().unwrap();
        assert!(min_level >= ins.max_level() - L_BOOT);
    }

    #[test]
    fn shallow_instances_cannot_bootstrap() {
        let ins = CkksInstance::toy(13, 10, 1);
        assert!(BootstrapWorkload.build(&ins).is_err());
    }
}
