//! The optimizing pass pipeline over the [`HeCircuit`] SSA IR.
//!
//! [`crate::CircuitBuilder`] emits instructions 1:1 as the application
//! requests them, through the same level/scale rule [`analysis`] folds over
//! whole circuits. The one rewrite it makes on its own is in
//! [`crate::CircuitBuilder::build`]: it prunes the refreshes its greedy
//! `ensure()` inserted that nothing downstream rescales, through the
//! rebuild [`BootstrapPlacePass`] runs, under a narrower rule. Everything else
//! reaches a backend as the application wrote it unless this pipeline runs.
//! Since key-switching dominates simulated time (92–96% on every evaluation
//! workload), the highest-leverage optimizations are exactly circuit
//! rewrites: fewer rotations/multiplications (CSE), rotations at lower levels
//! (rescale scheduling), and fewer bootstrap expansions (placement). The
//! standard pipeline runs, in order:
//!
//! 1. [`CommonSubexprPass`] — value-numbering CSE over all pure ops;
//! 2. [`RescaleSchedPass`] — mask hoisting and rescale sinking, so
//!    key-switches run with fewer limbs;
//! 3. [`BootstrapPlacePass`] — moves each refresh to the last level its
//!    input reaches and deletes the ones the level budget proves
//!    unnecessary, in one program-order sweep;
//! 4. [`DeadValuePass`] — sweeps the dead originals the rewrites leave
//!    behind.
//!
//! Every pass takes and returns a whole circuit together with its analysis
//! ([`analysis::Analyzed`]): [`PassPipeline::optimize`] analyzes its input
//! once, and every pass reads its input's analysis and hands back its
//! output checked ([`analysis::check`]) or releveled ([`analysis::relevel`]),
//! so each circuit of a run is analyzed exactly once — the input and each
//! pass's output, five walks for the standard pipeline — and a rewrite that
//! violates the level/scale discipline still fails loudly instead of
//! producing a circuit the functional evaluator would reject at runtime.
//! Semantics preservation is enforced externally by the differential harness
//! (`tests/property_passes.rs`): optimized circuits must decrypt to the same
//! outputs as the unoptimized oracle on [`crate::FunctionalBackend`] and
//! lower to validate-clean traces on [`crate::TraceBackend`].

pub mod analysis;
mod bootstrap_place;
mod cse;
mod dce;
mod rescale;

pub use analysis::Analyzed;
pub(crate) use bootstrap_place::drop_markers;
pub use bootstrap_place::BootstrapPlacePass;
pub use cse::CommonSubexprPass;
pub use dce::DeadValuePass;
pub use rescale::RescaleSchedPass;

use crate::error::CircuitError;
use crate::ir::HeCircuit;

/// One circuit-to-circuit rewrite. Passes must preserve the plaintext
/// semantics of every circuit output (up to CKKS rescale/encryption noise).
/// A pass receives its input with the input's analysis and returns its
/// output with the output's: an [`analysis::Analyzed`] can only be made by
/// checking or releveling a circuit, so every circuit a pass produces is
/// checked, once.
pub trait Pass {
    /// Short stable name, used in diagnostics.
    fn name(&self) -> &'static str;

    /// Rewrites `input`, reading its analysis.
    ///
    /// # Errors
    ///
    /// Fails if the rewrite produced a circuit that no longer analyzes (a
    /// pass bug — never silent) or ran out of value ids.
    fn run(&self, input: &Analyzed) -> Result<Analyzed, CircuitError>;
}

/// An ordered sequence of passes.
pub struct PassPipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl std::fmt::Debug for PassPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassPipeline")
            .field("passes", &self.pass_names())
            .finish()
    }
}

impl Default for PassPipeline {
    fn default() -> Self {
        Self::standard()
    }
}

impl PassPipeline {
    /// An empty pipeline ([`PassPipeline::optimize`] only checks its input).
    pub fn empty() -> Self {
        Self { passes: Vec::new() }
    }

    /// The standard optimization pipeline:
    /// CSE → rescale scheduling → bootstrap placement → dead-value sweep.
    pub fn standard() -> Self {
        let mut p = Self::empty();
        p.push(CommonSubexprPass);
        p.push(RescaleSchedPass);
        p.push(BootstrapPlacePass);
        p.push(DeadValuePass);
        p
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: impl Pass + 'static) {
        self.passes.push(Box::new(pass));
    }

    /// Names of the passes, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order on the checked input, each on the analyzed
    /// output of the one before.
    ///
    /// # Errors
    ///
    /// Fails on an invalid input circuit or on any pass whose output no
    /// longer analyzes; the error names the offending pass.
    pub fn optimize(&self, circuit: &HeCircuit) -> Result<HeCircuit, CircuitError> {
        let mut current = Analyzed::check(circuit.clone())?;
        for pass in &self.passes {
            current = pass.run(&current).map_err(|e| {
                CircuitError::InvalidCircuit(format!("pass '{}' failed: {e}", pass.name()))
            })?;
        }
        Ok(current.into_circuit())
    }
}

/// Checks `circuit` and runs `pass` on it: the one-pass form unit tests use.
#[cfg(test)]
pub(crate) fn run_on(pass: &dyn Pass, circuit: &HeCircuit) -> Result<HeCircuit, CircuitError> {
    Ok(pass.run(&Analyzed::check(circuit.clone())?)?.into_circuit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use bts_params::CkksInstance;
    use bts_sim::HeOp;

    #[test]
    fn standard_pipeline_optimizes_a_mac_group_end_to_end() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        // Duplicate squares (CSE bait) feeding a rotate-mask-accumulate
        // group (mask-hoist bait).
        let s1 = b.hmult(x, x).unwrap();
        let s2 = b.hmult(x, x).unwrap();
        let sum = b.hadd(s1, s2).unwrap();
        let cur = b.rescale(sum).unwrap();
        let mut acc = b.pmult(cur, 0.5).unwrap();
        for r in 1..=2 {
            let rot = b.hrot(cur, r).unwrap();
            let m = b.pmult(rot, 0.5).unwrap();
            acc = b.hadd(acc, m).unwrap();
        }
        let out = b.rescale(acc).unwrap();
        b.output(out);
        let circuit = b.build();

        let optimized = PassPipeline::standard().optimize(&circuit).unwrap();
        assert!(optimized.validate().is_ok());
        let counts = optimized.op_counts();
        assert_eq!(counts[&HeOp::HMult], 1, "duplicate square merged");
        assert_eq!(counts[&HeOp::PMult], 1, "masks hoisted");
        assert_eq!(counts[&HeOp::HRot], 2);
        assert!(optimized.len() < circuit.len());
    }

    #[test]
    fn sparse_and_huge_ids_get_the_same_answer_as_compact_ones() {
        // Ids are compact by convention only (the fields are public). Spread
        // the builder's ids out, then push the last one to u32::MAX: the
        // first must optimize exactly like the compact circuit, the second
        // must be refused with a typed error once a pass needs a fresh id.
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let cur = b.bootstrap(x).unwrap();
        let mut acc = b.pmult(cur, 0.5).unwrap();
        for r in 1..=2 {
            let rot = b.hrot(cur, r).unwrap();
            let m = b.pmult(rot, 0.5).unwrap();
            acc = b.hadd(acc, m).unwrap();
        }
        let out = b.rescale(acc).unwrap();
        b.output(out);
        let compact = b.build();
        let renumber = |circuit: &HeCircuit, f: &dyn Fn(u32) -> u32| {
            let mut c = circuit.clone();
            for input in &mut c.inputs {
                input.id = f(input.id);
            }
            for node in &mut c.nodes {
                node.instr = node.instr.map_operands(f);
                node.result = f(node.result);
            }
            for out in &mut c.outputs {
                *out = f(*out);
            }
            c
        };

        let sparse = renumber(&compact, &|v| 1_000_000 + 999_983 * v);
        let optimized = PassPipeline::standard().optimize(&sparse).unwrap();
        let reference = PassPipeline::standard().optimize(&compact).unwrap();
        assert_eq!(optimized.op_counts(), reference.op_counts());
        assert_eq!(optimized.bootstrap_count(), reference.bootstrap_count());
        assert!(optimized.len() < sparse.len());

        let full = renumber(&compact, &|v| if v == out { u32::MAX } else { v });
        assert_eq!(full.validate(), Ok(()));
        assert!(matches!(
            PassPipeline::standard().optimize(&full),
            Err(CircuitError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn cse_is_idempotent() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let r1 = b.hrot(x, 2).unwrap();
        let r2 = b.hrot(x, 2).unwrap();
        let s = b.hadd(r1, r2).unwrap();
        b.output(s);
        let circuit = b.build();
        let once = run_on(&CommonSubexprPass, &circuit).unwrap();
        let twice = run_on(&CommonSubexprPass, &once).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let r = b.hrot(x, 1).unwrap();
        b.output(r);
        let circuit = b.build();
        let out = PassPipeline::empty().optimize(&circuit).unwrap();
        assert_eq!(out, circuit);
    }
}
