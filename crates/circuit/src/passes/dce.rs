//! Dead-value pruning: drops every instruction whose result cannot reach a
//! circuit output. On its own the builder rarely produces dead code, but the
//! other passes deliberately do — rescale scheduling leaves the original
//! rotate–mask–accumulate group behind after redirecting its consumers, and
//! CSE can orphan whole subtrees — so the pipeline runs this pass last as the
//! sweep phase.

use crate::error::CircuitError;
use crate::ir::HeCircuit;
use crate::passes::{Analyzed, Pass};
use crate::value_table::ValueTable;

/// Backward liveness sweep over the SSA program.
///
/// Circuit outputs are the roots; an instruction is kept iff its result is
/// transitively demanded by one. Inputs are *always* kept, even when dead:
/// they are the circuit's I/O surface, and the functional backend encrypts
/// them in declaration order (dropping one would shift the randomness stream
/// and the `input_messages` indexing of every later input).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadValuePass;

impl Pass for DeadValuePass {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, input: &Analyzed) -> Result<Analyzed, CircuitError> {
        let circuit = input.circuit();
        let mut live = ValueTable::outputs_of(circuit);
        let mut keep = vec![false; circuit.nodes.len()];
        let mut kept = 0;
        for (i, node) in circuit.nodes.iter().enumerate().rev() {
            if live.contains(node.result) {
                keep[i] = true;
                kept += 1;
                for v in node.instr.operand_slots() {
                    live.insert(v, ());
                }
            }
        }
        // Sized by the count: a filtered `collect` grows by doubling.
        let mut nodes = Vec::with_capacity(kept);
        nodes.extend(
            circuit
                .nodes
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(n, _)| *n),
        );
        Analyzed::check(HeCircuit {
            instance: circuit.instance.clone(),
            inputs: circuit.inputs.clone(),
            nodes,
            outputs: circuit.outputs.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::passes::run_on;
    use bts_params::CkksInstance;

    #[test]
    fn unreachable_chains_are_swept_and_outputs_survive() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let used = b.hrot(x, 1).unwrap();
        let dead = b.hrot(x, 2).unwrap();
        let dead2 = b.pmult(dead, 0.5).unwrap();
        let _ = dead2;
        b.output(used);
        let circuit = b.build();
        assert_eq!(circuit.len(), 3);

        let out = run_on(&DeadValuePass, &circuit).unwrap();
        assert!(out.validate().is_ok());
        assert_eq!(out.len(), 1);
        assert_eq!(out.outputs, vec![used]);
        assert_eq!(out.inputs.len(), 1, "inputs are never pruned");
    }

    #[test]
    fn dead_inputs_are_kept() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let _unused = b.input();
        let y = b.input();
        let r = b.cadd(y, 0.5).unwrap();
        b.output(r);
        let out = run_on(&DeadValuePass, &b.build()).unwrap();
        assert_eq!(out.inputs.len(), 2);
        assert!(out.validate().is_ok());
    }
}
