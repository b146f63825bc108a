use std::ops::Range;

use bts_sim::{CtId, OpTrace, TraceBuilder};

use crate::bootstrap_plan::BootstrapPlan;
use crate::bytecode::{CompiledCircuit, Opcode};
use crate::error::CircuitError;

/// Result of lowering a circuit for the cost simulator.
#[derive(Debug, Clone)]
pub struct LoweredTrace {
    /// The op trace, ready for [`bts_sim::Simulator::run`].
    pub trace: OpTrace,
    /// Number of bootstrap markers that were expanded.
    pub bootstrap_count: usize,
}

/// Lowers compiled bytecode to a [`bts_sim::OpTrace`]: every instruction maps
/// to one traced op, and every [`Opcode::Bootstrap`] marker expands to the
/// full ModRaise → CoeffToSlot → EvalMod → SlotToCoeff op sequence of
/// [`BootstrapPlan::paper_default`], which consumes the `L_boot` levels the
/// IR's level bookkeeping assumes.
///
/// Every expansion is the same op sequence on another input, so a trace
/// records it once: the first marker through [`BootstrapPlan::append_to`],
/// every later one as [`TraceBuilder::repeat`] of that op range — most of a
/// bootstrapping workload's trace is copied in bulk rather than recorded op
/// by op.
#[derive(Debug, Clone, Default)]
pub struct TraceBackend;

impl TraceBackend {
    /// A backend expanding bootstraps with the paper-default plan.
    pub fn new() -> Self {
        Self
    }

    /// Lowers compiled bytecode to an op trace, operands resolved through a
    /// flat register file.
    ///
    /// Because [`crate::compile`] preserves instruction order, and a repeated
    /// expansion is what recording it again would make, the trace is op for
    /// op, ciphertext id for ciphertext id what walking the source circuit's
    /// SSA nodes and appending every marker's plan would emit — an equality
    /// the integration tests hold against the oracle in
    /// `tests/common/ssa_oracle.rs`.
    ///
    /// # Errors
    ///
    /// Propagates bytecode validation failures, and refuses a bootstrap
    /// marker when the instance cannot afford the plan's levels.
    pub fn lower_compiled(
        &mut self,
        compiled: &CompiledCircuit,
    ) -> Result<LoweredTrace, CircuitError> {
        compiled.validate()?;
        let plan = BootstrapPlan::paper_default();
        // Every instruction is one traced op, every marker one expansion.
        let bootstraps = compiled.bootstrap_count();
        let ops = compiled.ops.len() - bootstraps + bootstraps * plan.op_count();
        let mut builder = TraceBuilder::with_capacity(&compiled.instance, ops);
        let mut regs: Vec<Option<CtId>> = vec![None; compiled.reg_count as usize];
        for input in &compiled.inputs {
            regs[input.reg as usize] = Some(builder.fresh_ct(input.level));
        }
        let mut bootstrap_count = 0usize;
        // The first marker's expansion (its ops and the id it refreshed):
        // every later marker repeats it with its own input.
        let mut expansion: Option<(Range<usize>, CtId)> = None;
        for op in &compiled.ops {
            let a = regs[op.a as usize].expect("validated bytecode reads live registers");
            let level = op.level;
            let out = match op.opcode {
                Opcode::HMult | Opcode::HAdd => {
                    let b = regs[op.b as usize].expect("validated bytecode reads live registers");
                    match op.opcode {
                        Opcode::HMult => builder.hmult_at(a, b, level),
                        _ => builder.hadd(a, b, level),
                    }
                }
                Opcode::HRot => builder.hrot(a, compiled.rotations[op.imm as usize], level),
                Opcode::Conjugate => builder.conjugate(a, level),
                Opcode::PMult => builder.pmult(a, level),
                Opcode::PAdd => builder.padd(a, level),
                Opcode::Rescale => builder.hrescale_at(a, level),
                Opcode::CMult => builder.cmult(a, level),
                Opcode::CAdd => builder.cadd(a, level),
                Opcode::ModRaise => builder.mod_raise(a, compiled.instance.max_level()),
                Opcode::Bootstrap => {
                    if compiled.instance.max_level() < plan.levels_consumed() {
                        return Err(CircuitError::CannotBootstrap {
                            max_level: compiled.instance.max_level(),
                            required: plan.levels_consumed(),
                        });
                    }
                    bootstrap_count += 1;
                    match &expansion {
                        Some((ops, input)) => builder.repeat(ops.clone(), *input, a),
                        None => {
                            let start = builder.len();
                            let out = plan.append_to(&mut builder, a);
                            expansion = Some((start..builder.len(), a));
                            out
                        }
                    }
                }
            };
            if op.free_a {
                regs[op.a as usize] = None;
            }
            if op.free_b {
                regs[op.b as usize] = None;
            }
            regs[op.dst as usize] = Some(out);
        }
        Ok(LoweredTrace {
            trace: builder.build(),
            bootstrap_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::compile::compile;
    use bts_params::CkksInstance;
    use bts_sim::HeOp;

    fn lower(circuit: &crate::HeCircuit) -> LoweredTrace {
        TraceBackend::new()
            .lower_compiled(&compile(circuit).unwrap())
            .unwrap()
    }

    #[test]
    fn lowering_preserves_op_classes_one_to_one() {
        let ins = CkksInstance::toy(11, 8, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let y = b.input();
        let raw = b.hmult(x, y).unwrap();
        let p = b.rescale(raw).unwrap();
        let r = b.hrot(p, 3).unwrap();
        let m = b.pmult(r, 0.5).unwrap();
        let masked_p = b.pmult(p, 0.5).unwrap();
        let s = b.hadd(m, masked_p).unwrap();
        let s = b.rescale(s).unwrap();
        b.output(s);
        let circuit = b.build();
        let lowered = lower(&circuit);
        assert!(lowered.trace.validate().is_ok());
        assert_eq!(lowered.bootstrap_count, 0);
        for (op, count) in circuit.op_counts() {
            assert_eq!(lowered.trace.count(op), count, "{op:?}");
        }
        assert_eq!(lowered.trace.len(), circuit.len());
        assert_eq!(lowered.trace.rotation_keys(), 1);
    }

    #[test]
    fn bootstrap_markers_expand_to_the_plan() {
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input_at(0);
        let refreshed = b.bootstrap(x).unwrap();
        b.output(refreshed);
        let circuit = b.build();
        let lowered = lower(&circuit);
        assert!(lowered.trace.validate().is_ok());
        assert_eq!(lowered.bootstrap_count, 1);
        let plan = BootstrapPlan::paper_default();
        assert_eq!(lowered.trace.key_switch_count(), plan.key_switch_count());
        assert_eq!(lowered.trace.count(HeOp::ModRaise), 1);
        assert!(lowered.trace.ops().all(|o| o.in_bootstrap));
    }

    #[test]
    fn levels_flow_through_to_the_trace() {
        let ins = CkksInstance::ins2();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let top = b.level_of(x);
        let raw1 = b.hmult(x, x).unwrap();
        let p = b.rescale(raw1).unwrap();
        let raw2 = b.hmult(p, p).unwrap();
        let q = b.rescale(raw2).unwrap();
        b.output(q);
        let lowered = lower(&b.build());
        let levels: Vec<usize> = lowered.trace.ops().map(|o| o.level).collect();
        assert_eq!(levels, vec![top, top, top - 1, top - 1]);
    }
}
