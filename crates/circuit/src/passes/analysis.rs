//! Forward dataflow analysis over an [`HeCircuit`]: recomputes every value's
//! level and scale exponent from first principles and checks the CKKS scale
//! discipline the functional evaluator enforces at runtime.
//!
//! The level/scale rule of an instruction is written once, in `transfer`,
//! and has two callers: [`analyze`] folds it over a whole circuit, and
//! [`crate::CircuitBuilder`] applies it to each instruction as it records
//! it, refusing the ones it rejects. Passes use the analysis in two ways:
//! [`check`] proves a rewritten circuit still satisfies every invariant, and
//! [`relevel`] repairs the recorded execution levels after a structural
//! rewrite (e.g. removing a bootstrap lowers everything downstream of it).

use bts_params::CkksInstance;

use crate::error::CircuitError;
use crate::ir::{HeCircuit, HeInstr, ValueId};
use crate::value_table::ValueTable;

/// Level and scale facts for one SSA value, as recomputed by [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueFacts {
    /// Ciphertext level the value sits at.
    pub level: usize,
    /// Scale as a power of the base scale Δ.
    pub scale_exp: u32,
}

/// Result of a full forward analysis: per-value facts plus the execution
/// level of every node (for [`HeInstr::Rescale`] the *input* level, matching
/// the [`crate::HeInstrNode::level`] convention).
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Facts for every input and instruction result.
    facts: ValueTable<ValueFacts>,
    /// Execution level of each node, in program order.
    pub exec_levels: Vec<usize>,
}

impl Analysis {
    /// Facts for a value that the analysis proved defined.
    ///
    /// # Panics
    ///
    /// If the analyzed circuit does not define `v`.
    pub fn of(&self, v: ValueId) -> ValueFacts {
        self.facts
            .get(v)
            .expect("the analysis holds facts for every value the circuit defines")
    }
}

/// Recomputes levels and scale exponents for every value by forward dataflow
/// and verifies the scale discipline: additions only combine equal scale
/// exponents, rescales need a level to drop and a scale exponent ≥ 2, and
/// bootstraps take base-scale (Δ^1) inputs.
///
/// The recorded [`crate::HeInstrNode::level`] fields are *ignored* here — use
/// [`check`] to additionally verify them, or [`relevel`] to overwrite them
/// with the recomputed values.
///
/// # Errors
///
/// Returns the first violation in program order ([`CircuitError::ScaleMismatch`],
/// [`CircuitError::LevelExhausted`] or [`CircuitError::InvalidCircuit`]),
/// after first re-running [`HeCircuit::validate`] for SSA well-formedness.
///
/// Each call emits one `circuit.analyze` telemetry instant (track `circuit`,
/// at time 0) whose `nodes` arg is the nodes visited — all of them, or those
/// before the violation. Summed over a run, that is how the pipeline's cost
/// in circuit walks is held linear by a test.
pub fn analyze(circuit: &HeCircuit) -> Result<Analysis, CircuitError> {
    circuit.validate()?;
    let mut analysis = Analysis {
        facts: ValueTable::for_circuit(circuit),
        exec_levels: Vec::with_capacity(circuit.nodes.len()),
    };
    let walked = walk(circuit, &mut analysis);
    let nodes = bts_telemetry::ArgValue::U64(analysis.exec_levels.len() as u64);
    bts_telemetry::emit_instant("circuit", "circuit.analyze", 0.0, &[("nodes", nodes)]);
    walked.map(|()| analysis)
}

/// The forward dataflow behind [`analyze`], filling `out` node by node so the
/// caller can see how far it got when it stops at a violation.
fn walk(circuit: &HeCircuit, out: &mut Analysis) -> Result<(), CircuitError> {
    for input in &circuit.inputs {
        out.facts.insert(
            input.id,
            ValueFacts {
                level: input.level,
                scale_exp: 1,
            },
        );
    }
    for node in &circuit.nodes {
        let (exec, result) = transfer(node.instr, &circuit.instance, |v| out.facts.get(v))?;
        out.exec_levels.push(exec);
        out.facts.insert(node.result, result);
    }
    Ok(())
}

/// The level/scale rule of one instruction: its execution level (for a
/// [`HeInstr::Rescale`] the input level) and its result's facts, given
/// `facts` of the values defined so far.
///
/// # Errors
///
/// [`CircuitError::UnknownValue`] for an operand `facts` does not know, else
/// the rule the instruction breaks: [`CircuitError::ScaleMismatch`] for an
/// addition of unequal scale exponents, [`CircuitError::LevelExhausted`] for
/// a rescale at level 0, [`CircuitError::InvalidCircuit`] for a rescale
/// below Δ^2 or a bootstrap of a value not at Δ^1.
pub(crate) fn transfer(
    instr: HeInstr,
    instance: &CkksInstance,
    facts: impl Fn(ValueId) -> Option<ValueFacts>,
) -> Result<(usize, ValueFacts), CircuitError> {
    let of = |v: ValueId| facts(v).ok_or(CircuitError::UnknownValue(v));
    let a = instr.operands().0;
    let fa = of(a)?;
    // Most results sit where the instruction executes.
    let at = |level: usize, scale_exp: u32| (level, ValueFacts { level, scale_exp });
    Ok(match instr {
        HeInstr::HMult { b, .. } => {
            let fb = of(b)?;
            at(fa.level.min(fb.level), fa.scale_exp + fb.scale_exp)
        }
        HeInstr::HAdd { b, .. } => {
            let fb = of(b)?;
            if fa.scale_exp != fb.scale_exp {
                return Err(CircuitError::ScaleMismatch {
                    a,
                    b,
                    exp_a: fa.scale_exp,
                    exp_b: fb.scale_exp,
                });
            }
            at(fa.level.min(fb.level), fa.scale_exp)
        }
        HeInstr::HRot { .. }
        | HeInstr::Conjugate { .. }
        | HeInstr::PAdd { .. }
        | HeInstr::CAdd { .. } => (fa.level, fa),
        HeInstr::PMult { .. } | HeInstr::CMult { .. } => at(fa.level, fa.scale_exp + 1),
        HeInstr::Rescale { .. } => {
            if fa.level == 0 {
                return Err(CircuitError::LevelExhausted {
                    value: a,
                    level: 0,
                    required: 1,
                });
            }
            if fa.scale_exp < 2 {
                return Err(CircuitError::InvalidCircuit(format!(
                    "rescaling v{a} at scale Δ^{} would drop below the base scale",
                    fa.scale_exp
                )));
            }
            (
                fa.level,
                ValueFacts {
                    level: fa.level - 1,
                    scale_exp: fa.scale_exp - 1,
                },
            )
        }
        HeInstr::ModRaise { .. } => at(instance.max_level(), fa.scale_exp),
        HeInstr::Bootstrap { .. } => {
            if fa.scale_exp != 1 {
                return Err(CircuitError::InvalidCircuit(format!(
                    "bootstrap input v{a} must carry the base scale Δ^1, found Δ^{}",
                    fa.scale_exp
                )));
            }
            (
                fa.level,
                ValueFacts {
                    level: instance.usable_top_level(),
                    scale_exp: 1,
                },
            )
        }
    })
}

/// Runs [`analyze`] and additionally requires every recorded node level to
/// equal the recomputed execution level — the invariant both backends rely on
/// when charging costs and cross-checking ciphertext levels.
///
/// # Errors
///
/// Everything [`analyze`] reports, plus [`CircuitError::InvalidCircuit`] on a
/// recorded/recomputed level mismatch.
pub fn check(circuit: &HeCircuit) -> Result<Analysis, CircuitError> {
    let analysis = analyze(circuit)?;
    for (node, &exec) in circuit.nodes.iter().zip(&analysis.exec_levels) {
        if node.level != exec {
            return Err(CircuitError::InvalidCircuit(format!(
                "node defining v{} records level {} but dataflow places it at {exec}",
                node.result, node.level
            )));
        }
    }
    Ok(analysis)
}

/// Overwrites every node's recorded level with the recomputed execution
/// level. Structural rewrites (bootstrap removal, rescale motion) call this
/// to repair downstream levels in one sweep instead of patching by hand.
///
/// # Errors
///
/// Everything [`analyze`] reports; on error the circuit is left unmodified.
pub fn relevel(circuit: &mut HeCircuit) -> Result<Analysis, CircuitError> {
    let analysis = analyze(circuit)?;
    for (node, &exec) in circuit.nodes.iter_mut().zip(&analysis.exec_levels) {
        node.level = exec;
    }
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use bts_params::CkksInstance;

    #[test]
    fn builder_output_passes_check() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let r = b.hrot(x, 3).unwrap();
        let m = b.pmult(r, 0.5).unwrap();
        let m2 = b.pmult(x, 0.5).unwrap();
        let s = b.hadd(m, m2).unwrap();
        let s = b.rescale(s).unwrap();
        b.output(s);
        let circuit = b.build();
        let analysis = check(&circuit).unwrap();
        assert_eq!(analysis.of(s).level, 5);
        assert_eq!(analysis.of(s).scale_exp, 1);
    }

    #[test]
    fn check_rejects_tampered_levels() {
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let r = b.hrot(x, 1).unwrap();
        b.output(r);
        let mut circuit = b.build();
        circuit.nodes[0].level = 3; // dataflow says 6
        assert!(check(&circuit).is_err());
        // relevel repairs it.
        relevel(&mut circuit).unwrap();
        assert!(check(&circuit).is_ok());
    }

    #[test]
    fn analyze_rejects_scale_mismatched_adds() {
        // Hand-built: add a Δ^2 product to a Δ^1 input.
        let ins = CkksInstance::toy(10, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let p = b.hmult(x, x).unwrap();
        b.output(p);
        let mut circuit = b.build();
        circuit.nodes.push(crate::ir::HeInstrNode {
            instr: HeInstr::HAdd { a: p, b: x },
            result: 2,
            level: 6,
        });
        assert!(matches!(
            analyze(&circuit),
            Err(CircuitError::ScaleMismatch { .. })
        ));
    }
}
