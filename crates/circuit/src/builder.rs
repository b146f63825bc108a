use std::collections::HashSet;

use bts_params::{CkksInstance, L_BOOT};

use crate::error::CircuitError;
use crate::ir::{CircuitInput, HeCircuit, HeInstr, HeInstrNode, ValueId};

/// Level and scale bookkeeping for one SSA value.
#[derive(Debug, Clone, Copy)]
struct ValueInfo {
    level: usize,
    /// Scale as a power of the base scale Δ (fresh encodings are Δ^1; an
    /// HMult of two Δ^1 values is Δ^2; a rescale divides by ≈Δ).
    scale_exp: u32,
}

/// Fluent builder of [`HeCircuit`]s.
///
/// The builder tracks every value's level and scale exponent and refuses to
/// emit an instruction the functional model could not execute: rescaling a
/// level-0 value, adding values of different scale exponents, or descending
/// below the level floor on an instance that cannot bootstrap. On
/// bootstrappable instances, [`CircuitBuilder::ensure`] transparently inserts
/// [`HeInstr::Bootstrap`] markers when the budget is about to run out —
/// mirroring how FHE applications are scheduled in practice and producing the
/// per-instance bootstrap counts of Table 6.
///
/// ```
/// use bts_circuit::CircuitBuilder;
/// use bts_params::CkksInstance;
///
/// # fn main() -> Result<(), bts_circuit::CircuitError> {
/// let ins = CkksInstance::toy(11, 6, 2);
/// let mut b = CircuitBuilder::new(&ins);
/// let x = b.input();
/// let y = b.input();
/// let raw = b.hmult(x, y)?;
/// let prod = b.rescale(raw)?;
/// let rot = b.hrot(prod, 1)?;
/// b.output(rot);
/// let circuit = b.build();
/// assert_eq!(circuit.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    instance: CkksInstance,
    inputs: Vec<CircuitInput>,
    nodes: Vec<HeInstrNode>,
    outputs: Vec<ValueId>,
    values: Vec<ValueInfo>,
    /// Results of bootstrap markers [`CircuitBuilder::ensure`] inserted on
    /// its own initiative (as opposed to explicit
    /// [`CircuitBuilder::bootstrap`] calls, which are application requests).
    /// Only these are candidates for the redundant-trailing-marker prune in
    /// [`CircuitBuilder::build`].
    auto_bootstraps: HashSet<ValueId>,
}

impl CircuitBuilder {
    /// Starts a circuit for an instance.
    pub fn new(instance: &CkksInstance) -> Self {
        Self {
            instance: instance.clone(),
            inputs: Vec::new(),
            nodes: Vec::new(),
            outputs: Vec::new(),
            values: Vec::new(),
            auto_bootstraps: HashSet::new(),
        }
    }

    /// The instance this circuit targets.
    pub fn instance(&self) -> &CkksInstance {
        &self.instance
    }

    /// Whether the instance's level budget accommodates one bootstrap
    /// (delegates to [`CkksInstance::can_bootstrap`]).
    pub fn can_bootstrap(&self) -> bool {
        self.instance.can_bootstrap()
    }

    /// The level fresh and freshly-bootstrapped ciphertexts sit at
    /// (delegates to [`CkksInstance::usable_top_level`]).
    pub fn usable_top_level(&self) -> usize {
        self.instance.usable_top_level()
    }

    /// Current level of a value.
    pub fn level_of(&self, v: ValueId) -> usize {
        self.values[v as usize].level
    }

    /// Current scale exponent of a value (power of Δ).
    pub fn scale_exp_of(&self, v: ValueId) -> u32 {
        self.values[v as usize].scale_exp
    }

    fn define(&mut self, level: usize, scale_exp: u32) -> ValueId {
        let id = self.values.len() as ValueId;
        self.values.push(ValueInfo { level, scale_exp });
        id
    }

    fn push(&mut self, instr: HeInstr, exec_level: usize, result: ValueInfo) -> ValueId {
        let id = self.define(result.level, result.scale_exp);
        self.nodes.push(HeInstrNode {
            instr,
            result: id,
            level: exec_level,
        });
        id
    }

    /// Declares a fresh ciphertext input at the usable top level.
    pub fn input(&mut self) -> ValueId {
        self.input_at(self.usable_top_level())
    }

    /// Declares a fresh ciphertext input at an explicit level (clamped to the
    /// instance budget).
    pub fn input_at(&mut self, level: usize) -> ValueId {
        let level = level.min(self.instance.max_level());
        let id = self.define(level, 1);
        self.inputs.push(CircuitInput { id, level });
        id
    }

    /// Marks a value as a circuit output (a value the functional backend
    /// decrypts and returns).
    pub fn output(&mut self, v: ValueId) {
        self.outputs.push(v);
    }

    /// Ensures `v` has at least `depth + 1` usable levels — enough to
    /// consume `depth` and still keep one in reserve, the scheduling rule
    /// FHE applications use in practice and the one the per-instance
    /// bootstrap counts of Table 6 derive from. If the levels are not there,
    /// a [`HeInstr::Bootstrap`] marker is inserted first and the refreshed
    /// value returned. A bootstrap refreshes to
    /// [`CircuitBuilder::usable_top_level`], which on shallow bootstrappable
    /// instances may still be below `depth` — applications then re-bootstrap
    /// mid-computation.
    ///
    /// # Errors
    ///
    /// Fails with [`CircuitError::LevelExhausted`] if the budget is too small
    /// and the instance cannot bootstrap. If `v` already sits at the refresh
    /// ceiling, no marker is inserted (it would be a no-op refresh) and the
    /// value is returned as-is — the workload simply runs as deep as the
    /// instance allows.
    pub fn ensure(&mut self, v: ValueId, depth: usize) -> Result<ValueId, CircuitError> {
        let level = self.level_of(v);
        if level > depth {
            return Ok(v);
        }
        if self.can_bootstrap() {
            if self.usable_top_level() > level {
                let refreshed = self.bootstrap(v)?;
                self.auto_bootstraps.insert(refreshed);
                return Ok(refreshed);
            }
            return Ok(v);
        }
        Err(CircuitError::LevelExhausted {
            value: v,
            level,
            required: depth + 1,
        })
    }

    /// Inserts an explicit bootstrap marker, refreshing `v` to the usable top
    /// level.
    ///
    /// # Errors
    ///
    /// Fails if the instance cannot bootstrap or `v` carries an unreduced
    /// scale (bootstrap a rescaled, Δ^1 value).
    pub fn bootstrap(&mut self, v: ValueId) -> Result<ValueId, CircuitError> {
        if !self.can_bootstrap() {
            return Err(CircuitError::CannotBootstrap {
                max_level: self.instance.max_level(),
                required: L_BOOT,
            });
        }
        let exp = self.scale_exp_of(v);
        if exp != 1 {
            return Err(CircuitError::InvalidCircuit(format!(
                "bootstrap input v{v} must carry the base scale Δ^1, found Δ^{exp}"
            )));
        }
        let exec_level = self.level_of(v);
        let top = self.usable_top_level();
        Ok(self.push(
            HeInstr::Bootstrap { a: v },
            exec_level,
            ValueInfo {
                level: top,
                scale_exp: 1,
            },
        ))
    }

    /// Ciphertext–ciphertext multiplication at the operands' common (minimum)
    /// level; scale exponents add. Rescale afterwards to bring the scale back.
    ///
    /// # Errors
    ///
    /// Currently infallible for defined values; fallible for API uniformity.
    pub fn hmult(&mut self, a: ValueId, b: ValueId) -> Result<ValueId, CircuitError> {
        let level = self.level_of(a).min(self.level_of(b));
        let exp = self.scale_exp_of(a) + self.scale_exp_of(b);
        Ok(self.push(
            HeInstr::HMult { a, b },
            level,
            ValueInfo {
                level,
                scale_exp: exp,
            },
        ))
    }

    /// Slot rotation by `rotation`.
    ///
    /// # Errors
    ///
    /// Currently infallible for defined values; fallible for API uniformity.
    pub fn hrot(&mut self, a: ValueId, rotation: i64) -> Result<ValueId, CircuitError> {
        let info = self.values[a as usize];
        Ok(self.push(HeInstr::HRot { a, rotation }, info.level, info))
    }

    /// Complex conjugation.
    ///
    /// # Errors
    ///
    /// Currently infallible for defined values; fallible for API uniformity.
    pub fn conjugate(&mut self, a: ValueId) -> Result<ValueId, CircuitError> {
        let info = self.values[a as usize];
        Ok(self.push(HeInstr::Conjugate { a }, info.level, info))
    }

    /// Plaintext (splat-constant) multiplication; the scale exponent grows by
    /// one, exactly as [`bts_ckks::Evaluator::mul_plain`] behaves with a
    /// plaintext encoded at the context scale.
    ///
    /// # Errors
    ///
    /// Currently infallible for defined values; fallible for API uniformity.
    pub fn pmult(&mut self, a: ValueId, value: f64) -> Result<ValueId, CircuitError> {
        let info = self.values[a as usize];
        Ok(self.push(
            HeInstr::PMult { a, value },
            info.level,
            ValueInfo {
                level: info.level,
                scale_exp: info.scale_exp + 1,
            },
        ))
    }

    /// Plaintext (splat-constant) addition at the operand's own scale.
    ///
    /// # Errors
    ///
    /// Currently infallible for defined values; fallible for API uniformity.
    pub fn padd(&mut self, a: ValueId, value: f64) -> Result<ValueId, CircuitError> {
        let info = self.values[a as usize];
        Ok(self.push(HeInstr::PAdd { a, value }, info.level, info))
    }

    /// Ciphertext–ciphertext addition at the operands' common level.
    ///
    /// # Errors
    ///
    /// Fails with [`CircuitError::ScaleMismatch`] if the scale exponents
    /// differ (the functional model would reject the addition).
    pub fn hadd(&mut self, a: ValueId, b: ValueId) -> Result<ValueId, CircuitError> {
        let (ea, eb) = (self.scale_exp_of(a), self.scale_exp_of(b));
        if ea != eb {
            return Err(CircuitError::ScaleMismatch {
                a,
                b,
                exp_a: ea,
                exp_b: eb,
            });
        }
        let level = self.level_of(a).min(self.level_of(b));
        Ok(self.push(
            HeInstr::HAdd { a, b },
            level,
            ValueInfo {
                level,
                scale_exp: ea,
            },
        ))
    }

    /// Rescale: drop the last prime, consuming one level and one scale
    /// exponent.
    ///
    /// # Errors
    ///
    /// Fails if the value is at level 0 or already at the base scale Δ^1
    /// (rescaling it would leave the message without a scale).
    pub fn rescale(&mut self, a: ValueId) -> Result<ValueId, CircuitError> {
        let info = self.values[a as usize];
        if info.level == 0 {
            return Err(CircuitError::LevelExhausted {
                value: a,
                level: 0,
                required: 1,
            });
        }
        if info.scale_exp < 2 {
            return Err(CircuitError::InvalidCircuit(format!(
                "rescaling v{a} at scale Δ^{} would drop below the base scale",
                info.scale_exp
            )));
        }
        Ok(self.push(
            HeInstr::Rescale { a },
            info.level,
            ValueInfo {
                level: info.level - 1,
                scale_exp: info.scale_exp - 1,
            },
        ))
    }

    /// Scalar multiplication (the scalar is encoded at the context scale, so
    /// the scale exponent grows by one).
    ///
    /// # Errors
    ///
    /// Currently infallible for defined values; fallible for API uniformity.
    pub fn cmult(&mut self, a: ValueId, value: f64) -> Result<ValueId, CircuitError> {
        let info = self.values[a as usize];
        Ok(self.push(
            HeInstr::CMult { a, value },
            info.level,
            ValueInfo {
                level: info.level,
                scale_exp: info.scale_exp + 1,
            },
        ))
    }

    /// Scalar addition at the operand's own scale.
    ///
    /// # Errors
    ///
    /// Currently infallible for defined values; fallible for API uniformity.
    pub fn cadd(&mut self, a: ValueId, value: f64) -> Result<ValueId, CircuitError> {
        let info = self.values[a as usize];
        Ok(self.push(HeInstr::CAdd { a, value }, info.level, info))
    }

    /// Modulus raise to the top of the chain (start of a hand-written
    /// bootstrap; the packaged [`CircuitBuilder::bootstrap`] marker is what
    /// workloads normally use).
    ///
    /// # Errors
    ///
    /// Currently infallible for defined values; fallible for API uniformity.
    pub fn mod_raise(&mut self, a: ValueId) -> Result<ValueId, CircuitError> {
        let info = self.values[a as usize];
        let top = self.instance.max_level();
        Ok(self.push(
            HeInstr::ModRaise { a },
            top,
            ValueInfo {
                level: top,
                scale_exp: info.scale_exp,
            },
        ))
    }

    /// Whether any instruction after node `index` that (transitively) depends
    /// on `root` consumes a level. Dependence is not propagated through
    /// bootstrap or modulus-raise nodes — their result level does not depend
    /// on their input's.
    fn suffix_consumes_levels(nodes: &[HeInstrNode], index: usize, root: ValueId) -> bool {
        let mut reach: HashSet<ValueId> = HashSet::from([root]);
        for node in &nodes[index + 1..] {
            let (a, b) = node.instr.operands();
            if !(reach.contains(&a) || b.is_some_and(|b| reach.contains(&b))) {
                continue;
            }
            match node.instr {
                HeInstr::Rescale { .. } => return true,
                HeInstr::Bootstrap { .. } | HeInstr::ModRaise { .. } => {}
                _ => {
                    reach.insert(node.result);
                }
            }
        }
        false
    }

    /// Finalizes the circuit. If no output was declared, the last defined
    /// value (when one exists) becomes the output, so every circuit has
    /// something for the functional backend to decrypt.
    ///
    /// Bootstrap markers that [`CircuitBuilder::ensure`] inserted greedily
    /// are pruned when nothing depending on them ever rescales: the reserve
    /// rule fires one `ensure` before the budget actually runs out, so a
    /// trailing refresh whose suffix consumes no further levels is pure
    /// overhead (hundreds of key-switches on a paper instance). Explicit
    /// [`CircuitBuilder::bootstrap`] calls are application requests and are
    /// never pruned. Downstream levels are repaired by dataflow afterwards.
    pub fn build(mut self) -> HeCircuit {
        if self.outputs.is_empty() {
            if let Some(last) = self.nodes.last() {
                self.outputs.push(last.result);
            } else if let Some(input) = self.inputs.last() {
                self.outputs.push(input.id);
            }
        }
        let circuit = HeCircuit {
            instance: self.instance,
            inputs: self.inputs,
            nodes: self.nodes,
            outputs: self.outputs,
        };
        let prunable: Vec<usize> = circuit
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| {
                self.auto_bootstraps.contains(&n.result)
                    && matches!(n.instr, HeInstr::Bootstrap { .. })
                    && !Self::suffix_consumes_levels(&circuit.nodes, *i, n.result)
            })
            .map(|(i, _)| i)
            .collect();
        if prunable.is_empty() {
            return circuit;
        }
        let mut candidate = circuit.clone();
        for &i in prunable.iter().rev() {
            let node = candidate.nodes.remove(i);
            let HeInstr::Bootstrap { a } = node.instr else {
                unreachable!("prunable indices are bootstrap markers");
            };
            let redirect = |v: ValueId| if v == node.result { a } else { v };
            for n in &mut candidate.nodes {
                n.instr = n.instr.map_operands(redirect);
            }
            for out in &mut candidate.outputs {
                *out = redirect(*out);
            }
        }
        // The builder's invariants guarantee the pruned circuit re-analyzes;
        // fall back to the unpruned circuit defensively if it ever does not.
        match crate::passes::analysis::relevel(&mut candidate) {
            Ok(_) => candidate,
            Err(_) => circuit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_levels_and_scales() {
        let ins = CkksInstance::toy(11, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let y = b.input();
        assert_eq!(b.level_of(x), 6);
        let p = b.hmult(x, y).unwrap();
        assert_eq!(b.scale_exp_of(p), 2);
        let p = b.rescale(p).unwrap();
        assert_eq!(b.level_of(p), 5);
        assert_eq!(b.scale_exp_of(p), 1);
        let circuit = b.build();
        assert!(circuit.validate().is_ok());
        assert_eq!(circuit.outputs.len(), 1);
    }

    #[test]
    fn scale_mismatched_adds_are_rejected() {
        let ins = CkksInstance::toy(11, 6, 2);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let p = b.hmult(x, x).unwrap(); // Δ^2
        let err = b.hadd(p, x).unwrap_err();
        assert!(matches!(err, CircuitError::ScaleMismatch { .. }));
    }

    #[test]
    fn rescale_at_level_zero_is_rejected() {
        let ins = CkksInstance::toy(11, 1, 1);
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let raw = b.hmult(x, x).unwrap();
        let p = b.rescale(raw).unwrap();
        assert_eq!(b.level_of(p), 0);
        let p2 = b.hmult(p, p).unwrap();
        assert!(matches!(
            b.rescale(p2),
            Err(CircuitError::LevelExhausted { .. })
        ));
    }

    #[test]
    fn ensure_bootstraps_on_paper_instances_and_errors_on_toys() {
        let ins1 = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins1);
        let mut x = b.input();
        assert_eq!(b.level_of(x), 8);
        // Burn the budget: ensure() must insert a bootstrap marker. One more
        // square–rescale after the refresh keeps the marker load-bearing
        // (build() prunes refreshes whose suffix consumes no levels).
        for _ in 0..9 {
            x = b.ensure(x, 1).unwrap();
            let p = b.hmult(x, x).unwrap();
            x = b.rescale(p).unwrap();
        }
        let circuit = b.build();
        assert_eq!(circuit.bootstrap_count(), 1);
        assert!(circuit.validate().is_ok());

        let toy = CkksInstance::toy(11, 3, 1);
        let mut b = CircuitBuilder::new(&toy);
        let mut y = b.input();
        for _ in 0..2 {
            y = b.ensure(y, 1).unwrap();
            let p = b.hmult(y, y).unwrap();
            y = b.rescale(p).unwrap();
        }
        assert!(matches!(
            b.ensure(y, 1),
            Err(CircuitError::LevelExhausted { .. })
        ));
    }

    #[test]
    fn redundant_trailing_auto_bootstrap_is_pruned() {
        // Regression: the greedy ensure() reserve rule refreshes even when
        // the remaining circuit consumes no further levels. The final circuit
        // must not carry that marker — on a paper instance it would expand to
        // hundreds of pointless key-switched ops.
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let mut x = b.input();
        // Burn down to level 1 so the next ensure() trips the reserve rule.
        for _ in 0..7 {
            x = b.ensure(x, 1).unwrap();
            let p = b.hmult(x, x).unwrap();
            x = b.rescale(p).unwrap();
        }
        assert_eq!(b.level_of(x), 1);
        // This inserts a marker — but the rest of the circuit is level-free
        // (rotation + add).
        let x = b.ensure(x, 1).unwrap();
        assert_eq!(b.level_of(x), 8, "marker was inserted");
        let r = b.hrot(x, 4).unwrap();
        let s = b.hadd(x, r).unwrap();
        b.output(s);
        let circuit = b.build();
        assert_eq!(circuit.bootstrap_count(), 0, "trailing refresh pruned");
        assert!(circuit.validate().is_ok());
        // The suffix was releveled to the un-refreshed level.
        assert_eq!(circuit.nodes.last().unwrap().level, 1);
        crate::passes::analysis::check(&circuit).unwrap();
    }

    #[test]
    fn explicit_trailing_bootstrap_survives_build() {
        // An application that *asks* for a refresh gets one, even when the
        // suffix consumes no levels: explicit bootstrap() is interface.
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let mut x = b.input();
        for _ in 0..8 {
            let p = b.hmult(x, x).unwrap();
            x = b.rescale(p).unwrap();
        }
        let refreshed = b.bootstrap(x).unwrap();
        b.output(refreshed);
        let circuit = b.build();
        assert_eq!(circuit.bootstrap_count(), 1);
    }

    #[test]
    fn explicit_bootstrap_requires_budget() {
        let toy = CkksInstance::toy(11, 6, 2);
        let mut b = CircuitBuilder::new(&toy);
        let x = b.input();
        assert!(matches!(
            b.bootstrap(x),
            Err(CircuitError::CannotBootstrap { .. })
        ));
    }
}
