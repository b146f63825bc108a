//! [`CircuitBuilder`] records a circuit one instruction at a time through the
//! analysis's level/scale rule (`passes::analysis::transfer`, the rule
//! [`crate::passes::analysis::analyze`] folds over whole circuits), and at
//! [`CircuitBuilder::build`] prunes its own greedy refreshes through the
//! bootstrap-placement rebuild (`passes::bootstrap_place::drop_markers`) — so
//! neither decision has a second copy here.

use bts_params::{CkksInstance, L_BOOT};

use crate::error::CircuitError;
use crate::ir::{CircuitInput, HeCircuit, HeInstr, HeInstrNode, ValueId};
use crate::passes::analysis::{self, ValueFacts};
use crate::passes::{drop_markers, Analyzed};

/// Fluent builder of [`HeCircuit`]s.
///
/// The builder tracks every value's level and scale exponent exactly as
/// [`analysis::analyze`] recomputes them, and refuses an instruction the
/// functional model could not execute: rescaling a level-0 value, adding
/// values of different scale exponents, or operating on a value it never
/// handed out. On bootstrappable instances,
/// [`CircuitBuilder::ensure`] transparently inserts [`HeInstr::Bootstrap`]
/// markers when the budget is about to run out — mirroring how FHE
/// applications are scheduled in practice and producing the per-instance
/// bootstrap counts of Table 6.
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
    /// Facts of every value handed out, indexed by its id.
    facts: Vec<ValueFacts>,
    /// Results of the bootstrap markers [`CircuitBuilder::ensure`] inserted
    /// on its own initiative (as opposed to explicit
    /// [`CircuitBuilder::bootstrap`] calls, which are application requests),
    /// in ascending order. Only these are candidates for the prune in
    /// [`CircuitBuilder::build`].
    auto_bootstraps: Vec<ValueId>,
}

impl CircuitBuilder {
    /// Starts a circuit for an instance.
    pub fn new(instance: &CkksInstance) -> Self {
        Self {
            instance: instance.clone(),
            inputs: Vec::new(),
            nodes: Vec::new(),
            outputs: Vec::new(),
            facts: Vec::new(),
            auto_bootstraps: Vec::new(),
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
    ///
    /// # Panics
    ///
    /// If this builder never handed out `v`.
    pub fn level_of(&self, v: ValueId) -> usize {
        self.facts[v as usize].level
    }

    /// Current scale exponent of a value (power of Δ).
    ///
    /// # Panics
    ///
    /// If this builder never handed out `v`.
    pub fn scale_exp_of(&self, v: ValueId) -> u32 {
        self.facts[v as usize].scale_exp
    }

    fn facts_of(&self, v: ValueId) -> Option<ValueFacts> {
        self.facts.get(v as usize).copied()
    }

    fn define(&mut self, facts: ValueFacts) -> ValueId {
        let id = self.facts.len() as ValueId;
        self.facts.push(facts);
        id
    }

    /// Records `instr` if the level/scale rule admits it.
    fn emit(&mut self, instr: HeInstr) -> Result<ValueId, CircuitError> {
        let (level, facts) = analysis::transfer(instr, &self.instance, |v| self.facts_of(v))?;
        let result = self.define(facts);
        self.nodes.push(HeInstrNode {
            instr,
            result,
            level,
        });
        Ok(result)
    }

    /// Declares a fresh ciphertext input at the usable top level.
    pub fn input(&mut self) -> ValueId {
        self.input_at(self.usable_top_level())
    }

    /// Declares a fresh ciphertext input at an explicit level (clamped to the
    /// instance budget).
    pub fn input_at(&mut self, level: usize) -> ValueId {
        let level = level.min(self.instance.max_level());
        let id = self.define(ValueFacts {
            level,
            scale_exp: 1,
        });
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
    /// The reserve level is what the built circuit pays for this rule: a
    /// chain of unit-level groups refreshes every U − 1 of its U usable
    /// levels. [`crate::BootstrapPlacePass`] recovers it on the optimized
    /// path, moving each refresh to the last level its input reaches.
    ///
    /// # Errors
    ///
    /// Fails with [`CircuitError::LevelExhausted`] if the budget is too small
    /// and the instance cannot bootstrap, and with
    /// [`CircuitError::UnknownValue`] for a value it never handed out. If `v`
    /// already sits at the refresh ceiling, no marker is inserted (it would
    /// be a no-op refresh) and the value is returned as-is — the workload
    /// simply runs as deep as the instance allows.
    pub fn ensure(&mut self, v: ValueId, depth: usize) -> Result<ValueId, CircuitError> {
        let level = self.facts_of(v).ok_or(CircuitError::UnknownValue(v))?.level;
        if level > depth {
            return Ok(v);
        }
        if self.can_bootstrap() {
            if self.usable_top_level() > level {
                let refreshed = self.bootstrap(v)?;
                self.auto_bootstraps.push(refreshed);
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
    /// Fails if the instance cannot bootstrap, if `v` carries an unreduced
    /// scale (bootstrap a rescaled, Δ^1 value), or if it never handed `v`
    /// out.
    pub fn bootstrap(&mut self, v: ValueId) -> Result<ValueId, CircuitError> {
        if !self.can_bootstrap() {
            return Err(CircuitError::CannotBootstrap {
                max_level: self.instance.max_level(),
                required: L_BOOT,
            });
        }
        self.emit(HeInstr::Bootstrap { a: v })
    }

    /// Ciphertext–ciphertext multiplication at the operands' common (minimum)
    /// level; scale exponents add. Rescale afterwards to bring the scale back.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownValue`] for an operand it never handed out.
    pub fn hmult(&mut self, a: ValueId, b: ValueId) -> Result<ValueId, CircuitError> {
        self.emit(HeInstr::HMult { a, b })
    }

    /// Slot rotation by `rotation`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownValue`] for an operand it never handed out.
    pub fn hrot(&mut self, a: ValueId, rotation: i64) -> Result<ValueId, CircuitError> {
        self.emit(HeInstr::HRot { a, rotation })
    }

    /// Complex conjugation.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownValue`] for an operand it never handed out.
    pub fn conjugate(&mut self, a: ValueId) -> Result<ValueId, CircuitError> {
        self.emit(HeInstr::Conjugate { a })
    }

    /// Plaintext (splat-constant) multiplication; the scale exponent grows by
    /// one, exactly as [`bts_ckks::Evaluator::mul_plain`] behaves with a
    /// plaintext encoded at the context scale.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownValue`] for an operand it never handed out.
    pub fn pmult(&mut self, a: ValueId, value: f64) -> Result<ValueId, CircuitError> {
        self.emit(HeInstr::PMult { a, value })
    }

    /// Plaintext (splat-constant) addition at the operand's own scale.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownValue`] for an operand it never handed out.
    pub fn padd(&mut self, a: ValueId, value: f64) -> Result<ValueId, CircuitError> {
        self.emit(HeInstr::PAdd { a, value })
    }

    /// Ciphertext–ciphertext addition at the operands' common level.
    ///
    /// # Errors
    ///
    /// Fails with [`CircuitError::ScaleMismatch`] if the scale exponents
    /// differ (the functional model would reject the addition), and with
    /// [`CircuitError::UnknownValue`] for an operand it never handed out.
    pub fn hadd(&mut self, a: ValueId, b: ValueId) -> Result<ValueId, CircuitError> {
        self.emit(HeInstr::HAdd { a, b })
    }

    /// Rescale: drop the last prime, consuming one level and one scale
    /// exponent.
    ///
    /// # Errors
    ///
    /// Fails if the value is at level 0 or already at the base scale Δ^1
    /// (rescaling it would leave the message without a scale), or if this
    /// builder never handed it out.
    pub fn rescale(&mut self, a: ValueId) -> Result<ValueId, CircuitError> {
        self.emit(HeInstr::Rescale { a })
    }

    /// Scalar multiplication (the scalar is encoded at the context scale, so
    /// the scale exponent grows by one).
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownValue`] for an operand it never handed out.
    pub fn cmult(&mut self, a: ValueId, value: f64) -> Result<ValueId, CircuitError> {
        self.emit(HeInstr::CMult { a, value })
    }

    /// Scalar addition at the operand's own scale.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownValue`] for an operand it never handed out.
    pub fn cadd(&mut self, a: ValueId, value: f64) -> Result<ValueId, CircuitError> {
        self.emit(HeInstr::CAdd { a, value })
    }

    /// Modulus raise to the top of the chain (start of a hand-written
    /// bootstrap; the packaged [`CircuitBuilder::bootstrap`] marker is what
    /// workloads normally use).
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownValue`] for an operand it never handed out.
    pub fn mod_raise(&mut self, a: ValueId) -> Result<ValueId, CircuitError> {
        self.emit(HeInstr::ModRaise { a })
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
    /// never pruned. The prune shares [`crate::BootstrapPlacePass`]'s
    /// rebuild under the rule "inserted by `ensure` and demanding no level",
    /// which also relevels the suffix; moving the refreshes it keeps is the
    /// pass's, not the builder's.
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
        if self.auto_bootstraps.is_empty() {
            return circuit;
        }
        let auto = &self.auto_bootstraps;
        // Only an output the builder never handed out makes the sweep's
        // relevel fail; the circuit then goes out as recorded.
        drop_markers(&circuit, |result, demand| {
            demand == 0 && auto.binary_search(&result).is_ok()
        })
        .map_or(circuit, Analyzed::into_circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

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

    /// The reference [`CircuitBuilder::build`] is held `==` to: the prune it
    /// made before it shared the bootstrap-placement sweep. Each marker
    /// `ensure` inserted is tested on its own by walking forward from it,
    /// every marker whose suffix rescales nothing is removed at once with its
    /// uses redirected to its input, and the circuit is releveled — or, if
    /// that fails, returned unpruned.
    fn forward_reach_build(b: CircuitBuilder) -> HeCircuit {
        let auto = b.auto_bootstraps.clone();
        let circuit = CircuitBuilder {
            auto_bootstraps: Vec::new(),
            ..b
        }
        .build();
        let prunable: Vec<usize> = circuit
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| {
                auto.contains(&n.result)
                    && matches!(n.instr, HeInstr::Bootstrap { .. })
                    && !suffix_consumes_levels(&circuit.nodes, *i, n.result)
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
        match analysis::relevel(&mut candidate) {
            Ok(_) => candidate,
            Err(_) => circuit,
        }
    }

    /// A random builder program over a few accumulators: `ensure` at random
    /// depths, explicit refreshes (one fed by an `ensure` refresh), modulus
    /// raises, level-burning products and level-free ops, then one to three
    /// outputs, which may be a refresh's result. Steps the builder refuses
    /// leave their accumulator where it was.
    fn random_program(ins: &CkksInstance, codes: &[u32]) -> CircuitBuilder {
        let mut b = CircuitBuilder::new(ins);
        let mut acc: Vec<ValueId> = (0..2 + codes[0] % 3)
            .map(|i| b.input_at(ins.usable_top_level().saturating_sub(i as usize)))
            .collect();
        let rescaled = |b: &mut CircuitBuilder, raw: Result<ValueId, CircuitError>| {
            raw.and_then(|raw| b.rescale(raw)).ok()
        };
        for &code in &codes[1..] {
            let i = (code >> 8) as usize % acc.len();
            let j = (code >> 16) as usize % acc.len();
            let (x, y) = (acc[i], acc[j]);
            let depth = (code >> 24) as usize % 4;
            let next = match code % 12 {
                0..=2 => b.ensure(x, depth).ok(),
                3 => {
                    let raw = b.hmult(x, y);
                    rescaled(&mut b, raw)
                }
                4 => b.hadd(x, y).ok(),
                5 => {
                    let raw = b.pmult(x, 0.5);
                    rescaled(&mut b, raw).and_then(|m| {
                        let raw = b.cmult(m, 2.0);
                        rescaled(&mut b, raw)
                    })
                }
                6 => b.bootstrap(x).ok(),
                7 => b.ensure(x, depth).and_then(|r| b.bootstrap(r)).ok(),
                8 if depth == 0 => b.mod_raise(x).ok(),
                9 => b
                    .hrot(x, 1 + i64::from(code >> 24) % 3)
                    .and_then(|r| b.conjugate(r))
                    .and_then(|r| b.padd(r, 0.25))
                    .and_then(|r| b.cadd(r, 0.5))
                    .ok(),
                _ => {
                    let raw = b.hmult(x, x);
                    rescaled(&mut b, raw)
                }
            };
            acc[i] = next.unwrap_or(x);
        }
        b.output(acc[0]);
        match codes[0] >> 8 & 3 {
            0 => {}
            1 => b.output(acc[1]),
            2 => {
                if let Ok(refreshed) = b.ensure(acc[1], ins.usable_top_level()) {
                    b.output(refreshed);
                }
            }
            _ => {
                if let Ok(refreshed) = b.bootstrap(acc[1]) {
                    b.output(refreshed);
                }
            }
        }
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `build` prunes exactly what the forward-reach reference prunes,
        /// node for node and level for level, on INS-1 and on a toy
        /// instance of `usable` levels above the bootstrap.
        #[test]
        fn build_prunes_like_the_forward_reach_reference(
            usable in 1usize..9,
            codes in proptest::collection::vec(any::<u32>(), 48),
        ) {
            let toy = CkksInstance::toy(10, L_BOOT + usable, 2);
            for ins in [CkksInstance::ins1(), toy] {
                let b = random_program(&ins, &codes);
                let reference = forward_reach_build(b.clone());
                prop_assert_eq!(b.build(), reference);
            }
        }
    }

    #[test]
    fn foreign_values_are_refused_with_a_typed_error() {
        type Call = fn(&mut CircuitBuilder, ValueId, ValueId) -> Result<ValueId, CircuitError>;
        let calls: [(&str, Call); 15] = [
            ("hmult a", |b, _, f| b.hmult(f, 0)),
            ("hmult b", |b, x, f| b.hmult(x, f)),
            ("hadd a", |b, x, f| b.hadd(f, x)),
            ("hadd b", |b, x, f| b.hadd(x, f)),
            ("hrot", |b, _, f| b.hrot(f, 1)),
            ("conjugate", |b, _, f| b.conjugate(f)),
            ("pmult", |b, _, f| b.pmult(f, 0.5)),
            ("padd", |b, _, f| b.padd(f, 0.5)),
            ("cmult", |b, _, f| b.cmult(f, 0.5)),
            ("cadd", |b, _, f| b.cadd(f, 0.5)),
            ("rescale", |b, _, f| b.rescale(f)),
            ("mod_raise", |b, _, f| b.mod_raise(f)),
            ("bootstrap", |b, _, f| b.bootstrap(f)),
            ("ensure", |b, _, f| b.ensure(f, 1)),
            ("ensure deep", |b, _, f| b.ensure(f, 100)),
        ];
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        for foreign in [1, 2, 1_000, ValueId::MAX] {
            for (name, call) in calls {
                assert_eq!(
                    call(&mut b, x, foreign),
                    Err(CircuitError::UnknownValue(foreign)),
                    "{name} on v{foreign}"
                );
            }
        }
        // Nothing was recorded, and the builder still works.
        assert!(b.nodes.is_empty());
        let p = b.hmult(x, x).unwrap();
        let p = b.rescale(p).unwrap();
        b.output(p);
        let circuit = b.build();
        assert_eq!(circuit.len(), 2);
        analysis::check(&circuit).unwrap();
    }

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
