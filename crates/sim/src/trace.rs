use bts_params::CkksInstance;

use crate::trace_index::TraceIndex;

/// Identifier of a ciphertext flowing through a trace; used by the simulator's
/// software-managed cache model to track on-chip residency.
pub type CtId = u64;

/// A primitive homomorphic operation, at the granularity the paper's
/// evaluation uses (§2.3). Complex workloads (bootstrapping, HELR, ResNet-20,
/// sorting) are expressed as sequences of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HeOp {
    /// Ciphertext–ciphertext multiplication (tensor product + key-switching).
    HMult,
    /// Slot rotation (automorphism + key-switching).
    HRot,
    /// Complex conjugation (automorphism + key-switching).
    Conjugate,
    /// Ciphertext–plaintext multiplication.
    PMult,
    /// Ciphertext–plaintext addition.
    PAdd,
    /// Ciphertext–ciphertext addition.
    HAdd,
    /// Rescaling (drop the last prime).
    HRescale,
    /// Ciphertext–scalar multiplication.
    CMult,
    /// Ciphertext–scalar addition.
    CAdd,
    /// Modulus raise at the start of bootstrapping (no key-switching).
    ModRaise,
}

impl HeOp {
    /// Every op class, in declaration (and `Ord`) order.
    pub(crate) const ALL: [HeOp; 10] = [
        HeOp::HMult,
        HeOp::HRot,
        HeOp::Conjugate,
        HeOp::PMult,
        HeOp::PAdd,
        HeOp::HAdd,
        HeOp::HRescale,
        HeOp::CMult,
        HeOp::CAdd,
        HeOp::ModRaise,
    ];

    /// Position of the class in [`HeOp::ALL`], for tables indexed by op.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Whether this op performs a key-switching (and therefore streams an
    /// evaluation key from off-chip memory).
    pub fn is_key_switching(&self) -> bool {
        matches!(self, HeOp::HMult | HeOp::HRot | HeOp::Conjugate)
    }
}

/// One scheduled operation in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedOp {
    /// The operation kind.
    pub op: HeOp,
    /// Ciphertext level at which the op executes.
    pub level: usize,
    /// Input ciphertext identities (for cache modelling).
    pub inputs: Vec<CtId>,
    /// Output ciphertext identity, if the op produces a new ciphertext.
    pub output: Option<CtId>,
    /// Whether this op belongs to a bootstrapping region (for the Fig. 7b
    /// bootstrap-fraction breakdown).
    pub in_bootstrap: bool,
}

/// A complete HE-op trace plus the parameter set it was generated for.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTrace {
    /// The CKKS instance this trace assumes.
    pub instance: CkksInstance,
    /// The operations, in program order.
    pub ops: Vec<TracedOp>,
    /// Number of distinct rotation keys the trace requires.
    pub rotation_keys: usize,
    /// Ciphertext ids that enter the trace from outside (fresh ciphertexts
    /// arriving from the host); every other id must be produced by an op.
    pub inputs: Vec<CtId>,
    /// Level of each trace input, parallel to `inputs`. [`TraceBuilder`] keeps
    /// the two vectors in sync; [`OpTrace::validate`] checks the levels
    /// against the instance budget just like op levels.
    pub input_levels: Vec<usize>,
}

/// A structural defect in an [`OpTrace`] found by [`OpTrace::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// An op consumes a ciphertext id that is neither a declared trace input
    /// nor the output of an earlier op.
    UndefinedInput {
        /// Index of the offending op in program order.
        op_index: usize,
        /// The undefined ciphertext id.
        id: CtId,
    },
    /// An op's level exceeds the instance's level budget.
    LevelOutOfRange {
        /// Index of the offending op in program order.
        op_index: usize,
        /// The out-of-range level.
        level: usize,
        /// The instance's maximum level L.
        max_level: usize,
    },
    /// An op's output id collides with an already-defined ciphertext (a
    /// trace input or an earlier op's output), which would make the cache
    /// model treat two unrelated ciphertexts as one resident entry.
    DuplicateOutput {
        /// Index of the offending op in program order.
        op_index: usize,
        /// The reused ciphertext id.
        id: CtId,
    },
    /// A trace input's recorded level exceeds the instance's level budget.
    InputLevelOutOfRange {
        /// Index of the offending entry in [`OpTrace::inputs`].
        input_index: usize,
        /// The out-of-range level.
        level: usize,
        /// The instance's maximum level L.
        max_level: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::UndefinedInput { op_index, id } => write!(
                f,
                "op #{op_index} consumes ciphertext id {id} that is neither a trace input nor a prior op's output"
            ),
            TraceError::LevelOutOfRange {
                op_index,
                level,
                max_level,
            } => write!(
                f,
                "op #{op_index} executes at level {level} beyond the instance budget L = {max_level}"
            ),
            TraceError::DuplicateOutput { op_index, id } => write!(
                f,
                "op #{op_index} redefines ciphertext id {id}, aliasing an existing ciphertext"
            ),
            TraceError::InputLevelOutOfRange {
                input_index,
                level,
                max_level,
            } => write!(
                f,
                "trace input #{input_index} enters at level {level} beyond the instance budget L = {max_level}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl OpTrace {
    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of key-switching operations (HMult/HRot/Conjugate).
    pub fn key_switch_count(&self) -> usize {
        self.ops.iter().filter(|o| o.op.is_key_switching()).count()
    }

    /// Count of operations of a given kind.
    pub fn count(&self, op: HeOp) -> usize {
        self.ops.iter().filter(|o| o.op == op).count()
    }

    /// Concatenates another trace after this one. The other trace's
    /// ciphertext ids are shifted above this trace's id range: independent
    /// [`TraceBuilder`]s both number ids from 0, so splicing them verbatim
    /// would alias unrelated ciphertexts and corrupt the cache model's
    /// residency accounting (phantom hits, understated HBM traffic).
    ///
    /// `rotation_keys` stores only a count, not the rotation amounts, so the
    /// merged value (the max of the two counts) is a *lower bound*: traces
    /// with disjoint rotation sets need up to the sum.
    pub fn extend(&mut self, other: &OpTrace) {
        let offset = self.next_free_id();
        self.ops.extend(other.ops.iter().map(|op| {
            let mut op = op.clone();
            for id in &mut op.inputs {
                *id += offset;
            }
            if let Some(out) = &mut op.output {
                *out += offset;
            }
            op
        }));
        self.rotation_keys = self.rotation_keys.max(other.rotation_keys);
        self.inputs
            .extend(other.inputs.iter().map(|id| id + offset));
        self.input_levels.extend(other.input_levels.iter().copied());
    }

    /// The smallest ciphertext id not used by this trace.
    fn next_free_id(&self) -> CtId {
        let op_ids = self
            .ops
            .iter()
            .flat_map(|op| op.inputs.iter().copied().chain(op.output));
        self.inputs
            .iter()
            .copied()
            .chain(op_ids)
            .max()
            .map_or(0, |max| max + 1)
    }

    /// Checks structural well-formedness: every op input is either a declared
    /// trace input or the output of an earlier op, no op redefines an id, and
    /// every level lies within the instance's budget. The simulator validates
    /// traces on entry, so a hand-rolled trace with dangling ids fails fast
    /// instead of corrupting the cache model's residency accounting.
    ///
    /// The check *is* the construction of the [`TraceIndex`] the sweeps run
    /// over — this builds one and drops it — so there is a single definition
    /// of a well-formed trace.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] found, in program order.
    pub fn validate(&self) -> Result<(), TraceError> {
        TraceIndex::new(self).map(drop)
    }
}

/// Builds [`OpTrace`]s with automatic ciphertext-id management.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    instance: CkksInstance,
    ops: Vec<TracedOp>,
    next_id: CtId,
    rotation_keys: std::collections::HashSet<i64>,
    in_bootstrap: bool,
    inputs: Vec<CtId>,
    input_levels: Vec<usize>,
}

impl TraceBuilder {
    /// Starts a new trace for an instance.
    pub fn new(instance: &CkksInstance) -> Self {
        Self {
            instance: instance.clone(),
            ops: Vec::new(),
            next_id: 0,
            rotation_keys: std::collections::HashSet::new(),
            in_bootstrap: false,
            inputs: Vec::new(),
            input_levels: Vec::new(),
        }
    }

    /// The instance this trace targets.
    pub fn instance(&self) -> &CkksInstance {
        &self.instance
    }

    /// Allocates a fresh ciphertext id at the given level (e.g. a ciphertext
    /// arriving from the host); no op is recorded, but the level is kept so
    /// [`OpTrace::validate`] can check trace inputs against the budget.
    pub fn fresh_ct(&mut self, level: usize) -> CtId {
        let id = self.next_id;
        self.next_id += 1;
        self.inputs.push(id);
        self.input_levels.push(level);
        id
    }

    /// Marks subsequent ops as belonging (or not) to a bootstrapping region.
    pub fn set_bootstrap_region(&mut self, on: bool) {
        self.in_bootstrap = on;
    }

    fn push(&mut self, op: HeOp, level: usize, inputs: Vec<CtId>, has_output: bool) -> CtId {
        let output = if has_output {
            let id = self.next_id;
            self.next_id += 1;
            Some(id)
        } else {
            None
        };
        self.ops.push(TracedOp {
            op,
            level,
            inputs,
            output,
            in_bootstrap: self.in_bootstrap,
        });
        output.unwrap_or(u64::MAX)
    }

    /// Records an HMult of two ciphertexts at level `a`/`b`'s current level.
    pub fn hmult_at(&mut self, a: CtId, b: CtId, level: usize) -> CtId {
        self.push(HeOp::HMult, level, vec![a, b], true)
    }

    /// Records an HMult at the instance's maximum level.
    pub fn hmult(&mut self, a: CtId, b: CtId) -> CtId {
        self.hmult_at(a, b, self.instance.max_level())
    }

    /// Records an HRot; `rotation` is tracked only to count distinct keys.
    pub fn hrot(&mut self, a: CtId, rotation: i64, level: usize) -> CtId {
        if rotation != 0 {
            self.rotation_keys.insert(rotation);
        }
        self.push(HeOp::HRot, level, vec![a], true)
    }

    /// Records a conjugation.
    pub fn conjugate(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::Conjugate, level, vec![a], true)
    }

    /// Records a plaintext multiplication.
    pub fn pmult(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::PMult, level, vec![a], true)
    }

    /// Records a plaintext addition.
    pub fn padd(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::PAdd, level, vec![a], true)
    }

    /// Records a ciphertext addition.
    pub fn hadd(&mut self, a: CtId, b: CtId, level: usize) -> CtId {
        self.push(HeOp::HAdd, level, vec![a, b], true)
    }

    /// Records a rescale at the level of its input (consumes one level).
    pub fn hrescale(&mut self, a: CtId) -> CtId {
        self.hrescale_at(a, self.instance.max_level())
    }

    /// Records a rescale at an explicit level.
    pub fn hrescale_at(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::HRescale, level, vec![a], true)
    }

    /// Records a scalar multiplication.
    pub fn cmult(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::CMult, level, vec![a], true)
    }

    /// Records a scalar addition.
    pub fn cadd(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::CAdd, level, vec![a], true)
    }

    /// Records a modulus raise (start of bootstrapping).
    pub fn mod_raise(&mut self, a: CtId, to_level: usize) -> CtId {
        self.push(HeOp::ModRaise, to_level, vec![a], true)
    }

    /// Finalizes the trace.
    pub fn build(self) -> OpTrace {
        OpTrace {
            instance: self.instance,
            ops: self.ops,
            rotation_keys: self.rotation_keys.len(),
            inputs: self.inputs,
            input_levels: self.input_levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_ids_ops_and_keys() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let y = b.fresh_ct(27);
        let z = b.hmult(x, y);
        let z = b.hrescale_at(z, 27);
        let _ = b.hrot(z, 5, 26);
        let _ = b.hrot(z, 5, 26);
        let _ = b.hrot(z, -3, 26);
        let t = b.build();
        assert_eq!(t.len(), 5);
        assert_eq!(t.key_switch_count(), 4);
        assert_eq!(t.count(HeOp::HRescale), 1);
        assert_eq!(t.rotation_keys, 2, "duplicate rotations share a key");
    }

    #[test]
    fn bootstrap_region_marking() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(0);
        b.set_bootstrap_region(true);
        let y = b.mod_raise(x, 27);
        let _ = b.hrot(y, 1, 27);
        b.set_bootstrap_region(false);
        let _ = b.hmult_at(y, y, 20);
        let t = b.build();
        assert!(t.ops[0].in_bootstrap && t.ops[1].in_bootstrap);
        assert!(!t.ops[2].in_bootstrap);
    }

    #[test]
    fn traces_can_be_concatenated() {
        let ins = CkksInstance::ins1();
        let mut a = TraceBuilder::new(&ins);
        let x = a.fresh_ct(27);
        a.hmult(x, x);
        let mut t1 = a.build();
        let mut b = TraceBuilder::new(&ins);
        let y = b.fresh_ct(27);
        b.hrot(y, 1, 27);
        let t2 = b.build();
        t1.extend(&t2);
        assert_eq!(t1.len(), 2);
        assert_eq!(t1.rotation_keys, 1);
        assert!(t1.validate().is_ok(), "merged inputs keep the trace valid");
        // The second trace's ids were shifted above the first's: both
        // builders started numbering at 0, but the merged trace must not
        // alias their unrelated ciphertexts.
        assert_eq!(t1.inputs.len(), 2);
        assert_ne!(t1.inputs[0], t1.inputs[1]);
        assert_ne!(t1.ops[0].inputs[0], t1.ops[1].inputs[0]);
    }

    #[test]
    fn builder_traces_validate() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let y = b.fresh_ct(27);
        let z = b.hmult(x, y);
        let z = b.hrescale_at(z, 27);
        b.hrot(z, 5, 26);
        assert!(b.build().validate().is_ok());
    }

    #[test]
    fn dangling_input_ids_are_rejected() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.hmult(x, x);
        let mut trace = b.build();
        trace.ops.push(TracedOp {
            op: HeOp::HRot,
            level: 20,
            inputs: vec![999],
            output: Some(1000),
            in_bootstrap: false,
        });
        assert_eq!(
            trace.validate(),
            Err(TraceError::UndefinedInput {
                op_index: 1,
                id: 999
            })
        );
    }

    #[test]
    fn duplicate_output_ids_are_rejected() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.hmult(x, x);
        let mut trace = b.build();
        // Redefine the first op's output id with a second hand-rolled op.
        let out = trace.ops[0].output.unwrap();
        trace.ops.push(TracedOp {
            op: HeOp::HRot,
            level: 20,
            inputs: vec![x],
            output: Some(out),
            in_bootstrap: false,
        });
        assert_eq!(
            trace.validate(),
            Err(TraceError::DuplicateOutput {
                op_index: 1,
                id: out
            })
        );
    }

    #[test]
    fn fresh_ct_levels_are_recorded_and_validated() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let y = b.fresh_ct(3);
        b.hmult_at(x, y, 27);
        let trace = b.build();
        assert_eq!(trace.input_levels, vec![27, 3]);
        assert!(trace.validate().is_ok());

        let mut bad = TraceBuilder::new(&ins);
        let z = bad.fresh_ct(99); // beyond INS-1's L = 27
        bad.hmult_at(z, z, 27);
        assert_eq!(
            bad.build().validate(),
            Err(TraceError::InputLevelOutOfRange {
                input_index: 0,
                level: 99,
                max_level: 27
            })
        );
    }

    #[test]
    fn extend_carries_input_levels() {
        let ins = CkksInstance::ins1();
        let mut a = TraceBuilder::new(&ins);
        let x = a.fresh_ct(27);
        a.hmult(x, x);
        let mut t1 = a.build();
        let mut b = TraceBuilder::new(&ins);
        let y = b.fresh_ct(5);
        b.hrot(y, 1, 5);
        t1.extend(&b.build());
        assert_eq!(t1.input_levels, vec![27, 5]);
        assert!(t1.validate().is_ok());
    }

    #[test]
    fn out_of_budget_levels_are_rejected() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.hmult_at(x, x, 99);
        let trace = b.build();
        assert_eq!(
            trace.validate(),
            Err(TraceError::LevelOutOfRange {
                op_index: 0,
                level: 99,
                max_level: 27
            })
        );
    }
}
