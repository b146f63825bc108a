//! The vocabulary of a trace — op classes, ciphertext ids, structural
//! defects — and [`TraceBuilder`], which records one. The trace itself,
//! [`OpTrace`], lives in `trace_index`: it is built dense, validated and
//! indexed in one scan.

use std::collections::HashSet;

use bts_params::CkksInstance;

use crate::config::ConfigError;
use crate::trace_index::{rebuild, Columns, OpTrace};

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

/// One op of a hand-rolled trace, its ciphertexts named by arbitrary ids —
/// the form [`OpTrace::from_ops`] takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawOp<'a> {
    /// The operation kind.
    pub op: HeOp,
    /// Ciphertext level at which the op executes.
    pub level: usize,
    /// Input ciphertext identities, in operand order.
    pub inputs: &'a [CtId],
    /// Output ciphertext identity, if the op produces a new ciphertext.
    pub output: Option<CtId>,
    /// Whether this op belongs to a bootstrapping region (for the Fig. 7b
    /// bootstrap-fraction breakdown and the scheduler's barriers).
    pub in_bootstrap: bool,
}

/// Why a trace cannot be charged: a structural defect [`OpTrace::validate`]
/// reports (found when the trace is built), or a simulator that cannot.
#[derive(Debug, Clone, PartialEq)]
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
        /// Position of the offending entry among [`OpTrace::inputs`].
        input_index: usize,
        /// The out-of-range level.
        level: usize,
        /// The instance's maximum level L.
        max_level: usize,
    },
    /// The trace was recorded for another CKKS instance than the
    /// simulator's: its levels were checked against one parameter set and
    /// would be charged on another.
    InstanceMismatch {
        /// Name of the trace's instance.
        trace: String,
        /// Name of the simulator's instance.
        simulator: String,
    },
    /// The simulator's configuration fails [`crate::BtsConfig::validate`]:
    /// its ops would be charged infinite or NaN seconds.
    InvalidConfig(ConfigError),
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
            TraceError::InstanceMismatch { trace, simulator } => write!(
                f,
                "trace recorded for instance {trace} run on a simulator of instance {simulator}"
            ),
            TraceError::InvalidConfig(e) => write!(f, "invalid simulator configuration: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Builds [`OpTrace`]s with automatic ciphertext-id management. Ops are
/// recorded column by column into flat arrays — no allocation per op, and
/// every id the builder hands out is its own slot — and
/// [`TraceBuilder::build`] validates and indexes them once.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    instance: CkksInstance,
    columns: Columns,
    next_id: CtId,
    rotation_keys: HashSet<i64>,
    in_bootstrap: bool,
    /// `(operand position, id)` of every operand the builder had not handed
    /// out when it was read — undefined there; patched in at `build`.
    foreign: Vec<(usize, CtId)>,
}

impl TraceBuilder {
    /// Starts a new trace for an instance.
    pub fn new(instance: &CkksInstance) -> Self {
        Self::with_capacity(instance, 0)
    }

    /// Starts a new trace with room for `ops` ops before its columns grow —
    /// for a caller that knows how long the trace will be.
    pub fn with_capacity(instance: &CkksInstance, ops: usize) -> Self {
        Self {
            instance: instance.clone(),
            columns: Columns::with_capacity(ops),
            next_id: 0,
            rotation_keys: HashSet::new(),
            in_bootstrap: false,
            foreign: Vec::new(),
        }
    }

    /// The instance this trace targets.
    pub fn instance(&self) -> &CkksInstance {
        &self.instance
    }

    /// Allocates a fresh ciphertext id at the given level (e.g. a ciphertext
    /// arriving from the host); no op is recorded, but the level is kept so
    /// the built trace checks trace inputs against the budget.
    pub fn fresh_ct(&mut self, level: usize) -> CtId {
        let id = self.next_id;
        self.next_id += 1;
        self.columns.inputs.push((id as u32, level));
        id
    }

    /// Marks subsequent ops as belonging (or not) to a bootstrapping region.
    pub fn set_bootstrap_region(&mut self, on: bool) {
        self.in_bootstrap = on;
    }

    fn push(&mut self, op: HeOp, level: usize, inputs: &[CtId]) -> CtId {
        let output = self.next_id;
        self.next_id += 1;
        let at = self.columns.operands.len();
        let foreign = inputs.iter().enumerate().filter(|&(_, &id)| id >= output);
        self.foreign.extend(foreign.map(|(k, &id)| (at + k, id)));
        // Slot 0 holds a foreign operand's place until `build` patches it.
        let slots = inputs
            .iter()
            .map(|&id| if id < output { id as u32 } else { 0 });
        self.columns
            .push(op, level, self.in_bootstrap, slots, output as u32);
        output
    }

    /// Records an HMult of two ciphertexts at level `a`/`b`'s current level.
    pub fn hmult_at(&mut self, a: CtId, b: CtId, level: usize) -> CtId {
        self.push(HeOp::HMult, level, &[a, b])
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
        self.push(HeOp::HRot, level, &[a])
    }

    /// Records a conjugation.
    pub fn conjugate(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::Conjugate, level, &[a])
    }

    /// Records a plaintext multiplication.
    pub fn pmult(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::PMult, level, &[a])
    }

    /// Records a plaintext addition.
    pub fn padd(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::PAdd, level, &[a])
    }

    /// Records a ciphertext addition.
    pub fn hadd(&mut self, a: CtId, b: CtId, level: usize) -> CtId {
        self.push(HeOp::HAdd, level, &[a, b])
    }

    /// Records a rescale at the instance's maximum level (consumes one
    /// level); [`TraceBuilder::hrescale_at`] takes the input's level.
    pub fn hrescale(&mut self, a: CtId) -> CtId {
        self.hrescale_at(a, self.instance.max_level())
    }

    /// Records a rescale at an explicit level.
    pub fn hrescale_at(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::HRescale, level, &[a])
    }

    /// Records a scalar multiplication.
    pub fn cmult(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::CMult, level, &[a])
    }

    /// Records a scalar addition.
    pub fn cadd(&mut self, a: CtId, level: usize) -> CtId {
        self.push(HeOp::CAdd, level, &[a])
    }

    /// Records a modulus raise (start of bootstrapping).
    pub fn mod_raise(&mut self, a: CtId, to_level: usize) -> CtId {
        self.push(HeOp::ModRaise, to_level, &[a])
    }

    /// Finalizes the trace: one scan validates it and builds its tables.
    /// An operand id the builder never handed out sends the trace through
    /// [`OpTrace::from_ops`] instead, which interns it.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds more than `u32::MAX` ciphertexts.
    pub fn build(self) -> OpTrace {
        assert!(
            u32::try_from(self.next_id).is_ok(),
            "ciphertext count fits u32"
        );
        let keys = self.rotation_keys.len();
        // Lossless: checked above.
        let slots = self.next_id as usize;
        let trace = OpTrace::index(self.instance, self.columns, Vec::new(), slots, keys);
        if self.foreign.is_empty() {
            trace
        } else {
            rebuild(trace.instance(), &[(&trace, 0)], &self.foreign, keys)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(op, level, in_bootstrap, operand ids, output id)` of every op.
    type Listed = Vec<(HeOp, usize, bool, Vec<CtId>, Option<CtId>)>;

    fn listed(trace: &OpTrace) -> Listed {
        trace
            .ops()
            .map(|op| {
                let ids = op.operands.iter().map(|&s| trace.id_of(s)).collect();
                let output = op.output.map(|s| trace.id_of(s));
                (op.op, op.level, op.in_bootstrap, ids, output)
            })
            .collect()
    }

    /// `trace` with `extra` appended as hand-rolled ops, rebuilt from ids.
    fn with_ops(trace: &OpTrace, extra: &[RawOp<'_>]) -> OpTrace {
        let inputs: Vec<(CtId, usize)> = trace.inputs().collect();
        let ops = listed(trace);
        let raw = ops
            .iter()
            .map(|(op, level, in_bootstrap, ids, output)| RawOp {
                op: *op,
                level: *level,
                inputs: ids,
                output: *output,
                in_bootstrap: *in_bootstrap,
            });
        OpTrace::from_ops(
            trace.instance(),
            &inputs,
            raw.chain(extra.iter().copied()),
            trace.rotation_keys(),
        )
    }

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
        assert_eq!(t.rotation_keys(), 2, "duplicate rotations share a key");
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
        let flags: Vec<bool> = b.build().ops().map(|op| op.in_bootstrap).collect();
        assert_eq!(flags, vec![true, true, false]);
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
        assert_eq!(t1.rotation_keys(), 1);
        assert!(t1.validate().is_ok(), "merged inputs keep the trace valid");
        // The second trace's ids were shifted above the first's: both
        // builders started numbering at 0, but the merged trace must not
        // alias their unrelated ciphertexts.
        let inputs: Vec<CtId> = t1.inputs().map(|(id, _)| id).collect();
        assert_eq!(inputs.len(), 2);
        assert_ne!(inputs[0], inputs[1]);
        let ops = listed(&t1);
        assert_ne!(ops[0].3[0], ops[1].3[0]);
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
        let trace = with_ops(
            &b.build(),
            &[RawOp {
                op: HeOp::HRot,
                level: 20,
                inputs: &[999],
                output: Some(1000),
                in_bootstrap: false,
            }],
        );
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
        let out = b.hmult(x, x);
        // Redefine the first op's output id with a second hand-rolled op.
        let trace = with_ops(
            &b.build(),
            &[RawOp {
                op: HeOp::HRot,
                level: 20,
                inputs: &[x],
                output: Some(out),
                in_bootstrap: false,
            }],
        );
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
        assert_eq!(trace.inputs().collect::<Vec<_>>(), vec![(x, 27), (y, 3)]);
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
        let levels: Vec<usize> = t1.inputs().map(|(_, level)| level).collect();
        assert_eq!(levels, vec![27, 5]);
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
