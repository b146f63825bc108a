//! The validated, dense view of an [`OpTrace`] every sweep runs over.
//!
//! Ciphertext ids are arbitrary `u64`s, but a trace names only as many of
//! them as it has operands, so [`TraceIndex`] gives every id a dense `u32`
//! *slot* and keeps everything the cache sweeps and the scheduler's DAG ask
//! about a ciphertext in `Vec`s indexed by slot. The one
//! forward pass that fills those tables is also trace validation: it sees
//! every definition and every use in program order, so the first use of an
//! undefined id or the first redefinition falls out of the same loop that
//! records producers and live ranges, and well-formedness has one definition
//! ([`OpTrace::validate`] builds the index and drops it).
//!
//! **Slot rule.** When every id is smaller than the number of definitions the
//! trace could hold (`inputs + ops` — always true for ids handed out by
//! [`crate::TraceBuilder`], also after [`OpTrace::extend`]), an id is its own
//! slot. Otherwise the ids that occur are sorted once and a slot is an id's
//! rank. Either way the tables are proportional to the trace, never to the
//! magnitude of an id, and slot order is id order — so the replacement
//! key's `(next_use, id)` tie-break can compare slots.
//!
//! **Reuse code.** An FHE program is data-oblivious, so its trace is its whole
//! future and the compiler can tell the scratchpad what every value is still
//! good for. [`TraceIndex::reuse`] is that hint at the coarsest useful width:
//! one [`Reuse`] (2 bits) per operand access and per op output. It is a pure
//! function of the trace, read off the tables above — the slot's last (or
//! first) use and the operand slots that follow the access — so hand-built
//! traces carry it like lowered ones and nothing is stored per op. The
//! engine's default replacement policy keys on it; the exact positions of
//! [`TraceIndex::next_uses`] (a backward pass) are only its bound.

use crate::trace::{CtId, OpTrace, TraceError, TracedOp};

/// `producer` value of a slot no trace input or op output defines.
const UNDEFINED: u32 = u32::MAX;
/// `producer` value of a slot defined by a trace input.
const TRACE_INPUT: u32 = u32::MAX - 1;
/// "No op": the next-use of an access that is the last one, the first/last
/// use of a ciphertext nothing reads, the output slot of an op without one.
pub(crate) const NEVER: u32 = u32::MAX;

/// What the compiler tells the scratchpad about a value at one access — an
/// operand read or an op's output being written: when it is read next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// At once: by a later operand of the same op, or by the very next op.
    Next,
    /// Again, but not by the next op.
    Later,
    /// Never: the value is dead once this access is done.
    Never,
}

/// Dense per-ciphertext and per-operand tables of one trace — see the module
/// docs. Borrowing the trace ties the tables to the ops they describe.
#[derive(Debug, Clone)]
pub struct TraceIndex<'t> {
    trace: &'t OpTrace,
    /// Slot → id, ascending, when ids had to be interned; empty when every
    /// id is its own slot.
    interned: Vec<CtId>,
    /// Per slot: producing op, [`TRACE_INPUT`] or [`UNDEFINED`].
    producer: Vec<u32>,
    /// Per slot: first consuming op ([`NEVER`] if none).
    first_use: Vec<u32>,
    /// Per slot: last consuming op ([`NEVER`] if none).
    last_use: Vec<u32>,
    /// Per slot: an op output whose only consumer is the very next op.
    forwarded: Vec<bool>,
    /// The slot of every operand access, op after op in program order.
    operand_slots: Vec<u32>,
    /// Per op: the slot of its output ([`NEVER`] if it has none).
    output_slots: Vec<u32>,
}

/// One op as the sweeps see it: its position, the traced op, and its
/// operands and output already resolved to slots.
#[derive(Debug, Clone, Copy)]
pub struct IndexedOp<'a> {
    /// Position in program order.
    pub index: u32,
    /// The op itself.
    pub traced: &'a TracedOp,
    /// Position of the op's first operand access among all accesses of the
    /// trace (the offset into [`TraceIndex::next_uses`]).
    pub(crate) first_access: usize,
    /// Slots of `traced.inputs`, in the same order.
    pub operands: &'a [u32],
    /// `operands`, then the operand slots of the next op: the accesses that
    /// follow one of this op's at once.
    following: &'a [u32],
    /// Slot of `traced.output`.
    pub(crate) output: Option<u32>,
}

impl<'t> TraceIndex<'t> {
    /// Validates `trace` and indexes it.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] in program order: out-of-budget
    /// input levels first, then per op its level, its undefined operands and
    /// a redefined output.
    ///
    /// # Panics
    ///
    /// Panics if the trace has more than `u32::MAX - 2` ops or distinct ids.
    pub fn new(trace: &'t OpTrace) -> Result<Self, TraceError> {
        match Self::scan(trace) {
            (index, None) => Ok(index),
            (_, Some(defect)) => Err(defect),
        }
    }

    /// Indexes `trace` whether or not it is well-formed, for the infallible
    /// dependency queries (`TraceDag::from_trace`). On a trace
    /// [`TraceIndex::new`] rejects, an undefined id still has a slot and a
    /// live range, and the first definition of a redefined id is its
    /// producer; the simulator's entry points never run such a trace.
    pub fn lenient(trace: &'t OpTrace) -> Self {
        Self::scan(trace).0
    }

    /// The forward pass: interns ids, then walks definitions and uses in
    /// program order, filling the tables and noting the first defect.
    fn scan(trace: &'t OpTrace) -> (Self, Option<TraceError>) {
        let op_count = u32::try_from(trace.ops.len()).expect("op count fits u32");
        assert!(
            op_count < TRACE_INPUT,
            "op indices stay below the sentinels"
        );
        let accesses: usize = trace.ops.iter().map(|op| op.inputs.len()).sum();

        let all_ids = || {
            let op_ids = trace
                .ops
                .iter()
                .flat_map(|op| op.inputs.iter().copied().chain(op.output));
            trace.inputs.iter().copied().chain(op_ids)
        };
        let definitions = (trace.inputs.len() + trace.ops.len()) as u64;
        let max_id = all_ids().max();
        let (interned, slots) = match max_id {
            None => (Vec::new(), 0),
            Some(max) if max < definitions => (Vec::new(), max as usize + 1),
            Some(_) => {
                let mut ids = Vec::with_capacity(trace.inputs.len() + accesses + trace.ops.len());
                ids.extend(all_ids());
                ids.sort_unstable();
                ids.dedup();
                let slots = ids.len();
                (ids, slots)
            }
        };
        u32::try_from(slots).expect("ciphertext count fits u32");

        let mut index = Self {
            trace,
            interned,
            producer: vec![UNDEFINED; slots],
            first_use: vec![NEVER; slots],
            last_use: vec![NEVER; slots],
            forwarded: vec![false; slots],
            operand_slots: Vec::with_capacity(accesses),
            output_slots: Vec::with_capacity(trace.ops.len()),
        };
        // Operand accesses per slot (`hmult(x, x)` counts two); only the
        // forwarding rule below needs the count.
        let mut use_count = vec![0u32; slots];
        let mut defect: Option<TraceError> = None;
        let mut note = |e: TraceError| {
            defect.get_or_insert(e);
        };
        let slot_of = |index: &Self, id: CtId| index.slot_of(id).expect("every id was interned");

        let max_level = trace.instance.max_level();
        for (input_index, &level) in trace.input_levels.iter().enumerate() {
            if level > max_level {
                note(TraceError::InputLevelOutOfRange {
                    input_index,
                    level,
                    max_level,
                });
            }
        }
        for &id in &trace.inputs {
            let slot = slot_of(&index, id) as usize;
            if index.producer[slot] == UNDEFINED {
                index.producer[slot] = TRACE_INPUT;
            }
        }
        for (i, op) in (0..op_count).zip(&trace.ops) {
            if op.level > max_level {
                note(TraceError::LevelOutOfRange {
                    op_index: i as usize,
                    level: op.level,
                    max_level,
                });
            }
            for &id in &op.inputs {
                let slot = slot_of(&index, id);
                let s = slot as usize;
                if index.producer[s] == UNDEFINED {
                    note(TraceError::UndefinedInput {
                        op_index: i as usize,
                        id,
                    });
                }
                if use_count[s] == 0 {
                    index.first_use[s] = i;
                }
                use_count[s] += 1;
                index.last_use[s] = i;
                index.operand_slots.push(slot);
            }
            let output = match op.output {
                Some(out) => {
                    let slot = slot_of(&index, out);
                    if index.producer[slot as usize] == UNDEFINED {
                        index.producer[slot as usize] = i;
                    } else {
                        note(TraceError::DuplicateOutput {
                            op_index: i as usize,
                            id: out,
                        });
                    }
                    slot
                }
                None => NEVER,
            };
            index.output_slots.push(output);
        }
        // Forwarding needs the final counts: a single use, by the next op.
        for (i, &slot) in (0..op_count).zip(&index.output_slots) {
            if slot != NEVER {
                let s = slot as usize;
                index.forwarded[s] =
                    index.producer[s] == i && use_count[s] == 1 && index.last_use[s] == i + 1;
            }
        }
        (index, defect)
    }

    /// The trace the index was built from.
    pub fn trace(&self) -> &'t OpTrace {
        self.trace
    }

    /// Number of slots (distinct ciphertexts the tables cover).
    pub(crate) fn slot_count(&self) -> usize {
        self.producer.len()
    }

    /// The slot of `id`, if the trace mentions it.
    fn slot_of(&self, id: CtId) -> Option<u32> {
        if self.interned.is_empty() {
            // Lossless: `id` is below the slot count, which fits u32.
            (id < self.slot_count() as u64).then_some(id as u32)
        } else {
            // Lossless: the interned table's length fits u32.
            self.interned.binary_search(&id).ok().map(|s| s as u32)
        }
    }

    /// The op whose output the slot is; `None` for trace inputs (and, on a
    /// malformed trace, for ids nothing defines).
    pub fn producer(&self, slot: u32) -> Option<u32> {
        let p = self.producer[slot as usize];
        (p < TRACE_INPUT).then_some(p)
    }

    /// The ciphertext id the slot stands for.
    pub(crate) fn id_of(&self, slot: u32) -> CtId {
        if self.interned.is_empty() {
            CtId::from(slot)
        } else {
            self.interned[slot as usize]
        }
    }

    /// The first op that reads the slot, [`NEVER`] if none does — the
    /// next-use of an op output at the time it is produced.
    pub(crate) fn first_use_or_never(&self, slot: u32) -> u32 {
        self.first_use[slot as usize]
    }

    /// The reuse code of one access of `op`: its `operand`-th operand read
    /// or, for `None`, its output being written (see the module docs).
    pub fn reuse(&self, op: &IndexedOp<'_>, operand: Option<usize>) -> Reuse {
        let next_op = op.index + 1;
        let Some(k) = operand else {
            return match op.output.map(|out| self.first_use[out as usize]) {
                None | Some(NEVER) => Reuse::Never,
                Some(first) if first == next_op => Reuse::Next,
                Some(_) => Reuse::Later,
            };
        };
        let slot = op.operands[k];
        if op.following[k + 1..].contains(&slot) {
            Reuse::Next
        } else if self.last_use[slot as usize] == op.index {
            Reuse::Never
        } else {
            Reuse::Later
        }
    }

    /// Whether the slot is *forwarded* rather than cached: an op output whose
    /// only consumer is the immediately following op. Such values live in the
    /// scratchpad's temporary region between producer and consumer (already
    /// accounted by `temp_bytes`) and never enter the ciphertext cache, so
    /// they neither occupy cache capacity nor count as operand hits/misses.
    /// Without this, the single-use intermediates of a BSGS stage (rotate →
    /// pmult → accumulate) would evict the long-lived stage input on
    /// instances whose cache holds only two or three top-level ciphertexts
    /// (INS-2/3 at 512 MiB).
    pub(crate) fn is_forwarded(&self, slot: u32) -> bool {
        self.forwarded[slot as usize]
    }

    /// The ops in program order with operands and outputs resolved to slots.
    pub fn ops(&self) -> impl Iterator<Item = IndexedOp<'_>> + '_ {
        let mut first_access = 0usize;
        let ops = &self.trace.ops;
        (0u32..)
            .zip(ops)
            .zip(&self.output_slots)
            .map(move |((index, traced), &output)| {
                let start = first_access;
                first_access += traced.inputs.len();
                let next_operands = ops.get(index as usize + 1).map_or(0, |n| n.inputs.len());
                IndexedOp {
                    index,
                    traced,
                    first_access: start,
                    operands: &self.operand_slots[start..first_access],
                    following: &self.operand_slots[start..first_access + next_operands],
                    output: (output != NEVER).then_some(output),
                }
            })
    }

    /// For every operand access (in [`IndexedOp::first_access`] order), the
    /// op at which the same ciphertext is next read — [`NEVER`] for its last
    /// access. One backward pass; an op that reads a ciphertext twice sees
    /// its own index as the first access's next use. Exact because the whole
    /// trace is known: this is what Belady replacement decides on.
    pub(crate) fn next_uses(&self) -> Vec<u32> {
        let mut next_seen = vec![NEVER; self.slot_count()];
        let mut next = vec![NEVER; self.operand_slots.len()];
        let mut access = self.operand_slots.len();
        // Lossless: `scan` checked that the op count fits u32.
        let op_count = self.trace.ops.len() as u32;
        for (i, op) in (0..op_count).zip(&self.trace.ops).rev() {
            for _ in 0..op.inputs.len() {
                access -= 1;
                let slot = self.operand_slots[access] as usize;
                next[access] = next_seen[slot];
                next_seen[slot] = i;
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{HeOp, TraceBuilder};
    use bts_params::CkksInstance;

    /// x, y inputs; p = x·x; r = rot(p) (forwarded); q = pmult(r); s = q + y.
    fn small_trace() -> OpTrace {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let y = b.fresh_ct(27);
        let p = b.hmult_at(x, x, 27);
        let r = b.hrot(p, 1, 27);
        let q = b.pmult(r, 27);
        b.hadd(q, y, 27);
        b.hadd(p, y, 27);
        b.build()
    }

    /// Every slot, ascending — which is ascending id order.
    fn slots(index: &TraceIndex<'_>) -> std::ops::Range<u32> {
        0..index.slot_count() as u32
    }

    fn relabel(trace: &mut OpTrace, map: impl Fn(CtId) -> CtId) {
        for id in &mut trace.inputs {
            *id = map(*id);
        }
        for op in &mut trace.ops {
            for id in &mut op.inputs {
                *id = map(*id);
            }
            if let Some(out) = &mut op.output {
                *out = map(*out);
            }
        }
    }

    #[test]
    fn builder_ids_are_their_own_slots() {
        let trace = small_trace();
        let index = TraceIndex::new(&trace).unwrap();
        assert_eq!(index.slot_count(), 7);
        for slot in slots(&index) {
            assert_eq!(index.id_of(slot), CtId::from(slot));
            assert_eq!(index.slot_of(CtId::from(slot)), Some(slot));
        }
        assert_eq!(index.slot_of(7), None);
        assert_eq!(index.producer(0), None, "trace inputs have no producer");
        assert_eq!(index.producer(2), Some(0));
        assert_eq!(index.last_use[1], 4);
        assert_eq!(index.last_use[6], NEVER, "nothing reads the last sum");
    }

    #[test]
    fn sparse_ids_are_interned_in_id_order() {
        let dense = small_trace();
        let dense_index = TraceIndex::new(&dense).unwrap();
        for map in [
            (|id| id << 40) as fn(CtId) -> CtId,
            |id| u64::MAX - 6 + id,
            |id| u64::MAX - id,
        ] {
            let mut trace = dense.clone();
            relabel(&mut trace, map);
            let index = TraceIndex::new(&trace).unwrap();
            assert_eq!(index.slot_count(), 7, "one slot per id, whatever its size");
            let ids: Vec<CtId> = slots(&index).map(|s| index.id_of(s)).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "slots ascend with ids");
            for id in 0..7u64 {
                let (d, s) = (dense_index.slot_of(id), index.slot_of(map(id)));
                let (d, s) = (d.unwrap(), s.unwrap());
                assert_eq!(index.id_of(s), map(id));
                assert_eq!(index.producer(s), dense_index.producer(d));
                assert_eq!(index.last_use[s as usize], dense_index.last_use[d as usize]);
                assert_eq!(index.is_forwarded(s), dense_index.is_forwarded(d));
            }
            assert_eq!(index.slot_of(12345), None);
            assert_eq!(index.next_uses(), dense_index.next_uses());
        }
    }

    #[test]
    fn single_use_by_the_next_op_is_forwarded() {
        let trace = small_trace();
        let index = TraceIndex::new(&trace).unwrap();
        let forwarded: Vec<u32> = slots(&index).filter(|&s| index.is_forwarded(s)).collect();
        // r (slot 3) and q (slot 4); p has two readers, the inputs no producer.
        assert_eq!(forwarded, vec![3, 4]);
    }

    #[test]
    fn next_uses_see_a_repeated_operand_twice() {
        let trace = small_trace();
        let index = TraceIndex::new(&trace).unwrap();
        // Accesses: x x | p | r | q y | p y.
        assert_eq!(
            index.next_uses(),
            vec![0, NEVER, 4, NEVER, NEVER, 4, NEVER, NEVER]
        );
        assert_eq!(index.first_use_or_never(2), 1);
        assert_eq!(index.first_use_or_never(6), NEVER);
        let ops: Vec<_> = index.ops().collect();
        assert_eq!(ops[3].first_access, 4);
        assert_eq!(ops[3].operands, &[4, 1]);
        assert_eq!(ops[3].output, Some(5));
    }

    #[test]
    fn reuse_codes_read_off_the_following_accesses_and_the_last_use() {
        use Reuse::{Later, Never, Next};
        let trace = small_trace();
        let index = TraceIndex::new(&trace).unwrap();
        let codes: Vec<(Vec<Reuse>, Reuse)> = index
            .ops()
            .map(|op| {
                let operands = (0..op.operands.len()).map(|k| index.reuse(&op, Some(k)));
                (operands.collect(), index.reuse(&op, None))
            })
            .collect();
        assert_eq!(
            codes,
            vec![
                // p = x·x: the repeated operand is read again at once, then
                // dead; the rotation reads p next.
                (vec![Next, Never], Next),
                // r = rot(p): p waits for the last sum; r is forwarded.
                (vec![Later], Next),
                (vec![Never], Next),
                // q + y: the next op reads y again; nothing reads the sum.
                (vec![Never, Next], Never),
                (vec![Never, Never], Never),
            ]
        );
        // `Never` on an access is the slot's last use and nothing else.
        for op in index.ops() {
            for (k, &slot) in op.operands.iter().enumerate() {
                let last_access = index.last_use[slot as usize] == op.index
                    && !op.operands[k + 1..].contains(&slot);
                assert_eq!(index.reuse(&op, Some(k)) == Never, last_access);
            }
        }
        // A hand-rolled op without an output has nothing to be read again.
        let mut trace = trace;
        trace.ops[4].output = None;
        let index = TraceIndex::new(&trace).unwrap();
        assert_eq!(index.reuse(&index.ops().last().unwrap(), None), Never);
    }

    #[test]
    fn the_first_defect_in_program_order_is_reported() {
        let mut trace = small_trace();
        trace.ops[3].inputs[0] = 99; // dangling, op 3
        trace.ops[1].output = Some(0); // redefines x, op 1
        assert_eq!(
            TraceIndex::new(&trace).err(),
            Some(TraceError::DuplicateOutput { op_index: 1, id: 0 })
        );
        trace.ops[1].level = 99;
        assert_eq!(
            TraceIndex::new(&trace).err(),
            Some(TraceError::LevelOutOfRange {
                op_index: 1,
                level: 99,
                max_level: 27
            })
        );
        trace.input_levels[1] = 40;
        assert_eq!(
            TraceIndex::new(&trace).err(),
            Some(TraceError::InputLevelOutOfRange {
                input_index: 1,
                level: 40,
                max_level: 27
            })
        );
    }

    #[test]
    fn lenient_indexing_covers_malformed_traces() {
        let mut trace = small_trace();
        trace.ops[4].inputs[0] = u64::MAX; // never defined
        assert!(TraceIndex::new(&trace).is_err());
        let index = TraceIndex::lenient(&trace);
        let slot = index.slot_of(u64::MAX).expect("used ids have slots");
        assert_eq!(index.producer(slot), None);
        assert_eq!(index.last_use[slot as usize], 4);
        // A hand-rolled op without an output has no output slot.
        trace.ops[4] = TracedOp {
            op: HeOp::HAdd,
            level: 27,
            inputs: vec![0, 1],
            output: None,
            in_bootstrap: false,
        };
        let index = TraceIndex::new(&trace).unwrap();
        assert_eq!(index.ops().last().unwrap().output, None);
    }
}
