//! A trace is its own index: [`OpTrace`] is built dense, validated and
//! indexed once, at construction, and every sweep reads its tables.
//!
//! Ciphertext ids are arbitrary `u64`s, but a trace names only as many of
//! them as it has operands, so construction gives every id a dense `u32`
//! *slot*, stores operands and outputs as slots — one flat operand arena for
//! the whole trace, no allocation per op — and keeps everything the cache
//! sweeps and the scheduler's DAG ask about a ciphertext in `Vec`s indexed by
//! slot. The one forward pass that fills those tables is also trace
//! validation: it sees every definition and every use in program order, so
//! the first use of an undefined id or the first redefinition falls out of
//! the same loop that records producers and reuse codes. The first defect is
//! stored on the trace; every entry point checks it in O(1)
//! ([`OpTrace::validate`]) and none scans again.
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
//! good for. [`OpTrace::reuse`] is that hint at the coarsest useful width:
//! one [`Reuse`] (2 bits) per operand access and per op output, stored with
//! the forwarding bit in one byte per access and one per op. The
//! construction scan writes it: every access starts out `Never`, and when a
//! slot is read again the scan fixes up the slot's previous access — `Next`
//! if that access was in this op or the one before, `Later` otherwise — so a
//! hand-built trace carries it like a lowered one and no sweep derives it
//! again. An output read first by the very next op, once and by no other, is
//! *forwarded*: its producer's output byte and its one read carry the bit,
//! which a second read clears. The engine's default replacement policy keys
//! on the code; the exact positions of [`OpTrace::next_uses`] (a backward
//! pass) key only a benchmark probe.
//!
//! **Read window.** The same scan records the trace's read window: the
//! longest distance, in ops, from a producer to a read of its output
//! ([`OpTrace::read_window`]; at most 44 on every registry workload). A value
//! produced at op `p` is read by op `p + window` at the latest, so state a
//! sweep keeps per value — the scratchpad's residents, the scheduler's
//! finish times — fits a ring of `next_pow2(window + 1)` *cells* indexed by
//! the producing op: by the time op `p + ring` overwrites `p`'s cell, every
//! read of `p`'s output is done. Trace inputs, read at any distance, take
//! one cell each past the ring ([`OpTrace::cell`]). So that state is sized
//! by the window and the inputs, never by the slot count.
//!
//! **Repeated ops.** A builder that records an op range once and repeats it
//! ([`crate::TraceBuilder::repeat`] — a lowering's bootstrap expansions)
//! flags where each copy starts, and the scan keeps the range's tables as
//! it leaves them and takes each copy's from them, shifted: only the copy's
//! reads of values from outside it are scanned. The tables, codes and
//! first defect are the ones a scan of every op would make (see `Source`).
//! The trace keeps where each copy starts — the repeated range itself
//! first ([`OpTrace::copies`]) — so a sweep can resolve a copy once per
//! cache state it enters with (`engine::replay`).
//!
//! **Size.** Every operand access, trace input and op has a `u32` stamp or
//! index below the sentinels. [`OpTrace::from_ops`] counts them before it
//! builds a table, and a trace with more is built empty and stores
//! [`TraceError::TooLarge`] as its defect.

use std::ops::Range;

use bts_params::CkksInstance;

use crate::trace::{CtId, HeOp, RawOp, TraceError};

/// `producer` value of a slot no trace input or op output defines. A slot
/// that trace input `k` defines holds `ops + k`, past every op index.
const UNDEFINED: u32 = u32::MAX;
/// "No op": the next-use of an access that is the last one, the first/last
/// use of a ciphertext nothing reads, the output slot of an op without one.
pub(crate) const NEVER: u32 = u32::MAX;
/// Op flag: the op belongs to a bootstrapping region.
const IN_BOOTSTRAP: u8 = 1;
/// Op flag, set by a builder and cleared by the scan that indexes its ops:
/// a copy of the builder's repeated ops starts at this op.
const COPY_STARTS: u8 = 2;

/// The most operand accesses, trace inputs and ops one trace holds: each
/// has a stamp or index below the sentinels.
const MAX_STAMPS: usize = (UNDEFINED - 2) as usize;

/// The one-byte level that stands for "look the level up in
/// `Columns::wide_levels`".
const WIDE_LEVEL: u8 = u8::MAX;

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

/// One access's stored hint, as the construction scan writes it: its
/// [`Reuse`] code in the low two bits, and whether the value is forwarded
/// (see [`OpTrace::reuse`] and the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Code(u8);

impl Code {
    const NEXT: Code = Code(0);
    const LATER: Code = Code(1);
    /// What every access holds until a later read of its slot is seen.
    const NEVER: Code = Code(2);
    const FORWARDED: u8 = 4;

    /// The stored byte.
    #[inline]
    pub(crate) fn byte(self) -> u8 {
        self.0
    }

    /// The access's reuse code.
    #[inline]
    pub(crate) fn reuse(self) -> Reuse {
        match self.0 & 3 {
            0 => Reuse::Next,
            1 => Reuse::Later,
            _ => Reuse::Never,
        }
    }

    /// Whether the value is forwarded rather than cached: an op output whose
    /// only consumer is the immediately following op. Such values live in
    /// the scratchpad's temporary region between producer and consumer
    /// (already accounted by `temp_bytes`) and never enter the ciphertext
    /// cache, so they neither occupy cache capacity nor count as operand
    /// hits/misses. Without this, the single-use intermediates of a BSGS
    /// stage (rotate → pmult → accumulate) would evict the long-lived stage
    /// input on instances whose cache holds only two or three top-level
    /// ciphertexts (INS-2/3 at 512 MiB).
    #[inline]
    pub(crate) fn is_forwarded(self) -> bool {
        self.0 & Self::FORWARDED != 0
    }

    fn forwarded(self) -> Code {
        Code(self.0 | Self::FORWARDED)
    }
}

/// A trace's ops column by column, ciphertexts as slots: what a
/// [`crate::TraceBuilder`] records (its own ids are their slots) and
/// [`OpTrace::from_ops`] derives from arbitrary ids, before the one scan
/// fills the tables.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Columns {
    /// The slot and level of every ciphertext that enters from outside.
    pub(crate) inputs: Vec<(u32, usize)>,
    /// Per op: kind, level and flags ([`IN_BOOTSTRAP`], and while a builder
    /// records, [`COPY_STARTS`]). A level takes one byte; [`WIDE_LEVEL`]
    /// says it is in `wide_levels` instead.
    kinds: Vec<HeOp>,
    levels: Vec<u8>,
    flags: Vec<u8>,
    /// `(op, level)` for every op whose level does not fit below
    /// [`WIDE_LEVEL`], ascending by op: none on any instance with fewer
    /// than 255 levels, but a level out of range keeps its true value.
    wide_levels: Vec<(u32, usize)>,
    /// Op `i`'s operands end at `operand_end[i]` and start where op `i − 1`'s
    /// end (CSR: one arena for the whole trace instead of a vector per op).
    operand_end: Vec<u32>,
    pub(crate) operands: Vec<u32>,
    /// Per op: the slot of its output ([`NEVER`] if it has none).
    outputs: Vec<u32>,
}

impl Columns {
    /// Empty columns with room for `ops` ops of up to two operands each.
    pub(crate) fn with_capacity(ops: usize) -> Self {
        Self {
            inputs: Vec::new(),
            kinds: Vec::with_capacity(ops),
            levels: Vec::with_capacity(ops),
            flags: Vec::with_capacity(ops),
            wide_levels: Vec::new(),
            operand_end: Vec::with_capacity(ops),
            operands: Vec::with_capacity(2 * ops),
            outputs: Vec::with_capacity(ops),
        }
    }

    /// Appends an op, its operands and output already slots.
    ///
    /// # Panics
    ///
    /// Panics once the trace has more than `u32::MAX` operand accesses.
    pub(crate) fn push(
        &mut self,
        op: HeOp,
        level: usize,
        in_bootstrap: bool,
        operands: impl IntoIterator<Item = u32>,
        output: u32,
    ) {
        match u8::try_from(level) {
            Ok(narrow) if narrow < WIDE_LEVEL => self.levels.push(narrow),
            _ => {
                // Lossless: construction checks that the op count fits u32.
                self.wide_levels.push((self.kinds.len() as u32, level));
                self.levels.push(WIDE_LEVEL);
            }
        }
        self.kinds.push(op);
        self.flags.push(u8::from(in_bootstrap));
        self.operands.extend(operands);
        // Only a builder can fail this (its documented panic): `from_ops`
        // checked its counts before it pushed an op.
        let end = u32::try_from(self.operands.len()).expect("operand count fits u32");
        self.operand_end.push(end);
        self.outputs.push(output);
    }

    /// Number of ops recorded.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Op `i`'s level.
    pub(crate) fn level(&self, i: usize) -> usize {
        match self.levels[i] {
            WIDE_LEVEL => self.wide_levels[self.wide_from(i)].1,
            narrow => usize::from(narrow),
        }
    }

    /// The position in `wide_levels` of the first op at or after op `i`.
    fn wide_from(&self, i: usize) -> usize {
        self.wide_levels
            .partition_point(|&(op, _)| (op as usize) < i)
    }

    /// Op `i`'s output slot ([`NEVER`] if it has none).
    pub(crate) fn output(&self, i: usize) -> u32 {
        self.outputs[i]
    }

    /// Positions of the operands of ops `ops` in the operand arena.
    pub(crate) fn operand_span(&self, ops: Range<usize>) -> Range<usize> {
        let end = |i: usize| i.checked_sub(1).map_or(0, |p| self.operand_end[p] as usize);
        end(ops.start)..end(ops.end)
    }

    /// Op `i`'s kind, level, bootstrap-region flag and operand positions.
    pub(crate) fn op(&self, i: usize) -> (HeOp, usize, bool, Range<usize>) {
        let operands = self.operand_span(i..i + 1);
        (
            self.kinds[i],
            self.level(i),
            self.flags[i] & IN_BOOTSTRAP != 0,
            operands,
        )
    }

    /// Appends a copy of ops `ops`: kinds, levels and region flags as they
    /// are, every output slot plus `shift` (wrapping, as the builder's own
    /// slots do), and every operand slot through `map`; `copy_starts` flags
    /// its first op with [`COPY_STARTS`].
    ///
    /// # Panics
    ///
    /// Panics once the trace has more than `u32::MAX` operand accesses.
    pub(crate) fn repeat(
        &mut self,
        ops: Range<usize>,
        shift: u32,
        map: impl Fn(u32) -> u32,
        copy_starts: bool,
    ) {
        let span = self.operand_span(ops.clone());
        // The copy's operands sit `moved` places past the range's.
        let moved = self.operands.len() - span.start;
        let copy = self.kinds.len();
        self.kinds.extend_from_within(ops.clone());
        self.levels.extend_from_within(ops.clone());
        for k in self.wide_from(ops.start)..self.wide_from(ops.end) {
            let (op, level) = self.wide_levels[k];
            // Lossless: the copy's ops are counted in u32 like the range's.
            self.wide_levels
                .push((op - ops.start as u32 + copy as u32, level));
        }
        self.flags.extend_from_within(ops.clone());
        for flags in &mut self.flags[copy..] {
            *flags &= IN_BOOTSTRAP;
        }
        if copy_starts {
            self.flags[copy] |= COPY_STARTS;
        }
        self.operands.extend_from_within(span.clone());
        // Only a builder repeats ops; this is its documented panic.
        assert!(
            u32::try_from(self.operands.len()).is_ok(),
            "operand count fits u32"
        );
        for slot in &mut self.operands[span.start + moved..] {
            *slot = map(*slot);
        }
        self.operand_end.extend_from_within(ops.clone());
        for end in &mut self.operand_end[copy..] {
            // Lossless: no greater than the arena's length, checked above.
            *end += moved as u32;
        }
        self.outputs.extend_from_within(ops);
        for output in &mut self.outputs[copy..] {
            if *output != NEVER {
                *output = output.wrapping_add(shift);
            }
        }
    }
}

/// A complete HE-op trace plus the parameter set it was generated for, stored
/// as the dense, validated index every sweep runs over — see the module docs.
/// Built by [`crate::TraceBuilder::build`] or, for hand-rolled ids,
/// [`OpTrace::from_ops`]; the fields stay private so the tables always
/// describe the ops.
#[derive(Debug, Clone)]
pub struct OpTrace {
    instance: CkksInstance,
    /// Number of distinct rotation keys the trace requires.
    rotation_keys: usize,
    columns: Columns,
    /// Slot → id, ascending, when ids had to be interned; empty when every
    /// id is its own slot.
    interned: Vec<CtId>,
    /// Per slot: producing op, `ops + k` for trace input `k`, or
    /// [`UNDEFINED`].
    producer: Vec<u32>,
    /// Per access, by its stamp ([`TracedOp::stamp`]: op `i`'s operands,
    /// then its output, after op `i − 1`'s): the stored hint.
    codes: Vec<Code>,
    /// The longest distance in ops from a producer to a read of its output.
    window: u32,
    /// `next_pow2(window + 1) − 1`: a producing op's cell is its index
    /// masked by it.
    ring_mask: u32,
    /// Cells of the ring: `ring_mask + 1`, or the op count where that is
    /// smaller (the ring then never wraps, and masking changes no index).
    ring: u32,
    /// The first structural defect in program order, if any.
    defect: Option<TraceError>,
    /// Where each copy of a builder's repeated ops starts, ascending — the
    /// repeated ops themselves first; empty when nothing was copied. Sized
    /// once, by the scan.
    copy_starts: Vec<u32>,
    /// The number of ops of each copy.
    copy_len: usize,
}

/// Two traces are equal when they hold the same ops, ids, instance and
/// tables, however they were recorded: the copy list says only which ops a
/// builder copied, and a trace recorded op by op holds the same program.
impl PartialEq for OpTrace {
    fn eq(&self, other: &Self) -> bool {
        // Every field named, so a new one is compared or left out on purpose.
        let Self {
            instance,
            rotation_keys,
            columns,
            interned,
            producer,
            codes,
            window,
            ring_mask,
            ring,
            defect,
            copy_starts: _,
            copy_len: _,
        } = self;
        let mine = (instance, rotation_keys, columns, interned, producer);
        let theirs = (
            &other.instance,
            &other.rotation_keys,
            &other.columns,
            &other.interned,
            &other.producer,
        );
        mine == theirs
            && (codes, window, ring_mask, ring, defect)
                == (
                    &other.codes,
                    &other.window,
                    &other.ring_mask,
                    &other.ring,
                    &other.defect,
                )
    }
}

/// One op as the sweeps see it: its position, kind and level, and its
/// operands and output as slots.
#[derive(Debug, Clone, Copy)]
pub struct TracedOp<'a> {
    /// Position in program order.
    pub index: u32,
    /// The operation kind.
    pub op: HeOp,
    /// Ciphertext level at which the op executes.
    pub level: usize,
    /// Whether the op belongs to a bootstrapping region.
    pub in_bootstrap: bool,
    /// Slots of the op's operands, in operand order.
    pub operands: &'a [u32],
    /// Slot of the op's output.
    pub output: Option<u32>,
    /// Position of the op's first operand access among all accesses of the
    /// trace (the offset into [`OpTrace::next_uses`]).
    pub(crate) first_access: usize,
    /// The stored hint of each operand access, then of the output.
    pub(crate) codes: &'a [Code],
}

impl TracedOp<'_> {
    /// The op's `k`-th access in program order — operand `k`, or for
    /// `k == operands.len()` its output — counted over the whole trace: the
    /// index of its [`Code`] and the LRU baseline's recency stamp.
    #[inline]
    pub(crate) fn stamp(&self, k: usize) -> usize {
        self.first_access + self.index as usize + k
    }
}

impl OpTrace {
    /// Builds a trace from hand-rolled ciphertext ids: `inputs` are the
    /// `(id, level)` pairs that enter from outside, `ops` the program in
    /// order. Ids may be any `u64`s (see the module docs' slot rule); a
    /// malformed program still builds, and [`OpTrace::validate`] reports its
    /// first defect. A program whose operand accesses, inputs and ops
    /// together number more than `u32::MAX − 2` builds empty, its defect
    /// [`TraceError::TooLarge`].
    pub fn from_ops<'a>(
        instance: &CkksInstance,
        inputs: &[(CtId, usize)],
        ops: impl IntoIterator<Item = RawOp<'a>>,
        rotation_keys: usize,
    ) -> Self {
        let ops: Vec<RawOp<'a>> = ops.into_iter().collect();
        let accesses = ops.iter().map(|op| op.inputs.len()).sum();
        if let Err(defect) = check_size(accesses, inputs.len(), ops.len()) {
            return Self::refused(instance, rotation_keys, defect);
        }
        let ids = || {
            let op_ids = ops
                .iter()
                .flat_map(|op| op.inputs.iter().copied().chain(op.output));
            inputs.iter().map(|&(id, _)| id).chain(op_ids)
        };
        let definitions = (inputs.len() + ops.len()) as u64;
        let max_id = ids().max();
        let mut interned = Vec::new();
        if max_id.is_some_and(|max| max >= definitions) {
            interned.extend(ids());
            interned.sort_unstable();
            interned.dedup();
        }
        let slots = match max_id {
            None => 0,
            Some(max) if interned.is_empty() => max as usize + 1,
            Some(_) => interned.len(),
        };
        // Lossless: every slot is below the slot count, which is at most the
        // inputs, operands and outputs together, which `check_size` bounded.
        let slot = |id: CtId| {
            if interned.is_empty() {
                id as u32
            } else {
                interned.binary_search(&id).expect("every id was interned") as u32
            }
        };
        let mut columns = Columns::with_capacity(ops.len());
        columns.inputs = inputs
            .iter()
            .map(|&(id, level)| (slot(id), level))
            .collect();
        for op in &ops {
            let operands = op.inputs.iter().map(|&id| slot(id));
            let output = op.output.map_or(NEVER, slot);
            columns.push(op.op, op.level, op.in_bootstrap, operands, output);
        }
        Self::index(
            instance.clone(),
            columns,
            interned,
            slots,
            rotation_keys,
            None,
        )
    }

    /// A trace without ops that stores `defect`: what [`OpTrace::from_ops`]
    /// builds of a program too large to index.
    fn refused(instance: &CkksInstance, rotation_keys: usize, defect: TraceError) -> Self {
        let empty = Columns::with_capacity(0);
        let mut trace = Self::index(instance.clone(), empty, Vec::new(), 0, rotation_keys, None);
        trace.defect = Some(defect);
        trace
    }

    /// The one construction: the tables of `slots` slots for `columns`,
    /// filled by one [`OpTrace::scan`].
    /// `repeated` names ops a builder repeated and how many copies of them
    /// it flagged, which the scan may take from their tables
    /// ([`OpTrace::scan`]).
    pub(crate) fn index(
        instance: CkksInstance,
        columns: Columns,
        interned: Vec<CtId>,
        slots: usize,
        rotation_keys: usize,
        repeated: Option<(Range<usize>, usize)>,
    ) -> Self {
        // Bounds op indices, the producer codes of trace inputs, and the
        // LRU baseline's access stamps (one per operand access and per op).
        // Only a builder can fail it here, which is its documented panic:
        // `from_ops` refuses such a program before it gets here.
        let inputs = columns.inputs.len();
        let (accesses, ops) = (columns.operands.len(), columns.kinds.len());
        if let Err(defect) = check_size(accesses, inputs, ops) {
            panic!("{defect}");
        }
        let stamps = accesses + inputs + ops;
        let mut trace = Self {
            instance,
            rotation_keys,
            columns,
            interned,
            producer: vec![UNDEFINED; slots],
            codes: vec![Code::NEVER; stamps - inputs],
            window: 0,
            ring_mask: 0,
            ring: 0,
            defect: None,
            copy_starts: Vec::new(),
            copy_len: 0,
        };
        trace.defect = trace.scan(repeated);
        trace
    }

    /// The forward pass: walks definitions and uses in program order, filling
    /// the producers, the stored codes and the read window, and returns the
    /// first defect — out-of-budget input levels first, then per op its
    /// level, its undefined operands and a redefined output. A malformed
    /// trace still gets whole tables: an undefined id has a slot and codes,
    /// and the first definition of a redefined id is its producer.
    ///
    /// Codes are fixed up behind the scan: each read of a slot settles the
    /// slot's previous access — its producer's output on the first read, else
    /// the read before — and whatever no later read settles stays `Never`.
    ///
    /// `repeated` names ops a builder repeated ([`crate::TraceBuilder::repeat`])
    /// and how many copies of them it flagged.
    /// Their tables as the scan leaves them are kept, and each copy of them
    /// the builder flagged ([`COPY_STARTS`]) takes those tables shifted
    /// instead of a rescan; only its reads from outside are scanned. The
    /// tables are the same either way (see [`Source`]). The flags are
    /// cleared, and where a copy was taken, the copy list is filled: the
    /// repeated ops, then each copy, in program order.
    fn scan(&mut self, repeated: Option<(Range<usize>, usize)>) -> Option<TraceError> {
        let (source, copies) = repeated.map_or((None, 0), |(ops, copies)| (Some(ops), copies));
        // The repeated ops, then each copy taken: sized once.
        let mut starts = Vec::new();
        if let Some(source) = source.as_ref().filter(|_| copies > 0) {
            starts.reserve_exact(copies + 1);
            // Lossless: construction checked that the op count fits u32.
            starts.push(source.start as u32);
        }
        let mut defect = None;
        let mut note = |e: TraceError| {
            defect.get_or_insert(e);
        };
        let max_level = self.instance.max_level();
        let mut codes = std::mem::take(&mut self.codes);
        let Self {
            columns: c,
            interned,
            producer,
            ..
        } = self;
        let id_of = |slot: u32| {
            if interned.is_empty() {
                CtId::from(slot)
            } else {
                interned[slot as usize]
            }
        };
        // Lossless: construction checked that inputs plus ops fit u32.
        let ops = c.kinds.len() as u32;
        for ((input_index, &(slot, level)), k) in c.inputs.iter().enumerate().zip(0u32..) {
            if level > max_level {
                note(TraceError::InputLevelOutOfRange {
                    input_index,
                    level,
                    max_level,
                });
            }
            if producer[slot as usize] == UNDEFINED {
                producer[slot as usize] = ops + k;
            }
        }
        // Per slot: the stamp of its latest read, NEVER before the first.
        let mut latest = vec![NEVER; producer.len()];
        let source_end = source.as_ref().map_or(usize::MAX, |s| s.end);
        let mut kept: Option<Source> = None;
        let mut start = 0;
        // Stamps of this op's first access and of the previous op's: a read
        // at or past `previous` is in this op or the one before.
        let (mut here, mut previous) = (0u32, 0u32);
        let mut window = 0u32;
        let mut op_index = 0;
        while op_index < c.kinds.len() {
            if op_index == source_end {
                let ops = source.clone().unwrap_or_default();
                kept = Some(Source::keep(c, &codes, &latest, ops, here));
            }
            if let Some(kept) = kept
                .as_ref()
                .filter(|_| c.flags[op_index] & COPY_STARTS != 0)
            {
                let tables = Tables {
                    producer,
                    latest: &mut latest,
                    codes: &mut codes,
                    window: &mut window,
                };
                kept.copy_to(c, tables, op_index, here, &mut |op_index, slot| {
                    let id = id_of(slot);
                    note(TraceError::UndefinedInput { op_index, id });
                });
                // Lossless: construction checked that the op count fits u32.
                starts.push(op_index as u32);
                let last = op_index + kept.ops.len() - 1;
                start = c.operand_end[last] as usize;
                previous = first_stamp(c, last);
                // Lossless: construction checked that accesses plus ops fit
                // u32.
                here = start as u32 + last as u32 + 1;
                op_index = last + 1;
                continue;
            }
            // Lossless: construction checked that the op count fits u32.
            let i = op_index as u32;
            let level = c.level(op_index);
            if level > max_level {
                note(TraceError::LevelOutOfRange {
                    op_index,
                    level,
                    max_level,
                });
            }
            let end = c.operand_end[op_index] as usize;
            for (&slot, stamp) in c.operands[start..end].iter().zip(here..) {
                let tables = Tables {
                    producer,
                    latest: &mut latest,
                    codes: &mut codes,
                    window: &mut window,
                };
                if tables.read(c, i, slot, stamp, previous) {
                    let id = id_of(slot);
                    note(TraceError::UndefinedInput { op_index, id });
                }
            }
            start = end;
            previous = here;
            // Lossless: construction checked that accesses plus ops fit u32.
            here = end as u32 + i + 1;
            let out = c.outputs[op_index];
            if out != NEVER {
                if producer[out as usize] == UNDEFINED {
                    producer[out as usize] = i;
                } else {
                    let id = id_of(out);
                    note(TraceError::DuplicateOutput { op_index, id });
                }
            }
            op_index += 1;
        }
        if let Some(source) = source {
            for flags in &mut self.columns.flags {
                *flags &= IN_BOOTSTRAP;
            }
            if !starts.is_empty() {
                self.copy_starts = starts;
                self.copy_len = source.len();
            }
        }
        self.window = window;
        // `next_pow2(window + 1) − 1`: every bit up to the window's highest.
        self.ring_mask = u32::MAX.checked_shr(window.leading_zeros()).unwrap_or(0);
        self.ring = self.ring_mask.saturating_add(1).min(ops);
        self.codes = codes;
        defect
    }

    /// The first structural defect found when the trace was built, if any:
    /// an op input that is neither a declared trace input nor the output of
    /// an earlier op, a redefined id, or a level beyond the instance's
    /// budget. Every simulator and scheduler entry point checks it, so a
    /// hand-rolled trace with dangling ids fails fast instead of corrupting
    /// the cache model's residency accounting. O(1): the check happened in
    /// the construction scan.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] in program order.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.defect.clone().map_or(Ok(()), Err)
    }

    /// The CKKS instance this trace assumes.
    pub fn instance(&self) -> &CkksInstance {
        &self.instance
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.columns.kinds.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.columns.kinds.is_empty()
    }

    /// Number of key-switching operations (HMult/HRot/Conjugate).
    pub fn key_switch_count(&self) -> usize {
        let kinds = self.columns.kinds.iter();
        kinds.filter(|op| op.is_key_switching()).count()
    }

    /// Count of operations of a given kind.
    pub fn count(&self, op: HeOp) -> usize {
        self.columns
            .kinds
            .iter()
            .filter(|&&kind| kind == op)
            .count()
    }

    /// Number of distinct rotation keys the trace requires.
    pub fn rotation_keys(&self) -> usize {
        self.rotation_keys
    }

    /// The ciphertexts that enter the trace from outside (fresh ciphertexts
    /// arriving from the host), as `(id, level)` in declaration order; every
    /// other id must be produced by an op.
    pub fn inputs(&self) -> impl ExactSizeIterator<Item = (CtId, usize)> + '_ {
        let inputs = self.columns.inputs.iter();
        inputs.map(|&(slot, level)| (self.id_of(slot), level))
    }

    /// Concatenates another trace after this one. The other trace's
    /// ciphertext ids are shifted above this trace's id range: independent
    /// [`crate::TraceBuilder`]s both number ids from 0, so splicing them
    /// verbatim would alias unrelated ciphertexts and corrupt the cache
    /// model's residency accounting (phantom hits, understated HBM traffic).
    ///
    /// `rotation_keys` stores only a count, not the rotation amounts, so the
    /// merged value (the max of the two counts) is a *lower bound*: traces
    /// with disjoint rotation sets need up to the sum.
    pub fn extend(&mut self, other: &OpTrace) {
        // Slot order is id order, so the last slot holds the largest id.
        let offset = self.slot_count().checked_sub(1);
        let offset = offset.map_or(0, |last| self.id_of(last as u32) + 1);
        let rotation_keys = self.rotation_keys.max(other.rotation_keys);
        *self = rebuild(
            &self.instance,
            &[(self, 0), (other, offset)],
            &[],
            rotation_keys,
        );
    }

    /// Number of slots (distinct ciphertexts the tables cover): every slot
    /// a [`TracedOp`] names is below it.
    pub fn slot_count(&self) -> usize {
        self.producer.len()
    }

    /// The op whose output the slot is; `None` for trace inputs (and, on a
    /// malformed trace, for ids nothing defines).
    pub fn producer(&self, slot: u32) -> Option<u32> {
        let p = self.producer[slot as usize];
        (p < self.len() as u32).then_some(p)
    }

    /// The longest distance, in ops, from a producer to a read of its output
    /// (0 if no op reads another's output) — see the module docs.
    pub fn read_window(&self) -> u32 {
        self.window
    }

    /// Number of cells of per-value state: the window ring, then one per
    /// trace input. Never more than the op and input count.
    pub fn cells(&self) -> usize {
        self.ring as usize + self.columns.inputs.len()
    }

    /// The cell of the value a defined slot holds: its producing op's index
    /// masked into the window ring, or past the ring, its trace input's.
    /// Two values share a cell only if every read of the older one comes
    /// before the newer one is produced. (An undefined slot, which a valid
    /// trace does not read, has no cell: its index is out of range.)
    #[inline]
    pub fn cell(&self, slot: u32) -> u32 {
        let p = self.producer[slot as usize];
        let ops = self.len() as u32;
        if p < ops {
            p & self.ring_mask
        } else {
            p.wrapping_sub(ops).wrapping_add(self.ring)
        }
    }

    /// The ciphertext id the slot stands for.
    pub fn id_of(&self, slot: u32) -> CtId {
        if self.interned.is_empty() {
            CtId::from(slot)
        } else {
            self.interned[slot as usize]
        }
    }

    /// The reuse code of one access of `op`: its `operand`-th operand read
    /// or, for `None`, its output being written (see the module docs). The
    /// construction scan stored it; this reads it.
    pub fn reuse(&self, op: &TracedOp<'_>, operand: Option<usize>) -> Reuse {
        op.codes[operand.unwrap_or(op.operands.len())].reuse()
    }

    /// Positions of op `i`'s operand accesses in the operand arena.
    fn operand_range(&self, i: usize) -> Range<usize> {
        let end = &self.columns.operand_end;
        let start = i.checked_sub(1).map_or(0, |p| end[p] as usize);
        start..end[i] as usize
    }

    /// The ops in program order with operands and outputs as slots.
    pub fn ops(&self) -> impl Iterator<Item = TracedOp<'_>> + '_ {
        self.ops_in(0..self.len())
    }

    /// Ops `ops` in program order, as [`OpTrace::ops`] yields them. The
    /// columns are sliced to the range once, and each op's operands and
    /// codes split off the front of what is left.
    pub(crate) fn ops_in(&self, ops: Range<usize>) -> impl Iterator<Item = TracedOp<'_>> + '_ {
        let c = &self.columns;
        let span = c.operand_span(ops.clone());
        let mut first_access = span.start;
        let mut operands = &c.operands[span.clone()];
        // The ops' stamps: each op's operands', then its output's.
        let mut codes = &self.codes[span.start + ops.start..span.end + ops.end];
        let columns = (c.kinds[ops.clone()].iter())
            .zip(&c.levels[ops.clone()])
            .zip(&c.flags[ops.clone()])
            .zip(&c.outputs[ops.clone()])
            .zip(&c.operand_end[ops.clone()]);
        ops.zip(columns)
            .map(move |(i, ((((&op, &level), &flags), &output), &end))| {
                let (own, rest) = operands.split_at(end as usize - first_access);
                operands = rest;
                let (own_codes, rest) = codes.split_at(own.len() + 1);
                codes = rest;
                let traced = TracedOp {
                    // Lossless: construction checked that the op count fits
                    // u32.
                    index: i as u32,
                    op,
                    level: if level == WIDE_LEVEL {
                        c.level(i)
                    } else {
                        usize::from(level)
                    },
                    in_bootstrap: flags & IN_BOOTSTRAP != 0,
                    operands: own,
                    output: (output != NEVER).then_some(output),
                    first_access,
                    codes: own_codes,
                };
                first_access = end as usize;
                traced
            })
    }

    /// Op `i`, as [`OpTrace::ops`] yields it.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no op `i`.
    pub fn op(&self, i: usize) -> TracedOp<'_> {
        let mut op = self.ops_in(i..i + 1);
        op.next().expect("one op in the range")
    }

    /// Where each copy of a builder's repeated ops starts, ascending — the
    /// repeated ops first — and how many ops each copy has. Every copy is
    /// the first one with its outputs shifted to fresh slots above every
    /// slot defined before it, and each read from outside it at the same
    /// operand position (see `Source`). Empty for a trace nothing was
    /// copied into: one built op by op or by [`OpTrace::from_ops`].
    pub(crate) fn copies(&self) -> (&[u32], usize) {
        (&self.copy_starts, self.copy_len)
    }

    /// The operand slots of ops `ops`, in program order.
    pub(crate) fn operands_of(&self, ops: Range<usize>) -> &[u32] {
        &self.columns.operands[self.columns.operand_span(ops)]
    }

    /// The stored hints of every access of ops `ops`, in stamp order.
    pub(crate) fn codes_of(&self, ops: Range<usize>) -> &[Code] {
        let span = self.columns.operand_span(ops.clone());
        &self.codes[span.start + ops.start..span.end + ops.end]
    }

    /// For every operand access (in [`TracedOp::first_access`] order), the
    /// op at which the same ciphertext is next read — [`NEVER`] for its last
    /// access — and, per slot, the op that reads it first: the next use of
    /// an op output as it is produced. One backward pass, whose next-seen
    /// table ends as the first reads; an op that reads a ciphertext twice
    /// sees its own index as the first access's next use. Exact because the
    /// whole trace is known: this is what Belady replacement decides on.
    pub(crate) fn next_uses(&self) -> (Vec<u32>, Vec<u32>) {
        let mut next_seen = vec![NEVER; self.slot_count()];
        let mut next = vec![NEVER; self.columns.operands.len()];
        for op in (0..self.len()).rev() {
            for access in self.operand_range(op).rev() {
                let slot = self.columns.operands[access] as usize;
                next[access] = next_seen[slot];
                // Lossless: construction checked that the op count fits u32.
                next_seen[slot] = op as u32;
            }
        }
        (next, next_seen)
    }
}

/// `Err(TooLarge)` when `accesses` operand accesses, `inputs` trace inputs
/// and `ops` ops are more than a trace's stamps can number ([`MAX_STAMPS`]).
fn check_size(accesses: usize, inputs: usize, ops: usize) -> Result<(), TraceError> {
    let count = accesses.saturating_add(inputs).saturating_add(ops);
    if count <= MAX_STAMPS {
        Ok(())
    } else {
        Err(TraceError::TooLarge {
            count,
            limit: MAX_STAMPS,
        })
    }
}

/// The stamp of op `i`'s first access: accesses before it are the operands
/// and outputs of ops `0..i`.
fn first_stamp(c: &Columns, i: usize) -> u32 {
    // Lossless: construction checked that accesses plus ops fit u32.
    i.checked_sub(1).map_or(0, |p| c.operand_end[p]) + i as u32
}

/// The tables [`OpTrace::scan`] fills as it reads: producers, the stamp of
/// each slot's latest read, the stored codes and the read window.
struct Tables<'a> {
    producer: &'a mut [u32],
    latest: &'a mut [u32],
    codes: &'a mut [Code],
    window: &'a mut u32,
}

impl Tables<'_> {
    /// Op `i` reads `slot` at `stamp`; `previous` is the stamp of the
    /// previous op's first access (a read at or past it is in this op or the
    /// one before). Returns whether `slot` is undefined.
    #[inline(always)]
    fn read(self, c: &Columns, i: u32, slot: u32, stamp: u32, previous: u32) -> bool {
        let s = slot as usize;
        let producer = self.producer[s];
        // An input's code and UNDEFINED exceed `i`: they read 0.
        *self.window = (*self.window).max(i.saturating_sub(producer));
        let seen = self.latest[s];
        if seen != NEVER {
            if self.codes[seen as usize].is_forwarded() {
                // Read twice: the output it was forwarded from is cached
                // after all. (Its first read was this op or the one before,
                // so its code stays `Next`.)
                let output = c.operand_end[producer as usize] + producer;
                self.codes[output as usize] = Code::NEXT;
            }
            self.codes[seen as usize] = if seen >= previous {
                Code::NEXT
            } else {
                Code::LATER
            };
        } else if producer < i {
            // The first read of an op's output settles the output.
            let output = (c.operand_end[producer as usize] + producer) as usize;
            if producer + 1 == i {
                self.codes[output] = Code::NEXT.forwarded();
                self.codes[stamp as usize] = Code::NEVER.forwarded();
            } else {
                self.codes[output] = Code::LATER;
            }
        }
        self.latest[s] = stamp;
        producer == UNDEFINED
    }
}

/// The tables of a builder's repeated ops as the scan left them at their
/// end, from which it scans each copy ([`crate::TraceBuilder::repeat`]).
///
/// The builder flags a copy ([`COPY_STARTS`]) only where its columns make
/// one: the repeated ops' outputs are consecutive slots, each read among
/// them of one of those slots comes after the op producing it, the copy's
/// outputs are as many fresh consecutive slots, every read of a repeated
/// output reads the copy's output in its place, and every other read reads
/// a value defined before the copy. The scan of a copy then repeats the
/// source's exactly, shifted: its reads of its own outputs see the same
/// producers, read distances and earlier reads, so they store the same
/// codes, and at its end each output's latest read is the source's
/// shifted. Only its reads from outside can differ — they meet other
/// values' histories — and they are scanned, in order. Levels are the
/// source's, whose defects the scan has already met.
struct Source {
    /// The repeated ops.
    ops: Range<usize>,
    /// The codes of their accesses.
    codes: Vec<Code>,
    /// The latest-read stamp of each of their outputs.
    latest: Vec<u32>,
    /// The longest distance from one of them to a read of its output
    /// among them.
    window: u32,
    /// Their reads from outside: `(op, operand position)`, both counted
    /// from the first of them.
    outside: Vec<(usize, usize)>,
}

impl Source {
    /// The tables of `ops` as the scan left them, `end` being the stamp
    /// after their last access.
    fn keep(c: &Columns, codes: &[Code], latest: &[u32], ops: Range<usize>, end: u32) -> Self {
        let first_out = c.outputs[ops.start];
        // Lossless: the op count fits u32.
        let width = ops.len() as u32;
        let span = c.operand_span(ops.clone());
        let mut window = 0;
        let mut outside = Vec::new();
        for (k, i) in (0u32..).zip(ops.clone()) {
            for at in c.operand_span(i..i + 1) {
                let producer = c.operands[at].wrapping_sub(first_out);
                if producer < width {
                    window = window.max(k.saturating_sub(producer));
                } else {
                    outside.push((k as usize, at - span.start));
                }
            }
        }
        let stamps = first_stamp(c, ops.start) as usize..end as usize;
        let outputs = first_out as usize..first_out as usize + ops.len();
        Self {
            ops,
            codes: codes[stamps].to_vec(),
            latest: latest[outputs].to_vec(),
            window,
            outside,
        }
    }

    /// Scans the copy at `at` (`here` is the stamp of its first access) from
    /// the kept tables, handing each undefined read from outside to
    /// `undefined`.
    fn copy_to(
        &self,
        c: &Columns,
        tables: Tables<'_>,
        at: usize,
        here: u32,
        undefined: &mut impl FnMut(usize, u32),
    ) {
        let Tables {
            producer,
            latest,
            codes,
            window,
        } = tables;
        let first = c.outputs[at] as usize;
        let moved = here - first_stamp(c, self.ops.start);
        codes[here as usize..][..self.codes.len()].copy_from_slice(&self.codes);
        // Lossless: op indices fit u32.
        for ((producer, k), &read) in producer[first..][..self.latest.len()]
            .iter_mut()
            .zip(at as u32..)
            .zip(&self.latest)
        {
            *producer = k;
            latest[first + (k as usize - at)] = if read == NEVER { NEVER } else { read + moved };
        }
        *window = (*window).max(self.window);
        // The reads from outside, in program order, as the scan reads them.
        let span = c.operand_span(at..at + 1).start;
        for &(k, offset) in &self.outside {
            let j = at + k;
            let position = span + offset;
            // Lossless: stamps and op indices fit u32.
            let stamp = (position + j) as u32;
            let previous = j.checked_sub(1).map_or(0, |p| first_stamp(c, p));
            codes[stamp as usize] = Code::NEVER;
            let tables = Tables {
                producer,
                latest,
                codes,
                window,
            };
            let slot = c.operands[position];
            if tables.read(c, j as u32, slot, stamp, previous) {
                undefined(j, slot);
            }
        }
    }
}

/// `parts` spliced in order and rebuilt from ids through
/// [`OpTrace::from_ops`]: every id of a part shifted by its offset, then the
/// operand at arena position `at` of each `(at, id)` patch replaced by `id`.
pub(crate) fn rebuild(
    instance: &CkksInstance,
    parts: &[(&OpTrace, CtId)],
    patches: &[(usize, CtId)],
    rotation_keys: usize,
) -> OpTrace {
    let shifted = |(trace, shift): &(&OpTrace, CtId), slot: u32| trace.id_of(slot) + shift;
    let mut operands: Vec<CtId> = parts
        .iter()
        .flat_map(|part| part.0.columns.operands.iter().map(|&s| shifted(part, s)))
        .collect();
    for &(at, id) in patches {
        operands[at] = id;
    }
    let inputs: Vec<(CtId, usize)> = parts
        .iter()
        .flat_map(|part| part.0.inputs().map(|(id, level)| (id + part.1, level)))
        .collect();
    let mut base = 0;
    let ops = parts.iter().flat_map(|part| {
        let at = base;
        base += part.0.columns.operands.len();
        let operands = &operands;
        part.0.ops().map(move |op| RawOp {
            op: op.op,
            level: op.level,
            inputs: &operands[at + op.first_access..][..op.operands.len()],
            output: op.output.map(|slot| shifted(part, slot)),
            in_bootstrap: op.in_bootstrap,
        })
    });
    OpTrace::from_ops(instance, &inputs, ops, rotation_keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

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
    fn slots(trace: &OpTrace) -> Range<u32> {
        0..trace.slot_count() as u32
    }

    /// The slot of `id`, if the trace mentions it.
    fn slot_of(trace: &OpTrace, id: CtId) -> Option<u32> {
        slots(trace).find(|&s| trace.id_of(s) == id)
    }

    /// One op of a trace by id, owned, for rebuilding it with changes.
    #[derive(Clone)]
    struct Owned {
        op: HeOp,
        level: usize,
        inputs: Vec<CtId>,
        output: Option<CtId>,
    }

    /// `(inputs, ops)` of a trace by id.
    fn by_id(trace: &OpTrace) -> (Vec<(CtId, usize)>, Vec<Owned>) {
        let ops = trace.ops().map(|op| Owned {
            op: op.op,
            level: op.level,
            inputs: op.operands.iter().map(|&s| trace.id_of(s)).collect(),
            output: op.output.map(|s| trace.id_of(s)),
        });
        (trace.inputs().collect(), ops.collect())
    }

    fn rebuild(inputs: &[(CtId, usize)], ops: &[Owned]) -> OpTrace {
        let ops = ops.iter().map(|o| RawOp {
            op: o.op,
            level: o.level,
            inputs: &o.inputs,
            output: o.output,
            in_bootstrap: false,
        });
        OpTrace::from_ops(&CkksInstance::ins1(), inputs, ops, 1)
    }

    #[test]
    fn builder_ids_are_their_own_slots() {
        let trace = small_trace();
        assert_eq!(trace.slot_count(), 7);
        assert!(trace.interned.is_empty());
        for slot in slots(&trace) {
            assert_eq!(trace.id_of(slot), CtId::from(slot));
        }
        assert_eq!(trace.producer(0), None, "trace inputs have no producer");
        assert_eq!(trace.producer(2), Some(0));
        let ops: Vec<_> = trace.ops().collect();
        assert_eq!(ops[4].operands, &[2, 1]);
        assert_eq!(trace.reuse(&ops[4], Some(1)), Reuse::Never, "y's last read");
        assert_eq!(
            trace.reuse(&ops[4], None),
            Reuse::Never,
            "nothing reads the sum"
        );
    }

    #[test]
    fn sparse_ids_are_interned_in_id_order() {
        let dense = small_trace();
        let (inputs, ops) = by_id(&dense);
        for map in [
            (|id| id << 40) as fn(CtId) -> CtId,
            |id| u64::MAX - 6 + id,
            |id| u64::MAX - id,
        ] {
            let inputs: Vec<_> = inputs.iter().map(|&(id, level)| (map(id), level)).collect();
            let mut ops = ops.clone();
            for op in &mut ops {
                op.inputs.iter_mut().for_each(|id| *id = map(*id));
                op.output = op.output.map(map);
            }
            let trace = rebuild(&inputs, &ops);
            assert_eq!(trace.slot_count(), 7, "one slot per id, whatever its size");
            let ids: Vec<CtId> = slots(&trace).map(|s| trace.id_of(s)).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "slots ascend with ids");
            for id in 0..7u64 {
                let d = slot_of(&dense, id).unwrap();
                let s = slot_of(&trace, map(id)).unwrap();
                assert_eq!(trace.producer(s), dense.producer(d));
            }
            // Codes are stored per access, whatever the slots.
            assert_eq!(trace.codes, dense.codes);
            assert_eq!(slot_of(&trace, 12345), None);
            assert_eq!(trace.next_uses().0, dense.next_uses().0);
        }
    }

    /// Per op: the slot of every access that carries the forwarding bit.
    fn forwarded(trace: &OpTrace) -> Vec<Vec<u32>> {
        let ops = trace.ops().map(|op| {
            let accesses = op.operands.iter().copied().chain(op.output);
            let flagged = accesses
                .zip(op.codes)
                .filter(|(_, code)| code.is_forwarded());
            flagged.map(|(slot, _)| slot).collect()
        });
        ops.collect()
    }

    #[test]
    fn single_use_by_the_next_op_is_forwarded() {
        let trace = small_trace();
        // r (slot 3) and q (slot 4), output and one read each; p has two
        // readers, the inputs no producer.
        let none = Vec::new;
        assert_eq!(
            forwarded(&trace),
            vec![none(), vec![3], vec![3, 4], vec![4], none()]
        );
        // A second read, by the same op or a later one, clears the bit on
        // the output and on the first read.
        let (inputs, mut ops) = by_id(&trace);
        ops[2].inputs = vec![3, 3];
        let twice = rebuild(&inputs, &ops);
        assert_eq!(forwarded(&twice)[1..3], [vec![], vec![4]]);
        ops[2].inputs = vec![3];
        ops[3].inputs = vec![4, 3];
        let later = rebuild(&inputs, &ops);
        assert_eq!(forwarded(&later)[1..4], [vec![], vec![4], vec![4]]);
        assert_eq!(later.reuse(&later.ops().nth(1).unwrap(), None), Reuse::Next);
    }

    #[test]
    fn next_uses_see_a_repeated_operand_twice() {
        let trace = small_trace();
        let (next, first) = trace.next_uses();
        // Accesses: x x | p | r | q y | p y.
        assert_eq!(next, vec![0, NEVER, 4, NEVER, NEVER, 4, NEVER, NEVER]);
        // The next-seen table ends as every slot's first read.
        assert_eq!(first, vec![0, 3, 1, 2, 3, NEVER, NEVER]);
        let ops: Vec<_> = trace.ops().collect();
        assert_eq!(ops[3].first_access, 4);
        assert_eq!(ops[3].operands, &[4, 1]);
        assert_eq!(ops[3].output, Some(5));
        assert_eq!(ops[3].stamp(0), 7, "after op 2's output");
    }

    #[test]
    fn reuse_codes_are_stored_by_the_construction_scan() {
        use Reuse::{Later, Never, Next};
        let trace = small_trace();
        let codes: Vec<(Vec<Reuse>, Reuse)> = trace
            .ops()
            .map(|op| {
                let operands = (0..op.operands.len()).map(|k| trace.reuse(&op, Some(k)));
                (operands.collect(), trace.reuse(&op, None))
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
        // `Never` on an access is the slot's last read and nothing else.
        let ops: Vec<_> = trace.ops().collect();
        for (i, op) in ops.iter().enumerate() {
            for (k, slot) in op.operands.iter().enumerate() {
                let later_reads = op.operands[k + 1..].iter();
                let later_reads = later_reads.chain(ops[i + 1..].iter().flat_map(|o| o.operands));
                let last_access = !later_reads.clone().any(|s| s == slot);
                assert_eq!(trace.reuse(op, Some(k)) == Never, last_access);
            }
        }
        // One byte per access and one per op.
        assert_eq!(
            trace.codes.len(),
            trace.columns.operands.len() + trace.len()
        );
        // A hand-rolled op without an output has nothing to be read again.
        let (inputs, mut ops) = by_id(&trace);
        ops[4].output = None;
        let trace = rebuild(&inputs, &ops);
        assert_eq!(trace.reuse(&trace.ops().last().unwrap(), None), Never);
    }

    #[test]
    fn the_first_defect_in_program_order_is_reported() {
        let (mut inputs, mut ops) = by_id(&small_trace());
        ops[3].inputs[0] = 99; // dangling, op 3
        ops[1].output = Some(0); // redefines x, op 1
        assert_eq!(
            rebuild(&inputs, &ops).validate(),
            Err(TraceError::DuplicateOutput { op_index: 1, id: 0 })
        );
        ops[1].level = 99;
        assert_eq!(
            rebuild(&inputs, &ops).validate(),
            Err(TraceError::LevelOutOfRange {
                op_index: 1,
                level: 99,
                max_level: 27
            })
        );
        inputs[1].1 = 40;
        assert_eq!(
            rebuild(&inputs, &ops).validate(),
            Err(TraceError::InputLevelOutOfRange {
                input_index: 1,
                level: 40,
                max_level: 27
            })
        );
    }

    #[test]
    fn levels_past_a_byte_keep_their_true_value() {
        let (inputs, mut ops) = by_id(&small_trace());
        ops[1].level = 300;
        ops[2].level = 254;
        ops[3].level = 255;
        ops[4].level = usize::MAX;
        let trace = rebuild(&inputs, &ops);
        assert_eq!(
            trace.validate(),
            Err(TraceError::LevelOutOfRange {
                op_index: 1,
                level: 300,
                max_level: 27
            })
        );
        let levels: Vec<usize> = trace.ops().map(|op| op.level).collect();
        assert_eq!(levels, [27, 300, 254, 255, usize::MAX]);
        // A repeated range carries its wide levels along.
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let p = b.hmult_at(x, x, 400);
        b.hrot(p, 1, 27);
        let q = b.hmult_at(x, x, 27);
        b.repeat(0..2, x, q);
        let levels: Vec<usize> = b.build().ops().map(|op| op.level).collect();
        assert_eq!(levels, [400, 27, 27, 400, 27]);
    }

    #[test]
    fn the_size_bound_is_checked_on_counts() {
        // The bound itself, on counts: no trace of 2^32 accesses is built.
        assert_eq!(check_size(MAX_STAMPS - 2, 1, 1), Ok(()));
        let over = TraceError::TooLarge {
            count: MAX_STAMPS + 1,
            limit: MAX_STAMPS,
        };
        assert_eq!(check_size(MAX_STAMPS - 1, 1, 1), Err(over.clone()));
        assert_eq!(check_size(0, MAX_STAMPS + 1, 0), Err(over.clone()));
        // Counts past a usize saturate rather than wrap below the bound.
        let huge = check_size(usize::MAX, usize::MAX, 2);
        assert!(matches!(
            huge,
            Err(TraceError::TooLarge {
                count: usize::MAX,
                ..
            })
        ));
        // Every stamp, the last included, stays below the sentinels.
        assert!((MAX_STAMPS as u32) < UNDEFINED - 1);
        // What `from_ops` builds of such a program: no ops, the defect.
        let ins = CkksInstance::ins1();
        let refused = OpTrace::refused(&ins, 3, over.clone());
        assert!(refused.is_empty() && refused.inputs().len() == 0);
        assert_eq!(refused.rotation_keys(), 3);
        assert_eq!(refused.validate(), Err(over.clone()));
        let sim = crate::Simulator::new(crate::BtsConfig::bts_default(), ins);
        assert_eq!(sim.try_run(&refused).unwrap_err(), over);
        assert!(over.to_string().contains("exceeds"));
    }

    #[test]
    fn lenient_indexing_covers_malformed_traces() {
        let (inputs, mut ops) = by_id(&small_trace());
        ops[4].inputs[0] = u64::MAX; // never defined
        let trace = rebuild(&inputs, &ops);
        assert!(trace.validate().is_err());
        let slot = slot_of(&trace, u64::MAX).expect("used ids have slots");
        assert_eq!(trace.producer(slot), None);
        let last = trace.ops().last().unwrap();
        assert_eq!(last.operands[0], slot);
        assert_eq!(
            trace.reuse(&last, Some(0)),
            Reuse::Never,
            "coded like any read"
        );
        // A hand-rolled op without an output has no output slot.
        ops[4].inputs = vec![0, 1];
        ops[4].output = None;
        let trace = rebuild(&inputs, &ops);
        assert!(trace.validate().is_ok());
        assert_eq!(trace.ops().last().unwrap().output, None);
    }
}
