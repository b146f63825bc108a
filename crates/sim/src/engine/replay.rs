//! Copies resolved once per entry state, replayed after that.
//!
//! A *copy* ([`OpTrace::copies`]) is a run of ops a builder recorded once
//! and repeated on another input — a lowering's bootstrap expansions, most
//! of every registry trace. Each copy holds the same ops at the same levels,
//! its outputs shifted to fresh slots above every slot defined before it,
//! and reads from outside it at the same operand positions. Inside a copy
//! the cache decides hits, bypasses and victims by comparing keys with keys,
//! slots with slots (the tie-break) and resident bytes with the capacity,
//! nothing else. So what the copy does to the cache is a function of the
//! state it enters in, read in the copy's own *frame*:
//!
//! - every resident — the live ones in `(key, slot)` order, then the dead
//!   run in its own — with its key relative to the copy ([`Frame`]), its
//!   bytes and whether it is dead;
//! - the copy's reads from outside, each as a slot;
//! - every slot among those as its rank in their union, ascending (the
//!   copy's own outputs rank above them all, by their offset);
//! - and the copy's own accesses: the stored code bytes, and for the exact
//!   probe their next uses in the frame.
//!
//! Keys shift by an order-preserving map and slots map to ranks, so two
//! copies with equal keys make every comparison the same way, op by op: the
//! same hits and misses, the same bytes in use after each op, and the same
//! exit state in their frames — and so the same timings, op for op.
//! [`Memo::sweep_copy`] therefore resolves a copy op by op only when no
//! earlier copy of the sweep met its key, and records it with the copy's
//! totals (its [`Fold`]: ticks, bytes, hits, misses, busy ticks and peak
//! scratch); otherwise it replays the record. A replay adds the recorded
//! totals to the sweep's fold in one step — ticks are integers, so the sum
//! is the one op-by-op folding makes — asks the sink whether it takes the
//! copy whole ([`OpSink::copy`]), hands it each op's timing from the
//! recorded hits, misses and bytes in use ([`Sweep::charge`]) only if not,
//! and installs the recorded exit state in this copy's slots, keys and
//! cells.
//!
//! The memo lives and dies inside one sweep: one allocation, made at the
//! first copy, with room for [`STATES`] entry states of [`RESIDENTS`]
//! residents each and never more than [`LINES`] lines. Past that room,
//! copies are resolved op by op. A replay emits no telemetry, so the sweep
//! replays nothing while telemetry is on.

use super::{BeladyCache, Fold, NextUses, OpSink, Replacement, Sweep, Value};
use crate::trace_index::{Code, OpTrace, Reuse, TracedOp, NEVER};

/// The most entry states one sweep records. The registry's traces enter
/// their copies in at most 14 states per key.
pub(super) const STATES: usize = 16;
/// The residents per entry state the memo has room for: sorting's copies
/// on INS-1 enter with at most 25, dead ones included. Entry states with
/// more leave room for fewer.
const RESIDENTS: usize = 32;
/// The most lines one sweep's memo holds: 1.5 MiB of 24-byte lines. A
/// sweep whose copies are too long for [`STATES`] entry states in it
/// records none.
const LINES: usize = 1 << 16;

/// How a copy's keys and slots read relative to it.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The copy's first op.
    start: usize,
    /// The slot of the copy's first output: its outputs are the slots from
    /// here on, one per op.
    first_out: u32,
    /// What a key loses in the frame: the copy's first op under the reuse
    /// code and the exact probe (keys are op positions), minus its first
    /// access's stamp under recency (keys count stamps down).
    origin: i64,
    /// Whether `NEVER − 1` and `NEVER` are sentinels, the same in every
    /// frame (the reuse code's `Later` and `Never`, the probe's last use)
    /// rather than positions.
    sentinels: bool,
}

impl Frame {
    fn of(trace: &OpTrace, start: usize, replacement: Replacement) -> Self {
        let op = trace.op(start);
        let (origin, sentinels) = match replacement {
            Replacement::Lru => (-(op.stamp(0) as i64), false),
            Replacement::ReuseCode | Replacement::ExactNextUse => (start as i64, true),
        };
        Frame {
            start,
            first_out: op
                .output
                .expect("a copy is builder ops, which all have outputs"),
            origin,
            sentinels,
        }
    }

    /// `key` in the frame: an order-preserving shift.
    fn relative(&self, key: u32) -> i64 {
        if self.sentinels && key >= NEVER - 1 {
            i64::from(key)
        } else {
            i64::from(key) - self.origin
        }
    }

    /// The key that reads `key` in the frame.
    fn absolute(&self, key: i64) -> u32 {
        if self.sentinels && key >= i64::from(NEVER - 1) {
            key as u32
        } else {
            // Lossless: the inverse of `relative` on a key the cache held.
            (key + self.origin) as u32
        }
    }
}

/// One line of a [`Memo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Line {
    /// An entry's first line: the copy it was recorded on, the numbers of
    /// resident, union and exit lines that follow, and a hash of its state
    /// (see [`Memo::push_state`]), which a lookup compares first.
    Head {
        origin: u32,
        residents: u32,
        union: u32,
        exits: u32,
        hash: u32,
    },
    /// A resident in a copy's frame: its relative key, its slot as a rank
    /// (see the module docs), whether it is dead, and its bytes.
    Resident {
        key: i64,
        slot: u32,
        dead: bool,
        bytes: u64,
    },
    /// A slot or a rank, or an operand position (the memo's first lines).
    Slot(u32),
    /// One op's outcome: operand hits and misses, and the bytes resident
    /// after it.
    Op { hits: u32, misses: u32, used: u64 },
}

impl Line {
    fn slot(self) -> u32 {
        match self {
            Line::Slot(slot) | Line::Resident { slot, .. } => slot,
            _ => unreachable!("a line without a slot"),
        }
    }

    /// `hash` with this line mixed in (FxHash's step).
    fn mix(self, hash: u64) -> u64 {
        let step = |hash: u64, word: u64| {
            (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        };
        match self {
            Line::Resident {
                key,
                slot,
                dead,
                bytes,
            } => step(
                step(hash, key as u64),
                bytes ^ u64::from(slot) << 1 ^ u64::from(dead),
            ),
            Line::Slot(slot) => step(hash, u64::from(slot)),
            _ => hash,
        }
    }

    fn with_slot(self, slot: u32) -> Line {
        match self {
            Line::Slot(_) => Line::Slot(slot),
            Line::Resident {
                key, dead, bytes, ..
            } => Line::Resident {
                key,
                slot,
                dead,
                bytes,
            },
            _ => unreachable!("a line without a slot"),
        }
    }
}

/// The entry states one sweep met at its copies, each with the outcome of
/// the copy that first met it. Its lines, in one `Vec` sized once: the
/// operand positions of a copy's reads from outside, then per entry state
/// `Head`, `Resident` × n (the state, sorted), `Slot` × reads (the reads'
/// ranks), `Slot` × u (the union of those slots, ascending), `Op` × width
/// (the outcome) and `Resident` × m (the exit state). A lookup builds its
/// key as an entry at the end and drops it again.
#[derive(Debug)]
pub(super) struct Memo {
    lines: Vec<Line>,
    /// Reads from outside per copy: the first lines.
    reads: usize,
    /// Ops per copy.
    width: usize,
    /// Entry states recorded.
    entries: usize,
    /// Per entry state, in the order recorded, the totals of the copy that
    /// made it.
    totals: [Fold; STATES],
    /// The lines the memo may hold: none if it records nothing.
    room: usize,
    /// The most lines a lookup's key takes — its head, every resident and
    /// read, and their union — and a record's outcome and exit state,
    /// at as many residents as the cache can hold.
    key_lines: usize,
    record_lines: usize,
}

impl Memo {
    /// The memo of a sweep whose first copy starts at op `start`, copies
    /// being `width` ops, where at most `most` values are resident at once.
    pub(super) fn new(trace: &OpTrace, start: usize, width: usize, most: usize) -> Self {
        let first_out = trace.op(start).output.unwrap_or(NEVER);
        let operands = trace.operands_of(start..start + width);
        // Lossless: op counts fit u32.
        let outside = |&(_, &slot): &(u32, &u32)| slot.wrapping_sub(first_out) >= width as u32;
        let reads = (0u32..).zip(operands).filter(outside).count();
        let key_lines = 1 + 2 * (most + reads);
        let record_lines = width + most;
        // `STATES` entries of `RESIDENTS` residents (at entry, in the union,
        // at exit), and room for the largest lookup and record besides.
        let entries = STATES * (1 + 2 * reads + width + 3 * RESIDENTS);
        let mut room = reads + entries + key_lines + record_lines;
        let mut lines = Vec::new();
        if room <= LINES {
            lines.reserve_exact(room);
            let positions = (0u32..).zip(operands).filter(outside);
            lines.extend(positions.map(|(at, _)| Line::Slot(at)));
        } else {
            room = 0;
        }
        Memo {
            lines,
            reads,
            width,
            entries: 0,
            totals: [Fold::default(); STATES],
            room,
            key_lines,
            record_lines,
        }
    }

    /// Sweeps the copy at op `start` — replayed if an earlier copy entered
    /// in the same state, else resolved op by op (and recorded while there
    /// is room) — into the sweep's fold and `sink`.
    pub(super) fn sweep_copy(
        &mut self,
        sweep: &mut Sweep<'_, '_>,
        start: usize,
        key: &impl Fn(&TracedOp<'_>, usize, Reuse) -> u32,
        sink: &mut impl OpSink,
    ) {
        let trace = sweep.trace;
        if self.room > 0 {
            let frame = Frame::of(trace, start, sweep.replacement);
            let tail = self.lines.len();
            self.push_state(&sweep.cache, trace, frame);
            if let Some((entry, record)) = self.find(trace, tail, frame, sweep.next_uses) {
                #[cfg(test)]
                tests::REPLAYED.with(|n| n.set(n.get() + 1));
                self.replay(entry, record, tail, frame, sweep, sink);
                self.lines.truncate(tail);
                return;
            }
            // Room for this record, and after it for the largest lookup
            // and record: the lines never outgrow their one allocation.
            let spare = self.room - self.lines.len();
            if self.entries < STATES && spare >= 2 * self.record_lines + self.key_lines {
                // The copy that makes a record is resolved whatever the
                // sink answers.
                sink.copy(start..start + self.width, self.entries);
                self.record(tail, frame, sweep, key, sink);
                self.entries += 1;
                return;
            }
            self.lines.truncate(tail);
        }
        for op in trace.ops_in(start..start + self.width) {
            sweep.each(&op, key, sink);
        }
    }

    /// Appends the key of the cache's state at the copy `frame` starts:
    /// a `Head`, the residents, the reads from outside and their union —
    /// every slot a rank in the union — as an entry without outcome.
    fn push_state(&mut self, cache: &BeladyCache, trace: &OpTrace, frame: Frame) {
        let lines = &mut self.lines;
        let head = lines.len();
        // The live residents, then the dead run: already in its order.
        let resident = |(slot, key, bytes, dead)| Line::Resident {
            key: frame.relative(key),
            slot,
            dead,
            bytes,
        };
        lines.push(Line::Slot(0));
        lines.extend(cache.residents().map(resident));
        let residents = lines.len() - head - 1;
        let operands = trace.operands_of(frame.start..frame.start + self.width);
        for at in 0..self.reads {
            lines.push(Line::Slot(operands[lines[at].slot() as usize]));
        }
        // The union: every slot above once, ascending. The dead run first:
        // its slots ascend wherever its keys tie, as the reuse code's and
        // the probe's all do, and the reads are the newest values.
        let union = lines.len();
        let live = cache.live.len();
        let dead = head + 1 + live..head + 1 + residents;
        for at in dead
            .chain(head + 1..head + 1 + live)
            .chain(head + 1 + residents..union)
        {
            lines.push(Line::Slot(lines[at].slot()));
        }
        if !lines[union..].is_sorted() {
            lines[union..].sort_unstable();
        }
        let mut kept = union;
        for at in union..lines.len() {
            if kept == union || lines[at] != lines[kept - 1] {
                lines[kept] = lines[at];
                kept += 1;
            }
        }
        lines.truncate(kept);
        for at in head + 1..union {
            let rank = rank(&lines[union..kept], lines[at].slot());
            lines[at] = lines[at].with_slot(rank);
        }
        // The live ones, first, by `(key, rank)`: few, and in no order.
        lines[head + 1..head + 1 + live].sort_unstable();
        let hash = lines[head + 1..union]
            .iter()
            .fold(0, |hash, line| line.mix(hash));
        lines[head] = Line::Head {
            // Lossless: op indices fit u32.
            origin: frame.start as u32,
            // Lossless: residents and reads number fewer than the trace's
            // values, which fit u32.
            residents: residents as u32,
            union: (kept - union) as u32,
            exits: 0,
            // The high half of the hash: its best-mixed bits.
            hash: (hash >> 32) as u32,
        };
    }

    /// The recorded entry whose key equals the one at `tail`, if any, and
    /// its place in the order recorded: the same state, and the same
    /// accesses in the two copies' frames.
    fn find(
        &self,
        trace: &OpTrace,
        tail: usize,
        frame: Frame,
        next_uses: Option<NextUses<'_>>,
    ) -> Option<(usize, usize)> {
        let (_, residents, _, _, hash) = self.head(tail);
        let state = &self.lines[tail + 1..][..residents + self.reads];
        let mut at = self.reads;
        for record in 0..self.entries {
            let (origin, n, union, exits, recorded) = self.head(at);
            if recorded == hash
                && self.lines[at + 1..][..n + self.reads] == *state
                && self.same_accesses(trace, origin, frame.start, next_uses)
            {
                return Some((at, record));
            }
            at += 1 + n + self.reads + union + self.width + exits;
        }
        None
    }

    /// Whether the copies at `a` and `b` make the same accesses in their
    /// frames: the same stored codes, and where keys read `next_uses`, the
    /// same next uses relative to each copy.
    fn same_accesses(
        &self,
        trace: &OpTrace,
        a: usize,
        b: usize,
        next_uses: Option<NextUses<'_>>,
    ) -> bool {
        let (ra, rb) = (a..a + self.width, b..b + self.width);
        if !same_codes(trace.codes_of(ra.clone()), trace.codes_of(rb.clone())) {
            return false;
        }
        let Some((next_reads, first_reads)) = next_uses else {
            return true;
        };
        let reads = |ops: std::ops::Range<usize>| {
            let first = trace.op(ops.start);
            let span = first.first_access..first.first_access + trace.operands_of(ops).len();
            &next_reads[span]
        };
        let firsts = |start: usize| {
            let first_out = trace.op(start).output.map_or(0, |slot| slot as usize);
            &first_reads[first_out..first_out + self.width]
        };
        same_positions(reads(ra), a, reads(rb), b) && same_positions(firsts(a), a, firsts(b), b)
    }

    /// Replays `entry`, the `record`-th recorded, on the copy `frame`
    /// starts, whose key is at `tail`: the record's totals added, each op
    /// handed to `sink` with its timing from the record unless the sink
    /// takes the copy whole, then the exit state installed.
    fn replay(
        &self,
        entry: usize,
        record: usize,
        tail: usize,
        frame: Frame,
        sweep: &mut Sweep<'_, '_>,
        sink: &mut impl OpSink,
    ) {
        let trace = sweep.trace;
        let (_, residents, union, exits, _) = self.head(entry);
        let outcome = entry + 1 + residents + self.reads + union;
        sweep.fold.merge(&self.totals[record]);
        if !sink.copy(frame.start..frame.start + self.width, record) {
            let ops = trace.ops_in(frame.start..frame.start + self.width);
            for (op, line) in ops.zip(&self.lines[outcome..][..self.width]) {
                let Line::Op { hits, misses, used } = *line else {
                    unreachable!("an entry's outcome is op lines");
                };
                let timing = sweep.charge(&op, hits as usize, misses as usize, used);
                sink.op(&op, &timing);
            }
        }
        // This copy's union has the recorded one's length: equal keys rank
        // the same slots.
        let (_, here, _, _, _) = self.head(tail);
        let slots = &self.lines[tail + 1 + here + self.reads..][..union];
        sweep.cache.clear();
        for line in &self.lines[outcome + self.width..][..exits] {
            let Line::Resident {
                key,
                slot,
                dead,
                bytes,
            } = *line
            else {
                unreachable!("an exit state is resident lines");
            };
            let slot = match slots.get(slot as usize) {
                Some(line) => line.slot(),
                // Lossless: below the copy's outputs, which fit u32.
                None => frame.first_out + (slot - union as u32),
            };
            // A dead resident keeps no cell.
            let cell = if dead { NEVER } else { trace.cell(slot) };
            let value = Value { slot, cell };
            sweep.cache.place(value, bytes, frame.absolute(key), dead);
        }
    }

    /// Resolves the copy `frame` starts op by op, recording each op's
    /// outcome, the copy's totals, and then the exit state after its key at
    /// `tail`.
    fn record(
        &mut self,
        tail: usize,
        frame: Frame,
        sweep: &mut Sweep<'_, '_>,
        key: &impl Fn(&TracedOp<'_>, usize, Reuse) -> u32,
        sink: &mut impl OpSink,
    ) {
        let trace = sweep.trace;
        let mut totals = Fold::default();
        for op in trace.ops_in(frame.start..frame.start + self.width) {
            let timing = sweep.step(&op, key);
            self.lines.push(Line::Op {
                // Lossless: at most the op's operand count.
                hits: timing.cache_hits as u32,
                misses: timing.cache_misses as u32,
                used: sweep.cache.used,
            });
            totals.add(&op, &timing);
            sink.op(&op, &timing);
        }
        sweep.fold.merge(&totals);
        self.totals[self.entries] = totals;
        let (origin, residents, union, _, hash) = self.head(tail);
        let slots = tail + 1 + residents + self.reads..tail + 1 + residents + self.reads + union;
        let exit = self.lines.len();
        // Lossless: op counts fit u32.
        let (width, above) = (self.width as u32, union as u32);
        for (slot, key, bytes, dead) in sweep.cache.residents() {
            let own = slot.wrapping_sub(frame.first_out);
            let slot = if own < width {
                above + own
            } else {
                rank(&self.lines[slots.clone()], slot)
            };
            self.lines.push(Line::Resident {
                key: frame.relative(key),
                slot,
                dead,
                bytes,
            });
        }
        self.lines[tail] = Line::Head {
            origin: origin as u32,
            residents: residents as u32,
            union: union as u32,
            // Lossless: no more than the cache's residents.
            exits: (self.lines.len() - exit) as u32,
            hash,
        };
    }

    /// The `Head` at `at`: origin, resident, union and exit line counts,
    /// and the state's hash.
    fn head(&self, at: usize) -> (usize, usize, usize, usize, u32) {
        let Line::Head {
            origin,
            residents,
            union,
            exits,
            hash,
        } = self.lines[at]
        else {
            unreachable!("an entry starts with its head");
        };
        (
            origin as usize,
            residents as usize,
            union as usize,
            exits as usize,
            hash,
        )
    }
}

/// Whether two copies' stored codes are equal: a compare without early
/// exit, which the compiler vectorizes.
fn same_codes(a: &[Code], b: &[Code]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .fold(0, |diff, (x, y)| diff | (x.byte() ^ y.byte()))
            == 0
}

/// Whether two copies' next-use positions, `a` of the copy at op `start_a`
/// and `b` of the one at `start_b`, are equal relative to the copies:
/// [`NEVER`] on both sides, or the same distance from each copy's start.
fn same_positions(a: &[u32], start_a: usize, b: &[u32], start_b: usize) -> bool {
    // Lossless: op indices fit u32.
    let (sa, sb) = (start_a as u32, start_b as u32);
    // Without branches, so the compare vectorizes.
    let differ = |(&x, &y): (&u32, &u32)| {
        ((x == NEVER) != (y == NEVER)) | ((x != NEVER) & (x.wrapping_sub(sa) != y.wrapping_sub(sb)))
    };
    a.len() == b.len() && !a.iter().zip(b).fold(false, |any, pair| any | differ(pair))
}

/// `slot`'s rank in an ascending union of slots. Every resident from before
/// a copy was resident at its start or is read by it, so it is there.
fn rank(union: &[Line], slot: u32) -> u32 {
    let at = union.binary_search(&Line::Slot(slot));
    // Lossless: the union is shorter than the trace's values.
    at.expect("a slot from before the copy is in its union") as u32
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use bts_params::CkksInstance;

    use crate::trace::{CtId, RawOp, TraceBuilder};
    use crate::{BtsConfig, OpTiming, OpTrace, Simulator, TracedOp};

    thread_local! {
        /// Copies this thread's sweeps replayed.
        pub(super) static REPLAYED: Cell<usize> = const { Cell::new(0) };
    }

    /// Bootstrap-shaped refreshes of one recorded expansion, each on the
    /// previous one's output after a multiplication by a long-lived value,
    /// and every few a refresh of that value instead: entry states repeat,
    /// and differ.
    fn refreshes(ins: &CkksInstance, copies: usize) -> OpTrace {
        let mut b = TraceBuilder::new(ins);
        let top = ins.max_level();
        let keep = b.fresh_ct(top - 10);
        let from = b.fresh_ct(2);
        let start = b.len();
        b.set_bootstrap_region(true);
        let mut x = b.mod_raise(from, top);
        for level in (top - 8..=top).rev() {
            let mut acc = b.pmult(x, level);
            for r in 1..4 {
                let rot = b.hrot(x, r, level);
                acc = b.hadd(acc, rot, level);
            }
            x = b.hrescale_at(acc, level);
        }
        b.set_bootstrap_region(false);
        let range = start..b.len();
        for k in 0..copies {
            let y = b.hmult_at(x, keep, top - 10);
            let input = if k % 4 == 3 { keep } else { y };
            x = b.repeat(range.clone(), from, input);
        }
        b.build()
    }

    /// `trace` rebuilt from its ids: the same program, without copies.
    fn recorded(trace: &OpTrace) -> OpTrace {
        let inputs: Vec<(CtId, usize)> = trace.inputs().collect();
        let ids: Vec<Vec<CtId>> = trace
            .ops()
            .map(|op| op.operands.iter().map(|&s| trace.id_of(s)).collect())
            .collect();
        let ops = trace.ops().zip(&ids).map(|(op, inputs)| RawOp {
            op: op.op,
            level: op.level,
            inputs,
            output: op.output.map(|s| trace.id_of(s)),
            in_bootstrap: op.in_bootstrap,
        });
        OpTrace::from_ops(trace.instance(), &inputs, ops, trace.rotation_keys())
    }

    fn bits(timings: &[OpTiming]) -> Vec<[u64; 6]> {
        let row = |t: &OpTiming| {
            [
                t.ticks,
                t.hbm_ticks,
                t.miss_bytes,
                t.scratch_bytes,
                t.cache_hits as u64,
                t.cache_misses as u64,
            ]
        };
        timings.iter().map(row).collect()
    }

    #[test]
    fn copies_replay_the_full_sweep_bit_for_bit() {
        let ins = CkksInstance::ins1();
        let copied = refreshes(&ins, 24);
        let recorded = recorded(&copied);
        assert_eq!(copied, recorded);
        assert_eq!(
            (copied.copies().0.len(), recorded.copies().0.len()),
            (25, 0)
        );
        for mib in [190, 220, 300, 512] {
            let config = BtsConfig::bts_default().with_scratchpad_bytes(mib << 20);
            let sim = Simulator::new(config, ins.clone());
            let before = REPLAYED.with(Cell::get);
            let collected = |trace: &OpTrace| {
                let policy = sim.op_timings(trace).unwrap();
                let lru = sim.op_timings_lru(trace).unwrap();
                let mut probe = Vec::new();
                let mut each = |_: &TracedOp<'_>, t: &OpTiming| probe.push(*t);
                sim.sweep_under(trace, super::Replacement::ExactNextUse, &mut each);
                [bits(&policy), bits(&lru), bits(&probe)]
            };
            assert_eq!(collected(&copied), collected(&recorded), "{mib} MiB");
            // A sweep with telemetry on (`BTS_TELEMETRY=1`) replays nothing.
            let replayed = REPLAYED.with(Cell::get) - before;
            if !bts_telemetry::enabled() {
                assert!(replayed >= 3, "{mib} MiB: {replayed} copies replayed");
            }
        }
    }

    #[test]
    fn a_line_is_24_bytes() {
        // What `LINES` is documented in.
        assert_eq!(std::mem::size_of::<super::Line>(), 24);
    }

    #[test]
    fn telemetry_resolves_every_op() {
        // A replay emits nothing, so with a sink installed every op is
        // resolved and the stream is the recorded program's own.
        let ins = CkksInstance::ins1();
        let copied = refreshes(&ins, 8);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let events = |trace: &OpTrace| {
            let capture = bts_telemetry::capture();
            sim.try_run(trace).unwrap();
            capture.finish().events
        };
        let before = REPLAYED.with(Cell::get);
        let streamed = events(&copied);
        assert_eq!(REPLAYED.with(Cell::get), before);
        assert_eq!(streamed, events(&recorded(&copied)));
        assert_eq!(
            streamed.iter().filter(|e| e.track == "engine").count(),
            copied.len()
        );
    }
}
