//! The exact offline optimum of the scratchpad's ciphertext cache: the least
//! ciphertext-miss bytes any replacement policy could move for a trace at a
//! simulator's cache capacity, charged per access the way the engine charges
//! them.
//!
//! The model. Between ops the cache holds a set of `(value, bytes)` pairs
//! whose bytes sum to at most [`Simulator::cache_capacity`]; it starts empty.
//! Op `i` at level `l` reads its operands: each distinct operand that is not
//! forwarded and not resident costs `ct_bytes(l)` once (a squared operand is
//! one access). After the op the cache may keep any subset of its residents,
//! the op's operands and its output that fits, provided every member is read
//! again later; a value that enters at op `i` holds `ct_bytes(l)`, and a
//! resident keeps the bytes it entered with. A value is forwarded, never an
//! access and never cached, when it is an op's output read once, by the very
//! next op — the engine's rule, re-derived here from the public tables.
//!
//! The search is a DP over resident sets, pruned by one dominance that keeps
//! it exact: set `A` is at least as good as set `B` (at no higher cost so
//! far) when every member of `B` is in `A` with no more bytes. `A` can follow
//! `B`'s best future op for op, holding its extra members only while they fit
//! and dropping one just before `B` would reload it smaller, so it never pays
//! more. In particular a transition that leaves room for another candidate is
//! never needed. Live values sit in at most [`MAX_LIVE`] registers, a state is
//! a fixed array, and the two state buffers are reused from op to op.

use bts::sim::{OpTrace, Simulator};

/// The largest set of simultaneously live values the oracle tracks.
pub const MAX_LIVE: usize = 12;

/// A trace whose live set outgrows [`MAX_LIVE`] at op `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyLive {
    pub op: u32,
}

/// One resident set and the least miss bytes of reaching it: bit `r` of
/// `present` marks register `r`'s value resident, in `bytes[r]` bytes.
#[derive(Debug, Clone, Copy)]
struct State {
    present: u16,
    bytes: [u64; MAX_LIVE],
    cost: u64,
}

impl State {
    /// Whether `self` is at least as good a future as `other`: every value
    /// `other` holds, `self` holds in no more bytes.
    fn dominates(&self, other: &State) -> bool {
        other.present & !self.present == 0
            && registers(other.present).all(|r| self.bytes[r] <= other.bytes[r])
    }
}

/// `register` of a slot that holds none.
const NO_REGISTER: u8 = u8::MAX;

/// Every register bit.
const ALL: u16 = (1 << MAX_LIVE) - 1;

/// The least ciphertext-miss bytes of `trace` on `sim`'s cache: what
/// [`Simulator::op_timings`] charges as `miss_bytes − cost.operand_bytes`,
/// minimised over every admissible sequence of resident sets.
///
/// # Errors
///
/// Refuses a trace that keeps more than [`MAX_LIVE`] values live at once.
pub fn least_miss_bytes(sim: &Simulator, trace: &OpTrace) -> Result<u64, TooManyLive> {
    let slots = trace.slot_count();
    let mut reads = vec![0u32; slots];
    let mut last_read = vec![None; slots];
    for op in trace.ops() {
        for &slot in op.operands {
            reads[slot as usize] += 1;
            last_read[slot as usize] = Some(op.index);
        }
    }
    let forwarded: Vec<bool> = (0..slots)
        .map(|s| {
            trace
                .producer(s as u32)
                .is_some_and(|producer| reads[s] == 1 && last_read[s] == Some(producer + 1))
        })
        .collect();
    let read_after = |slot: u32, op: u32| last_read[slot as usize].is_some_and(|last| last > op);
    let capacity = sim.cache_capacity();
    let mut register = vec![NO_REGISTER; slots];
    let mut free = ALL;
    let mut states = vec![State {
        present: 0,
        bytes: [0; MAX_LIVE],
        cost: 0,
    }];
    let mut next = Vec::new();
    for op in trace.ops() {
        let ct = sim.instance().ct_bytes(op.level);
        // Each distinct operand that is not forwarded is one access: a miss
        // where its register is absent, and always if it holds none.
        let (mut probed, mut missed) = (0u16, 0u64);
        for (k, &slot) in op.operands.iter().enumerate() {
            if forwarded[slot as usize] || op.operands[..k].contains(&slot) {
                continue;
            }
            match register[slot as usize] {
                NO_REGISTER => missed += ct,
                r => probed |= 1 << r,
            }
        }
        for state in &mut states {
            state.cost += missed + ct * u64::from((probed & !state.present).count_ones());
        }
        // Operands read for the last time give their registers back; what
        // is left assigned is what a state may carry over.
        for &slot in op.operands {
            let r = register[slot as usize];
            if r != NO_REGISTER && !read_after(slot, op.index) {
                register[slot as usize] = NO_REGISTER;
                free |= 1 << r;
            }
        }
        let kept = ALL & !free;
        // Values that may enter the cache at this op, at `ct` bytes each.
        let mut entering = 0u16;
        for slot in op.operands.iter().copied().chain(op.output) {
            if forwarded[slot as usize] || !read_after(slot, op.index) {
                continue;
            }
            if register[slot as usize] == NO_REGISTER {
                if free == 0 {
                    return Err(TooManyLive { op: op.index });
                }
                let r = free.trailing_zeros() as u8;
                free &= !(1 << r);
                register[slot as usize] = r;
            }
            entering |= 1 << register[slot as usize];
        }
        for state in &states {
            let carried = state.present & kept;
            let mut candidates = [(0usize, 0u64); MAX_LIVE];
            let mut count = 0;
            for r in registers(carried) {
                candidates[count] = (r, state.bytes[r]);
                count += 1;
            }
            for r in registers(entering & !carried) {
                candidates[count] = (r, ct);
                count += 1;
            }
            let candidates = &candidates[..count];
            // Only transitions that leave no room for a dropped candidate.
            let total: u64 = candidates.iter().map(|&(_, bytes)| bytes).sum();
            let first = if total <= capacity {
                (1 << count) - 1
            } else {
                0
            };
            for subset in first..1u32 << count {
                let (mut used, mut dropped) = (0, u64::MAX);
                for (j, &(_, bytes)) in candidates.iter().enumerate() {
                    if (subset >> j) & 1 == 1 {
                        used += bytes;
                    } else {
                        dropped = dropped.min(bytes);
                    }
                }
                if used > capacity || dropped <= capacity - used {
                    continue;
                }
                let mut chosen = State {
                    present: 0,
                    bytes: [0; MAX_LIVE],
                    cost: state.cost,
                };
                for (j, &(r, bytes)) in candidates.iter().enumerate() {
                    if (subset >> j) & 1 == 1 {
                        chosen.present |= 1 << r;
                        chosen.bytes[r] = bytes;
                    }
                }
                next.push(chosen);
            }
        }
        states.clear();
        next.sort_unstable_by_key(|s: &State| (s.cost, s.present, s.bytes));
        for state in &next {
            if !states.iter().any(|held| held.dominates(state)) {
                states.push(*state);
            }
        }
        next.clear();
    }
    Ok(states.iter().map(|s| s.cost).min().unwrap_or(0))
}

/// The registers whose bits `mask` sets, lowest first.
fn registers(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let r = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (r < 16).then_some(r)
    })
}
