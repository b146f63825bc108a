//! The one side-table idiom of this crate: per-value facts in a `Vec` indexed
//! by [`ValueId`]. Builder- and pass-produced ids are compact (the builder
//! numbers values 0, 1, 2, …; passes only delete definitions or append fresh
//! ids past the maximum), so a dense vector replaces hashing on every walk
//! [`crate::PassPipeline::optimize`] makes over a circuit.
//!
//! [`HeCircuit`]'s fields are public, though, so a hand-built circuit may
//! number a value `u32::MAX`. The dense part is therefore capped at a small
//! multiple of the circuit's definition count; ids at or beyond the cap go to
//! an ordered spill map. Memory stays proportional to the number of
//! definitions whatever the ids are, and every lookup gives the same answer
//! a hash map would.
//!
//! Facts keyed by something other than one value (CSE's expressions,
//! `compile`'s constant bit patterns) go through a [`FixedMap`]: a `HashMap`
//! on a small multiplicative hasher with no per-process seed. Its users only
//! look keys up, never iterate, so their output cannot depend on the hasher.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::ir::{HeCircuit, ValueId};

/// A map from [`ValueId`] to `T`, dense for the compact ids circuits
/// normally carry.
#[derive(Debug, Clone)]
pub(crate) struct ValueTable<T> {
    dense: Vec<Option<T>>,
    /// Ids below this bound live in `dense`, the rest in `spill`.
    dense_limit: usize,
    spill: BTreeMap<ValueId, T>,
}

impl<T: Copy> ValueTable<T> {
    /// An empty table sized for the values `circuit` defines: its dense
    /// part never grows past the first allocation.
    pub(crate) fn for_circuit(circuit: &HeCircuit) -> Self {
        let defs = circuit.inputs.len() + circuit.nodes.len();
        // Deleting passes leave gaps; 4x covers a pipeline that keeps a
        // quarter of what the builder numbered.
        let dense_limit = 4 * defs + 64;
        let ids = circuit.inputs.iter().map(|input| input.id);
        let ids = ids.chain(circuit.nodes.iter().map(|node| node.result));
        let dense_len = ids
            .map(|v| v as usize + 1)
            .filter(|&len| len <= dense_limit)
            .max()
            .unwrap_or(0);
        Self {
            dense: Vec::with_capacity(dense_len),
            dense_limit,
            spill: BTreeMap::new(),
        }
    }

    /// The entry for `v`, if one was inserted.
    pub(crate) fn get(&self, v: ValueId) -> Option<T> {
        let i = v as usize;
        if i < self.dense_limit {
            self.dense.get(i).copied().flatten()
        } else {
            self.spill.get(&v).copied()
        }
    }

    /// Whether `v` has an entry.
    pub(crate) fn contains(&self, v: ValueId) -> bool {
        self.get(v).is_some()
    }

    /// Sets the entry for `v`, returning the one it replaces.
    pub(crate) fn insert(&mut self, v: ValueId, value: T) -> Option<T> {
        let i = v as usize;
        if i >= self.dense_limit {
            return self.spill.insert(v, value);
        }
        if i >= self.dense.len() {
            self.dense.resize(i + 1, None);
        }
        self.dense[i].replace(value)
    }
}

impl ValueTable<()> {
    /// The set of `circuit`'s outputs.
    pub(crate) fn outputs_of(circuit: &HeCircuit) -> Self {
        let mut outputs = Self::for_circuit(circuit);
        for &out in &circuit.outputs {
            outputs.insert(out, ());
        }
        outputs
    }
}

impl ValueTable<ValueId> {
    /// `v`'s representative, or `v` itself when it has none: the lookup
    /// every operand-rewriting pass does against its replacement table.
    pub(crate) fn resolve(&self, v: ValueId) -> ValueId {
        self.get(v).unwrap_or(v)
    }
}

/// A `HashMap` on [`FixedHasher`].
pub(crate) type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

/// Fx-style hashing: fold each word in with a rotate, xor and multiply by
/// an odd constant. The keys are a few machine words, so this costs a
/// multiply per word where SipHash costs rounds per byte. Unlike SipHash it
/// does not resist keys crafted to collide; a hand-built circuit crafted
/// that way costs its user time, never a different answer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FixedHasher(u64);

impl FixedHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The product's high bits are its best mixed; the table indexes by the
    /// low ones, so rotate them down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::CircuitInput;
    use bts_params::CkksInstance;

    #[test]
    fn huge_and_sparse_ids_spill_without_dense_growth() {
        let circuit = HeCircuit {
            instance: CkksInstance::toy(10, 4, 2),
            inputs: vec![CircuitInput { id: 0, level: 1 }],
            nodes: Vec::new(),
            outputs: vec![0],
        };
        let mut t: ValueTable<u32> = ValueTable::for_circuit(&circuit);
        assert_eq!(t.insert(3, 30), None);
        assert_eq!(t.insert(u32::MAX, 7), None);
        assert_eq!(t.insert(1_000_000, 8), None);
        assert_eq!(t.insert(3, 31), Some(30));
        assert_eq!(t.get(3), Some(31));
        assert_eq!(t.get(u32::MAX), Some(7));
        assert_eq!(t.get(1_000_000), Some(8));
        assert_eq!(t.get(2), None);
        assert!(!t.contains(999_999));
        assert_eq!(t.resolve(3), 31);
        assert_eq!(t.resolve(4), 4);
        assert!(t.dense.len() <= t.dense_limit);
    }
}
