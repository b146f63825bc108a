//! Dependency DAG of an op trace: producer → consumer edges through
//! ciphertext ids, plus bootstrap-region barriers.

use bts_sim::{OpTrace, TraceIndex};

/// The dependency structure of an [`OpTrace`]: for every op, the indices of
/// the earlier ops whose outputs it consumes, and the *barrier segment* it
/// belongs to. Segments are the maximal contiguous runs of ops with the same
/// `in_bootstrap` flag; entering or leaving a bootstrapping region is a full
/// barrier (no op of segment `s` may start before every op of segments
/// `< s` has finished), because the refresh pipeline re-bases the whole
/// ciphertext and the engine's bootstrap-time attribution assumes region
/// integrity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDag {
    /// Op `i`'s data edges are `edges[offsets[i]..offsets[i + 1]]` (CSR: one
    /// flat array for the whole trace instead of a vector per op).
    offsets: Vec<u32>,
    /// Indices of the producing ops of every op's ciphertext operands, per
    /// op sorted and deduplicated; trace inputs have no producer.
    edges: Vec<u32>,
    /// Barrier segment of every op; nondecreasing in program order.
    segment: Vec<u32>,
}

/// The longest dependency chain through a [`TraceDag`] under given per-op
/// durations: its total length and one witness path in program order.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Sum of the durations along the longest chain, in seconds.
    pub seconds: f64,
    /// Op indices of one longest chain, earliest first.
    pub ops: Vec<usize>,
}

impl TraceDag {
    /// Builds the DAG for a trace in one forward pass.
    pub fn from_trace(trace: &OpTrace) -> Self {
        Self::from_index(&TraceIndex::lenient(trace))
    }

    /// Builds the DAG of an already-indexed trace: every operand's producer
    /// comes straight from the index's per-slot table.
    pub(crate) fn from_index(index: &TraceIndex<'_>) -> Self {
        let trace = index.trace();
        let mut offsets = Vec::with_capacity(trace.ops.len() + 1);
        let mut edges: Vec<u32> = Vec::with_capacity(trace.ops.len());
        let mut segment = Vec::with_capacity(trace.ops.len());
        let mut current_segment = 0u32;
        let mut in_bootstrap = trace.ops.first().is_some_and(|op| op.in_bootstrap);
        offsets.push(0);
        for op in index.ops() {
            if op.traced.in_bootstrap != in_bootstrap {
                in_bootstrap = op.traced.in_bootstrap;
                current_segment += 1;
            }
            segment.push(current_segment);
            let first = edges.len();
            // A producer always precedes its consumer in a well-formed
            // trace; the check keeps the edges backward on any other.
            let producers = op.operands.iter().filter_map(|&slot| index.producer(slot));
            for p in producers.filter(|&p| p < op.index) {
                if !edges[first..].contains(&p) {
                    edges.push(p);
                }
            }
            edges[first..].sort_unstable();
            offsets.push(u32::try_from(edges.len()).expect("edge count fits u32"));
        }
        Self {
            offsets,
            edges,
            segment,
        }
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.segment.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.segment.is_empty()
    }

    /// Data dependencies (producing op indices) of op `i`.
    pub fn deps(&self, i: usize) -> &[u32] {
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Barrier segment of op `i`.
    pub fn segment(&self, i: usize) -> u32 {
        self.segment[i]
    }

    /// Number of barrier segments (0 for an empty trace).
    pub fn segment_count(&self) -> usize {
        self.segment.last().map_or(0, |&s| s as usize + 1)
    }

    /// Total number of data edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Longest chain through the DAG — data edges *and* barriers — when op
    /// `i` takes `durations[i]` seconds. This is the infinite-resource lower
    /// bound on any schedule's makespan.
    ///
    /// # Panics
    ///
    /// Panics if `durations.len()` differs from the number of ops.
    pub fn critical_path(&self, durations: &[f64]) -> CriticalPath {
        assert_eq!(durations.len(), self.len(), "one duration per op");
        self.critical_path_by(|i| durations[i])
    }

    /// [`TraceDag::critical_path`] with op `i` taking `duration(i)` seconds,
    /// for a caller whose durations sit inside larger per-op records.
    pub(crate) fn critical_path_by(&self, duration: impl Fn(usize) -> f64) -> CriticalPath {
        /// "No predecessor": the chain starts at this op.
        const NONE: u32 = u32::MAX;
        // earliest_finish[i] and the predecessor op realising it.
        let mut earliest_finish = vec![0.0f64; self.len()];
        let mut best_pred = vec![NONE; self.len()];
        // Barrier state: the max earliest-finish over all ops of earlier
        // segments, and the op achieving it. Segments are contiguous, so a
        // running max snapshotted at each boundary suffices.
        let mut barrier = (0.0f64, NONE);
        let mut running_max = (0.0f64, NONE);
        for i in 0..self.len() {
            if i > 0 && self.segment[i] != self.segment[i - 1] {
                barrier = running_max;
            }
            let (mut ready, mut pred) = barrier;
            for &d in self.deps(i) {
                let f = earliest_finish[d as usize];
                if f > ready {
                    ready = f;
                    pred = d;
                }
            }
            earliest_finish[i] = ready + duration(i);
            best_pred[i] = pred;
            if earliest_finish[i] > running_max.0 {
                // Lossless, and never the sentinel: `TraceIndex` refuses a
                // trace whose op indices do not fit below it.
                running_max = (earliest_finish[i], i as u32);
            }
        }
        let mut ops = Vec::new();
        let mut cursor = running_max.1;
        while cursor != NONE {
            ops.push(cursor as usize);
            cursor = best_pred[cursor as usize];
        }
        ops.reverse();
        CriticalPath {
            seconds: running_max.0,
            ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_params::CkksInstance;
    use bts_sim::TraceBuilder;

    fn diamond_trace() -> OpTrace {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let l = b.hrot(x, 1, 27); // op 0
        let r = b.hrot(x, 2, 27); // op 1 — independent of op 0
        let j = b.hadd(l, r, 27); // op 2 — joins both
        b.hrescale_at(j, 27); // op 3 — chain
        b.build()
    }

    #[test]
    fn producer_consumer_edges_are_found() {
        let dag = TraceDag::from_trace(&diamond_trace());
        assert_eq!(dag.len(), 4);
        assert!(dag.deps(0).is_empty(), "trace inputs have no producer");
        assert!(dag.deps(1).is_empty());
        assert_eq!(dag.deps(2), &[0, 1]);
        assert_eq!(dag.deps(3), &[2]);
        assert_eq!(dag.edge_count(), 3);
        assert_eq!(dag.segment_count(), 1);
    }

    #[test]
    fn an_operand_read_twice_is_one_edge() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let r = b.hrot(x, 1, 27); // op 0
        let s = b.hmult_at(r, r, 27); // op 1 — both operands from op 0
        b.hadd(s, r, 27); // op 2 — operands listed consumer-first
        let dag = TraceDag::from_trace(&b.build());
        assert_eq!(dag.deps(1), &[0]);
        assert_eq!(dag.deps(2), &[0, 1], "edges are sorted per op");
        assert_eq!(dag.edge_count(), 3);
    }

    #[test]
    fn critical_path_takes_the_longer_branch() {
        let dag = TraceDag::from_trace(&diamond_trace());
        let cp = dag.critical_path(&[1.0, 5.0, 2.0, 3.0]);
        assert!((cp.seconds - 10.0).abs() < 1e-12);
        assert_eq!(cp.ops, vec![1, 2, 3]);
    }

    #[test]
    fn bootstrap_transitions_are_barriers() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let y = b.fresh_ct(27);
        b.hmult_at(x, x, 27); // op 0, segment 0
        b.set_bootstrap_region(true);
        b.hrot(y, 1, 27); // op 1, segment 1 — data-independent of op 0
        b.set_bootstrap_region(false);
        b.hmult_at(y, y, 27); // op 2, segment 2
        let dag = TraceDag::from_trace(&b.build());
        assert_eq!(dag.segment_count(), 3);
        assert!(dag.deps(1).is_empty(), "no data edge across the barrier");
        // The barrier still serializes the chain: 1 + 1 + 1, not max-width 1.
        let cp = dag.critical_path(&[1.0, 1.0, 1.0]);
        assert!((cp.seconds - 3.0).abs() < 1e-12);
        assert_eq!(cp.ops, vec![0, 1, 2]);
    }

    #[test]
    fn empty_trace_has_empty_critical_path() {
        let ins = CkksInstance::ins1();
        let trace = TraceBuilder::new(&ins).build();
        let dag = TraceDag::from_trace(&trace);
        assert!(dag.is_empty());
        assert_eq!(dag.segment_count(), 0);
        let cp = dag.critical_path(&[]);
        assert_eq!(cp.seconds, 0.0);
        assert!(cp.ops.is_empty());
    }
}
