//! Dependency DAG of an op trace: producer → consumer edges through
//! ciphertext ids, plus bootstrap-region barriers.

use bts_sim::{OpTrace, TracedOp};

/// "No predecessor": a chain starts at this op.
const NONE: u32 = u32::MAX;

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
    /// Whether the last op added belongs to a bootstrapping region.
    in_bootstrap: bool,
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
    /// Builds the DAG of a trace in one forward pass: every operand's
    /// producer comes straight from the trace's per-slot table. Total on any
    /// trace: on one [`OpTrace::validate`] rejects, an undefined id has no
    /// producer and the first definition of a redefined id is its producer.
    pub fn from_trace(trace: &OpTrace) -> Self {
        let mut dag = Self::with_capacity(trace.len());
        for op in trace.ops() {
            dag.push(trace, &op);
        }
        dag
    }

    /// An empty DAG with room for `ops` ops.
    pub(crate) fn with_capacity(ops: usize) -> Self {
        let mut offsets = Vec::with_capacity(ops + 1);
        offsets.push(0);
        Self {
            offsets,
            // At most one edge per operand, most ops read one or two.
            edges: Vec::with_capacity(2 * ops),
            segment: Vec::with_capacity(ops),
            in_bootstrap: false,
        }
    }

    /// Adds `op`, the next op of `trace` in program order.
    pub(crate) fn push(&mut self, trace: &OpTrace, op: &TracedOp<'_>) {
        let segment = match self.segment.last() {
            Some(&s) => s + u32::from(op.in_bootstrap != self.in_bootstrap),
            None => 0,
        };
        self.segment.push(segment);
        self.in_bootstrap = op.in_bootstrap;
        let first = self.edges.len();
        // A producer always precedes its consumer in a well-formed trace;
        // the check keeps the edges backward on any other.
        let producers = op.operands.iter().filter_map(|&slot| trace.producer(slot));
        for p in producers.filter(|&p| p < op.index) {
            if !self.edges[first..].contains(&p) {
                self.edges.push(p);
            }
        }
        self.edges[first..].sort_unstable();
        let end = u32::try_from(self.edges.len()).expect("edge count fits u32");
        self.offsets.push(end);
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
        let mut chain = LongestChain::with_capacity(self.len());
        for &duration in durations {
            chain.push(self, duration);
        }
        chain.finish()
    }
}

/// The longest-chain recurrence behind [`TraceDag::critical_path`], one op
/// at a time in program order, so a planner can run it while it builds the
/// DAG.
#[derive(Debug)]
pub(crate) struct LongestChain {
    /// Per op: its earliest finish and the predecessor op realising it.
    earliest_finish: Vec<f64>,
    best_pred: Vec<u32>,
    /// The max earliest finish over all ops of earlier segments, and the op
    /// achieving it. Segments are contiguous, so a running max snapshotted
    /// at each boundary suffices.
    barrier: (f64, u32),
    running_max: (f64, u32),
}

impl LongestChain {
    pub(crate) fn with_capacity(ops: usize) -> Self {
        Self {
            earliest_finish: Vec::with_capacity(ops),
            best_pred: Vec::with_capacity(ops),
            barrier: (0.0, NONE),
            running_max: (0.0, NONE),
        }
    }

    /// Extends the recurrence by the next op, which `dag` already holds and
    /// which takes `duration` seconds.
    pub(crate) fn push(&mut self, dag: &TraceDag, duration: f64) {
        let i = self.earliest_finish.len();
        if i > 0 && dag.segment[i] != dag.segment[i - 1] {
            self.barrier = self.running_max;
        }
        let (mut ready, mut pred) = self.barrier;
        for &d in dag.deps(i) {
            let f = self.earliest_finish[d as usize];
            if f > ready {
                ready = f;
                pred = d;
            }
        }
        let finish = ready + duration;
        self.earliest_finish.push(finish);
        self.best_pred.push(pred);
        if finish > self.running_max.0 {
            // Lossless, and never the sentinel: an `OpTrace` refuses to hold
            // more ops than fit below it.
            self.running_max = (finish, i as u32);
        }
    }

    /// The longest chain through the ops pushed so far.
    pub(crate) fn finish(self) -> CriticalPath {
        let mut ops = Vec::new();
        let mut cursor = self.running_max.1;
        while cursor != NONE {
            ops.push(cursor as usize);
            cursor = self.best_pred[cursor as usize];
        }
        ops.reverse();
        CriticalPath {
            seconds: self.running_max.0,
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
