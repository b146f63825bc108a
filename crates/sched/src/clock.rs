//! The one readiness rule. A trace is its own DAG: an op waits for the
//! producers of its operand slots and, because entering or leaving a
//! bootstrapping region is a full barrier, for every op before the last flip
//! of `in_bootstrap`. A [`Clock`] keeps one time per value *cell*
//! ([`bts_sim::OpTrace::cell`]), the finish of the op that wrote it, plus
//! that barrier; no edge list is built. Cells are a ring over the trace's
//! read window (every read of a value comes before its producer's cell is
//! written again) and one per trace input, which nothing writes, so it reads
//! the finish of no op: the clock is sized by the window, not the slot
//! count, and every read is one direct index. Its drivers differ only in
//! what a time is: a scheduled run's one job keeps its schedule and
//! critical-path finishes, the scheduler's cursor the schedule finish, and
//! the planner the critical-path finish with the op that reached it, the
//! link of the longest chain's witness. The first two map slots to cells as
//! the sweep hands them each op; the plan stores cells, so the cursor reads
//! them as they are. Every time is in ticks ([`bts_sim::ticks`]): integer
//! maxima and sums, so a run of ops entered and left at a barrier finishes
//! the same, shifted by whole ticks, wherever the barrier stands.

/// A time the rule takes maxima of: a finish, never below
/// `Self::default()`, which trace inputs read.
pub(crate) trait Finish: Copy + Default {
    /// The later of `self` and `other`: `self` on a tie.
    fn later(self, other: Self) -> Self;
}

/// A finish in ticks.
impl Finish for u64 {
    fn later(self, other: Self) -> Self {
        self.max(other)
    }
}

/// Two times, each with its own maximum.
impl Finish for [u64; 2] {
    fn later(self, other: Self) -> Self {
        [self[0].max(other[0]), self[1].max(other[1])]
    }
}

/// A finish in ticks and the op that reached it, as index + 1: 0 is no op.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Link {
    pub(crate) ticks: u64,
    pub(crate) op: u32,
}

impl Finish for Link {
    /// On a tie the earlier op wins. The barrier's op is the first to reach
    /// the max over earlier segments, so it precedes every op it ties with:
    /// the barrier wins a tie, then the earliest producer.
    fn later(self, other: Self) -> Self {
        let tie = other.ticks == self.ticks;
        if other.ticks > self.ticks || (tie && other.op < self.op) {
            other
        } else {
            self
        }
    }
}

/// The rule over one trace's cells, fed its ops in program order:
/// [`Clock::ready`] once per op, then [`Clock::finish`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Clock<T> {
    /// Per cell, the finish of the op that wrote it.
    cells: Vec<T>,
    /// The flag of the op given to [`Clock::ready`] last.
    in_bootstrap: bool,
    /// The latest finish before the last flip: segments are contiguous, so
    /// it is `latest` snapshotted at each flip.
    barrier: T,
    latest: T,
}

impl<T: Finish> Clock<T> {
    /// A clock over `cells` cells ([`bts_sim::OpTrace::cells`]).
    pub(crate) fn new(cells: usize) -> Self {
        let mut clock = Self::default();
        clock.reset(cells);
        clock
    }

    /// Makes this clock the one [`Clock::new`] builds over `cells` cells,
    /// keeping its table's allocation: a scheduler hands a finished job's
    /// clock to the next job it admits.
    pub(crate) fn reset(&mut self, cells: usize) {
        let mut table = std::mem::take(&mut self.cells);
        table.clear();
        table.resize(cells, T::default());
        *self = Self {
            cells: table,
            ..Self::default()
        };
    }

    /// When the next op may start as far as its trace allows: the latest of
    /// the barrier and its operands' cells.
    #[inline]
    pub(crate) fn ready(&mut self, in_bootstrap: bool, operands: impl Iterator<Item = u32>) -> T {
        if in_bootstrap != self.in_bootstrap {
            self.in_bootstrap = in_bootstrap;
            self.barrier = self.latest;
        }
        let finishes = operands.map(|cell| self.cells[cell as usize]);
        finishes.fold(self.barrier, T::later)
    }

    /// The op given to [`Clock::ready`] last finishes `at`, writing its
    /// output's cell, if it has an output.
    #[inline]
    pub(crate) fn finish(&mut self, output: Option<u32>, at: T) {
        if let Some(cell) = output {
            self.cells[cell as usize] = at;
        }
        self.latest = self.latest.later(at);
    }

    /// The latest finish so far.
    pub(crate) fn latest(&self) -> T {
        self.latest
    }

    /// Whether an op flagged `in_bootstrap` would flip the region: a full
    /// barrier at [`Clock::latest`].
    pub(crate) fn flips(&self, in_bootstrap: bool) -> bool {
        in_bootstrap != self.in_bootstrap
    }

    /// Stands the clock where a run of ops ends that was entered at a flip
    /// and is left at one (or ends the trace): the last of them flagged
    /// `in_bootstrap`, the latest finish `latest`. What the run wrote in its
    /// cells is not: every such finish is at most `latest`, which the next
    /// op's flip makes the barrier of everything after it.
    pub(crate) fn skip(&mut self, in_bootstrap: bool, latest: T) {
        self.in_bootstrap = in_bootstrap;
        self.latest = latest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_params::CkksInstance;
    use bts_sim::{OpTrace, TraceBuilder};

    /// Every op's ready time on `trace` when op `i` takes `durations[i]`.
    fn ready_times(trace: &OpTrace, durations: &[u64]) -> Vec<(u64, u32)> {
        let mut clock = Clock::<Link>::new(trace.cells());
        let ops = trace.ops().zip(durations);
        ops.map(|(op, duration)| {
            let cells = op.operands.iter().map(|&slot| trace.cell(slot));
            let ready = clock.ready(op.in_bootstrap, cells);
            let ticks = ready.ticks + duration;
            clock.finish(
                op.output.map(|slot| trace.cell(slot)),
                Link {
                    ticks,
                    op: op.index + 1,
                },
            );
            (ready.ticks, ready.op)
        })
        .collect()
    }

    #[test]
    fn producer_consumer_edges_are_found() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let l = b.hrot(x, 1, 27); // op 0
        let r = b.hrot(x, 2, 27); // op 1 — independent of op 0
        let j = b.hadd(l, r, 27); // op 2 — joins both
        b.hrescale_at(j, 27); // op 3 — chain
        let ready = ready_times(&b.build(), &[1, 5, 2, 3]);
        // Trace inputs have no producer; op 2 waits for the later of its
        // two, op 3 for op 2.
        assert_eq!(ready, [(0, 0), (0, 0), (5, 2), (7, 3)]);
    }

    #[test]
    fn a_reset_clock_is_a_new_clock() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.set_bootstrap_region(true);
        let r = b.hrot(x, 1, 27);
        b.hadd(r, x, 27);
        let trace = b.build();
        let mut clock = Clock::<Link>::new(trace.cells());
        for op in trace.ops() {
            let cells = op.operands.iter().map(|&slot| trace.cell(slot));
            let ready = clock.ready(op.in_bootstrap, cells);
            let at = Link {
                ticks: ready.ticks + 1,
                op: op.index + 1,
            };
            clock.finish(op.output.map(|slot| trace.cell(slot)), at);
        }
        // Fewer cells, then more, than it held.
        for cells in [1, 2 * trace.cells()] {
            clock.reset(cells);
            let fresh = Clock::<Link>::new(cells);
            assert_eq!(format!("{clock:?}"), format!("{fresh:?}"));
        }
    }

    #[test]
    fn an_operand_read_twice_is_one_edge() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let r = b.hrot(x, 1, 27); // op 0
        let s = b.hmult_at(r, r, 27); // op 1 — both operands from op 0
        b.hadd(s, r, 27); // op 2 — operands listed consumer-first
        let ready = ready_times(&b.build(), &[2, 0, 1]);
        // Ops 0 and 1 both finish at 2: the earlier producer wins the tie,
        // whatever the operand order.
        assert_eq!(ready, [(0, 0), (2, 1), (2, 1)]);
    }
}
