//! The serial engine: per-op unit costs, the scratchpad's ciphertext cache
//! resolved in program order, and the fold into a [`SimReport`].
//!
//! **One sweep, many sinks.** [`Simulator::sweep_each`] is the one loop over
//! a trace: it resolves each op's [`OpTiming`], folds it into the report's
//! sums ([`Fold`]) and hands it to its caller's [`OpSink`]. `op_timings*`
//! collect the timings, `try_run*` keep only the fold, and
//! [`Simulator::run_sunk`] keeps the fold while its caller — the
//! scheduler's planner, or a one-job schedule placed as the sweep goes —
//! keeps of each timing only what it needs.
//!
//! **Time in ticks.** Every charge is whole ticks ([`crate::ticks`]): each
//! (op, level)'s [`OpCost`] rounded up once ([`OpCharge`]), HBM bytes
//! through one precomputed factor, and an op's latency their maximum. The
//! fold sums integers, so a repeated copy whose cache outcome is recorded
//! is added as its record's totals, and a report converts to seconds once,
//! at the end.
//!
//! **Scratchpad replacement.** BTS's scratchpad is software-managed (§5.3),
//! and an FHE trace is its own future, so the cache is not reactive: every
//! operand access and op output carries the compiler's 2-bit [`Reuse`] code
//! (`next` / `later` / `never`), stored with the forwarding bit in one byte
//! by the trace's construction scan — the sweep reads it once per access
//! and derives nothing ([`OpTrace::reuse`] reads the same byte) — and one
//! furthest-key cache ([`BeladyCache`]: furthest victims first,
//! all-or-nothing bypass, larger slot loses ties) runs on the key the code
//! stands for ([`reuse_key`]). On every registry workload it moves the
//! capacity-miss bytes of the exact offline optimum (`scratchpad_policy`
//! tests): live sets stay within three ciphertexts, so what a reactive cache
//! loses is dead values kept because they are recent plus thrash only bypass
//! stops. One bit is not enough: the dead bit alone loses hits on a pool of
//! eight live values (the `tests` module below), the one recorded gap.
//!
//! **State by the read window.** The cache keeps nothing per slot. A
//! resident that will be read again lives in its value's cell
//! ([`OpTrace::cell`]: a ring over the trace's read window, indexed by the
//! producing op, then one cell per trace input); one whose code says it is
//! read for the last time leaves its cell for a dead run, a `Vec` sorted by
//! `(key, slot)`, since its key can no longer change: an insert scans back
//! from the end, where a newly dead value nearly always lands, a victim
//! pops off the end, and a bypass pushes back what it took. The next victim
//! is the further of the run's last and the few live residents — the same
//! decisions, in the same order, as a furthest-key scan over every
//! resident — and the resident lists are sized once, for as many
//! ciphertexts as the cache can hold.
//!
//! LRU — the policy the paper publishes — is the same cache on a third key,
//! recency ([`recency_key`]: the older the access, the further the key, and
//! a newcomer is always the youngest, so it is never bypassed). It survives
//! as [`Simulator::try_run_lru`] / [`Simulator::op_timings_lru`], a baseline
//! for the figures and the tests: the ledger prints its numbers next to
//! ours, and nothing in `bts-sched`, `bts-serve` or `bts-cluster` reaches it.

use std::collections::BTreeMap;
use std::ops::Range;

use bts_params::{CkksInstance, KeySwitchGroup};

use crate::config::BtsConfig;
use crate::cost::AreaPowerModel;
use crate::ticks::{self, ByteTicks};
use crate::trace::{HeOp, TraceError};
use crate::trace_index::{OpTrace, Reuse, TracedOp, NEVER};

mod replay;

/// The most cache records one sweep keeps, and so the most distinct
/// `record`s an [`OpSink::copy`] call names.
pub const COPY_RECORDS: usize = replay::STATES;

/// Per-op-class statistics in a [`SimReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpClassStats {
    /// Number of ops of this class executed.
    pub count: usize,
    /// Total time spent in this class, in seconds.
    pub seconds: f64,
}

/// Result of simulating an HE-op trace on a BTS configuration.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// End-to-end execution time in seconds.
    pub total_seconds: f64,
    /// Time spent inside bootstrapping regions, in seconds.
    pub bootstrap_seconds: f64,
    /// Per-op-class breakdown.
    pub per_op: BTreeMap<HeOp, OpClassStats>,
    /// Total bytes streamed from HBM.
    pub hbm_bytes: u64,
    /// Bytes of evaluation keys streamed from HBM.
    pub evk_bytes: u64,
    /// Bytes of ciphertexts/plaintexts (re)loaded on software-cache misses.
    pub ct_miss_bytes: u64,
    /// Software-cache hits (ciphertext operand found in the scratchpad).
    pub cache_hits: usize,
    /// Software-cache misses.
    pub cache_misses: usize,
    /// Average NTTU utilization (busy fraction of the run).
    pub ntt_utilization: f64,
    /// Average BConvU (MMAU) utilization.
    pub bconv_utilization: f64,
    /// Average HBM-bandwidth utilization.
    pub hbm_utilization: f64,
    /// Average element-wise unit utilization.
    pub elementwise_utilization: f64,
    /// Peak scratchpad demand (temporary data + resident ciphertexts), bytes.
    pub scratchpad_peak_bytes: u64,
    /// Energy estimate in joules.
    pub energy_j: f64,
    /// Chip area in mm² for the simulated configuration.
    pub area_mm2: f64,
    /// Makespan of the dependency-aware schedule in seconds, when the trace
    /// was executed through `bts-sched`'s `run_scheduled` (None for a plain
    /// serial run). Always ≤ [`SimReport::total_seconds`].
    pub scheduled_seconds: Option<f64>,
    /// Length of the trace's critical path (longest dependency chain,
    /// including bootstrap-region barriers) in seconds, when scheduled.
    pub critical_path_seconds: Option<f64>,
}

impl SimReport {
    /// Energy–delay–area product in J·s·mm².
    pub fn edap(&self) -> f64 {
        self.energy_j * self.total_seconds * self.area_mm2
    }

    /// Fraction of the run spent bootstrapping (Fig. 7b).
    pub fn bootstrap_fraction(&self) -> f64 {
        if self.total_seconds == 0.0 {
            0.0
        } else {
            self.bootstrap_seconds / self.total_seconds
        }
    }

    /// Software-cache hit rate across all ciphertext operand accesses.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Speedup of the dependency-aware schedule over serial execution
    /// (`total_seconds / scheduled_seconds`), when the report came from a
    /// scheduled run. Serial time is an upper bound of the schedule by
    /// construction, and both are whole ticks converted once, so the value
    /// is ≥ 1.
    pub fn parallel_speedup(&self) -> Option<f64> {
        let scheduled = self.scheduled_seconds?;
        if scheduled <= 0.0 {
            return Some(1.0);
        }
        Some(self.total_seconds / scheduled)
    }

    /// Accumulates another report into this one — the aggregation hook a
    /// multi-job serving run uses to report combined resource usage across
    /// its per-job reports. Counters (time, bytes, hits, per-op stats,
    /// energy) sum; utilizations merge time-weighted; peak scratchpad demand
    /// takes the max; area stays per-chip (the jobs share one accelerator,
    /// asserted equal). Schedule-derived fields are cleared: a merged report
    /// describes serial work totals, and the co-scheduled makespan lives in
    /// the serving layer's own report.
    ///
    /// # Panics
    ///
    /// Panics if the two reports model different chips (different
    /// `area_mm2`), which would make the summed energy and EDAP meaningless.
    pub fn merge(&mut self, other: &SimReport) {
        assert!(
            (self.area_mm2 - other.area_mm2).abs() < 1e-9 * self.area_mm2.max(1.0),
            "merging reports from different chips ({} vs {} mm²)",
            self.area_mm2,
            other.area_mm2
        );
        let total = self.total_seconds + other.total_seconds;
        let weighted = |a: f64, b: f64| {
            if total > 0.0 {
                (a * self.total_seconds + b * other.total_seconds) / total
            } else {
                0.0
            }
        };
        self.ntt_utilization = weighted(self.ntt_utilization, other.ntt_utilization);
        self.bconv_utilization = weighted(self.bconv_utilization, other.bconv_utilization);
        self.hbm_utilization = weighted(self.hbm_utilization, other.hbm_utilization);
        self.elementwise_utilization =
            weighted(self.elementwise_utilization, other.elementwise_utilization);
        self.total_seconds = total;
        self.bootstrap_seconds += other.bootstrap_seconds;
        for (op, stats) in &other.per_op {
            let entry = self.per_op.entry(*op).or_default();
            entry.count += stats.count;
            entry.seconds += stats.seconds;
        }
        self.hbm_bytes += other.hbm_bytes;
        self.evk_bytes += other.evk_bytes;
        self.ct_miss_bytes += other.ct_miss_bytes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.scratchpad_peak_bytes = self.scratchpad_peak_bytes.max(other.scratchpad_peak_bytes);
        self.energy_j += other.energy_j;
        self.scheduled_seconds = None;
        self.critical_path_seconds = None;
    }
}

/// Detailed per-functional-unit cost of a single traced op, independent of
/// cache state. Consumed by `bts-sched`'s machine model, which turns the
/// per-unit busy times into resource reservations. (The Fig. 8 timeline is
/// the phase schedule, [`crate::KeySwitchSchedule`], not this sum.)
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCost {
    /// NTTU busy time (butterflies / chip butterfly rate), seconds.
    pub ntt_seconds: f64,
    /// BConvU (MMAU) busy time, seconds.
    pub bconv_seconds: f64,
    /// Raw element-wise (ModMult/ModAdd) busy time, seconds.
    pub elementwise_seconds: f64,
    /// Element-wise time the serial cost model actually charges: the engine
    /// assumes most element-wise work pipelines under the NTT/BConv phases
    /// and scratchpad streaming, so only a fraction of
    /// [`OpCost::elementwise_seconds`] contributes to the op latency. The
    /// scheduler reserves the element-wise unit for this charged time so
    /// scheduled and serial runs agree on what one op costs.
    pub elementwise_charged_seconds: f64,
    /// Serial compute latency of the op (the pipeline-overlap combination of
    /// the three unit times), seconds.
    pub compute_seconds: f64,
    /// Evaluation-key bytes streamed from HBM (key-switching ops only).
    pub evk_bytes: u64,
    /// Plaintext operand bytes streamed from HBM (PMult/PAdd).
    pub operand_bytes: u64,
    /// Peak temporary scratchpad footprint of the op, bytes.
    pub temp_bytes: u64,
}

/// An [`OpCost`] as the engine and the scheduler charge it: its unit times
/// as whole ticks ([`crate::ticks`]), each rounded up, and its bytes.
/// Computed once per (op, level) in a sweep ([`OpCharge::of`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCharge {
    /// NTTU busy ticks.
    pub ntt_ticks: u64,
    /// BConvU (MMAU) busy ticks.
    pub bconv_ticks: u64,
    /// Raw element-wise busy ticks.
    pub elementwise_ticks: u64,
    /// Element-wise ticks the serial cost model charges
    /// ([`OpCost::elementwise_charged_seconds`]).
    pub elementwise_charged_ticks: u64,
    /// Serial compute latency, ticks.
    pub compute_ticks: u64,
    /// Evaluation-key bytes streamed from HBM.
    pub evk_bytes: u64,
    /// Plaintext operand bytes streamed from HBM.
    pub operand_bytes: u64,
    /// Peak temporary scratchpad footprint, bytes.
    pub temp_bytes: u64,
}

impl OpCharge {
    /// `cost`'s times rounded up to whole ticks ([`crate::ticks::charge`]):
    /// the one conversion of a cost into a charge.
    pub fn of(cost: &OpCost) -> Self {
        Self {
            ntt_ticks: ticks::charge(cost.ntt_seconds),
            bconv_ticks: ticks::charge(cost.bconv_seconds),
            elementwise_ticks: ticks::charge(cost.elementwise_seconds),
            elementwise_charged_ticks: ticks::charge(cost.elementwise_charged_seconds),
            compute_ticks: ticks::charge(cost.compute_seconds),
            evk_bytes: cost.evk_bytes,
            operand_bytes: cost.operand_bytes,
            temp_bytes: cost.temp_bytes,
        }
    }
}

/// One op's execution charge after resolving ciphertext operands against the
/// scratchpad cache in program order: the raw unit costs plus the HBM traffic
/// and the serial latency the engine bills for the op. Produced by the one
/// cache sweep, op after op ([`Simulator::op_timings`] collects them); the
/// serial accounting and `bts-sched`'s planner both consume that one stream,
/// so the two execution modes can never disagree on per-op costs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTiming {
    /// Cache-independent unit costs, as charged.
    pub cost: OpCharge,
    /// Ciphertext/plaintext bytes (re)loaded because of cache misses.
    pub miss_bytes: u64,
    /// Total HBM bytes for this op (`evk_bytes + miss_bytes`).
    pub hbm_bytes: u64,
    /// Ticks the op occupies the HBM channel: `hbm_bytes` at the
    /// configured bandwidth ([`crate::ticks::ByteTicks`]), rounded up.
    pub hbm_ticks: u64,
    /// Serial latency charged for the op, in ticks:
    /// `max(compute, hbm)`.
    pub ticks: u64,
    /// Ciphertext operand hits in the software cache.
    pub cache_hits: usize,
    /// Ciphertext operand misses.
    pub cache_misses: usize,
    /// Scratchpad demand while the op runs (temporaries + resident cts).
    pub scratch_bytes: u64,
}

impl OpTiming {
    /// The serial latency charged for the op, in seconds.
    pub fn seconds(&self) -> f64 {
        ticks::seconds(self.ticks)
    }
}

/// Where a sweep hands what it charges: each op with its timing, in program
/// order, and — before a copy of the trace's repeated ops (a bootstrap
/// expansion after the first, repeated by `TraceBuilder::repeat`) that the
/// sweep's cache memo keeps a record for — the copy as a whole.
pub trait OpSink {
    /// `op`, charged `timing`.
    fn op(&mut self, op: &TracedOp<'_>, timing: &OpTiming);

    /// The copy of ops `ops` is swept under the sweep's cache record
    /// `record` (below [`COPY_RECORDS`]): every copy of one record is
    /// charged the same timings, op for op. Returns whether the sink takes
    /// the copy whole, so that its ops are not handed over. A sink can only
    /// take a record it has seen swept: the copy that makes a record hands
    /// over its ops whatever the answer. By default nothing is taken.
    fn copy(&mut self, ops: Range<usize>, record: usize) -> bool {
        let _ = (ops, record);
        false
    }
}

/// A closure reads every op.
impl<F: FnMut(&TracedOp<'_>, &OpTiming)> OpSink for F {
    fn op(&mut self, op: &TracedOp<'_>, timing: &OpTiming) {
        self(op, timing);
    }
}

/// The sink of a sweep that only folds: it takes every copy whole, so a
/// replayed copy is added as its record's totals.
struct Totals;

impl OpSink for Totals {
    fn op(&mut self, _: &TracedOp<'_>, _: &OpTiming) {}

    fn copy(&mut self, _: Range<usize>, _: usize) -> bool {
        true
    }
}

/// The BTS accelerator simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: BtsConfig,
    instance: CkksInstance,
    cost_model: AreaPowerModel,
}

impl Simulator {
    /// Creates a simulator for a hardware configuration and CKKS instance.
    pub fn new(config: BtsConfig, instance: CkksInstance) -> Self {
        let cost_model =
            AreaPowerModel::bts_default().with_scratchpad_bytes(config.scratchpad_bytes);
        Self {
            config,
            instance,
            cost_model,
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &BtsConfig {
        &self.config
    }

    /// The CKKS instance.
    pub fn instance(&self) -> &CkksInstance {
        &self.instance
    }

    /// Compute/traffic cost of one op, independent of cache state.
    pub fn op_cost(&self, op: HeOp, level: usize) -> OpCost {
        let ins = &self.instance;
        let n = ins.n() as f64;
        let log_n = ins.log_n() as f64;
        let l1 = (level + 1) as f64;
        let limb_butterflies = n / 2.0 * log_n;
        let butterfly_rate = self.config.butterfly_rate();
        let mmau_rate = self.config.mmau_rate();
        let ew_rate = self.config.elementwise_rate();
        let limb_bytes = ins.limb_bytes() as f64;

        let mut cost = OpCost::default();
        match op {
            HeOp::HMult | HeOp::HRot | HeOp::Conjugate => {
                // One key-switch (ModUp of every live slice, evk inner
                // products, ModDown of both polynomials, SSA), counted as the
                // functional library executes it. Every count is an integer
                // below 2^53, so the f64 products below are exact.
                let decomposition = ins.decomposition();
                let group = KeySwitchGroup::new(ins.n(), level, decomposition, 1);
                let ntt_limbs = (group.calls.ntt + group.calls.intt) as f64;
                // Element-wise work beyond the key-switch: the tensor product
                // (HMult) or the automorphism permutation (HRot/Conj).
                let mut ew = group.other_mults as f64;
                if op == HeOp::HMult {
                    ew += 4.0 * l1 * n;
                } else {
                    ew += 2.0 * l1 * n; // permutation traffic handled per-residue
                }
                cost.ntt_seconds = ntt_limbs * limb_butterflies / butterfly_rate;
                cost.bconv_seconds = group.bconv_mults as f64 / mmau_rate;
                cost.elementwise_seconds = ew / ew_rate;
                cost.evk_bytes = ins.evk_bytes_at_level(level);
                cost.operand_bytes = 0;
                let slices = decomposition.slices_at_level(level) as f64;
                let k = decomposition.special_primes() as f64;
                cost.temp_bytes = ((slices + 2.0) * (k + l1) * limb_bytes) as u64;
            }
            HeOp::PMult | HeOp::CMult => {
                cost.elementwise_seconds = 2.0 * l1 * n / ew_rate;
                cost.operand_bytes = if op == HeOp::PMult {
                    ins.pt_bytes(level)
                } else {
                    0
                };
                cost.temp_bytes = (2.0 * l1 * limb_bytes) as u64;
            }
            HeOp::PAdd | HeOp::HAdd | HeOp::CAdd => {
                cost.elementwise_seconds = 2.0 * l1 * n / ew_rate;
                cost.operand_bytes = if op == HeOp::PAdd {
                    ins.pt_bytes(level)
                } else {
                    0
                };
                cost.temp_bytes = (2.0 * l1 * limb_bytes) as u64;
            }
            HeOp::HRescale => {
                // iNTT of the dropped limb, NTT-domain correction of the rest.
                cost.ntt_seconds = 2.0 * l1 * limb_butterflies / butterfly_rate;
                cost.elementwise_seconds = 2.0 * l1 * n / ew_rate;
                cost.temp_bytes = (2.0 * l1 * limb_bytes) as u64;
            }
            HeOp::ModRaise => {
                let max_l1 = (ins.max_level() + 1) as f64;
                cost.bconv_seconds = 2.0 * (n + max_l1 * n) / mmau_rate;
                cost.ntt_seconds = 2.0 * max_l1 * limb_butterflies / butterfly_rate;
                cost.temp_bytes = (2.0 * max_l1 * limb_bytes) as u64;
            }
        }
        cost.elementwise_charged_seconds = if self.config.overlap_bconv_intt {
            cost.elementwise_seconds * 0.1
        } else {
            cost.elementwise_seconds * 0.5
        };
        cost.compute_seconds = if self.config.overlap_bconv_intt {
            cost.ntt_seconds.max(cost.bconv_seconds) + cost.elementwise_charged_seconds
        } else {
            cost.ntt_seconds + cost.bconv_seconds + cost.elementwise_charged_seconds
        };
        cost
    }

    /// Runs a trace and reports performance, traffic, utilization and energy.
    ///
    /// # Panics
    ///
    /// Panics where [`Simulator::try_run`] returns an error (an invalid
    /// configuration, dangling ids or out-of-budget levels, another
    /// instance's trace); use it to handle the error instead.
    pub fn run(&self, trace: &OpTrace) -> SimReport {
        match self.try_run(trace) {
            Ok(report) => report,
            Err(e) => panic!("invalid op trace: {e}"),
        }
    }

    /// Checks a trace ([`OpTrace::validate`]) and runs it under the
    /// scratchpad's replacement policy (the compiler's reuse code — see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] of the configuration and the trace.
    pub fn try_run(&self, trace: &OpTrace) -> Result<SimReport, TraceError> {
        self.report(trace, Replacement::ReuseCode)
    }

    /// [`Simulator::try_run`] that also hands every op, with its timing, to
    /// `sink` in program order while the same sweep folds the report —
    /// `bts-sched` plans a job in this one pass over the trace, or schedules
    /// it outright, its dependencies read off the same op, and keeps of each
    /// timing only what it schedules on. A closure over
    /// `(&TracedOp, &OpTiming)` is a sink; a sink may also take a replayed
    /// copy whole ([`OpSink::copy`]): `bts-sched`'s scheduled run translates
    /// the placement it recorded for the copy's cache record.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] of the configuration and the trace.
    pub fn run_sunk(
        &self,
        trace: &OpTrace,
        sink: &mut impl OpSink,
    ) -> Result<SimReport, TraceError> {
        self.check(trace)?;
        Ok(self
            .sweep_under(trace, Replacement::ReuseCode, sink)
            .finish(self))
    }

    /// Per-op execution charges with the scratchpad cache resolved in program
    /// order. This is the single source of per-op truth: [`Simulator::try_run`]
    /// folds the same charges, one op at a time, into a [`SimReport`], and
    /// `bts-sched` schedules them onto bounded functional units, so the two
    /// modes can never diverge on what one op costs.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] of the configuration and the trace.
    pub fn op_timings(&self, trace: &OpTrace) -> Result<Vec<OpTiming>, TraceError> {
        self.timings(trace, Replacement::ReuseCode)
    }

    /// [`Simulator::try_run`] keyed on the exact op index of every next use
    /// instead of its 2-bit code. It serves only the benchmark harness's
    /// furthest-next-use probes and goes with them: the policy is held to
    /// the exact optimum instead (`tests/scratchpad_policy.rs`).
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] of the configuration and the trace.
    pub fn try_run_belady(&self, trace: &OpTrace) -> Result<SimReport, TraceError> {
        self.report(trace, Replacement::ExactNextUse)
    }

    /// [`Simulator::op_timings`] with the scratchpad run as the reactive LRU
    /// cache of §5.3 — the policy the paper publishes. A reporting baseline
    /// only: the figures print it beside the policy, and nothing that
    /// schedules or serves a job reaches it.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] of the configuration and the trace.
    pub fn op_timings_lru(&self, trace: &OpTrace) -> Result<Vec<OpTiming>, TraceError> {
        self.timings(trace, Replacement::Lru)
    }

    /// Runs a trace under LRU replacement — see [`Simulator::op_timings_lru`].
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] of the configuration and the trace.
    pub fn try_run_lru(&self, trace: &OpTrace) -> Result<SimReport, TraceError> {
        self.report(trace, Replacement::Lru)
    }

    /// Every `op_timings*` entry point: the sweep's timings, collected.
    fn timings(
        &self,
        trace: &OpTrace,
        replacement: Replacement,
    ) -> Result<Vec<OpTiming>, TraceError> {
        self.check(trace)?;
        let mut timings = Vec::with_capacity(trace.len());
        let mut collect = |_: &TracedOp<'_>, timing: &OpTiming| timings.push(*timing);
        self.sweep_under(trace, replacement, &mut collect);
        Ok(timings)
    }

    /// Every `try_run*` entry point: the trace checked, swept and folded,
    /// each replayed copy added as its record's totals.
    fn report(&self, trace: &OpTrace, replacement: Replacement) -> Result<SimReport, TraceError> {
        self.check(trace)?;
        Ok(self
            .sweep_under(trace, replacement, &mut Totals)
            .finish(self))
    }

    /// What every entry point checks before it sweeps: the configuration
    /// ([`BtsConfig::validate`]: a zero clock charges infinite seconds), the
    /// trace's first defect ([`OpTrace::validate`]), then that the trace's
    /// instance is this simulator's, which charges the ops.
    fn check(&self, trace: &OpTrace) -> Result<(), TraceError> {
        self.config.validate().map_err(TraceError::InvalidConfig)?;
        trace.validate()?;
        if *trace.instance() != self.instance {
            return Err(TraceError::InstanceMismatch {
                trace: trace.instance().name().to_string(),
                simulator: self.instance.name().to_string(),
            });
        }
        Ok(())
    }

    /// [`Simulator::sweep_each`] on the key function of one replacement
    /// policy.
    fn sweep_under(
        &self,
        trace: &OpTrace,
        replacement: Replacement,
        sink: &mut impl OpSink,
    ) -> Fold {
        match replacement {
            Replacement::ReuseCode => self.sweep_each(
                trace,
                replacement,
                |op, _, reuse| reuse_key(reuse, op.index),
                None,
                sink,
            ),
            Replacement::ExactNextUse => {
                let (next_reads, first_reads) = trace.next_uses();
                self.sweep_each(
                    trace,
                    replacement,
                    |op, k, _| {
                        if k < op.operands.len() {
                            next_reads[op.first_access + k]
                        } else {
                            op.output.map_or(NEVER, |out| first_reads[out as usize])
                        }
                    },
                    Some((&next_reads, &first_reads)),
                    sink,
                )
            }
            Replacement::Lru => self.sweep_each(
                trace,
                replacement,
                |op, k, _| recency_key(op, k),
                None,
                sink,
            ),
        }
    }

    /// The cache-resolution sweep behind every entry point, over the slots
    /// of a validated [`OpTrace`]: resolves each op's charge in program
    /// order on one [`BeladyCache`], folds it and hands it to `sink`, which
    /// is all that tells collecting ([`Simulator::op_timings`]) from
    /// folding ([`Simulator::try_run`]) from planning
    /// ([`Simulator::run_sunk`]). Returns the fold.
    /// Every access reads its stored code once: a forwarded value skips the
    /// cache, a `Never` one is read for the last time, and `key` ranks the
    /// rest — the op's `k`-th access (operand `k`, or the output for
    /// `k == operands.len()`) with its [`Reuse`] code; the furthest key
    /// loses. The rank is all that tells policy, exact next use and LRU
    /// baseline apart, and `replacement` only names the reason of each
    /// eviction. `next_uses` are the tables `key` reads where it does not
    /// follow from the code alone — the exact probe's ([`OpTrace::next_uses`])
    /// — and `None` where it does.
    ///
    /// A copy of the trace's repeated ops ([`OpTrace::copies`]) goes to the
    /// sweep's [`replay::Memo`], which resolves it op by op only the first
    /// time the cache enters it in a state — and replays the recorded
    /// outcome after that: the record's totals added in one step, and its
    /// ops handed to `sink` only if the sink does not take the copy whole.
    /// With telemetry on, every op is resolved, so the stream holds each
    /// op's own events.
    fn sweep_each(
        &self,
        trace: &OpTrace,
        replacement: Replacement,
        key: impl Fn(&TracedOp<'_>, usize, Reuse) -> u32,
        next_uses: Option<NextUses<'_>>,
        sink: &mut impl OpSink,
    ) -> Fold {
        let capacity = self.cache_capacity();
        // No more values than this are ever resident at once: the cache's
        // lists are sized for it once and never grow.
        let smallest = self.instance.ct_bytes(0).max(1);
        let values = (trace.len() + trace.inputs().len()) as u64;
        let most = (capacity / smallest).min(values) as usize;
        let telemetry_on = bts_telemetry::enabled();
        let mut sweep = Sweep {
            trace,
            replacement,
            next_uses,
            cache: BeladyCache::new(capacity, trace.cells(), most),
            costs: CostTable::new(self, trace.instance().max_level(), telemetry_on),
            hbm: ByteTicks::new(self.config.hbm.bytes_per_sec())
                .expect("a validated configuration has a tick factor"),
            telemetry_on,
            fold: Fold::default(),
        };
        let (mut copies, width) = trace.copies();
        if telemetry_on {
            copies = &[];
        }
        let mut memo = None;
        let mut next = 0;
        for start in copies.iter().map(|&start| start as usize) {
            for op in trace.ops_in(next..start) {
                sweep.each(&op, &key, sink);
            }
            let memo = memo.get_or_insert_with(|| replay::Memo::new(trace, start, width, most));
            memo.sweep_copy(&mut sweep, start, &key, sink);
            next = start + width;
        }
        for op in trace.ops_in(next..trace.len()) {
            sweep.each(&op, &key, sink);
        }
        sweep.fold
    }

    /// Peak temporary-data footprint of one key-switching op at the maximum
    /// level: Table 4's "Temp data" where the paper reports it, else
    /// [`CkksInstance::modelled_temp_bytes`].
    pub fn temp_data_bytes(&self) -> u64 {
        let ins = &self.instance;
        ins.reported_temp_bytes()
            .unwrap_or_else(|| ins.modelled_temp_bytes())
    }

    /// Scratchpad capacity left for the software-managed ciphertext cache
    /// after reserving room for the key-switching temporaries
    /// ([`Simulator::temp_data_bytes`]; §5.3, §6.2 allocation priority). No
    /// separate evaluation-key streaming buffer is reserved.
    pub fn cache_capacity(&self) -> u64 {
        self.config
            .scratchpad_bytes
            .saturating_sub(self.temp_data_bytes())
    }
}

/// Which replacement key a sweep runs the cache on.
#[derive(Debug, Clone, Copy)]
enum Replacement {
    /// The 2-bit reuse code: the policy.
    ReuseCode,
    /// Exact next-use positions: the benchmark's furthest-next-use probe.
    ExactNextUse,
    /// Recency: §5.3's reactive LRU cache, the paper's baseline.
    Lru,
}

impl Replacement {
    /// Why the cache chose a victim that held `key`: it was the oldest
    /// (`lru`), it was dead (`never`), or it was needed later than the
    /// newcomer (`later`).
    fn eviction_reason(self, key: u32) -> &'static str {
        match self {
            Replacement::Lru => "lru",
            _ if key == NEVER => "never",
            _ => "later",
        }
    }
}

/// A [`SimReport`] in the making: the running sums of a sweep, in ticks
/// and bytes. Integer sums are the same in any order, so a copy's recorded
/// totals are added in one step ([`Fold::merge`]) and a report has the same
/// bits however its ops were folded.
#[derive(Debug, Clone, Copy, Default)]
struct Fold {
    total: u64,
    bootstrap: u64,
    /// Per class, indexed by [`HeOp::index`]: ops and ticks.
    classes: [(usize, u64); HeOp::ALL.len()],
    evk_bytes: u64,
    ct_miss_bytes: u64,
    hits: usize,
    misses: usize,
    /// Busy ticks of the NTTU, the BConvU and the element-wise units (raw).
    busy: [u64; 3],
    peak_scratch: u64,
}

impl Fold {
    fn add(&mut self, op: &TracedOp<'_>, timing: &OpTiming) {
        self.total += timing.ticks;
        if op.in_bootstrap {
            self.bootstrap += timing.ticks;
        }
        let class = &mut self.classes[op.op.index()];
        class.0 += 1;
        class.1 += timing.ticks;
        self.evk_bytes += timing.cost.evk_bytes;
        self.ct_miss_bytes += timing.miss_bytes;
        self.hits += timing.cache_hits;
        self.misses += timing.cache_misses;
        let cost = &timing.cost;
        self.busy[0] += cost.ntt_ticks;
        self.busy[1] += cost.bconv_ticks;
        self.busy[2] += cost.elementwise_ticks;
        self.peak_scratch = self.peak_scratch.max(timing.scratch_bytes);
    }

    /// Adds the ops `other` folded.
    fn merge(&mut self, other: &Fold) {
        self.total += other.total;
        self.bootstrap += other.bootstrap;
        for (class, more) in self.classes.iter_mut().zip(&other.classes) {
            class.0 += more.0;
            class.1 += more.1;
        }
        self.evk_bytes += other.evk_bytes;
        self.ct_miss_bytes += other.ct_miss_bytes;
        self.hits += other.hits;
        self.misses += other.misses;
        for (busy, more) in self.busy.iter_mut().zip(other.busy) {
            *busy += more;
        }
        self.peak_scratch = self.peak_scratch.max(other.peak_scratch);
    }

    /// The report of the ops added so far, on `sim`'s chip.
    fn finish(self, sim: &Simulator) -> SimReport {
        let total = ticks::seconds(self.total);
        let per_op: BTreeMap<HeOp, OpClassStats> = HeOp::ALL
            .into_iter()
            .zip(self.classes)
            .filter(|(_, (count, _))| *count > 0)
            .map(|(op, (count, class))| {
                let seconds = ticks::seconds(class);
                (op, OpClassStats { count, seconds })
            })
            .collect();

        let hbm_bytes = self.evk_bytes + self.ct_miss_bytes;
        let share = |busy: f64| if total > 0.0 { busy / total } else { 0.0 };
        let hbm_util = share(hbm_bytes as f64 / sim.config.hbm.bytes_per_sec());
        let [ntt_util, bconv_util, ew_util] = self.busy.map(|busy| share(ticks::seconds(busy)));
        let energy = sim
            .cost_model
            .energy_joules(total, ntt_util, bconv_util, hbm_util, ew_util);

        SimReport {
            total_seconds: total,
            bootstrap_seconds: ticks::seconds(self.bootstrap),
            per_op,
            hbm_bytes,
            evk_bytes: self.evk_bytes,
            ct_miss_bytes: self.ct_miss_bytes,
            cache_hits: self.hits,
            cache_misses: self.misses,
            ntt_utilization: ntt_util.min(1.0),
            bconv_utilization: bconv_util.min(1.0),
            hbm_utilization: hbm_util.min(1.0),
            elementwise_utilization: ew_util.min(1.0),
            scratchpad_peak_bytes: self.peak_scratch,
            energy_j: energy,
            area_mm2: sim.cost_model.total_area_mm2(),
            scheduled_seconds: None,
            critical_path_seconds: None,
        }
    }
}

/// The exact probe's key tables ([`OpTrace::next_uses`]): per operand
/// access its next read, per slot its first read.
type NextUses<'a> = (&'a [u32], &'a [u32]);

/// One sweep's state: the cache, the cost table, and the fold so far.
struct Sweep<'s, 't> {
    trace: &'t OpTrace,
    replacement: Replacement,
    /// The tables the sweep's keys read beyond the stored codes, if any.
    next_uses: Option<NextUses<'t>>,
    cache: BeladyCache,
    costs: CostTable<'s>,
    hbm: ByteTicks,
    telemetry_on: bool,
    /// The ops charged so far. The engine charges ops back to back, so its
    /// total places each op's interval on the telemetry track.
    fold: Fold,
}

impl Sweep<'_, '_> {
    /// Resolves, charges and folds `op`, and hands it to `sink`.
    #[inline]
    fn each(
        &mut self,
        op: &TracedOp<'_>,
        key: &impl Fn(&TracedOp<'_>, usize, Reuse) -> u32,
        sink: &mut impl OpSink,
    ) {
        let timing = self.step(op, key);
        self.fold.add(op, &timing);
        sink.op(op, &timing);
    }

    /// Resolves `op`'s accesses on the cache and charges it; with telemetry
    /// on, emits its `engine` event and its `scratchpad` instants.
    fn step(
        &mut self,
        op: &TracedOp<'_>,
        key: &impl Fn(&TracedOp<'_>, usize, Reuse) -> u32,
    ) -> OpTiming {
        let trace = self.trace;
        let ct_bytes = self.costs.entry(op.op, op.level).ct_bytes;
        // Ciphertext operand residency.
        let mut hits = 0usize;
        let mut misses = 0usize;
        let start = ticks::seconds(self.fold.total);
        let mut pressure = Pressure {
            explain: self
                .telemetry_on
                .then_some((trace, self.replacement, op.index, start)),
            ..Pressure::default()
        };
        let cache = &mut self.cache;
        for (k, &input) in op.operands.iter().enumerate() {
            let code = op.codes[k];
            if code.is_forwarded() {
                continue; // producer → consumer forwarding, not a cache access
            }
            let value = Value {
                slot: input,
                cell: trace.cell(input),
            };
            let reuse = code.reuse();
            let (next_use, dead) = (key(op, k, reuse), reuse == Reuse::Never);
            if cache.touch(value, next_use, dead) {
                hits += 1;
            } else {
                misses += 1;
                pressure.insert(cache, value, ct_bytes, (next_use, dead));
            }
        }
        let k = op.operands.len();
        let code = op.codes[k];
        if let Some(out) = op.output.filter(|_| !code.is_forwarded()) {
            let value = Value {
                slot: out,
                cell: trace.cell(out),
            };
            let reuse = code.reuse();
            let ranked = (key(op, k, reuse), reuse == Reuse::Never);
            pressure.insert(cache, value, ct_bytes, ranked);
        }
        let timing = self.charge(op, hits, misses, self.cache.used);
        if self.telemetry_on {
            use bts_telemetry::ArgValue;
            bts_telemetry::emit_complete(
                "engine",
                &self.costs.entry(op.op, op.level).name,
                start,
                timing.seconds(),
                &[
                    ("index", ArgValue::U64(u64::from(op.index))),
                    ("hbm_bytes", ArgValue::U64(timing.hbm_bytes)),
                    ("miss_bytes", ArgValue::U64(timing.miss_bytes)),
                    ("evk_bytes", ArgValue::U64(timing.cost.evk_bytes)),
                    ("cache_hits", ArgValue::U64(hits as u64)),
                    ("cache_misses", ArgValue::U64(misses as u64)),
                    ("evictions", ArgValue::U64(pressure.evictions as u64)),
                    ("bypasses", ArgValue::U64(pressure.bypasses as u64)),
                ],
            );
        }
        timing
    }

    /// `op`'s charge given its cache outcome: `hits` and `misses` among its
    /// operands, and `used` bytes resident after it. What a replayed op's
    /// sink is handed, through the same arithmetic as a resolved one.
    #[inline]
    fn charge(&mut self, op: &TracedOp<'_>, hits: usize, misses: usize, used: u64) -> OpTiming {
        let entry = self.costs.entry(op.op, op.level);
        let cost = entry.cost;
        let miss_bytes = cost.operand_bytes + misses as u64 * entry.ct_bytes;
        let hbm_bytes = cost.evk_bytes + miss_bytes;
        let hbm_ticks = self.hbm.ticks(hbm_bytes);
        OpTiming {
            cost,
            miss_bytes,
            hbm_bytes,
            hbm_ticks,
            ticks: cost.compute_ticks.max(hbm_ticks),
            cache_hits: hits,
            cache_misses: misses,
            scratch_bytes: cost.temp_bytes + used,
        }
    }
}

/// What the sweep needs to know about one (op, level) pair, resolved the
/// first time the pair occurs in a sweep: a trace has at most
/// `10 × (L + 1)` distinct pairs, however many ops it has.
#[derive(Debug, Clone)]
struct CostEntry {
    cost: OpCharge,
    /// Size of a ciphertext at the pair's level.
    ct_bytes: u64,
    /// The pair's telemetry event name (`"HMult@L27"`); empty when the sweep
    /// runs with telemetry off.
    name: String,
}

/// Per-sweep [`CostEntry`] table, indexed by (level, op) and filled on demand.
#[derive(Debug)]
struct CostTable<'s> {
    sim: &'s Simulator,
    named: bool,
    entries: Vec<Option<CostEntry>>,
}

impl<'s> CostTable<'s> {
    /// A table for ops at levels `0..=max_level`; entries carry their event
    /// name only if `named`.
    fn new(sim: &'s Simulator, max_level: usize, named: bool) -> Self {
        Self {
            sim,
            named,
            entries: vec![None; (max_level + 1) * HeOp::ALL.len()],
        }
    }

    fn entry(&mut self, op: HeOp, level: usize) -> &CostEntry {
        self.entries[level * HeOp::ALL.len() + op.index()].get_or_insert_with(|| CostEntry {
            cost: OpCharge::of(&self.sim.op_cost(op, level)),
            ct_bytes: self.sim.instance.ct_bytes(level),
            name: if self.named {
                format!("{op:?}@L{level}")
            } else {
                String::new()
            },
        })
    }
}

/// The replacement key the reuse code stands for at op `op`: dead values go
/// first, the operand the next op reads is never the victim, and the other
/// live values tie — which the cache breaks against the larger slot, so the
/// youngest loses and a newcomer that is itself the youngest is not cached.
fn reuse_key(reuse: Reuse, op: u32) -> u32 {
    match reuse {
        Reuse::Next => op + 1,
        Reuse::Later => NEVER - 1,
        Reuse::Never => NEVER,
    }
}

/// The LRU baseline's replacement key: the op's `k`-th access's position in
/// program order ([`TracedOp::stamp`]) counted down from below
/// [`NEVER`]. The least recently touched resident holds the furthest key,
/// and a newcomer the nearest, so it is never bypassed and the residents
/// go oldest first until it fits: LRU.
fn recency_key(op: &TracedOp<'_>, k: usize) -> u32 {
    // Lossless and distinct: construction keeps accesses + ops below the
    // sentinels, and each op's accesses follow the previous op's output.
    NEVER - 1 - op.stamp(k) as u32
}

/// What one op's inserts did to the cache, and — with telemetry on — the
/// `(trace, replacement, op index, start time)` to explain it with: one
/// `scratchpad` instant per evicted resident and per bypassed newcomer,
/// naming the ciphertext, so a later miss on it can be traced to its cause
/// from the stream alone.
#[derive(Default)]
struct Pressure<'t> {
    evictions: usize,
    bypasses: usize,
    explain: Option<(&'t OpTrace, Replacement, u32, f64)>,
}

impl Pressure<'_> {
    fn insert(&mut self, cache: &mut BeladyCache, value: Value, bytes: u64, key: (u32, bool)) {
        let cached = cache.insert(value, bytes, key.0, key.1);
        self.evictions += cache.victims.len();
        self.bypasses += usize::from(!cached);
        let Some((trace, replacement, op, ts)) = self.explain else {
            return;
        };
        let instant = |name, slot: u32, detail: (&'static str, bts_telemetry::ArgValue)| {
            let args = [("op", op.into()), ("ct", trace.id_of(slot).into()), detail];
            bts_telemetry::emit_instant("scratchpad", name, ts, &args);
        };
        for (victim, _) in &cache.victims {
            let reason = replacement.eviction_reason(victim.next_use);
            instant("evict", victim.slot, ("reason", reason.into()));
        }
        if !cached {
            instant("bypass", value.slot, ("used_bytes", cache.used.into()));
        }
    }
}

/// One ciphertext as the cache sees it: its slot — the tie-break, and the id
/// telemetry names — and its [`OpTrace::cell`], where its state lives while
/// it will be read again.
#[derive(Debug, Clone, Copy)]
struct Value {
    slot: u32,
    cell: u32,
}

/// One cell's state in a [`BeladyCache`].
#[derive(Debug, Clone, Copy)]
struct Live {
    bytes: u64,
    /// Replacement key: op index of the next use, as the sweep's key
    /// function ranks it, or the LRU baseline's [`recency_key`].
    next_use: u32,
    /// Position in `BeladyCache::live`, [`NEVER`] when the cell holds no
    /// resident.
    position: u32,
}

/// A resident ranked by `(key, slot)`, the order victims are taken in
/// (furthest first): how the cache keeps the dead ones, whose key can no
/// longer change, and names the victims of an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ranked {
    next_use: u32,
    slot: u32,
    bytes: u64,
}

/// Belady-style (MIN) replacement: every resident ciphertext carries the op
/// index of its next use — as exact or as coarse as the sweep's key function
/// makes it; under pressure the furthest-needed ciphertext
/// loses — evicted if resident, bypassed if incoming — so dead data goes
/// first and the live set is what the future needs soonest. The one cache
/// of the engine: keyed on recency instead, it is the LRU baseline.
///
/// Its state is sized by the trace's read window, not its slot count: a
/// resident that will be read again lives in its value's cell
/// ([`OpTrace::cell`]), and one nothing reads again moves to a run sorted
/// by `(key, slot)` — it would leave the window before its cell is reused —
/// so the furthest dead resident is the run's last, and only the few live
/// ones are scanned.
#[derive(Debug, Clone)]
struct BeladyCache {
    capacity: u64,
    used: u64,
    /// Per cell, the live resident it holds.
    cells: Vec<Live>,
    /// The live residents, in no particular order.
    live: Vec<Value>,
    /// The dead residents, ascending by `(key, slot)`: the furthest is the
    /// last. Under the reuse code and the exact probe every dead key ties at
    /// [`NEVER`] and the value dying now is nearly always the youngest, so
    /// the largest slot: an insert scans back from the end. (Under recency
    /// it lands at the front of a run no longer than the residents.)
    dead: Vec<Ranked>,
    /// Victims of the latest insert, furthest first, each with its cell
    /// ([`NEVER`] for a dead one); reused across inserts.
    victims: Vec<(Ranked, u32)>,
}

impl BeladyCache {
    /// A cache of `capacity` bytes over `cells` cells ([`OpTrace::cells`])
    /// that never holds more than `most` residents.
    fn new(capacity: u64, cells: usize, most: usize) -> Self {
        let vacant = Live {
            bytes: 0,
            next_use: NEVER,
            position: NEVER,
        };
        Self {
            capacity,
            used: 0,
            cells: vec![vacant; cells],
            live: Vec::with_capacity(most.min(cells)),
            dead: Vec::with_capacity(most),
            victims: Vec::with_capacity(most),
        }
    }

    /// Whether `value` is resident; if so it takes key `next_use`, and moves
    /// to the dead residents if this access is its last.
    fn touch(&mut self, value: Value, next_use: u32, dead: bool) -> bool {
        let entry = &mut self.cells[value.cell as usize];
        if entry.position == NEVER {
            return false;
        }
        if dead {
            let bytes = entry.bytes;
            self.unlink(value.cell);
            self.bury(Ranked {
                next_use,
                slot: value.slot,
                bytes,
            });
        } else {
            entry.next_use = next_use;
        }
        true
    }

    /// Files a resident nothing reads again into the dead run, in order.
    fn bury(&mut self, dead: Ranked) {
        let after = self.dead.iter().rposition(|d| *d < dead);
        self.dead.insert(after.map_or(0, |at| at + 1), dead);
    }

    /// Every resident as `(slot, key, bytes, dead)`: the live ones, then
    /// the dead run in its order.
    fn residents(&self) -> impl Iterator<Item = (u32, u32, u64, bool)> + '_ {
        let live = self.live.iter().map(|v| {
            let entry = &self.cells[v.cell as usize];
            (v.slot, entry.next_use, entry.bytes, false)
        });
        let dead = self
            .dead
            .iter()
            .map(|d| (d.slot, d.next_use, d.bytes, true));
        live.chain(dead)
    }

    /// Drops every resident at once.
    fn clear(&mut self) {
        for value in &self.live {
            self.cells[value.cell as usize].position = NEVER;
        }
        self.live.clear();
        self.dead.clear();
        self.used = 0;
    }

    /// Makes `value` resident with key `next_use`, taking no victims — an
    /// insert's last step, and what restores a state the cache has held. A
    /// dead resident keeps no cell: its `value.cell` is not read.
    fn place(&mut self, value: Value, bytes: u64, next_use: u32, dead: bool) {
        self.used += bytes;
        if dead {
            self.bury(Ranked {
                next_use,
                slot: value.slot,
                bytes,
            });
        } else {
            // Lossless: one live resident per cell, and the cells number
            // fewer than the trace's values, which fit u32.
            let position = self.live.len() as u32;
            self.live.push(value);
            self.cells[value.cell as usize] = Live {
                bytes,
                next_use,
                position,
            };
        }
    }

    /// Takes the live resident at `cell` off the live list.
    fn unlink(&mut self, cell: u32) {
        let position = self.cells[cell as usize].position;
        self.cells[cell as usize].position = NEVER;
        self.live.swap_remove(position as usize);
        if let Some(moved) = self.live.get(position as usize) {
            self.cells[moved.cell as usize].position = position;
        }
    }

    /// Inserts, evicting into `victims`; false on bypass (nothing evicted).
    fn insert(&mut self, value: Value, bytes: u64, next_use: u32, dead: bool) -> bool {
        self.victims.clear();
        if bytes > self.capacity {
            return false; // cannot cache at all
        }
        if self.touch(value, next_use, dead) {
            return true;
        }
        // Pick victims furthest-next-use-first (ties to the larger slot, which
        // is the larger id) until the incoming ciphertext fits — but commit
        // the evictions only if *every* victim is needed later than the
        // incoming one. Otherwise bypass (don't cache) and keep all
        // residents: caching it would trade a sooner-needed resident for a
        // later-needed newcomer. Deciding over the whole set before removing
        // anything matters with variable ciphertext sizes, where a big
        // newcomer can need several victims of mixed next-use distances.
        let incoming = (next_use, value.slot);
        let mut freed = 0u64;
        // Keys are distinct (one per slot), so "the largest live key below
        // the previous victim's" walks the live residents in descending order
        // without sorting them; the dead ones pop off the end of their run.
        let mut previous = None;
        while self.used - freed + bytes > self.capacity {
            let live = self
                .live
                .iter()
                .map(|v| (self.cells[v.cell as usize].next_use, v.slot, v.cell))
                .filter(|&(key, slot, _)| previous.is_none_or(|p| (key, slot) < p))
                .max();
            let dead = self.dead.last().map(|d| (d.next_use, d.slot, NEVER));
            let Some((key, slot, cell)) = live.max(dead) else {
                break;
            };
            if (key, slot) < incoming {
                // A victim is needed sooner than the incoming: push back the
                // dead ones taken so far, nearest first, which restores the
                // run's order.
                let taken = self.victims.drain(..).rev();
                let taken = taken.filter(|&(_, cell)| cell == NEVER);
                self.dead.extend(taken.map(|(victim, _)| victim));
                return false;
            }
            let bytes = if cell == NEVER {
                self.dead.pop().map_or(0, |d| d.bytes)
            } else {
                previous = Some((key, slot));
                self.cells[cell as usize].bytes
            };
            freed += bytes;
            let victim = Ranked {
                next_use: key,
                slot,
                bytes,
            };
            self.victims.push((victim, cell));
        }
        for i in 0..self.victims.len() {
            let (_, cell) = self.victims[i];
            if cell != NEVER {
                self.unlink(cell);
            }
        }
        self.used -= freed;
        self.place(value, bytes, next_use, dead);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use bts_params::BandwidthModel;

    fn hmult_trace(ins: &CkksInstance, level: usize) -> OpTrace {
        let mut b = TraceBuilder::new(ins);
        let x = b.fresh_ct(level);
        let y = b.fresh_ct(level);
        // Three multiplications on the same operands: after the first, the
        // operands are resident in the scratchpad, so compute partially hides
        // the remaining memory traffic.
        b.hmult_at(x, y, level);
        b.hmult_at(x, y, level);
        b.hmult_at(x, y, level);
        b.build()
    }

    #[test]
    fn hmult_at_top_level_is_bounded_by_evk_load() {
        // §3.3/§6.3: with everything on-chip, HMult's time equals the evk
        // streaming time (~117 µs for INS-1 at 1 TB/s) because compute hides
        // underneath it.
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let cost = sim.op_cost(HeOp::HMult, ins.max_level());
        let evk_time = ins.evk_bytes_at_level(ins.max_level()) as f64 / 1e12;
        assert!(
            cost.compute_seconds < evk_time,
            "compute {} should hide under evk load {}",
            cost.compute_seconds,
            evk_time
        );
        // NTTU busy fraction during HMult ≈ 65-80% (Fig. 8 reports 76%).
        let busy = cost.ntt_seconds / evk_time;
        assert!(busy > 0.5 && busy < 0.95, "NTTU busy fraction = {busy}");
    }

    #[test]
    fn doubling_bandwidth_gives_sublinear_speedup() {
        // Fig. 9: the 2 TB/s configuration is only ~1.26x faster because
        // compute starts to dominate.
        let ins = CkksInstance::ins1();
        let trace = hmult_trace(&ins, ins.max_level());
        let base = Simulator::new(BtsConfig::bts_default(), ins.clone()).run(&trace);
        let fast = Simulator::new(
            BtsConfig::bts_default().with_hbm(BandwidthModel::hbm_2tb()),
            ins,
        )
        .run(&trace);
        let speedup = base.total_seconds / fast.total_seconds;
        assert!(speedup > 1.05 && speedup < 2.0, "speedup = {speedup}");
    }

    #[test]
    fn cache_hits_reduce_hbm_traffic() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(20);
        let y = b.fresh_ct(20);
        // Re-use the same operands repeatedly: the second and later ops hit.
        for _ in 0..8 {
            b.hmult_at(x, y, 20);
        }
        let trace = b.build();
        let report = Simulator::new(BtsConfig::bts_default(), ins).run(&trace);
        assert!(report.cache_hits >= 14, "hits = {}", report.cache_hits);
        assert_eq!(report.cache_misses, 2);
    }

    #[test]
    fn tiny_scratchpad_forces_ct_reloads() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let ids: Vec<_> = (0..6).map(|_| b.fresh_ct(27)).collect();
        for round in 0..3 {
            for w in ids.windows(2) {
                b.hmult_at(w[0], w[1], 27 - round);
            }
        }
        let trace = b.build();
        let small = Simulator::new(
            BtsConfig::bts_default().with_scratchpad_bytes(200 * 1024 * 1024),
            ins.clone(),
        )
        .run(&trace);
        let big = Simulator::new(
            BtsConfig::bts_default().with_scratchpad_bytes(2 * 1024 * 1024 * 1024),
            ins,
        )
        .run(&trace);
        assert!(small.ct_miss_bytes > big.ct_miss_bytes);
        assert!(small.total_seconds >= big.total_seconds);
        assert!(big.cache_hit_rate() > small.cache_hit_rate());
    }

    #[test]
    fn report_accounting_is_consistent() {
        let ins = CkksInstance::ins2();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(39);
        b.set_bootstrap_region(true);
        let y = b.hrot(x, 3, 39);
        b.set_bootstrap_region(false);
        let z = b.hmult_at(y, y, 39);
        b.hrescale_at(z, 39);
        let trace = b.build();
        let r = Simulator::new(BtsConfig::bts_default(), ins).run(&trace);
        let sum: f64 = r.per_op.values().map(|s| s.seconds).sum();
        assert!((sum - r.total_seconds).abs() < 1e-12);
        assert!(r.bootstrap_seconds < r.total_seconds);
        assert!(r.bootstrap_fraction() > 0.0);
        assert_eq!(r.hbm_bytes, r.evk_bytes + r.ct_miss_bytes);
        assert!(r.energy_j > 0.0);
        assert!(r.edap() > 0.0);
        assert!(r.scratchpad_peak_bytes > 0);
    }

    #[test]
    fn simulator_entry_point_rejects_invalid_traces() {
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        for (operand, valid) in [(12345, false), (0, true)] {
            let mut b = TraceBuilder::new(&ins);
            let x = b.fresh_ct(27);
            b.hmult(x, operand); // 12345 dangles
            assert_eq!(sim.try_run(&b.build()).is_ok(), valid);
        }
    }

    #[test]
    fn a_trace_runs_only_on_its_own_instance() {
        // A level-44 HMult exists on INS-3; INS-1 (L = 27) would charge it
        // at a level it does not have.
        let ins3 = CkksInstance::ins3();
        let mut b = TraceBuilder::new(&ins3);
        let x = b.fresh_ct(44);
        b.hmult_at(x, x, 44);
        let trace = b.build();
        let mismatch = TraceError::InstanceMismatch {
            trace: ins3.name().to_string(),
            simulator: CkksInstance::ins1().name().to_string(),
        };
        let ins1 = Simulator::new(BtsConfig::bts_default(), CkksInstance::ins1());
        assert_eq!(ins1.try_run(&trace).unwrap_err(), mismatch);
        assert_eq!(ins1.op_timings_lru(&trace).unwrap_err(), mismatch);
        let mut seen = 0;
        let sunk = ins1.run_sunk(&trace, &mut |_: &TracedOp<'_>, _: &OpTiming| seen += 1);
        assert_eq!((sunk.unwrap_err(), seen), (mismatch, 0));
        let own = Simulator::new(BtsConfig::bts_default(), ins3);
        assert!(own.try_run(&trace).is_ok());
    }

    #[test]
    fn an_invalid_config_is_refused_not_charged() {
        // A zero clock or PE count would charge every op infinite or NaN
        // seconds; every entry point refuses the simulator instead.
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.hmult(x, x);
        let trace = b.build();
        let mut stopped = BtsConfig::bts_default();
        stopped.frequency_hz = 0.0;
        let mut empty = BtsConfig::bts_default();
        empty.pe_count = 0;
        for config in [stopped, empty] {
            let refused = TraceError::InvalidConfig(config.validate().unwrap_err());
            let sim = Simulator::new(config, ins.clone());
            assert_eq!(sim.try_run(&trace).unwrap_err(), refused);
            assert_eq!(sim.op_timings(&trace).unwrap_err(), refused);
            assert_eq!(sim.try_run_lru(&trace).unwrap_err(), refused);
            assert_eq!(sim.try_run_belady(&trace).unwrap_err(), refused);
            let mut seen = 0;
            let sunk = sim.run_sunk(&trace, &mut |_: &TracedOp<'_>, _: &OpTiming| seen += 1);
            assert_eq!((sunk.unwrap_err(), seen), (refused, 0));
        }
    }

    #[test]
    fn reuse_code_beats_lru_where_lru_keeps_dead_values() {
        // Recency and liveness disagree: every round produces values that
        // die immediately but are the most recently touched entries, while a
        // long-lived operand, read only every other round, ages toward the
        // LRU position. LRU evicts the live operand; the reuse code marks the
        // dead values `Never`, so they go first. (That nothing does better is
        // `tests/scratchpad_policy.rs`, against the exact optimum.)
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let hot = b.fresh_ct(27);
        for k in 0..12 {
            let t = b.fresh_ct(27);
            let p = b.hmult_at(t, t, 27);
            let q = b.hmult_at(p, p, 27);
            if k % 2 == 0 {
                b.hmult_at(q, hot, 27);
            }
        }
        let trace = b.build();
        let sim = Simulator::new(
            BtsConfig::bts_default().with_scratchpad_bytes(384 * 1024 * 1024),
            ins,
        );
        let lru = sim.try_run_lru(&trace).unwrap();
        let policy = sim.run(&trace);
        assert!(
            policy.cache_hit_rate() > lru.cache_hit_rate(),
            "reuse code {} should beat LRU {}",
            policy.cache_hit_rate(),
            lru.cache_hit_rate()
        );
        assert!(policy.ct_miss_bytes < lru.ct_miss_bytes);
        assert!(policy.total_seconds <= lru.total_seconds);
    }

    /// Cache hits of `trace` on the furthest-key cache under a key function
    /// of the access's reuse code and the op — narrower encodings than the
    /// one the engine ships.
    fn hits_keyed(sim: &Simulator, trace: &OpTrace, key: impl Fn(Reuse, u32) -> u32) -> usize {
        let mut hits = 0;
        sim.sweep_each(
            trace,
            Replacement::ReuseCode,
            |op, _, reuse| key(reuse, op.index),
            None,
            &mut |_: &TracedOp<'_>, timing: &OpTiming| hits += timing.cache_hits,
        );
        hits
    }

    #[test]
    fn code_width_matters_only_past_three_live_values() {
        // Why the code has two bits: eight top-level ciphertexts read
        // pairwise round-robin — 84 accesses over far more live values than
        // the 512 MiB cache holds — where the dead bit alone, every live
        // value tied, loses hits the code keeps. (The registry never
        // produces this; the same pool is the recorded gap between the code
        // and the exact optimum in `tests/scratchpad_policy.rs`.)
        let ins = CkksInstance::ins1();
        let top = ins.max_level();
        let mut b = TraceBuilder::new(&ins);
        let pool: Vec<_> = (0..8).map(|_| b.fresh_ct(top)).collect();
        for _ in 0..6 {
            for pair in pool.windows(2) {
                b.hmult_at(pair[0], pair[1], top);
            }
        }
        let trace = b.build();
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let hits = |report: SimReport| {
            assert_eq!(report.cache_hits + report.cache_misses, 84);
            report.cache_hits
        };
        let dead_bit = |reuse: Reuse, _| match reuse {
            Reuse::Never => NEVER,
            _ => NEVER - 1,
        };
        assert_eq!(hits(sim.try_run_lru(&trace).unwrap()), 36);
        assert_eq!(hits_keyed(&sim, &trace, dead_bit), 51); // 0.607
        assert_eq!(hits(sim.run(&trace)), 57); // 0.679
                                               // The harness runs the shipped sweep when handed its key.
        assert_eq!(hits_keyed(&sim, &trace, reuse_key), 57);
    }

    #[test]
    fn belady_bypass_decides_before_evicting() {
        // Capacity 100: residents A (60 B, next use 10) and B (40 B, next
        // use 5); incoming C (80 B, next use 7) needs both evicted, but B is
        // needed sooner than C — so C must be bypassed with *both* residents
        // kept, not A sacrificed before the bypass decision falls on B.
        let mut cache = BeladyCache::new(100, 5, 4);
        let value = |slot| Value { slot, cell: slot };
        cache.insert(value(1), 60, 10, false); // A
        cache.insert(value(2), 40, 5, false); // B
        cache.insert(value(3), 80, 7, false); // C: bypassed
        assert!(cache.touch(value(1), 10, false), "A must survive");
        assert!(cache.touch(value(2), 5, false), "B must survive");
        assert!(!cache.touch(value(3), 7, false), "C must not be cached");
        assert_eq!(cache.used, 100);
        // When the incoming ciphertext is needed sooner than every victim,
        // the evictions do commit.
        cache.insert(value(4), 80, 2, false);
        assert!(cache.touch(value(4), 2, false));
        assert!(!cache.touch(value(1), 10, false));
        assert!(
            !cache.touch(value(2), 5, false),
            "both residents evicted for the fit"
        );
    }

    #[test]
    fn dead_residents_leave_their_cells_and_go_first() {
        // Capacity 100: A (40 B) is read for the last time and moves to the
        // dead run, freeing its cell for a newer value; B (40 B) stays live.
        // C (40 B) evicts A, the dead one, though B's key is further; a
        // bypass that had to look past the run puts A back.
        let mut cache = BeladyCache::new(100, 4, 4);
        let a = Value { slot: 1, cell: 0 };
        let b = Value { slot: 2, cell: 1 };
        cache.insert(a, 40, 3, false);
        cache.insert(b, 40, 9, false);
        assert!(cache.touch(a, NEVER, true));
        assert_eq!((cache.live.len(), cache.dead.len()), (1, 1));
        assert!(
            !cache.touch(Value { slot: 5, cell: 0 }, 4, false),
            "A's cell is free"
        );
        // Needs 60 B freed: A (dead) then B (needed at 9, after 2) would go,
        // but D is needed at 12 — bypassed, A and B kept.
        let d = Value { slot: 3, cell: 2 };
        assert!(!cache.insert(d, 80, 12, false));
        assert_eq!(
            (cache.used, cache.dead.len(), cache.victims.len()),
            (80, 1, 0)
        );
        let c = Value { slot: 4, cell: 3 };
        assert!(cache.insert(c, 40, 2, false));
        assert_eq!(cache.victims.len(), 1);
        let (victim, cell) = cache.victims[0];
        assert_eq!((victim.slot, victim.next_use, cell), (1, NEVER, NEVER));
        assert!(cache.dead.is_empty());
        assert!(cache.touch(b, 9, false) && cache.touch(c, 2, false));
    }

    #[test]
    fn the_dead_run_stays_sorted_within_its_presized_room() {
        // Capacity 1 000 B and values of 100–300 B: never more than ten
        // residents at once, so the run is sized for ten. Seeded accesses to
        // a pool of a dozen values — reads again, last reads, newcomers,
        // bypasses — under both kinds of dead key: every one tied (the reuse
        // code) and every one distinct and shrinking (recency).
        for recency in [false, true] {
            let most = 10;
            let mut cache = BeladyCache::new(1_000, 4_000, most);
            let room = cache.dead.capacity();
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut draw = |n: usize| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize % n
            };
            let mut pool: Vec<u32> = Vec::new();
            let mut longest = 0;
            for step in 0..4_000u32 {
                let slot = if pool.len() > 12 || (!pool.is_empty() && draw(2) == 0) {
                    pool.swap_remove(draw(pool.len()))
                } else {
                    step
                };
                let dead = draw(3) == 0;
                let key = match (recency, dead) {
                    (true, _) => NEVER - 1 - step,
                    (false, true) => NEVER,
                    (false, false) => step + 1 + draw(64) as u32,
                };
                let value = Value { slot, cell: slot };
                if !cache.touch(value, key, dead) {
                    cache.insert(value, 100 * (1 + u64::from(slot % 3)), key, dead);
                }
                if !dead {
                    pool.push(slot);
                }
                assert!(cache.dead.windows(2).all(|pair| pair[0] < pair[1]));
                assert!(cache.dead.len() <= most);
                assert_eq!(cache.dead.capacity(), room, "the run never grows");
                longest = longest.max(cache.dead.len());
            }
            assert!(longest > 2, "the run is exercised: {longest} at most");
        }
    }

    #[test]
    fn merged_reports_sum_counters_and_weight_utilizations() {
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.hmult(x, x);
        let t1 = b.build();
        let mut b = TraceBuilder::new(&ins);
        let y = b.fresh_ct(20);
        let r = b.hrot(y, 3, 20);
        b.hrescale_at(r, 20);
        let t2 = b.build();
        let r1 = sim.run(&t1);
        let r2 = sim.run(&t2);
        let mut merged = r1.clone();
        merged.merge(&r2);
        assert!((merged.total_seconds - (r1.total_seconds + r2.total_seconds)).abs() < 1e-15);
        assert_eq!(merged.hbm_bytes, r1.hbm_bytes + r2.hbm_bytes);
        assert_eq!(merged.cache_misses, r1.cache_misses + r2.cache_misses);
        assert!((merged.energy_j - (r1.energy_j + r2.energy_j)).abs() < 1e-12);
        let ops: usize = merged.per_op.values().map(|s| s.count).sum();
        assert_eq!(ops, t1.len() + t2.len());
        // Time-weighted utilization stays inside the two inputs' envelope.
        let lo = r1.hbm_utilization.min(r2.hbm_utilization);
        let hi = r1.hbm_utilization.max(r2.hbm_utilization);
        assert!(merged.hbm_utilization >= lo - 1e-12 && merged.hbm_utilization <= hi + 1e-12);
        assert_eq!(merged.scheduled_seconds, None);
        assert_eq!(merged.parallel_speedup(), None);
    }

    #[test]
    fn single_use_outputs_are_forwarded_not_cached() {
        // rot → pmult → add: the rotation's and product's outputs each have
        // one consumer, the immediately following op, so they flow through
        // the temporary region and never count as cache accesses.
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let mut acc = b.pmult(x, 27);
        for r in 1..4 {
            let rot = b.hrot(x, r, 27);
            let prod = b.pmult(rot, 27);
            acc = b.hadd(acc, prod, 27);
        }
        let trace = b.build();
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let report = sim.run(&trace);
        // rot/prod intermediates are forwarded (single use, next op); x and
        // the accumulator chain are cached — only x's first access misses.
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.cache_hits, 6);
    }

    #[test]
    fn op_timings_sum_to_the_serial_report() {
        let ins = CkksInstance::ins2();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(39);
        let y = b.hrot(x, 3, 39);
        let z = b.hmult_at(y, y, 39);
        b.hrescale_at(z, 39);
        let trace = b.build();
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let timings = sim.op_timings(&trace).unwrap();
        let report = sim.run(&trace);
        let sum: u64 = timings.iter().map(|t| t.ticks).sum();
        assert_eq!(ticks::seconds(sum), report.total_seconds);
        let hbm: u64 = timings.iter().map(|t| t.hbm_bytes).sum();
        assert_eq!(hbm, report.hbm_bytes);
        for t in &timings {
            let c = &t.cost;
            let units = [c.ntt_ticks, c.bconv_ticks, c.elementwise_charged_ticks];
            assert!(units.iter().all(|&busy| busy <= t.ticks));
            assert!(t.hbm_ticks <= t.ticks);
        }
    }

    #[test]
    fn serial_reports_leave_schedule_fields_unset() {
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.hmult(x, x);
        let r = Simulator::new(BtsConfig::bts_default(), ins).run(&b.build());
        assert_eq!(r.scheduled_seconds, None);
        assert_eq!(r.critical_path_seconds, None);
        assert_eq!(r.parallel_speedup(), None);
    }

    #[test]
    fn higher_level_ops_cost_more() {
        let ins = CkksInstance::ins3();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let low = sim.op_cost(HeOp::HMult, 5);
        let high = sim.op_cost(HeOp::HMult, ins.max_level());
        assert!(high.compute_seconds > low.compute_seconds);
        assert!(high.evk_bytes > low.evk_bytes);
    }
}
