//! Differential tests of the dense simulation kernel: on random traces the
//! slot-indexed sweep (the trace's own tables + the one slot-indexed
//! furthest-key cache, LRU on a recency key), the dependences read back off
//! those tables (`common/deps.rs`, which the scheduler's list oracle reads)
//! and `OpTrace::validate` must equal, bit for bit and error for error, the
//! hash-map bodies they replaced.
//!
//! Those bodies live on in [`oracle`] below, as they were before the index
//! existed (`HashSet` of defined ids, `HashMap` caches, one `VecDeque` of
//! use positions per ciphertext, linear `VecDeque::position` LRU touches).
//! They read a trace by id ([`Raw`]: what the cases relabel and break), and
//! the trace under test is built from the same ids through
//! `OpTrace::from_ops` — the one scan that interns, validates and indexes.
//! They are written against the public API only, which is why the oracle can
//! sit in this test crate: an integration test cannot see a dependency's
//! `#[cfg(test)]` items, and nothing outside the tests should be able to.
//!
//! The engine's default policy and its furthest-next-use probe are one cache
//! under two key functions, and so they are here: the oracle's Belady body
//! takes the key as a function of (op, exact next use). The identity is the
//! probe (`try_run_belady` — the reuse code at infinite width), and
//! [`oracle::three_value_key`], a quantization of the exact position written
//! without `TraceIndex`'s tables, is the default (`op_timings`). The engine
//! runs LRU on that cache too, under a third key (recency); the oracle's LRU
//! stays the `VecDeque` body it always was, so `op_timings_lru` is held to
//! an independent cache.
//!
//! Below all three sits the exact offline optimum (`common/cache_optimum.rs`):
//! on the same random traces, at every scratchpad size, no sweep moves fewer
//! capacity-miss bytes than it does — which catches a DP that overcharges.
//!
//! The sweep is one visitor with three kinds of sink, and only the collecting
//! one (`op_timings*`) is compared with the oracle's timings directly. The
//! folding one (`try_run*`) is held, field by field and bit by bit, to
//! [`oracle::fold`] — a second pass over the collected timings, which is how
//! the engine folded before it streamed — and the planning one
//! (`Simulator::run_indexed` under `JobPlan::from_trace`) to `op_timings` and
//! to the plan `JobPlan::new` builds from them.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use bts::params::CkksInstance;
use bts::sched::{schedule_jobs, JobPlan, MachineModel, ScheduleError, ScheduleExt};
use bts::sim::{
    BtsConfig, CtId, HeOp, OpTiming, OpTrace, RawOp, SimReport, Simulator, TraceBuilder,
};

#[path = "common/cache_optimum.rs"]
mod cache_optimum;
#[path = "common/deps.rs"]
mod deps;
#[path = "common/list_oracle.rs"]
mod list_oracle;

use deps::Deps;

/// One op of a [`Raw`] trace.
#[derive(Debug, Clone)]
struct Op {
    op: HeOp,
    level: usize,
    inputs: Vec<CtId>,
    output: Option<CtId>,
    in_bootstrap: bool,
}

/// A trace by ciphertext id, owned: what the cases relabel and break, and
/// what the oracle reads.
#[derive(Debug, Clone)]
struct Raw {
    instance: CkksInstance,
    inputs: Vec<(CtId, usize)>,
    ops: Vec<Op>,
    rotation_keys: usize,
}

impl Raw {
    /// A built trace, read back by id.
    fn of(trace: &OpTrace) -> Self {
        let ops = trace.ops().map(|op| Op {
            op: op.op,
            level: op.level,
            inputs: op.operands.iter().map(|&s| trace.id_of(s)).collect(),
            output: op.output.map(|s| trace.id_of(s)),
            in_bootstrap: op.in_bootstrap,
        });
        Raw {
            instance: trace.instance().clone(),
            inputs: trace.inputs().collect(),
            ops: ops.collect(),
            rotation_keys: trace.rotation_keys(),
        }
    }

    /// The trace under test: these ids through the one construction scan.
    fn build(&self) -> OpTrace {
        let ops = self.ops.iter().map(|o| RawOp {
            op: o.op,
            level: o.level,
            inputs: &o.inputs,
            output: o.output,
            in_bootstrap: o.in_bootstrap,
        });
        OpTrace::from_ops(&self.instance, &self.inputs, ops, self.rotation_keys)
    }
}

/// The pre-index implementations, kept verbatim as the reference.
mod oracle {
    use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

    use bts::sim::{
        AreaPowerModel, CtId, HeOp, OpClassStats, OpTiming, SimReport, Simulator, TraceError,
    };

    use super::Raw;

    pub fn validate(trace: &Raw) -> Result<(), TraceError> {
        let mut defined: HashSet<CtId> = trace.inputs.iter().map(|&(id, _)| id).collect();
        let max_level = trace.instance.max_level();
        for (input_index, &(_, level)) in trace.inputs.iter().enumerate() {
            if level > max_level {
                return Err(TraceError::InputLevelOutOfRange {
                    input_index,
                    level,
                    max_level,
                });
            }
        }
        for (op_index, op) in trace.ops.iter().enumerate() {
            if op.level > max_level {
                return Err(TraceError::LevelOutOfRange {
                    op_index,
                    level: op.level,
                    max_level,
                });
            }
            for &id in &op.inputs {
                if !defined.contains(&id) {
                    return Err(TraceError::UndefinedInput { op_index, id });
                }
            }
            if let Some(out) = op.output {
                if !defined.insert(out) {
                    return Err(TraceError::DuplicateOutput { op_index, id: out });
                }
            }
        }
        Ok(())
    }

    /// Per op: sorted, deduplicated producer indices; and its barrier segment.
    pub fn dag(trace: &Raw) -> (Vec<Vec<u32>>, Vec<u32>) {
        let mut producer: HashMap<CtId, u32> = HashMap::new();
        let mut deps = Vec::new();
        let mut segment = Vec::new();
        let mut current_segment = 0u32;
        for (i, op) in trace.ops.iter().enumerate() {
            if i > 0 && op.in_bootstrap != trace.ops[i - 1].in_bootstrap {
                current_segment += 1;
            }
            segment.push(current_segment);
            let mut edges: Vec<u32> = Vec::new();
            for p in op.inputs.iter().filter_map(|id| producer.get(id)) {
                if !edges.contains(p) {
                    edges.push(*p);
                }
            }
            edges.sort_unstable();
            deps.push(edges);
            if let Some(out) = op.output {
                producer.insert(out, i as u32);
            }
        }
        (deps, segment)
    }

    fn forwarded_ids(trace: &Raw) -> HashSet<CtId> {
        let mut uses: HashMap<CtId, (usize, usize)> = HashMap::new(); // id -> (count, last op)
        for (i, op) in trace.ops.iter().enumerate() {
            for &id in &op.inputs {
                let entry = uses.entry(id).or_insert((0, i));
                entry.0 += 1;
                entry.1 = i;
            }
        }
        let mut forwarded = HashSet::new();
        for (i, op) in trace.ops.iter().enumerate() {
            if let Some(out) = op.output {
                if uses.get(&out) == Some(&(1, i + 1)) {
                    forwarded.insert(out);
                }
            }
        }
        forwarded
    }

    /// What the replacement decisions are keyed on.
    #[derive(Clone, Copy)]
    pub enum Policy {
        /// Recency.
        Lru,
        /// Furthest next use, on this function of (op index, exact next use).
        NextUse(fn(u32, u32) -> u32),
    }

    /// The exact next use: the furthest-next-use probe.
    pub fn exact_key(_op: u32, next_use: u32) -> u32 {
        next_use
    }

    /// The 2-bit reuse code's key, as a quantization of the exact next use:
    /// never stays never, "by this op or the next" is the next op, and every
    /// other distance is one far-away tie.
    pub fn three_value_key(op: u32, next_use: u32) -> u32 {
        match next_use {
            u32::MAX => u32::MAX,
            soon if soon <= op + 1 => op + 1,
            _ => u32::MAX - 1,
        }
    }

    pub fn op_timings(
        sim: &Simulator,
        trace: &Raw,
        policy: Policy,
    ) -> Result<Vec<OpTiming>, TraceError> {
        validate(trace)?;
        let forwarded = forwarded_ids(trace);
        let mut use_positions: HashMap<CtId, VecDeque<u32>> = HashMap::new();
        for (i, op) in trace.ops.iter().enumerate() {
            for &id in &op.inputs {
                use_positions.entry(id).or_default().push_back(i as u32);
            }
        }
        let next_use_of = |q: Option<&VecDeque<u32>>| -> u32 {
            q.and_then(|q| q.front().copied()).unwrap_or(u32::MAX)
        };
        let (mut cache, key) = match policy {
            Policy::NextUse(key) => (
                CacheModel::Belady(BeladyCache::new(sim.cache_capacity())),
                key,
            ),
            Policy::Lru => (
                CacheModel::Lru(CtCache::new(sim.cache_capacity())),
                (|_, _| 0) as fn(u32, u32) -> u32,
            ),
        };
        let mut timings = Vec::with_capacity(trace.ops.len());
        for (i, traced) in (0u32..).zip(&trace.ops) {
            let cost = sim.op_cost(traced.op, traced.level);
            let ct_bytes = sim.instance().ct_bytes(traced.level);
            let mut miss_bytes = cost.operand_bytes;
            let mut hits = 0usize;
            let mut misses = 0usize;
            for &input in &traced.inputs {
                if forwarded.contains(&input) {
                    continue;
                }
                let q = use_positions.get_mut(&input).expect("validated input");
                q.pop_front();
                let next_use = key(i, next_use_of(Some(q)));
                if cache.touch(input, next_use) {
                    hits += 1;
                } else {
                    misses += 1;
                    miss_bytes += ct_bytes;
                    cache.insert(input, ct_bytes, next_use);
                }
            }
            if let Some(out) = traced.output {
                if !forwarded.contains(&out) {
                    let next_use = key(i, next_use_of(use_positions.get(&out)));
                    cache.insert(out, ct_bytes, next_use);
                }
            }
            let hbm_bytes = cost.evk_bytes + miss_bytes;
            let hbm_seconds = hbm_bytes as f64 / sim.config().hbm.bytes_per_sec();
            let seconds = cost.compute_seconds.max(hbm_seconds);
            timings.push(OpTiming {
                cost,
                miss_bytes,
                hbm_bytes,
                hbm_seconds,
                seconds,
                cache_hits: hits,
                cache_misses: misses,
                scratch_bytes: cost.temp_bytes + cache.used_bytes(),
            });
        }
        Ok(timings)
    }

    /// The report as a second pass over collected timings — how the engine
    /// folded before its sweeps streamed into the report — with the
    /// per-class sums as `BTreeMap` entries in program order.
    pub fn fold(sim: &Simulator, trace: &Raw, timings: &[OpTiming]) -> SimReport {
        assert_eq!(timings.len(), trace.ops.len());
        let mut total = 0.0f64;
        let mut bootstrap = 0.0f64;
        let mut per_op: BTreeMap<HeOp, OpClassStats> = BTreeMap::new();
        let (mut evk_bytes, mut ct_miss_bytes) = (0u64, 0u64);
        let (mut hits, mut misses) = (0usize, 0usize);
        let (mut ntt_busy, mut bconv_busy, mut ew_busy) = (0.0f64, 0.0f64, 0.0f64);
        let mut peak_scratch = 0u64;
        for (traced, timing) in trace.ops.iter().zip(timings) {
            total += timing.seconds;
            if traced.in_bootstrap {
                bootstrap += timing.seconds;
            }
            let class = per_op.entry(traced.op).or_default();
            class.count += 1;
            class.seconds += timing.seconds;
            evk_bytes += timing.cost.evk_bytes;
            ct_miss_bytes += timing.miss_bytes;
            hits += timing.cache_hits;
            misses += timing.cache_misses;
            ntt_busy += timing.cost.ntt_seconds;
            bconv_busy += timing.cost.bconv_seconds;
            ew_busy += timing.cost.elementwise_seconds;
            peak_scratch = peak_scratch.max(timing.scratch_bytes);
        }
        let hbm_bytes = evk_bytes + ct_miss_bytes;
        let share = |busy: f64| if total > 0.0 { busy / total } else { 0.0 };
        let hbm_util = share(hbm_bytes as f64 / sim.config().hbm.bytes_per_sec());
        let (ntt_util, bconv_util, ew_util) = (share(ntt_busy), share(bconv_busy), share(ew_busy));
        let chip =
            AreaPowerModel::bts_default().with_scratchpad_bytes(sim.config().scratchpad_bytes);
        SimReport {
            total_seconds: total,
            bootstrap_seconds: bootstrap,
            per_op,
            hbm_bytes,
            evk_bytes,
            ct_miss_bytes,
            cache_hits: hits,
            cache_misses: misses,
            ntt_utilization: ntt_util.min(1.0),
            bconv_utilization: bconv_util.min(1.0),
            hbm_utilization: hbm_util.min(1.0),
            elementwise_utilization: ew_util.min(1.0),
            scratchpad_peak_bytes: peak_scratch,
            energy_j: chip.energy_joules(total, ntt_util, bconv_util, hbm_util, ew_util),
            area_mm2: chip.total_area_mm2(),
            scheduled_seconds: None,
            critical_path_seconds: None,
        }
    }

    enum CacheModel {
        Lru(CtCache),
        Belady(BeladyCache),
    }

    impl CacheModel {
        fn touch(&mut self, id: CtId, next_use: u32) -> bool {
            match self {
                CacheModel::Lru(c) => c.touch(id),
                CacheModel::Belady(c) => c.touch(id, next_use),
            }
        }

        fn insert(&mut self, id: CtId, bytes: u64, next_use: u32) -> usize {
            match self {
                CacheModel::Lru(c) => c.insert(id, bytes),
                CacheModel::Belady(c) => c.insert(id, bytes, next_use),
            }
        }

        fn used_bytes(&self) -> u64 {
            match self {
                CacheModel::Lru(c) => c.used,
                CacheModel::Belady(c) => c.used,
            }
        }
    }

    struct BeladyCache {
        capacity: u64,
        used: u64,
        entries: HashMap<CtId, (u64, u32)>,
    }

    impl BeladyCache {
        fn new(capacity: u64) -> Self {
            Self {
                capacity,
                used: 0,
                entries: HashMap::new(),
            }
        }

        fn touch(&mut self, id: CtId, next_use: u32) -> bool {
            if let Some(entry) = self.entries.get_mut(&id) {
                entry.1 = next_use;
                true
            } else {
                false
            }
        }

        fn remove(&mut self, id: CtId) -> bool {
            if let Some((bytes, _)) = self.entries.remove(&id) {
                self.used -= bytes;
                true
            } else {
                false
            }
        }

        fn insert(&mut self, id: CtId, bytes: u64, next_use: u32) -> usize {
            if bytes > self.capacity {
                return 0;
            }
            if self.touch(id, next_use) {
                return 0;
            }
            let mut evicted = 0usize;
            if self.used + bytes > self.capacity {
                let mut order: Vec<(u32, CtId)> = self
                    .entries
                    .iter()
                    .map(|(&id, &(_, nu))| (nu, id))
                    .collect();
                order.sort_unstable_by(|a, b| b.cmp(a));
                let mut freed = 0u64;
                let mut victims = Vec::new();
                for &(nu, vid) in &order {
                    if self.used - freed + bytes <= self.capacity {
                        break;
                    }
                    if (nu, vid) < (next_use, id) {
                        return 0;
                    }
                    freed += self.entries[&vid].0;
                    victims.push(vid);
                }
                evicted = victims.len();
                for vid in victims {
                    self.remove(vid);
                }
            }
            self.entries.insert(id, (bytes, next_use));
            self.used += bytes;
            evicted
        }
    }

    struct CtCache {
        capacity: u64,
        used: u64,
        entries: HashMap<CtId, u64>,
        order: VecDeque<CtId>,
    }

    impl CtCache {
        fn new(capacity: u64) -> Self {
            Self {
                capacity,
                used: 0,
                entries: HashMap::new(),
                order: VecDeque::new(),
            }
        }

        fn touch(&mut self, id: CtId) -> bool {
            if self.entries.contains_key(&id) {
                if let Some(pos) = self.order.iter().position(|&x| x == id) {
                    self.order.remove(pos);
                }
                self.order.push_back(id);
                true
            } else {
                false
            }
        }

        fn insert(&mut self, id: CtId, bytes: u64) -> usize {
            if bytes > self.capacity {
                return 0;
            }
            if self.entries.contains_key(&id) {
                self.touch(id);
                return 0;
            }
            let mut evicted = 0usize;
            while self.used + bytes > self.capacity {
                let Some(victim) = self.order.pop_front() else {
                    break;
                };
                if let Some(sz) = self.entries.remove(&victim) {
                    self.used -= sz;
                    evicted += 1;
                }
            }
            self.entries.insert(id, bytes);
            self.order.push_back(id);
            self.used += bytes;
            evicted
        }
    }
}

/// A deterministic LCG: everything a case does derives from its seed.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Self(
            seed.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        )
    }

    fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }
}

/// A random valid trace exercising what the cache sweeps branch on: repeated
/// operands (`hmult(x, x)`), levels from 0 to L so ciphertext sizes differ by
/// over an order of magnitude, rotate → pmult → accumulate chains whose
/// intermediates are forwarded, rescales, modulus raises, dead outputs and
/// bootstrap regions.
fn rich_trace(ins: &CkksInstance, rng: &mut Lcg, ops: usize) -> OpTrace {
    let mut b = TraceBuilder::new(ins);
    let max_level = ins.max_level();
    let mut live: Vec<(CtId, usize)> = (0..3)
        .map(|_| {
            let level = rng.next() % (max_level + 1);
            (b.fresh_ct(level), level)
        })
        .collect();
    let mut emitted = 0usize;
    while emitted < ops {
        if rng.next().is_multiple_of(9) {
            b.set_bootstrap_region(rng.next().is_multiple_of(2));
        }
        let (a, la) = live[rng.next() % live.len()];
        let (c, lc) = live[rng.next() % live.len()];
        let level = la.min(lc);
        let (out, out_level) = match rng.next() % 10 {
            0 => (b.hmult_at(a, a, la), la),
            1 => (b.hmult_at(a, c, level), level),
            2 | 3 => {
                // A forwarded chain: each intermediate has exactly one
                // consumer, the next op.
                let rot = b.hrot(a, (rng.next() % 64) as i64 - 32, la);
                let prod = b.pmult(rot, la);
                emitted += 2;
                (b.hadd(c, prod, level), level)
            }
            4 => (b.hrescale_at(a, la), la.saturating_sub(1)),
            5 => (b.hadd(a, c, level), level),
            6 => (b.conjugate(a, la), la),
            7 => (b.mod_raise(a, max_level), max_level),
            8 => {
                // A dead output: produced, never read.
                b.cmult(a, la);
                emitted += 1;
                (b.padd(c, lc), lc)
            }
            _ => (b.cadd(a, la), la),
        };
        emitted += 1;
        live.push((out, out_level));
        if live.len() > 12 {
            live.remove(rng.next() % live.len());
        }
    }
    b.build()
}

/// Injective relabellings of ciphertext ids, from dense to hostile.
#[derive(Debug, Clone, Copy)]
enum IdMap {
    /// Builder ids as they are: every id is its own slot.
    Compact,
    /// Spaced 2⁴⁰ apart: order kept, far too sparse to index by id.
    Spaced,
    /// Counted down from `u64::MAX`: order reversed.
    FromMax,
    /// Multiplied by an odd constant: order scrambled across all of `u64`.
    Scattered,
}

impl IdMap {
    const ALL: [IdMap; 4] = [
        IdMap::Compact,
        IdMap::Spaced,
        IdMap::FromMax,
        IdMap::Scattered,
    ];

    fn apply(self, id: CtId) -> CtId {
        match self {
            IdMap::Compact => id,
            IdMap::Spaced => id << 40,
            IdMap::FromMax => u64::MAX - id,
            IdMap::Scattered => id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn relabel(self, trace: &mut Raw) {
        for (id, _) in &mut trace.inputs {
            *id = self.apply(*id);
        }
        for op in &mut trace.ops {
            for id in &mut op.inputs {
                *id = self.apply(*id);
            }
            if let Some(out) = &mut op.output {
                *out = self.apply(*out);
            }
        }
    }
}

/// Scratchpad sizes from "smaller than the temporaries, so the ciphertext
/// cache has capacity 0" through "a few ciphertexts" to "everything fits".
const SCRATCHPADS_MIB: [u64; 7] = [64, 200, 256, 320, 512, 1024, 64 * 1024];

fn simulator(ins: &CkksInstance, rng: &mut Lcg) -> Simulator {
    let mib = SCRATCHPADS_MIB[rng.next() % SCRATCHPADS_MIB.len()];
    Simulator::new(
        BtsConfig::bts_default().with_scratchpad_bytes(mib * 1024 * 1024),
        ins.clone(),
    )
}

/// Every field of a serial report, floats as their bits, under its name — so
/// two reports compare exactly and a mismatch says where.
fn report_bits(report: &SimReport) -> Vec<(String, u64)> {
    assert!(report.scheduled_seconds.is_none() && report.critical_path_seconds.is_none());
    let mut bits: Vec<(String, u64)> = [
        ("total_seconds", report.total_seconds.to_bits()),
        ("bootstrap_seconds", report.bootstrap_seconds.to_bits()),
        ("hbm_bytes", report.hbm_bytes),
        ("evk_bytes", report.evk_bytes),
        ("ct_miss_bytes", report.ct_miss_bytes),
        ("cache_hits", report.cache_hits as u64),
        ("cache_misses", report.cache_misses as u64),
        ("ntt_utilization", report.ntt_utilization.to_bits()),
        ("bconv_utilization", report.bconv_utilization.to_bits()),
        ("hbm_utilization", report.hbm_utilization.to_bits()),
        (
            "elementwise_utilization",
            report.elementwise_utilization.to_bits(),
        ),
        ("scratchpad_peak_bytes", report.scratchpad_peak_bytes),
        ("energy_j", report.energy_j.to_bits()),
        ("area_mm2", report.area_mm2.to_bits()),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect();
    for (op, stats) in &report.per_op {
        bits.push((format!("{op:?}.count"), stats.count as u64));
        bits.push((format!("{op:?}.seconds"), stats.seconds.to_bits()));
    }
    bits
}

/// Everything the trace's tables feed, against the oracle, on one valid
/// trace given by id.
fn assert_matches_oracle(sim: &Simulator, raw: &Raw) -> Result<(), TestCaseError> {
    let trace = &raw.build();
    prop_assert_eq!(trace.validate(), Ok(()));
    prop_assert_eq!(oracle::validate(raw), Ok(()));

    use oracle::Policy;
    let timings = |policy| oracle::op_timings(sim, raw, policy).unwrap();
    let lru = sim.op_timings_lru(trace).unwrap();
    prop_assert_eq!(&lru, &timings(Policy::Lru));
    let belady = timings(Policy::NextUse(oracle::exact_key));
    let policy = sim.op_timings(trace).unwrap();
    prop_assert_eq!(&policy, &timings(Policy::NextUse(oracle::three_value_key)));

    // The streamed reports: each sweep folds its timings as it produces
    // them, to the bits of a second pass over the collected vector — and the
    // conservation laws (ROADMAP 5(c)): what the ops were charged is what
    // the report totals.
    let streamed = [
        (sim.try_run(trace).unwrap(), &policy),
        (sim.try_run_belady(trace).unwrap(), &belady),
        (sim.try_run_lru(trace).unwrap(), &lru),
    ];
    for (report, collected) in &streamed {
        prop_assert_eq!(
            report_bits(report),
            report_bits(&oracle::fold(sim, raw, collected))
        );
        let sum = |field: fn(&OpTiming) -> u64| collected.iter().map(field).sum::<u64>();
        prop_assert_eq!(sum(|t| t.hbm_bytes), report.hbm_bytes);
        prop_assert_eq!(sum(|t| t.miss_bytes), report.ct_miss_bytes);
        prop_assert_eq!(sum(|t| t.cache_hits as u64), report.cache_hits as u64);
        prop_assert_eq!(sum(|t| t.cache_misses as u64), report.cache_misses as u64);
    }
    let [(report, _), ..] = &streamed;

    // The planner's sweep: its sink sees exactly `op_timings`, its report is
    // `try_run`'s, and the plan written from the sink is the plan built from
    // the collected timings.
    let machine = MachineModel::from_config(sim.config());
    let mut seen = Vec::with_capacity(trace.len());
    let indexed_report = sim
        .run_indexed(trace, |_, timing| seen.push(*timing))
        .unwrap();
    prop_assert_eq!(&seen, &policy);
    prop_assert_eq!(report_bits(&indexed_report), report_bits(report));
    let (plan, plan_report) = JobPlan::from_trace(sim, trace).unwrap();
    prop_assert_eq!(&plan, &JobPlan::new(&machine, trace, &policy).unwrap());
    prop_assert_eq!(report_bits(&plan_report), report_bits(report));

    // The dependences, read back by id off the trace's tables, edge for
    // edge, and the schedule built on the trace.
    let (producers, segment) = oracle::dag(raw);
    prop_assert_eq!(Deps::of(trace), Deps { producers, segment });
    let run = sim.try_run_scheduled(trace).unwrap();
    let expected = list_oracle::list_schedule(&machine, trace, &policy);
    let timeline = list_oracle::timeline(sim, trace);
    list_oracle::check_equal(&timeline, &expected).map_err(TestCaseError::Fail)?;
    list_oracle::check_summary(&run.schedule, &timeline).map_err(TestCaseError::Fail)?;
    Ok(())
}

/// The tables of a relabelled trace are the compact trace's: on the same
/// charges the same critical chain and schedule (the same plan outright
/// once the relabelling keeps id order), the same reuse code at every
/// access, the same operand slots once the relabelling keeps id order.
fn assert_same_tables(
    sim: &Simulator,
    compact: &OpTrace,
    relabelled: &OpTrace,
    map: IdMap,
) -> Result<(), TestCaseError> {
    let keeps_order = matches!(map, IdMap::Compact | IdMap::Spaced);
    let machine = MachineModel::from_config(sim.config());
    let timings = sim.op_timings(compact).unwrap();
    let plan = |trace| JobPlan::new(&machine, trace, &timings).unwrap();
    let (a, b) = (plan(compact), plan(relabelled));
    prop_assert_eq!(a.critical_path_ops(), b.critical_path_ops());
    prop_assert_eq!(
        a.critical_path_seconds().to_bits(),
        b.critical_path_seconds().to_bits()
    );
    if keeps_order {
        prop_assert_eq!(&a, &b);
    }
    let alone = |trace| schedule_jobs(machine, &[(0, trace, &timings[..], 0.0)]);
    prop_assert_eq!(alone(compact), alone(relabelled));
    for (a, b) in compact.ops().zip(relabelled.ops()) {
        let ids =
            |t: &OpTrace, slots: &[u32]| slots.iter().map(|&s| t.id_of(s)).collect::<Vec<_>>();
        let mapped: Vec<CtId> = ids(compact, a.operands)
            .into_iter()
            .map(|id| map.apply(id))
            .collect();
        prop_assert_eq!(mapped, ids(relabelled, b.operands));
        if keeps_order {
            prop_assert_eq!(a.operands, b.operands);
        }
        for k in (0..a.operands.len()).map(Some).chain([None]) {
            prop_assert_eq!(compact.reuse(&a, k), relabelled.reuse(&b, k));
        }
    }
    Ok(())
}

/// Every entry point must report the oracle's error — the first defect in
/// program order — for a malformed trace.
fn assert_same_error(sim: &Simulator, raw: &Raw) -> Result<(), TestCaseError> {
    let expected = oracle::validate(raw).expect_err("the trace was broken on purpose");
    let trace = &raw.build();
    prop_assert_eq!(trace.validate(), Err(expected.clone()));
    prop_assert_eq!(sim.try_run(trace).err(), Some(expected.clone()));
    prop_assert_eq!(sim.try_run_belady(trace).err(), Some(expected.clone()));
    prop_assert_eq!(sim.try_run_lru(trace).err(), Some(expected.clone()));
    prop_assert_eq!(sim.op_timings(trace).err(), Some(expected.clone()));
    prop_assert_eq!(
        sim.run_indexed(trace, |_, _| {}).err(),
        Some(expected.clone())
    );
    prop_assert_eq!(
        JobPlan::from_trace(sim, trace).err(),
        Some(expected.clone())
    );
    let machine = MachineModel::from_config(sim.config());
    let timings = vec![OpTiming::default(); trace.len()];
    prop_assert_eq!(
        JobPlan::new(&machine, trace, &timings).err(),
        Some(ScheduleError::Trace(expected.clone()))
    );
    prop_assert_eq!(sim.try_run_scheduled(trace).err(), Some(expected));
    Ok(())
}

/// An id the trace does not mention.
fn unused_id(trace: &Raw, rng: &mut Lcg) -> CtId {
    let used = |id: CtId| {
        trace.inputs.iter().any(|&(input, _)| input == id)
            || trace
                .ops
                .iter()
                .any(|op| op.inputs.contains(&id) || op.output == Some(id))
    };
    loop {
        let id = match rng.next() % 3 {
            0 => rng.next() as u64 % 64,
            1 => u64::MAX - rng.next() as u64 % 64,
            _ => (rng.next() as u64) << 31 | rng.next() as u64,
        };
        if !used(id) {
            return id;
        }
    }
}

/// One defect of each kind `validate` knows, injected at a random place.
#[derive(Debug, Clone, Copy)]
enum Defect {
    DanglingInput,
    UseBeforeDefinition,
    DuplicateOutput,
    Level,
    InputLevel,
}

impl Defect {
    const ALL: [Defect; 5] = [
        Defect::DanglingInput,
        Defect::UseBeforeDefinition,
        Defect::DuplicateOutput,
        Defect::Level,
        Defect::InputLevel,
    ];

    fn inject(self, trace: &mut Raw, rng: &mut Lcg) {
        let max_level = trace.instance.max_level();
        let at = rng.next() % trace.ops.len();
        match self {
            Defect::DanglingInput => {
                let id = unused_id(trace, rng);
                let op = &mut trace.ops[at];
                let k = rng.next() % op.inputs.len();
                op.inputs[k] = id;
            }
            Defect::UseBeforeDefinition => {
                // Op `at` reads what a later (or the same) op defines.
                let later = at + rng.next() % (trace.ops.len() - at);
                let id = trace.ops[later].output.expect("builder ops have outputs");
                let op = &mut trace.ops[at];
                let k = rng.next() % op.inputs.len();
                op.inputs[k] = id;
            }
            Defect::DuplicateOutput => {
                // Redefine a trace input or an earlier op's output.
                let id = if at == 0 || rng.next().is_multiple_of(3) {
                    trace.inputs[rng.next() % trace.inputs.len()].0
                } else {
                    trace.ops[rng.next() % at].output.expect("has output")
                };
                trace.ops[at].output = Some(id);
            }
            Defect::Level => trace.ops[at].level = max_level + 1 + rng.next() % 5,
            Defect::InputLevel => {
                let k = rng.next() % trace.inputs.len();
                trace.inputs[k].1 = max_level + 1 + rng.next() % 5;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweeps_and_dag_equal_the_hash_map_reference(
        seed in any::<u64>(),
        ops in 1usize..160,
    ) {
        let mut rng = Lcg::new(seed);
        let ins = [CkksInstance::ins1(), CkksInstance::ins2(), CkksInstance::ins3()]
            [rng.next() % 3]
            .clone();
        let compact = rich_trace(&ins, &mut rng, ops);
        let sim = simulator(&ins, &mut rng);
        for map in IdMap::ALL {
            let mut raw = Raw::of(&compact);
            map.relabel(&mut raw);
            assert_matches_oracle(&sim, &raw)?;
            assert_same_tables(&sim, &compact, &raw.build(), map)?;
        }
    }

    #[test]
    fn no_sweep_beats_the_optimum(seed in any::<u64>(), ops in 1usize..160) {
        let mut rng = Lcg::new(seed);
        let ins = [CkksInstance::ins1(), CkksInstance::ins2(), CkksInstance::ins3()]
            [rng.next() % 3]
            .clone();
        let trace = rich_trace(&ins, &mut rng, ops);
        for mib in SCRATCHPADS_MIB {
            let sim = Simulator::new(
                BtsConfig::bts_default().with_scratchpad_bytes(mib * 1024 * 1024),
                ins.clone(),
            );
            let optimum = cache_optimum::least_miss_bytes(&sim, &trace)
                .unwrap_or_else(|e| panic!("more than 12 live values at op {}", e.op));
            // Plaintext operands stream under every policy.
            let timings = sim.op_timings(&trace).unwrap();
            let plaintext: u64 = timings.iter().map(|t| t.cost.operand_bytes).sum();
            for run in [Simulator::try_run, Simulator::try_run_lru, Simulator::try_run_belady] {
                let capacity_misses = run(&sim, &trace).unwrap().ct_miss_bytes - plaintext;
                prop_assert!(optimum <= capacity_misses, "{mib} MiB: {optimum} > {capacity_misses}");
            }
        }
    }

    #[test]
    fn extended_traces_equal_the_reference(seed in any::<u64>(), ops in 1usize..60) {
        let mut rng = Lcg::new(seed);
        let ins = CkksInstance::ins1();
        let mut trace = rich_trace(&ins, &mut rng, ops);
        for longest in [60, 20] {
            let ops = 1 + rng.next() % longest;
            trace.extend(&rich_trace(&ins, &mut rng, ops));
        }
        let sim = simulator(&ins, &mut rng);
        let mut raw = Raw::of(&trace);
        assert_matches_oracle(&sim, &raw)?;
        // Relabelled *after* the splice, so `extend`'s id shift stays in range.
        IdMap::Scattered.relabel(&mut raw);
        assert_matches_oracle(&sim, &raw)?;
    }

    #[test]
    fn malformed_traces_return_the_identical_error(seed in any::<u64>(), ops in 1usize..80) {
        let mut rng = Lcg::new(seed);
        let ins = CkksInstance::ins1();
        let mut valid = Raw::of(&rich_trace(&ins, &mut rng, ops));
        IdMap::ALL[rng.next() % 4].relabel(&mut valid);
        let sim = simulator(&ins, &mut rng);
        for defect in Defect::ALL {
            let mut trace = valid.clone();
            defect.inject(&mut trace, &mut rng);
            if oracle::validate(&trace).is_ok() {
                // E.g. a "use before definition" that picked the op's own
                // operand's producer; nothing was broken.
                continue;
            }
            assert_same_error(&sim, &trace)?;
            // A second defect elsewhere: the earlier one in program order wins.
            Defect::ALL[rng.next() % 5].inject(&mut trace, &mut rng);
            assert_same_error(&sim, &trace)?;
            // The trace's tables still read back the ids it was built from:
            // its dependences by id are the reference's wherever no id is
            // defined twice.
            let deps = Deps::of(&trace.build());
            prop_assert_eq!(deps.segment.len(), trace.ops.len());
            let redefinition = trace.ops.iter().enumerate().any(|(i, op)| {
                op.output.is_some_and(|out| {
                    trace.inputs.iter().any(|&(id, _)| id == out)
                        || trace.ops[..i].iter().any(|p| p.output == Some(out))
                })
            });
            if !redefinition {
                let (producers, segment) = oracle::dag(&trace);
                prop_assert_eq!(deps, Deps { producers, segment });
            }
        }
    }
}

/// A hand-built hostile trace: ids at `u64::MAX` and spaced 2⁴⁰ apart,
/// built through `OpTrace::from_ops`, validate, simulate (LRU, reuse code,
/// exact next use) and schedule exactly as the hash maps did.
#[test]
fn hand_built_hostile_ids_match_the_reference() {
    let ins = CkksInstance::ins1();
    let top = ins.max_level();
    let op = |op: HeOp, level: usize, inputs: &[CtId], output: CtId| Op {
        op,
        level,
        inputs: inputs.to_vec(),
        output: Some(output),
        in_bootstrap: false,
    };
    let (x, y) = (u64::MAX, 1u64 << 40);
    let spaced = |k: u64| k << 40;
    let mut ops = vec![
        op(HeOp::HMult, top, &[x, x], spaced(2)),
        op(HeOp::HRot, top, &[spaced(2)], spaced(3)), // forwarded into the pmult
        op(HeOp::PMult, top, &[spaced(3)], u64::MAX - 1),
        op(HeOp::HAdd, top, &[u64::MAX - 1, y], spaced(4)),
    ];
    // Eight long-lived top-level ciphertexts read round-robin: more than the
    // 512 MiB scratchpad holds, so LRU thrashes and the next-use cache has
    // to choose.
    let pool: Vec<CtId> = (0..8u64)
        .map(|k| {
            if k % 2 == 0 {
                spaced(10 + k)
            } else {
                u64::MAX - 10 - k
            }
        })
        .collect();
    for round in 0..4u64 {
        for (k, pair) in pool.windows(2).enumerate() {
            let out = spaced(100 + 10 * round + k as u64);
            ops.push(op(HeOp::HMult, top, pair, out));
            ops.push(op(HeOp::HAdd, top - 3, &[out, y], u64::MAX - out));
        }
    }
    let mut inputs = vec![x, y];
    inputs.extend(&pool);
    let raw = Raw {
        instance: ins.clone(),
        inputs: inputs.iter().map(|&id| (id, top)).collect(),
        ops,
        rotation_keys: 1,
    };
    for mib in [200u64, 512, 64 * 1024] {
        let sim = Simulator::new(
            BtsConfig::bts_default().with_scratchpad_bytes(mib * 1024 * 1024),
            ins.clone(),
        );
        assert_matches_oracle(&sim, &raw).expect("hostile ids match the reference");
    }
    let trace = raw.build();
    let sim = Simulator::new(BtsConfig::bts_default(), ins);
    let lru = sim.try_run_lru(&trace).unwrap();
    let policy = sim.try_run(&trace).unwrap();
    assert!(
        policy.cache_misses > trace.inputs().len(),
        "the trace does put the cache under pressure"
    );
    assert!(policy.cache_misses < lru.cache_misses);
    assert!(sim.try_run_belady(&trace).unwrap().cache_misses <= policy.cache_misses);
}

/// The reuse code's `Never` is the bit `compile` already computes for the
/// functional register file: on a circuit that lowers op for op (no bootstrap
/// expansion) an operand access is coded `Never` exactly where the bytecode
/// frees that operand's register — `free_a` / `free_b`, with a repeated
/// operand (`hmult(x, x)`) freed once, on its last access.
#[test]
fn never_coincides_with_the_bytecodes_free_at_last_use() {
    use bts::circuit::{compile, CircuitBuilder, TraceBackend, Workload};
    use bts::sim::Reuse;
    use bts::workloads::{HelrConfig, HelrWorkload};

    let ins = CkksInstance::toy(12, 13, 2);
    let mut b = CircuitBuilder::new(&ins);
    let (x, y) = (b.input(), b.input());
    let square = b.hmult(x, x).unwrap(); // x dies on its second access
    let square = b.rescale(square).unwrap();
    let rotated = b.hrot(square, 3).unwrap();
    let masked = b.pmult(rotated, 0.5).unwrap();
    let kept = b.pmult(square, 0.25).unwrap(); // square dies here, not above
    let sum = b.hadd(masked, kept).unwrap();
    let sum = b.rescale(sum).unwrap();
    let out = b.hmult(sum, y).unwrap();
    b.output(out);
    let helr_mini = HelrWorkload::new(HelrConfig {
        iterations: 1,
        batch: 8,
        features: 4,
    });
    let helr_mini = helr_mini
        .build(&ins)
        .expect("the mini circuit fits the toy budget");

    for circuit in [b.build(), helr_mini] {
        let compiled = compile(&circuit).unwrap();
        let lowered = TraceBackend::new().lower_compiled(&compiled).unwrap();
        assert_eq!(lowered.bootstrap_count, 0);
        assert_eq!(lowered.trace.len(), compiled.ops.len(), "op for op");
        let trace = &lowered.trace;
        let mut freed = 0usize;
        for (op, code) in trace.ops().zip(&compiled.ops) {
            let never = |k: usize| trace.reuse(&op, Some(k)) == Reuse::Never;
            let binary = op.operands.len() == 2;
            let repeated = binary && op.operands[0] == op.operands[1];
            let (dead_a, dead_b) = match (binary, repeated) {
                (false, _) => (never(0), false),
                (true, false) => (never(0), never(1)),
                // One register, freed once — via `free_a` — when the second
                // access is the last; the first is re-read at once.
                (true, true) => {
                    assert_eq!(trace.reuse(&op, Some(0)), Reuse::Next);
                    (never(1), false)
                }
            };
            assert_eq!(
                (code.free_a, code.free_b),
                (dead_a, dead_b),
                "op {}",
                op.index
            );
            freed += usize::from(dead_a) + usize::from(dead_b);
        }
        assert!(freed > 0);
    }
}
