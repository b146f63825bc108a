//! The hash-map reference the dense simulation kernel is held to: a trace
//! by ciphertext id ([`Raw`]), the bodies the index replaced ([`oracle`]),
//! a seeded generator ([`Lcg`]), the id relabellings ([`IdMap`]) the
//! suites run every case under, and a report as comparable bits
//! ([`report_bits`]). `#[path]`-included as `sim_reference` by
//! `property_sim_index.rs` and `property_read_window.rs`.

use bts::params::CkksInstance;
use bts::sim::{CtId, HeOp, OpTrace, RawOp, SimReport};

/// One op of a [`Raw`] trace.
#[derive(Debug, Clone)]
pub struct Op {
    pub op: HeOp,
    pub level: usize,
    pub inputs: Vec<CtId>,
    pub output: Option<CtId>,
    pub in_bootstrap: bool,
}

/// A trace by ciphertext id, owned: what the cases relabel and break, and
/// what the oracle reads.
#[derive(Debug, Clone)]
pub struct Raw {
    pub instance: CkksInstance,
    pub inputs: Vec<(CtId, usize)>,
    pub ops: Vec<Op>,
    pub rotation_keys: usize,
}

impl Raw {
    /// A built trace, read back by id.
    #[allow(dead_code)] // `property_read_window` builds its cases by id
    pub fn of(trace: &OpTrace) -> Self {
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
    pub fn build(&self) -> OpTrace {
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
pub mod oracle {
    use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

    use bts::sim::{
        ticks, AreaPowerModel, ByteTicks, CtId, HeOp, OpCharge, OpClassStats, OpTiming, Reuse,
        SimReport, Simulator, TraceError,
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

    /// One op's accesses as the scratchpad is told about them: per operand,
    /// then for the output, the reuse code and whether the value is
    /// forwarded rather than cached.
    pub type OpCodes = (Vec<(Reuse, bool)>, (Reuse, bool));

    /// The reuse code and forwarding bit of every access, derived as the
    /// engine derived them on each access before the trace stored them, from
    /// the ids' use positions: an operand read is `Next` if a later operand
    /// of its op or an operand of the next op reads the same id, else
    /// `Never` if its op is the id's last use, else `Later`; an output is
    /// `Never` if nothing reads it, `Next` if the next op reads it first,
    /// else `Later`. A value is forwarded if it is an output read once, by
    /// the next op ([`forwarded_ids`]).
    #[allow(dead_code)] // `property_read_window` does not read the codes
    pub fn reuse_codes(trace: &Raw) -> Vec<OpCodes> {
        let forwarded = forwarded_ids(trace);
        let mut use_positions: HashMap<CtId, Vec<u32>> = HashMap::new();
        for (i, op) in (0u32..).zip(&trace.ops) {
            for &id in &op.inputs {
                use_positions.entry(id).or_default().push(i);
            }
        }
        let first_use = |id| use_positions.get(&id).map_or(u32::MAX, |uses| uses[0]);
        let last_use = |id| use_positions.get(&id).and_then(|uses| uses.last().copied());
        let no_inputs: &[CtId] = &[];
        (0u32..)
            .zip(&trace.ops)
            .map(|(i, op)| {
                let next_inputs = trace
                    .ops
                    .get(i as usize + 1)
                    .map_or(no_inputs, |n| &n.inputs);
                let operands = op.inputs.iter().enumerate().map(|(k, &id)| {
                    let mut following = op.inputs[k + 1..].iter().chain(next_inputs);
                    let code = if following.any(|&read| read == id) {
                        Reuse::Next
                    } else if last_use(id) == Some(i) {
                        Reuse::Never
                    } else {
                        Reuse::Later
                    };
                    (code, forwarded.contains(&id))
                });
                let output = op.output.map_or((Reuse::Never, false), |out| {
                    let code = match first_use(out) {
                        u32::MAX => Reuse::Never,
                        first if first == i + 1 => Reuse::Next,
                        _ => Reuse::Later,
                    };
                    (code, forwarded.contains(&out))
                });
                (operands.collect(), output)
            })
            .collect()
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
        let byte_ticks = ByteTicks::new(sim.config().hbm.bytes_per_sec()).expect("a valid config");
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
            let hbm_ticks = byte_ticks.ticks(hbm_bytes);
            timings.push(OpTiming {
                cost: OpCharge::of(&cost),
                miss_bytes,
                hbm_bytes,
                hbm_ticks,
                ticks: OpCharge::of(&cost).compute_ticks.max(hbm_ticks),
                cache_hits: hits,
                cache_misses: misses,
                scratch_bytes: cost.temp_bytes + cache.used_bytes(),
            });
        }
        Ok(timings)
    }

    /// The report as a second pass over collected timings — how the engine
    /// folded before its sweeps streamed into the report — with the
    /// per-class sums as `BTreeMap` entries in program order, in ticks, each
    /// converted to seconds once (`bts::sim::ticks::seconds`).
    pub fn fold(sim: &Simulator, trace: &Raw, timings: &[OpTiming]) -> SimReport {
        assert_eq!(timings.len(), trace.ops.len());
        let mut total = 0u64;
        let mut bootstrap = 0u64;
        let mut per_class: BTreeMap<HeOp, (usize, u64)> = BTreeMap::new();
        let (mut evk_bytes, mut ct_miss_bytes) = (0u64, 0u64);
        let (mut hits, mut misses) = (0usize, 0usize);
        let (mut ntt_busy, mut bconv_busy, mut ew_busy) = (0u64, 0u64, 0u64);
        let mut peak_scratch = 0u64;
        for (traced, timing) in trace.ops.iter().zip(timings) {
            total += timing.ticks;
            if traced.in_bootstrap {
                bootstrap += timing.ticks;
            }
            let class = per_class.entry(traced.op).or_default();
            class.0 += 1;
            class.1 += timing.ticks;
            evk_bytes += timing.cost.evk_bytes;
            ct_miss_bytes += timing.miss_bytes;
            hits += timing.cache_hits;
            misses += timing.cache_misses;
            ntt_busy += timing.cost.ntt_ticks;
            bconv_busy += timing.cost.bconv_ticks;
            ew_busy += timing.cost.elementwise_ticks;
            peak_scratch = peak_scratch.max(timing.scratch_bytes);
        }
        let per_op = per_class
            .into_iter()
            .map(|(op, (count, class))| {
                let seconds = ticks::seconds(class);
                (op, OpClassStats { count, seconds })
            })
            .collect();
        let total = ticks::seconds(total);
        let hbm_bytes = evk_bytes + ct_miss_bytes;
        let share = |busy: f64| if total > 0.0 { busy / total } else { 0.0 };
        let hbm_util = share(hbm_bytes as f64 / sim.config().hbm.bytes_per_sec());
        let [ntt_util, bconv_util, ew_util] =
            [ntt_busy, bconv_busy, ew_busy].map(|busy| share(ticks::seconds(busy)));
        let chip =
            AreaPowerModel::bts_default().with_scratchpad_bytes(sim.config().scratchpad_bytes);
        SimReport {
            total_seconds: total,
            bootstrap_seconds: ticks::seconds(bootstrap),
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

    /// Op `op`'s charge as the engine made it before ticks: in seconds,
    /// `max(compute, hbm bytes / bandwidth)`.
    #[allow(dead_code)] // the tick-bound property only
    pub fn charge_seconds(sim: &Simulator, op: &super::Op, timing: &OpTiming) -> f64 {
        let hbm_seconds = timing.hbm_bytes as f64 / sim.config().hbm.bytes_per_sec();
        sim.op_cost(op.op, op.level)
            .compute_seconds
            .max(hbm_seconds)
    }

    /// The report's times as the engine folded them before ticks: the
    /// [`charge_seconds`] of each op summed in program order — total,
    /// bootstrap, and per class.
    #[allow(dead_code)] // the tick-bound property only
    pub fn fold_seconds(
        sim: &Simulator,
        trace: &Raw,
        timings: &[OpTiming],
    ) -> (f64, f64, BTreeMap<HeOp, f64>) {
        let (mut total, mut bootstrap) = (0.0f64, 0.0f64);
        let mut per_op: BTreeMap<HeOp, f64> = BTreeMap::new();
        for (traced, timing) in trace.ops.iter().zip(timings) {
            let seconds = charge_seconds(sim, traced, timing);
            total += seconds;
            if traced.in_bootstrap {
                bootstrap += seconds;
            }
            *per_op.entry(traced.op).or_default() += seconds;
        }
        (total, bootstrap, per_op)
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
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Self(
            seed.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        )
    }

    pub fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }
}

/// Injective relabellings of ciphertext ids, from dense to hostile.
#[derive(Debug, Clone, Copy)]
pub enum IdMap {
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
    pub const ALL: [IdMap; 4] = [
        IdMap::Compact,
        IdMap::Spaced,
        IdMap::FromMax,
        IdMap::Scattered,
    ];

    pub fn apply(self, id: CtId) -> CtId {
        match self {
            IdMap::Compact => id,
            IdMap::Spaced => id << 40,
            IdMap::FromMax => u64::MAX - id,
            IdMap::Scattered => id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    pub fn relabel(self, trace: &mut Raw) {
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

/// Every field of a serial report, floats as their bits, under its name — so
/// two reports compare exactly and a mismatch says where.
pub fn report_bits(report: &SimReport) -> Vec<(String, u64)> {
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
