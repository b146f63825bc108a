//! Online closed-form job-cost estimates.
//!
//! The shortest-job-first policy needs a service-time estimate *before* a job
//! runs. The oracle would be the cost model's full serial charge
//! ([`bts_sim::SimReport::total_seconds`]), but that number depends on the
//! scratchpad cache simulation — program-order residency, eviction pressure,
//! miss traffic — which a real admission controller cannot replay per queued
//! job. What it *can* do cheaply is count the compiled trace's ops and
//! multiply by a closed-form per-op charge: [`bts_sim::Simulator::op_cost`]
//! is cache-independent (compute occupancy plus mandatory evk/plaintext
//! streaming), so the estimate here is
//!
//! ```text
//! estimate = Σ over distinct (op, level) of
//!              count × max(compute_seconds, (evk + operand bytes) / HBM BW)
//! ```
//!
//! It differs from the oracle exactly by the cache-miss ciphertext traffic
//! the oracle adds to each op's HBM time — an underestimate that shrinks as
//! the scratchpad grows. On the paper's design point the registry workloads
//! keep the same SJF *ordering* under both charges (asserted by a test
//! below), which is all a ranking policy needs.

use std::collections::BTreeMap;

use bts_sim::{HeOp, OpTrace, Simulator};

/// Closed-form serial estimate for a lowered trace, in seconds: compiled op
/// counts × cache-independent per-op charges. Deterministic, no cache
/// simulation, `O(distinct (op, level) pairs)` calls into the cost model.
pub fn estimate_trace_seconds(simulator: &Simulator, trace: &OpTrace) -> f64 {
    let mut counts: BTreeMap<(HeOp, usize), usize> = BTreeMap::new();
    for op in trace.ops() {
        *counts.entry((op.op, op.level)).or_insert(0) += 1;
    }
    let hbm = simulator.config().hbm.bytes_per_sec();
    counts
        .iter()
        .map(|(&(op, level), &count)| {
            let cost = simulator.op_cost(op, level);
            let stream_seconds = (cost.evk_bytes + cost.operand_bytes) as f64 / hbm;
            count as f64 * cost.compute_seconds.max(stream_seconds)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_params::CkksInstance;
    use bts_sim::BtsConfig;
    use bts_workloads::standard_registry;

    /// (estimate, oracle) pairs for every registry workload at INS-1.
    fn charges() -> Vec<(String, f64, f64)> {
        let ins = CkksInstance::ins1();
        let registry = standard_registry();
        let simulator = Simulator::new(BtsConfig::bts_default(), ins.clone());
        registry
            .names()
            .into_iter()
            .map(|name| {
                let lowered = registry.get(name).unwrap().lower(&ins).unwrap();
                let estimate = estimate_trace_seconds(&simulator, &lowered.trace);
                let oracle = simulator.run(&lowered.trace).total_seconds;
                (name.to_string(), estimate, oracle)
            })
            .collect()
    }

    #[test]
    fn estimate_orders_registry_workloads_like_the_oracle() {
        // The satellite's acceptance test: SJF ranking under the online
        // estimate matches the ranking under the oracle serial charge for
        // all five registry workloads at INS-1.
        let rows = charges();
        let mut by_estimate: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
        by_estimate.sort_by(|a, b| {
            let ea = rows.iter().find(|r| r.0 == *a).unwrap().1;
            let eb = rows.iter().find(|r| r.0 == *b).unwrap().1;
            ea.partial_cmp(&eb).unwrap()
        });
        let mut by_oracle: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
        by_oracle.sort_by(|a, b| {
            let oa = rows.iter().find(|r| r.0 == *a).unwrap().2;
            let ob = rows.iter().find(|r| r.0 == *b).unwrap().2;
            oa.partial_cmp(&ob).unwrap()
        });
        assert_eq!(
            by_estimate, by_oracle,
            "online estimate reorders the registry workloads"
        );
    }

    #[test]
    fn estimate_is_a_lower_bound_within_reason() {
        // The estimate omits only cache-miss traffic, so it can never exceed
        // the oracle, and on the paper's 512 MiB design point it lands close.
        for (name, estimate, oracle) in charges() {
            assert!(estimate > 0.0, "{name} estimate must be positive");
            assert!(
                estimate <= oracle + 1e-12,
                "{name}: estimate {estimate} exceeds oracle {oracle}"
            );
            assert!(
                estimate >= oracle * 0.5,
                "{name}: estimate {estimate} is implausibly far below oracle {oracle}"
            );
        }
    }

    #[test]
    fn empty_trace_estimates_to_zero() {
        let ins = CkksInstance::ins1();
        let simulator = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let trace = bts_sim::TraceBuilder::new(&ins).build();
        assert_eq!(estimate_trace_seconds(&simulator, &trace), 0.0);
    }
}
