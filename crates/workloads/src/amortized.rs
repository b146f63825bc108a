use bts_circuit::{CircuitBuilder, CircuitError, HeCircuit, Workload};
use bts_params::{CkksInstance, L_BOOT};
use bts_sim::{SimReport, Simulator};

/// The `T_mult,a/slot` microbenchmark (Eq. 8) as an [`HeCircuit`] generator:
/// one bootstrap followed by an HMult + Rescale at every usable level from
/// `L - L_boot` down to 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AmortizedMultWorkload;

impl Workload for AmortizedMultWorkload {
    fn name(&self) -> &str {
        "amortized-mult"
    }

    fn build(&self, instance: &CkksInstance) -> Result<HeCircuit, CircuitError> {
        let mut b = CircuitBuilder::new(instance);
        let exhausted = b.input_at(0);
        let mut cur = b.bootstrap(exhausted)?;
        let usable = b.level_of(cur);
        for _ in 0..usable {
            let prod = b.hmult(cur, cur)?;
            cur = b.rescale(prod)?;
        }
        b.output(cur);
        Ok(b.build())
    }
}

/// Runs the microbenchmark on a simulator and returns
/// `(T_mult,a/slot in seconds, the underlying report)`:
/// total time divided by the usable levels and the N/2 slots (Eq. 8).
///
/// # Panics
///
/// Panics if the simulator's instance cannot bootstrap (level budget below
/// `L_boot`) — the microbenchmark is only defined for bootstrappable
/// instances.
pub fn amortized_mult_per_slot(simulator: &Simulator) -> (f64, SimReport) {
    let instance = simulator.instance().clone();
    let lowered = AmortizedMultWorkload
        .lower(&instance)
        .expect("amortized-mult requires a bootstrappable instance");
    let report = simulator.run(&lowered.trace);
    let usable = (instance.max_level() - L_BOOT) as f64;
    let per_slot = report.total_seconds / usable * 2.0 / instance.n() as f64;
    (per_slot, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_sim::BtsConfig;

    #[test]
    fn ins2_achieves_best_amortized_mult_time() {
        // Fig. 6 / Fig. 7a: INS-2 gives the best T_mult,a/slot; all three
        // instances land in the tens-of-nanoseconds regime (the paper reports
        // 45.5 ns best-case with the 512 MiB scratchpad).
        let results: Vec<(String, f64)> = CkksInstance::evaluation_set()
            .into_iter()
            .map(|ins| {
                let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
                let (t, _) = amortized_mult_per_slot(&sim);
                (ins.name().to_string(), t * 1e9)
            })
            .collect();
        let get = |name: &str| results.iter().find(|(n, _)| n == name).unwrap().1;
        let (i1, i2, i3) = (get("INS-1"), get("INS-2"), get("INS-3"));
        assert!(i2 < i1, "INS-2 ({i2} ns) should beat INS-1 ({i1} ns)");
        assert!(i2 < i3, "INS-2 ({i2} ns) should beat INS-3 ({i3} ns)");
        for (name, t) in &results {
            assert!(
                (10.0..300.0).contains(t),
                "{name}: T_mult,a/slot = {t} ns out of the expected regime"
            );
        }
    }

    #[test]
    fn bigger_scratchpad_never_hurts() {
        // Fig. 7a: the 2 GiB scratchpad gets close to the minimum bound.
        let ins = CkksInstance::ins1();
        let small = Simulator::new(
            BtsConfig::bts_default().with_scratchpad_bytes(256 * 1024 * 1024),
            ins.clone(),
        );
        let big = Simulator::new(
            BtsConfig::bts_default().with_scratchpad_bytes(2 * 1024 * 1024 * 1024),
            ins,
        );
        let (t_small, _) = amortized_mult_per_slot(&small);
        let (t_big, _) = amortized_mult_per_slot(&big);
        assert!(t_big <= t_small);
    }

    #[test]
    fn trace_contains_exactly_one_bootstrap_region() {
        let ins = CkksInstance::ins1();
        let lowered = AmortizedMultWorkload.lower(&ins).unwrap();
        assert_eq!(lowered.bootstrap_count, 1);
        let trace = &lowered.trace;
        let boot_ops = trace.ops().filter(|o| o.in_bootstrap).count();
        assert!(boot_ops > 0 && boot_ops < trace.len());
        // usable levels worth of HMults outside the bootstrap region
        let mults_outside = trace
            .ops()
            .filter(|o| !o.in_bootstrap && o.op == bts_sim::HeOp::HMult)
            .count();
        assert_eq!(mults_outside, ins.max_level() - L_BOOT);
    }

    #[test]
    fn toy_instances_cannot_run_the_microbenchmark() {
        let toy = CkksInstance::toy(11, 6, 2);
        assert!(AmortizedMultWorkload.build(&toy).is_err());
    }
}
