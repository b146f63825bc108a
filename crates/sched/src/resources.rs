//! The machine model the scheduler packs ops onto: one exclusive channel
//! per functional-unit class of the BTS chip, with per-op occupancy taken
//! from the engine's cost breakdowns.

use bts_sim::{BtsConfig, FuKind, OpTiming};

/// How long one op keeps each functional-unit class busy, and the op's total
/// latency window, in ticks ([`bts_sim::ticks`]). All busy times are ≤ the
/// duration (the engine's serial charge is `max(compute, hbm)` and every
/// unit time is a component of it), so a reservation always fits inside the
/// op's execution window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct OpDemand {
    /// The op's latency window (the engine's serial charge), in ticks.
    pub duration: u64,
    /// Busy ticks per unit class, indexed by [`FuKind::index`].
    pub busy: [u64; FuKind::COUNT],
}

/// The resources of a [`BtsConfig`]: one exclusive channel per unit class,
/// because the `bts-sim` cost model already charges whole-chip rates per op.
/// A unit's utilization is therefore its reserved ticks over the makespan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineModel;

impl MachineModel {
    /// The machine model of a BTS configuration: one exclusive channel per
    /// unit class (costs are chip-wide aggregates).
    pub fn from_config(_config: &BtsConfig) -> Self {
        Self
    }

    /// Resource demand of one op, from the engine's per-op timing. Busy
    /// times are clamped into the op's latency window so a reservation can
    /// always be placed inside it.
    pub fn demand(&self, timing: &OpTiming) -> OpDemand {
        let duration = timing.ticks;
        let cost = &timing.cost;
        OpDemand {
            duration,
            busy: [
                cost.ntt_ticks,
                cost.bconv_ticks,
                cost.elementwise_charged_ticks,
                timing.hbm_ticks,
            ]
            .map(|busy| busy.min(duration)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_params::CkksInstance;
    use bts_sim::{Simulator, TraceBuilder};

    #[test]
    fn demands_fit_inside_the_latency_window() {
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        let m = b.hmult(x, x);
        let r = b.hrescale_at(m, 27);
        b.hadd(r, r, 26);
        let timings = sim.op_timings(&b.build()).unwrap();
        let machine = MachineModel::from_config(sim.config());
        for t in &timings {
            let d = machine.demand(t);
            assert!(d.duration > 0);
            for kind in FuKind::ALL {
                assert!(
                    d.busy[kind.index()] <= d.duration,
                    "{kind:?} busy exceeds window"
                );
            }
        }
    }

    #[test]
    fn key_switch_is_hbm_bound_with_ntt_slack() {
        // Fig. 8: an HMult at the top level saturates the HBM channel while
        // the NTTUs are ~76% busy — the slack the scheduler fills.
        let ins = CkksInstance::ins1();
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(27);
        b.hmult(x, x); // cold: streams the operand too
        b.hmult(x, x); // warm: pure evk stream, the Fig. 8 shape
        let timings = sim.op_timings(&b.build()).unwrap();
        let d = MachineModel::from_config(sim.config()).demand(&timings[1]);
        let hbm = d.busy[FuKind::Hbm.index()];
        let ntt = d.busy[FuKind::Nttu.index()];
        assert_eq!(hbm, d.duration, "evk stream sets the pace");
        assert!(2 * ntt > d.duration && 100 * ntt < 95 * d.duration);
    }
}
