use crate::instance::CkksInstance;
use crate::L_BOOT;

/// Off-chip memory bandwidth model used by the minimum-bound analysis and by
/// the simulator's HBM model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    bytes_per_sec: f64,
}

impl BandwidthModel {
    /// An arbitrary aggregate bandwidth in bytes/second. Any value is held;
    /// the simulator's `BtsConfig::validate` refuses one it cannot stream at.
    pub fn new(bytes_per_sec: f64) -> Self {
        Self { bytes_per_sec }
    }

    /// The paper's default: two HBM2e stacks for an aggregate 1 TB/s (§3.4, §6.1).
    pub fn hbm_1tb() -> Self {
        Self::new(1.0e12)
    }

    /// The 2 TB/s variant evaluated in the Fig. 9 ablation.
    pub fn hbm_2tb() -> Self {
        Self::new(2.0e12)
    }

    /// Aggregate bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Time in seconds to stream `bytes` at full bandwidth.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bytes_per_sec
    }
}

impl Default for BandwidthModel {
    fn default() -> Self {
        Self::hbm_1tb()
    }
}

/// Minimum number of fully pipelined NTT units needed to hide all (i)NTT work
/// of one key-switching behind the evk load time (Eq. 10):
///
/// ```text
/// minNTTU = [ (dnum+2)·(k+ℓ+1)·(N/2)·log N / f ] / [ 2·dnum·(k+ℓ+1)·N·8B / BW ]
/// ```
///
/// evaluated at the maximum level. For the paper's running example
/// (N = 2^17, dnum = 1, 1.2 GHz, 1 TB/s) this is 1,328, motivating the 2,048
/// NTTUs BTS provisions.
pub fn min_nttu_count(
    instance: &CkksInstance,
    frequency_hz: f64,
    bandwidth: BandwidthModel,
) -> f64 {
    let n = instance.n() as f64;
    let log_n = instance.log_n() as f64;
    let dnum = instance.dnum() as f64;
    let limbs = (instance.num_special() + instance.max_level() + 1) as f64;
    let butterflies = (dnum + 2.0) * limbs * 0.5 * n * log_n;
    let compute_time = butterflies / frequency_hz;
    let load_time = instance.evk_bytes() as f64 / bandwidth.bytes_per_sec();
    compute_time / load_time
}

/// The §3.3/§3.4 minimum-bound performance model: every HMult/HRot costs
/// exactly the time needed to stream its evaluation key from off-chip memory;
/// every other op and every ciphertext access is free (perfect on-chip reuse).
#[derive(Debug, Clone)]
pub struct MinBoundModel {
    instance: CkksInstance,
    bandwidth: BandwidthModel,
}

impl MinBoundModel {
    /// Builds the model for an instance and a memory system.
    pub fn new(instance: CkksInstance, bandwidth: BandwidthModel) -> Self {
        Self {
            instance,
            bandwidth,
        }
    }

    /// The instance being modelled.
    pub fn instance(&self) -> &CkksInstance {
        &self.instance
    }

    /// The memory system being modelled.
    pub fn bandwidth(&self) -> BandwidthModel {
        self.bandwidth
    }

    /// Time to stream the evaluation-key limbs needed by one key-switching at
    /// ciphertext level `level` — the minimum time of an HMult or HRot.
    pub fn keyswitch_time(&self, level: usize) -> f64 {
        self.bandwidth
            .transfer_time(self.instance.evk_bytes_at_level(level))
    }

    /// Minimum time of an HMult at level `level` (identical to the
    /// key-switch time under the min-bound assumptions).
    pub fn mult_time(&self, level: usize) -> f64 {
        self.keyswitch_time(level)
    }

    /// Number of levels usable by the application between bootstraps.
    pub fn usable_levels(&self) -> usize {
        self.instance.max_level().saturating_sub(L_BOOT)
    }

    /// Eq. 8: amortized multiplication time per slot given a bootstrapping
    /// time, in seconds per slot.
    ///
    /// Returns `f64::INFINITY` when the instance has no usable levels (it can
    /// never amortize a bootstrap).
    pub fn amortized_mult_per_slot(&self, boot_time: f64) -> f64 {
        let usable = self.usable_levels();
        if usable == 0 {
            return f64::INFINITY;
        }
        let sum_mult: f64 = (1..=usable).map(|l| self.mult_time(l)).sum();
        (boot_time + sum_mult) / usable as f64 * 2.0 / self.instance.n() as f64
    }

    /// Convenience: amortized mult time per slot when the bootstrap trace is
    /// described by a list of `(level, keyswitch_count)` pairs — the shape the
    /// workload generator produces.
    pub fn amortized_mult_per_slot_from_trace(&self, boot_keyswitches: &[(usize, usize)]) -> f64 {
        let boot_time: f64 = boot_keyswitches
            .iter()
            .map(|&(level, count)| self.keyswitch_time(level) * count as f64)
            .sum();
        self.amortized_mult_per_slot(boot_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_nttu_matches_paper_value() {
        // §4.2: "For N = 2^17, the value is 1,328" at dnum = 1, 1.2 GHz, 1 TB/s.
        let v = min_nttu_count(&CkksInstance::ins1(), 1.2e9, BandwidthModel::hbm_1tb());
        assert!((v - 1328.0).abs() < 10.0, "minNTTU = {v}");
    }

    #[test]
    fn min_nttu_is_maximized_at_dnum_1() {
        let f = 1.2e9;
        let bw = BandwidthModel::hbm_1tb();
        let v1 = min_nttu_count(&CkksInstance::ins1(), f, bw);
        let v2 = min_nttu_count(&CkksInstance::ins2(), f, bw);
        let v3 = min_nttu_count(&CkksInstance::ins3(), f, bw);
        assert!(v1 > v2 && v2 > v3);
    }

    #[test]
    fn evk_stream_time_at_max_level() {
        // 112 MiB over 1 TB/s ≈ 117 µs for INS-1.
        let model = MinBoundModel::new(CkksInstance::ins1(), BandwidthModel::hbm_1tb());
        let t = model.keyswitch_time(27);
        assert!((t - 117.4e-6).abs() < 2e-6, "t = {t}");
    }

    #[test]
    fn amortized_time_decreases_with_more_usable_levels() {
        let bw = BandwidthModel::hbm_1tb();
        let m1 = MinBoundModel::new(CkksInstance::ins1(), bw);
        let m2 = MinBoundModel::new(CkksInstance::ins2(), bw);
        // Same synthetic bootstrap cost: the deeper instance amortizes better.
        let boot = 20e-3;
        assert!(m2.amortized_mult_per_slot(boot) < m1.amortized_mult_per_slot(boot));
    }

    #[test]
    fn ballpark_of_paper_fig2_values() {
        // §3.4 reports ≈27.7 / 19.9 / 22.1 ns for INS-1/2/3 under the
        // min-bound model with their bootstrap trace. With a ~130-keyswitch
        // bootstrap spread over the top 19 levels we should land within ~2x.
        let bw = BandwidthModel::hbm_1tb();
        for (ins, paper_ns) in [
            (CkksInstance::ins1(), 27.7),
            (CkksInstance::ins2(), 19.9),
            (CkksInstance::ins3(), 22.1),
        ] {
            let top = ins.max_level();
            let trace: Vec<(usize, usize)> = (0..19).map(|i| (top - i, 7)).collect();
            let model = MinBoundModel::new(ins.clone(), bw);
            let t_ns = model.amortized_mult_per_slot_from_trace(&trace) * 1e9;
            assert!(
                t_ns > paper_ns * 0.4 && t_ns < paper_ns * 2.5,
                "{}: modelled {t_ns:.1} ns vs paper {paper_ns} ns",
                ins.name()
            );
        }
    }

    #[test]
    fn doubling_bandwidth_halves_keyswitch_time() {
        let m1 = MinBoundModel::new(CkksInstance::ins2(), BandwidthModel::hbm_1tb());
        let m2 = MinBoundModel::new(CkksInstance::ins2(), BandwidthModel::hbm_2tb());
        let t1 = m1.keyswitch_time(30);
        let t2 = m2.keyswitch_time(30);
        assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_usable_levels_is_infinite() {
        let ins = CkksInstance::toy(13, 10, 1); // 10 < L_BOOT
        let m = MinBoundModel::new(ins, BandwidthModel::hbm_1tb());
        assert!(m.amortized_mult_per_slot(1e-3).is_infinite());
    }
}
