use std::sync::Arc;

use crate::decomposition::Decomposition;
use crate::security::security_level;

/// Machine word size in bytes (the paper's 64-bit word, §5).
pub const WORD_BYTES: u64 = 8;

/// A concrete CKKS parameter set ("CKKS instance" in the paper's terminology):
/// ring degree, level budget, decomposition number and prime bit-sizes.
///
/// The three evaluation instances of Table 4 are available as
/// [`CkksInstance::ins1`], [`CkksInstance::ins2`] and [`CkksInstance::ins3`];
/// arbitrary instances can be built with [`InstanceBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct CkksInstance {
    /// Shared, so a clone (every circuit, trace and simulator holds one)
    /// allocates nothing.
    name: Arc<str>,
    log_n: u32,
    decomposition: Decomposition,
    log_q0: u32,
    log_scale: u32,
    log_special: u32,
}

impl CkksInstance {
    /// INS-1 of Table 4: N = 2^17, L = 27, dnum = 1 (the running example of the
    /// paper, log PQ ≈ 3090, λ ≈ 133).
    pub fn ins1() -> Self {
        InstanceBuilder::new(17, 27, 1)
            .name("INS-1")
            .prime_bits(60, 51, 59)
            .build()
    }

    /// INS-2 of Table 4: N = 2^17, L = 39, dnum = 2 (log PQ ≈ 3210, λ ≈ 129).
    pub fn ins2() -> Self {
        InstanceBuilder::new(17, 39, 2)
            .name("INS-2")
            .prime_bits(60, 51, 58)
            .build()
    }

    /// INS-3 of Table 4: N = 2^17, L = 44, dnum = 3 (log PQ ≈ 3160, λ ≈ 131).
    pub fn ins3() -> Self {
        InstanceBuilder::new(17, 44, 3)
            .name("INS-3")
            .prime_bits(60, 51, 57)
            .build()
    }

    /// The three Table 4 instances, in order.
    pub fn evaluation_set() -> Vec<Self> {
        vec![Self::ins1(), Self::ins2(), Self::ins3()]
    }

    /// A Lattigo-like 128-bit bootstrappable preset with N = 2^16, used as the
    /// "small BTS (INS-Lattigo)" configuration in the Fig. 9 ablation and as
    /// the CPU baseline's parameter set (Table 1 row 1).
    pub fn lattigo_preset() -> Self {
        InstanceBuilder::new(16, 24, 4)
            .name("INS-Lattigo")
            .prime_bits(55, 45, 55)
            .build()
    }

    /// A small instance suitable for functional software tests of the CKKS
    /// layer (not secure; N = 2^d with d typically 10–13).
    pub fn toy(log_n: u32, max_level: usize, dnum: usize) -> Self {
        InstanceBuilder::new(log_n, max_level, dnum)
            .name(format!("TOY-{log_n}"))
            .prime_bits(60, 40, 60)
            .build()
    }

    /// Instance name (e.g. `"INS-2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// log2 of the ring degree.
    pub fn log_n(&self) -> u32 {
        self.log_n
    }

    /// Ring degree N.
    pub fn n(&self) -> usize {
        1usize << self.log_n
    }

    /// Number of message slots (N/2).
    pub fn slots(&self) -> usize {
        self.n() / 2
    }

    /// Maximum multiplicative level L.
    pub fn max_level(&self) -> usize {
        self.decomposition.max_level()
    }

    /// Whether the level budget accommodates one bootstrap (`L ≥ L_boot`).
    pub fn can_bootstrap(&self) -> bool {
        self.max_level() >= crate::L_BOOT
    }

    /// The level fresh and freshly-bootstrapped ciphertexts sit at: on a
    /// bootstrappable instance `L - L_boot` (the budget above is reserved for
    /// the bootstrap itself), otherwise the full `L`.
    pub fn usable_top_level(&self) -> usize {
        if self.can_bootstrap() {
            self.max_level() - crate::L_BOOT
        } else {
            self.max_level()
        }
    }

    /// The generalized key-switching decomposition (§2.5) every key-switch
    /// count and evaluation-key size of this instance is read from.
    pub fn decomposition(&self) -> Decomposition {
        self.decomposition
    }

    /// Decomposition number dnum of the generalized key-switching.
    pub fn dnum(&self) -> usize {
        self.decomposition.dnum()
    }

    /// Number of special primes k = ceil((L+1)/dnum).
    pub fn num_special(&self) -> usize {
        self.decomposition.special_primes()
    }

    /// Bit size of the first (largest) prime modulus q0.
    pub fn log_q0(&self) -> u32 {
        self.log_q0
    }

    /// Bit size of the scaling primes q1..qL (the CKKS scale Δ).
    pub fn log_scale(&self) -> u32 {
        self.log_scale
    }

    /// Bit size of the special primes p0..p(k-1).
    pub fn log_special(&self) -> u32 {
        self.log_special
    }

    /// Total ciphertext-modulus size log2 Q = log q0 + L·log Δ.
    pub fn log_q(&self) -> f64 {
        self.log_q0 as f64 + self.max_level() as f64 * self.log_scale as f64
    }

    /// Special-modulus size log2 P = k·log p.
    pub fn log_p(&self) -> f64 {
        self.num_special() as f64 * self.log_special as f64
    }

    /// log2 PQ, the quantity the security level depends on.
    pub fn log_pq(&self) -> f64 {
        self.log_q() + self.log_p()
    }

    /// Estimated security level λ (bits).
    pub fn security_level(&self) -> f64 {
        security_level(self.n(), self.log_pq())
    }

    /// Size in bytes of one residue polynomial limb (N words).
    pub fn limb_bytes(&self) -> u64 {
        self.n() as u64 * WORD_BYTES
    }

    /// Size in bytes of a ciphertext at level `level` (a pair of N×(ℓ+1)
    /// matrices).
    pub fn ct_bytes(&self, level: usize) -> u64 {
        2 * (level as u64 + 1) * self.limb_bytes()
    }

    /// Size in bytes of a plaintext polynomial at level `level`.
    pub fn pt_bytes(&self, level: usize) -> u64 {
        (level as u64 + 1) * self.limb_bytes()
    }

    /// Number of key-switching decomposition slices actually needed for a
    /// ciphertext at level `level`: ceil((ℓ+1)/k) ≤ dnum.
    pub fn dnum_at_level(&self, level: usize) -> usize {
        self.decomposition.slices_at_level(level)
    }

    /// Size in bytes of a single evaluation key: a pair of N×(k+L+1) matrices
    /// per decomposition slice, `dnum` slices (§2.5). For INS-1 this is the
    /// paper's 112 MiB figure.
    pub fn evk_bytes(&self) -> u64 {
        self.decomposition.evk_words(self.n()) * WORD_BYTES
    }

    /// Bytes of evaluation key that must be streamed from memory for one
    /// key-switching at level `level`: only `dnum_at_level` slices and only the
    /// `k + ℓ + 1` live limbs of each are touched (denominator of Eq. 10).
    pub fn evk_bytes_at_level(&self, level: usize) -> u64 {
        self.decomposition.evk_words_at_level(self.n(), level) * WORD_BYTES
    }

    /// Total size of the evaluation-key working set for a workload needing
    /// `rotation_keys` distinct rotation keys plus the multiplication key.
    pub fn evk_set_bytes(&self, rotation_keys: usize) -> u64 {
        (rotation_keys as u64 + 1) * self.evk_bytes()
    }

    /// Modelled peak temporary-data footprint of one key-switch at the top
    /// level: `(dnum + 2)` working polynomials on the extended base (the
    /// decomposition slices' residues plus the streamed evaluation-key
    /// slice). Reproduces Table 4's 183 / 304 / 365 MiB for INS-1/2/3 within
    /// a few percent.
    pub fn modelled_temp_bytes(&self) -> u64 {
        let limbs = (self.decomposition.special_primes() + self.max_level() + 1) as u64;
        (self.decomposition.dnum() as u64 + 2) * limbs * self.limb_bytes()
    }

    /// Paper-reported temporary-data footprint during HMult (Table 4), in
    /// bytes, when available (only the three evaluation instances); used as a
    /// reference point for the simulator's own measurement.
    pub fn reported_temp_bytes(&self) -> Option<u64> {
        match &*self.name {
            "INS-1" => Some(183 * 1024 * 1024),
            "INS-2" => Some(304 * 1024 * 1024),
            "INS-3" => Some(365 * 1024 * 1024),
            _ => None,
        }
    }
}

/// Builder for [`CkksInstance`] values.
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    name: String,
    log_n: u32,
    decomposition: Decomposition,
    log_q0: u32,
    log_scale: u32,
    log_special: u32,
}

impl InstanceBuilder {
    /// Starts a builder for a ring of degree `2^log_n`, level budget
    /// `max_level` and decomposition number `dnum`.
    ///
    /// # Panics
    ///
    /// Panics if `dnum == 0`, `dnum > max_level + 1` or `log_n` is outside
    /// `[4, 20]`.
    pub fn new(log_n: u32, max_level: usize, dnum: usize) -> Self {
        let decomposition = Decomposition::new(max_level, dnum).expect("invalid dnum");
        assert!((4..=20).contains(&log_n), "log_n out of supported range");
        Self {
            name: format!("N=2^{log_n} L={max_level} dnum={dnum}"),
            log_n,
            decomposition,
            log_q0: 60,
            log_scale: 51,
            log_special: 59,
        }
    }

    /// Sets a human-readable name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the bit sizes of the first prime, scaling primes and special primes.
    pub fn prime_bits(mut self, q0: u32, scale: u32, special: u32) -> Self {
        self.log_q0 = q0;
        self.log_scale = scale;
        self.log_special = special;
        self
    }

    /// Finalizes the instance.
    pub fn build(self) -> CkksInstance {
        CkksInstance {
            name: self.name.into(),
            log_n: self.log_n,
            decomposition: self.decomposition,
            log_q0: self.log_q0,
            log_scale: self.log_scale,
            log_special: self.log_special,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_log_pq_matches_paper() {
        assert!((CkksInstance::ins1().log_pq() - 3090.0).abs() < 15.0);
        assert!((CkksInstance::ins2().log_pq() - 3210.0).abs() < 15.0);
        assert!((CkksInstance::ins3().log_pq() - 3160.0).abs() < 15.0);
    }

    #[test]
    fn table4_security_targets_are_met() {
        for ins in CkksInstance::evaluation_set() {
            let lambda = ins.security_level();
            assert!(lambda > 128.0, "{} has λ = {lambda}", ins.name());
            assert!(lambda < 140.0, "{} has λ = {lambda}", ins.name());
        }
    }

    #[test]
    fn running_example_ct_and_evk_sizes() {
        // §3.4: "a ct at the maximum level has a size of 56MB, and an evk has
        // a size of 112MB" (MiB) for INS-1.
        let ins1 = CkksInstance::ins1();
        assert_eq!(ins1.ct_bytes(ins1.max_level()), 56 * 1024 * 1024);
        assert_eq!(ins1.evk_bytes(), 112 * 1024 * 1024);
    }

    #[test]
    fn special_prime_counts() {
        assert_eq!(CkksInstance::ins1().num_special(), 28);
        assert_eq!(CkksInstance::ins2().num_special(), 20);
        assert_eq!(CkksInstance::ins3().num_special(), 15);
    }

    #[test]
    fn dnum_at_level_shrinks_with_level() {
        let ins3 = CkksInstance::ins3();
        assert_eq!(ins3.dnum_at_level(44), 3);
        assert_eq!(ins3.dnum_at_level(29), 2);
        assert_eq!(ins3.dnum_at_level(10), 1);
        let ins1 = CkksInstance::ins1();
        for l in 0..=ins1.max_level() {
            assert_eq!(ins1.dnum_at_level(l), 1);
        }
    }

    #[test]
    fn evk_streaming_bytes_at_level() {
        let ins1 = CkksInstance::ins1();
        // At the top level the whole 112 MiB key streams in.
        assert_eq!(ins1.evk_bytes_at_level(ins1.max_level()), ins1.evk_bytes());
        // At level 8 only (28 + 9) limbs per polynomial are needed.
        assert_eq!(ins1.evk_bytes_at_level(8), 2 * (28 + 9) * ins1.limb_bytes());
    }

    #[test]
    fn builder_customization() {
        let ins = InstanceBuilder::new(13, 10, 2)
            .name("custom")
            .prime_bits(55, 42, 55)
            .build();
        assert_eq!(ins.name(), "custom");
        assert_eq!(ins.n(), 1 << 13);
        assert_eq!(ins.num_special(), 6);
        assert_eq!(ins.log_scale(), 42);
    }

    #[test]
    #[should_panic(expected = "invalid dnum")]
    fn builder_rejects_zero_dnum() {
        let _ = InstanceBuilder::new(13, 10, 0);
    }
}
