//! # bts-params
//!
//! Parameter analysis for bootstrappable CKKS instances, reproducing the
//! technology-driven parameter-selection study of the BTS paper (§3):
//!
//! * a security-level model λ(N, log PQ) calibrated to the paper's Table 4,
//! * the generalized dnum decomposition of key-switching (§2.5, Eq. 7) as one
//!   [`Decomposition`] value — slice ranges, live slices per level, special
//!   primes and evaluation-key words — and the kernel counts it implies
//!   ([`KernelCalls`], [`hmult_complexity`], Fig. 3(b)), which the CKKS
//!   library executes and the simulator charges,
//! * the dnum ↔ L ↔ evk-size trade-off curves of Fig. 1,
//! * the minimum-bound amortized multiplication time per slot of Fig. 2
//!   (Eq. 8) and the minimum-NTTU count of Eq. 10,
//! * the concrete CKKS instances INS-1/2/3 used throughout the evaluation
//!   (Table 4) plus the baseline Lattigo preset.
//!
//! ```
//! use bts_params::CkksInstance;
//!
//! let ins2 = CkksInstance::ins2();
//! assert_eq!(ins2.n(), 1 << 17);
//! assert_eq!(ins2.dnum(), 2);
//! assert!(ins2.security_level() > 128.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod complexity;
mod decomposition;
mod instance;
mod minbound;
mod security;
mod tradeoff;

pub use complexity::{
    hmult_complexity, hoisted_rotations_calls, hoisted_rotations_complexity, ComplexityBreakdown,
    KernelCalls, KeySwitchGroup,
};
pub use decomposition::Decomposition;
pub use instance::{CkksInstance, InstanceBuilder, WORD_BYTES};
pub use minbound::{min_nttu_count, BandwidthModel, MinBoundModel};
pub use security::{max_log_pq_for_security, security_level, MIN_SECURE_LOG_N};
pub use tradeoff::{instance_at_security, max_dnum, max_level_for, sweep_dnum, DnumPoint};

/// Levels consumed by the bootstrapping algorithm assumed throughout the
/// paper (§2.4: "the value of L_boot is 19").
pub const L_BOOT: usize = 19;

/// The minimum level required for (the cheapest variant of) bootstrapping,
/// drawn as the dotted line in Fig. 1(a).
pub const MIN_BOOT_LEVEL: usize = 11;
