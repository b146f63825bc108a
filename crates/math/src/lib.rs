//! # bts-math
//!
//! Number-theoretic substrate for the BTS reproduction: 64-bit modular
//! arithmetic, NTT-friendly prime generation, negacyclic number-theoretic
//! transforms (flat and 3D-decomposed), residue-number-system (RNS) bases,
//! fast base conversion (`BConv`), and RNS polynomials.
//!
//! Everything in this crate is exact integer arithmetic; the floating-point
//! canonical embedding used by CKKS encoding lives in `bts-ckks`, and the
//! slice structure of key-switching's dnum decomposition (which limbs form a
//! slice, how many slices a level touches, evaluation-key sizes) is
//! `bts_params::Decomposition`, which needs no arithmetic on residues.
//!
//! ```
//! use bts_math::{NttTable, Modulus};
//!
//! let q = bts_math::generate_ntt_primes(1 << 10, 50, 1)[0];
//! let table = NttTable::new(1 << 10, Modulus::new(q)).unwrap();
//! let mut a = vec![0u64; 1 << 10];
//! a[1] = 1; // X
//! let mut b = a.clone();
//! table.forward(&mut a);
//! table.forward(&mut b);
//! let mut c: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| table.modulus().mul(x, y)).collect();
//! table.inverse(&mut c);
//! assert_eq!(c[2], 1); // X * X = X^2
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod automorphism;
mod bconv;
mod error;
mod modular;
mod ntt;
mod ntt3d;
pub mod par;
mod poly;
mod prime;
mod rns;
mod sampling;

pub use automorphism::{galois_element, AutomorphismTable};
pub use bconv::{BaseConverter, BconvScratch};
pub use error::MathError;
pub use modular::{Modulus, ShoupMul};
pub use ntt::{schoolbook_negacyclic, NttTable};
pub use ntt3d::{Ntt3dPlan, TransposePhase};
pub use poly::{Representation, RnsPoly};
pub use prime::{generate_ntt_primes, is_prime, next_ntt_prime, previous_ntt_prime};
pub use rns::RnsBasis;
pub use sampling::{sample_gaussian, sample_ternary, sample_uniform, TERNARY_HAMMING_DENSE};

/// Result alias used throughout the math crate.
pub type Result<T> = std::result::Result<T, MathError>;

/// Returns `true` if `n` is a power of two and at least `min`.
pub(crate) fn is_power_of_two_at_least(n: usize, min: usize) -> bool {
    n >= min && n.is_power_of_two()
}
