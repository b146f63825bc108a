//! # bts-ckks
//!
//! A from-scratch Full-RNS CKKS implementation: the homomorphic-encryption
//! workload substrate that the BTS accelerator executes. It provides
//!
//! * canonical-embedding encoding/decoding of complex vectors,
//! * key generation (secret, public, relinearization and rotation keys) with
//!   the generalized `dnum` key-switching of Han–Ki that the paper adopts,
//!   split the way the hardware pipelines it: [`CkksContext::decompose`]
//!   (ModUp of every slice into a pooled [`Decomposed`]) and
//!   [`CkksContext::switch_decomposed`] (inner product with an evaluation key,
//!   optionally read through an automorphism, then ModDown);
//!   [`CkksContext::key_switch`] is their composition,
//! * the primitive HE ops of §2.3: `HAdd`, `HMult`, `HRot`, `HRescale`,
//!   `CAdd`/`CMult`, `PAdd`/`PMult`. Rotations and conjugation are *ModUp,
//!   then permute*: the automorphism is an NTT-domain gather, so every
//!   rotation of one ciphertext shares its ModUp
//!   ([`Evaluator::rotate_hoisted`]; [`Evaluator::rotate`] is its one-step
//!   case). Scalar constants multiply / add one residue per limb, and
//!   rescale inverse-transforms only the limb it drops,
//! * bootstrapping building blocks (mod-raise, homomorphic linear transforms
//!   with hoisted baby steps, polynomial evaluation, approximate modular
//!   reduction) and a bootstrapping driver.
//!
//! The dnum slice structure key generation and the key-switch run on is
//! `bts_params::Decomposition` ([`CkksContext::decomposition`]); the kernel
//! counts it implies (`bts_params::KernelCalls`, Fig. 3(b)'s breakdown) are
//! held equal, span for span, to what this library executes.
//!
//! The implementation favours clarity and correctness over raw speed: it is
//! the functional reference that the accelerator simulator's op traces are
//! validated against, exercised at small ring degrees in tests.
//!
//! ```
//! use bts_ckks::{CkksContext, Complex};
//!
//! # fn main() -> Result<(), bts_ckks::CkksError> {
//! let ctx = CkksContext::new_toy(1 << 12, 6, 2)?;
//! let (sk, keys) = ctx.generate_keys(&mut rand::thread_rng())?;
//! let eval = ctx.evaluator(&keys);
//! let msg: Vec<Complex> = (0..ctx.slots()).map(|i| Complex::new(i as f64 * 0.01, 0.0)).collect();
//! let pt = ctx.encode(&msg)?;
//! let ct = ctx.encrypt(&pt, &sk, &mut rand::thread_rng())?;
//! let ct2 = eval.mul(&ct, &ct)?;
//! let out = ctx.decode(&ctx.decrypt(&eval.rescale(&ct2)?, &sk)?)?;
//! assert!((out[10].re - 0.01).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bootstrap;
mod ciphertext;
mod context;
mod encoding;
mod error;
mod eval_mod;
mod evaluator;
mod keys;
mod linear_transform;
mod noise;

pub use bootstrap::{BootstrapConfig, Bootstrapper};
pub use ciphertext::{Ciphertext, Plaintext};
pub use context::{CkksContext, Decomposed};
pub use encoding::{CkksEncoder, Complex};
pub use error::CkksError;
pub use eval_mod::{ChebyshevSeries, SineEvaluator, SINE_TOLERANCE};
pub use evaluator::Evaluator;
pub use keys::{EvaluationKey, KeyBundle, PublicKey, SecretKey};
pub use linear_transform::BsgsTransform;
pub use noise::NoiseTracker;

/// Result alias for CKKS operations.
pub type Result<T> = std::result::Result<T, CkksError>;
