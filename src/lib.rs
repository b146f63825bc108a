//! Umbrella crate for the BTS reproduction workspace.
//!
//! Re-exports the member crates under stable module names so examples and
//! integration tests can use a single dependency:
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`math`] | `bts-math` | modular arithmetic, NTT, RNS, base conversion |
//! | [`ckks`] | `bts-ckks` | Full-RNS CKKS functional model + bootstrapping |
//! | [`params`] | `bts-params` | security model, dnum trade-off, paper instances |
//! | [`sim`] | `bts-sim` | BTS accelerator performance/area/power model |
//! | [`sched`] | `bts-sched` | dependency-aware scheduler: traces as DAGs over functional units |
//! | [`circuit`] | `bts-circuit` | shared `HeCircuit` IR + functional/trace backends |
//! | [`workloads`] | `bts-workloads` | bootstrapping/HELR/ResNet/sorting as circuits |
//! | [`fault`] | `bts-fault` | seeded fault injection: chip failures, transient faults, retries |
//! | [`serve`] | `bts-serve` | multi-tenant batch serving over one shared accelerator |
//! | [`cluster`] | `bts-cluster` | multi-chip fleets: placement policies + interconnect costs |
//! | [`telemetry`] | `bts-telemetry` | unified tracing (one event stream) + Chrome-trace (Perfetto) export |
//!
//! # Quickstart
//!
//! Encrypt two real vectors, compute `x·y + x` homomorphically on a toy
//! (insecure) parameter set, rotate the result by one slot, and decrypt
//! (`cargo run --release --example quickstart` runs the full version):
//!
//! ```
//! use bts::ckks::{CkksContext, Complex};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Seeded for determinism; `rand::thread_rng()` works the same way.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
//!
//! // Toy parameters: N = 2^12, 6 levels, dnum = 2.
//! let ctx = CkksContext::new_toy(1 << 12, 6, 2)?;
//! let (sk, mut keys) = ctx.generate_keys(&mut rng)?;
//! ctx.add_rotation_keys(&sk, &mut keys, &[1], &mut rng)?;
//! let eval = ctx.evaluator(&keys);
//!
//! let x: Vec<Complex> = (0..ctx.slots())
//!     .map(|i| Complex::new((i as f64 / 100.0).sin(), 0.0))
//!     .collect();
//! let y: Vec<Complex> = (0..ctx.slots())
//!     .map(|i| Complex::new(0.5 + (i % 7) as f64 * 0.1, 0.0))
//!     .collect();
//! let ct_x = ctx.encrypt(&ctx.encode(&x)?, &sk, &mut rng)?;
//! let ct_y = ctx.encrypt_public(&ctx.encode(&y)?, &keys, &mut rng)?;
//!
//! // x*y + x, then rotate by one slot.
//! let prod = eval.mul_rescale(&ct_x, &ct_y)?;
//! let x_aligned = eval.level_reduce(&ct_x, prod.level())?;
//! let sum = eval.add(&prod, &eval.rescale(&eval.mul_const(&x_aligned, 1.0)?)?)?;
//! let rotated = eval.rotate(&sum, 1)?;
//!
//! let decoded = ctx.decode(&ctx.decrypt(&rotated, &sk)?)?;
//! let expected = x[1].re * y[1].re + x[1].re; // slot 0 after rotating by 1
//! assert!((decoded[0].re - expected).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```
//!
//! # One circuit, two backends
//!
//! Workloads are written once as [`circuit::HeCircuit`]s and executed by
//! either backend: the [`circuit::TraceBackend`] lowers the circuit to an op
//! trace for the accelerator cost model, while the
//! [`circuit::FunctionalBackend`] runs the *same* circuit on real RNS
//! ciphertexts and returns the decrypted slots — so "the simulation matches
//! the computation" is a testable property:
//!
//! ```
//! use bts::circuit::{compile, CircuitBuilder, FunctionalBackend, TraceBackend};
//! use bts::params::CkksInstance;
//! use bts::sim::{BtsConfig, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One circuit: (x·y rescaled), rotated by one slot.
//! let ins = CkksInstance::toy(11, 4, 2);
//! let mut b = CircuitBuilder::new(&ins);
//! let x = b.input();
//! let y = b.input();
//! let prod = b.hmult(x, y)?;
//! let prod = b.rescale(prod)?;
//! let rot = b.hrot(prod, 1)?;
//! b.output(rot);
//! let circuit = b.build();
//! let compiled = compile(&circuit)?;
//!
//! // Backend 1: cost — lower to an op trace and simulate on BTS.
//! let lowered = TraceBackend::new().lower_compiled(&compiled)?;
//! let report = Simulator::new(BtsConfig::bts_default(), ins.clone()).run(&lowered.trace);
//! assert!(report.total_seconds > 0.0);
//!
//! // Backend 2: functional — execute on real ciphertexts and decrypt.
//! let run = FunctionalBackend::new(&ins, 2024)?
//!     .with_inputs(vec![vec![0.5; ins.slots()], vec![0.25; ins.slots()]])
//!     .execute_compiled(&compiled)?;
//! assert!((run.outputs[0][0].re - 0.125).abs() < 1e-2);
//!
//! // Same program, same ops — checkable, not hoped-for.
//! assert_eq!(run.op_counts, circuit.op_counts());
//! for (op, count) in circuit.op_counts() {
//!     assert_eq!(lowered.trace.count(op), count);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! The paper's workloads (bootstrapping, HELR, ResNet-20, sorting, amortized
//! mult) all implement [`circuit::Workload`] and are enumerable via
//! [`workloads::standard_registry`].

#![warn(missing_docs)]

pub use bts_circuit as circuit;
pub use bts_ckks as ckks;
pub use bts_cluster as cluster;
pub use bts_fault as fault;
pub use bts_math as math;
pub use bts_params as params;
pub use bts_sched as sched;
pub use bts_serve as serve;
pub use bts_sim as sim;
pub use bts_telemetry as telemetry;
pub use bts_workloads as workloads;
