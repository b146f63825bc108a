//! # bts-circuit
//!
//! The shared homomorphic-circuit IR of the workspace: one program
//! representation — [`HeCircuit`], built with [`CircuitBuilder`] — compiled
//! to one executable form, [`CompiledCircuit`] bytecode, which two backends
//! run:
//!
//! * [`TraceBackend`] lowers the program to a [`bts_sim::OpTrace`] for the
//!   BTS accelerator cost model, expanding [`Opcode::Bootstrap`] markers
//!   into the full Han–Ki bootstrap op sequence of a [`BootstrapPlan`];
//! * [`FunctionalBackend`] executes the program on real RNS ciphertexts via
//!   [`bts_ckks::Evaluator`] and returns the decrypted slots.
//!
//! The BTS paper's evaluation (Tables 5/6) rests on simulated op traces
//! faithfully mirroring what the CKKS computation performs; with one IR and
//! two backends that fidelity is an *executable property* — the equivalence
//! tests assert that per-op-class counts agree — instead of a convention
//! spread across hand-rolled trace generators. Workloads implement the
//! [`Workload`] trait and are looked up by name in a [`WorkloadRegistry`],
//! so adding a scenario is one circuit-building function.
//!
//! Between the builder and the backends sits an optimizing compiler:
//! [`PassPipeline::standard`] rewrites the SSA circuit (rotation CSE with
//! plaintext-mask hoisting in [`CommonSubexprPass`], key-switch-aware
//! rescale scheduling in [`RescaleSchedPass`], bootstrap placement by one
//! program-order sweep in [`BootstrapPlacePass`] — each refresh moves to the
//! last point its input's levels reach, or goes if that is past everything
//! it refreshes, which is what stepping markers one cut at a time under
//! whole-circuit analysis also finds — dead-value pruning in
//! [`DeadValuePass`]), and
//! [`compile`] lowers any circuit to a flat register-machine
//! [`CompiledCircuit`], the only thing a backend runs
//! ([`TraceBackend::lower_compiled`], [`FunctionalBackend::execute_compiled`]);
//! [`Workload::lower`], a pair's one simulated program, is build → the
//! standard pipeline → `compile` → `lower_compiled`. A walk of the
//! SSA nodes survives only as a test oracle (`tests/common/ssa_oracle.rs` at
//! the workspace root): differential tests hold both executors bit-identical
//! to it, trace for trace and slot for slot.
//!
//! ```
//! use bts_circuit::{compile, CircuitBuilder, FunctionalBackend, TraceBackend};
//! use bts_params::CkksInstance;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ins = CkksInstance::toy(10, 4, 2);
//! let mut b = CircuitBuilder::new(&ins);
//! let x = b.input();
//! let prod = b.hmult(x, x)?;
//! let sq = b.rescale(prod)?;
//! b.output(sq);
//! let circuit = b.build();
//! let compiled = compile(&circuit)?;
//!
//! // Cost side: lower to an op trace for the simulator.
//! let lowered = TraceBackend::new().lower_compiled(&compiled)?;
//! assert_eq!(lowered.trace.len(), 2);
//!
//! // Functional side: run on real ciphertexts and decrypt.
//! let run = FunctionalBackend::new(&ins, 1)?.execute_compiled(&compiled)?;
//! assert_eq!(run.outputs.len(), 1);
//! // Same program, same op classes, checkable:
//! assert_eq!(run.op_counts, circuit.op_counts());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bootstrap_plan;
mod builder;
pub mod bytecode;
mod compile;
mod error;
mod functional;
mod ir;
pub mod passes;
mod trace_backend;
mod value_table;
mod workload;

pub use bootstrap_plan::BootstrapPlan;
pub use builder::CircuitBuilder;
pub use bytecode::{CompiledCircuit, CompiledInput, CompiledOp, Opcode, RegId};
pub use compile::compile;
pub use error::CircuitError;
pub use functional::{FunctionalBackend, FunctionalRun};
pub use ir::{CircuitInput, HeCircuit, HeInstr, HeInstrNode, ValueId};
pub use passes::{
    Analyzed, BootstrapPlacePass, CommonSubexprPass, DeadValuePass, Pass, PassPipeline,
    RescaleSchedPass,
};
pub use trace_backend::{LoweredTrace, TraceBackend};
pub use workload::{Workload, WorkloadRegistry};
