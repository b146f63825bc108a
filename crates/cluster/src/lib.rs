//! Multi-accelerator cluster model over the BTS serving layer.
//!
//! At the paper's 1 TB/s HBM design point a single BTS chip is
//! evaluation-key-streaming bound: co-scheduling more jobs onto one chip
//! buys almost nothing (the serving layer measures ≈1.0× speedup), so the
//! way to scale a bootstrapping service is *out*, not *up*. This crate
//! models that scale-out: a fleet of identical simulated chips
//! ([`ChipSpec`]) behind a job-level [`PlacementPolicy`], with an
//! [`Interconnect`] that charges latency and bandwidth for every ciphertext
//! and evaluation-key set that has to move to a chip.
//!
//! The pipeline is `jobs → placement → per-chip admission loop → merged
//! report`:
//!
//! - [`ChipSpec`] — one chip design point × a chip count × an interconnect.
//!   Architecture presets ([`bts_sim::ArchPreset`]) cover BTS and the
//!   published FAB design point for cross-architecture sweeps.
//! - [`PlacementPolicy`] — round-robin, least-loaded (by the online cost
//!   estimate), or tenant-affinity (pin each tenant's evaluation keys to one
//!   chip so they cross the interconnect once).
//! - [`ClusterServer`] / [`serve_cluster`] — validates, prepares every
//!   distinct (workload, instance) pair once ([`bts_serve::PreparedBatch`]),
//!   places, charges the wire, runs each chip's admission loop from that one
//!   preparation, and merges the per-chip reports into a [`ClusterReport`]
//!   (fleet throughput, per-chip utilization, cluster-level Jain fairness,
//!   interconnect bytes moved).
//!
//! A single-chip cluster charges zero interconnect and reproduces
//! [`bts_serve::serve`] exactly, so the cluster layer is a strict
//! generalization of the serving layer.
//!
//! The fleet also degrades gracefully instead of collapsing: a seeded
//! [`FaultPlan`] can kill chips at simulated times, inject transient job
//! faults, and degrade the interconnect. Jobs a dead chip interrupted are
//! re-placed onto the least-loaded survivor (after capped exponential
//! backoff, paying the wire again), bounded per-chip queues shed overload,
//! and the [`ClusterReport`] carries shed/migrated/retried counts plus SLO
//! attainment and goodput so the resilience figure can show a 4-chip fleet
//! losing one chip landing near 3-chip goodput.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod placement;
pub mod report;
pub mod server;
pub mod spec;

pub use error::ClusterError;
pub use placement::{PlacementJob, PlacementPolicy};
pub use report::{ChipOutcome, ClusterJobOutcome, ClusterReport};
pub use server::{serve_cluster, ClusterOptions, ClusterServer};
pub use spec::{ChipSpec, Interconnect};

pub use bts_fault::{ChipFailure, FaultPlan, LinkDegradation, RetryPolicy};
