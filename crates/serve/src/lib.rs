//! # bts-serve
//!
//! A simulated multi-tenant batch serving layer for the BTS accelerator —
//! the repo's first step toward the "heavy traffic from millions of users"
//! north star. BTS's headline metric is *amortized per-slot throughput under
//! sustained load*: the accelerator earns its area when many bootstrapping
//! workloads keep it busy at once. This crate supplies the missing layer
//! between the workload registry and the machine model:
//!
//! * [`JobRequest`] (`job`) — a workload name + [`bts_params::CkksInstance`]
//!   + arrival time, submitted by a tenant;
//! * [`QueuePolicy`] (`policy`) — FIFO, shortest-job-first by estimated
//!   cost, or round-robin per tenant, deciding who gets the next free slot;
//! * [`SyntheticArrivals`] (`arrivals`) — seeded Poisson-like job streams so
//!   load sweeps are reproducible;
//! * [`BtsServer`] / [`serve`] (`server`) — prepares each distinct
//!   (workload, instance) pair once ([`PreparedBatch`]), then streams every
//!   in-flight job through one shared [`bts_sched::MultiScheduler`] so ops
//!   from *different* jobs interleave on the NTTU/BConvU/element-wise/HBM
//!   channels;
//! * [`ServeReport`] (`report`) — per-job queue/service/latency breakdowns,
//!   makespan, sustained amortized mult-slot throughput, per-unit
//!   utilization, Jain fairness across tenants, and the batch's merged
//!   [`bts_sim::SimReport`].
//!
//! The server also models overload and failure: bounded admission queues
//! shed arrivals past capacity, per-job deadlines gate SLO attainment and
//! expire queued work, transient faults from a seeded
//! [`FaultPlan`] redrive jobs under a capped-exponential [`RetryPolicy`],
//! and a failure time cuts the run short, reporting unfinished work as
//! [`InterruptedJob`]s for the cluster layer (`bts-cluster`) to migrate.
//!
//! ```
//! use bts_params::{BandwidthModel, CkksInstance};
//! use bts_serve::{serve, ServeOptions, SyntheticArrivals};
//! use bts_sim::BtsConfig;
//!
//! // Two tenants bootstrap at once on one accelerator with 2 TB/s HBM.
//! let ins = CkksInstance::ins1();
//! let jobs = SyntheticArrivals::burst(&ins, "bootstrap", 2);
//! let options = ServeOptions::new(2)
//!     .with_config(BtsConfig::bts_default().with_hbm(BandwidthModel::hbm_2tb()));
//! let report = serve(&jobs, options).unwrap();
//! // Co-scheduling packs the two jobs tighter than one-at-a-time service.
//! assert!(report.coscheduling_speedup() > 1.0);
//! assert!(report.throughput_jobs_per_sec() > report.serial_throughput_jobs_per_sec());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrivals;
mod derived;
mod error;
pub mod estimate;
mod job;
mod policy;
mod report;
mod server;

pub use arrivals::SyntheticArrivals;
pub use derived::DerivedServeFigures;
pub use error::ServeError;
pub use estimate::estimate_trace_seconds;
pub use job::{validate_batch, JobRequest, QueuedJob};
pub use policy::QueuePolicy;
pub use report::{InterruptedJob, JobOutcome, ServeReport, ShedJob, ShedReason};
pub use server::{serve, BtsServer, PreparedBatch, PreparedPair, ServeOptions};

pub use bts_fault::{FaultPlan, RetryPolicy};
