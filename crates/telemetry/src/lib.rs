//! Unified tracing for the BTS workspace.
//!
//! One deterministic event stream per run feeds everything observable about
//! it: simulated per-op charges from `bts-sim`, per-unit busy intervals from
//! `bts-sched`, queue/admission/job lifecycles from `bts-serve`, placement and
//! interconnect transfers from `bts-cluster`, and wall-clock spans around the
//! `bts-math` hot paths. Exporters turn the stream into a Chrome trace-event
//! JSON file (load it in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`). The stream is the only record: every count a layer
//! reports (cache hits, completed jobs, sheds, retries, migrations,
//! interconnect bytes) is an arg or an event of it, summed by whoever reads
//! it.
//!
//! # Capture model
//!
//! Telemetry is a scoped value, not process state: [`capture`] pushes a
//! fresh [`Collector`] onto the current thread's stack of them, every
//! instrumentation point the thread reaches writes into the innermost one,
//! and [`Capture::finish`] pops it back out. Captures nest (the innermost
//! shadows the rest until it ends) and are per thread, so concurrent runs
//! never mix and a collector only ever holds one thread's events.
//!
//! ```
//! use bts_telemetry::{self as telemetry, ArgValue};
//!
//! let run = telemetry::capture();
//! let hits = |n| [("cache_hits", ArgValue::U64(n))];
//! telemetry::emit_complete("engine", "HMult@L27", 0.0, 98.0e-6, &hits(2));
//! let scratch = telemetry::capture(); // shadows `run` until it ends
//! telemetry::emit_instant("scratchpad", "evict", 0.0, &[]);
//! drop(scratch); // what it recorded never reaches `run`
//! telemetry::emit_complete("engine", "HRot@L27", 98.0e-6, 98.0e-6, &hits(1));
//! let run = run.finish();
//! // A count is an event arg: the reader sums it.
//! let total: u64 = run.events.iter().filter_map(|e| e.arg_u64("cache_hits")).sum();
//! assert_eq!((run.events.len(), total), (2, 3));
//! ```
//!
//! Telemetry is **off by default** and free when off: without a collector an
//! instrumentation point is one thread-local borrow plus one `OnceLock` load
//! (no locks, no allocation, no clock reads — asserted by a
//! counting-allocator test). Whole programs use the environment: with
//! `BTS_TRACE=out.json` or `BTS_TELEMETRY=1` (read once per process) a thread
//! without a collector gets a root collector on first use, and programs that
//! write a trace file take its path from [`trace_path`].
//!
//! # Event model
//!
//! Events carry a `(process, track)` pair that becomes a Perfetto
//! `(pid, tid)` lane: the *process* is the thread's [`scope`] stack
//! (`"bts"`, `"chip2"`, `"chip2/prep"`, `"realtime"`), the *track* names a
//! functional unit, queue or OS thread inside it. Simulated-time events stamp
//! model seconds; [`span`] guards stamp a monotonic wall clock onto the
//! `realtime` process with parent linkage.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collector;
mod event;
mod export;
pub mod json;
mod stats;
mod timeline;

pub use collector::{
    active_span_depth, capture, current_process, emit_complete, emit_counter, emit_instant,
    enabled, scope, span, trace_path, Capture, Collector, ScopeGuard, Span, MAX_EVENTS,
};
pub use event::{check_proper_nesting, ArgValue, Event, EventKind};
pub use export::chrome_trace_json;
pub use json::{trace_event_names, validate_chrome_trace, TraceCheck};
pub use stats::{jain_index, percentile_nearest_rank};
pub use timeline::TimelineSegment;
