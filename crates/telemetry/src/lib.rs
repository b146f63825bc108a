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
//! Telemetry is a scoped value, not process state: [`capture`] installs a
//! fresh [`Collector`] on the current thread, every instrumentation point the
//! thread reaches writes into it, and [`Capture::finish`] hands it back.
//! Captures nest (the innermost shadows the rest until it ends) and are per
//! thread, so concurrent runs never mix. Work handed to another thread can
//! write into the caller's sink ([`current`] + [`Sink::install`]); no layer
//! of the workspace hands work across threads today.
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
//! Telemetry is **off by default** and free when off: without a sink an
//! instrumentation point is one thread-local read plus one atomic load (no
//! locks, no allocation, no clock reads — asserted by a counting-allocator
//! test). Whole programs use the environment: with `BTS_TRACE=out.json` or
//! `BTS_TELEMETRY=1` (read once per process) a thread without a sink gets a
//! root sink on first use, and [`init`] with [`TelemetryConfig::from_env`]
//! captures until [`TelemetrySession::finish`] writes the configured trace.
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
    active_span_depth, capture, current, current_process, emit_complete, emit_counter,
    emit_instant, enabled, scope, span, Capture, Collector, ScopeGuard, Sink, Span, MAX_EVENTS,
};
pub use event::{check_proper_nesting, ArgValue, Event, EventKind};
pub use export::{chrome_trace_json, export_chrome_trace, ExportSummary};
pub use json::{trace_event_names, validate_chrome_trace, TraceCheck};
pub use stats::{jain_index, percentile_nearest_rank};
pub use timeline::TimelineSegment;

use std::io;
use std::path::PathBuf;

/// Where telemetry goes for one session: whether to collect, and where (if
/// anywhere) to export the trace on [`TelemetrySession::finish`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryConfig {
    /// Collect events for this run.
    pub enabled: bool,
    /// Write a Chrome trace-event JSON file here on finish.
    pub trace_path: Option<PathBuf>,
}

impl TelemetryConfig {
    /// Telemetry off, nothing exported — the zero-overhead default.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Reads the conventional environment variables: `BTS_TRACE=path.json`
    /// sets the trace path and enables collection; `BTS_TELEMETRY=1` enables
    /// collection alone.
    pub fn from_env() -> Self {
        let trace_path = std::env::var_os("BTS_TRACE")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
        let enabled = trace_path.is_some()
            || matches!(std::env::var("BTS_TELEMETRY"), Ok(v) if !v.is_empty() && v != "0");
        Self {
            enabled,
            trace_path,
        }
    }

    /// Returns the config with a trace path (and collection enabled) if none
    /// was set — how demos supply a default output file while still letting
    /// `BTS_TRACE` win.
    pub fn or_trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        if self.trace_path.is_none() {
            self.trace_path = Some(path.into());
            self.enabled = true;
        }
        self
    }
}

/// What [`TelemetrySession::finish`] wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishSummary {
    /// The Chrome trace export, when a trace path was configured.
    pub trace: Option<ExportSummary>,
}

/// A live telemetry session created by [`init`]; call
/// [`finish`](TelemetrySession::finish) to export what was collected.
#[derive(Debug)]
pub struct TelemetrySession {
    config: TelemetryConfig,
    capture: Option<Capture>,
}

/// Applies a [`TelemetryConfig`]: an enabled config starts a [`capture`] —
/// the calling thread's root sink for the session, shadowing the
/// environment's — that the session exports on finish; a disabled one
/// installs nothing.
pub fn init(config: &TelemetryConfig) -> TelemetrySession {
    TelemetrySession {
        config: config.clone(),
        capture: config.enabled.then(capture),
    }
}

impl TelemetrySession {
    /// The config this session was created with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Ends the capture and exports the configured trace file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the export.
    pub fn finish(self) -> io::Result<FinishSummary> {
        let collected = self.capture.map(Capture::finish).unwrap_or_default();
        let trace = match &self.config.trace_path {
            Some(path) => Some(export_chrome_trace(&collected, path)?),
            None => None,
        };
        Ok(FinishSummary { trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_disabled() {
        let config = TelemetryConfig::disabled();
        assert!(!config.enabled);
        assert!(config.trace_path.is_none());
    }

    #[test]
    fn or_trace_path_fills_only_when_missing() {
        let filled = TelemetryConfig::disabled().or_trace_path("a.json");
        assert!(filled.enabled);
        assert_eq!(filled.trace_path, Some(PathBuf::from("a.json")));
        let kept = TelemetryConfig {
            enabled: true,
            trace_path: Some(PathBuf::from("explicit.json")),
        }
        .or_trace_path("default.json");
        assert_eq!(kept.trace_path, Some(PathBuf::from("explicit.json")));
    }

    #[test]
    fn session_round_trip_exports_a_valid_trace() {
        let dir = std::env::temp_dir().join("bts_telemetry_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("session.trace.json");
        let config = TelemetryConfig {
            enabled: true,
            trace_path: Some(trace_path.clone()),
        };
        let session = init(&config);
        emit_complete("unit", "work", 0.0, 1e-6, &[("bytes", ArgValue::U64(64))]);
        let summary = session.finish().unwrap();
        let trace = summary.trace.unwrap();
        assert_eq!(trace.events, 1);
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let check = validate_chrome_trace(&text).unwrap();
        assert_eq!(check.events, 1);
        std::fs::remove_file(&trace_path).ok();
    }
}
