//! Unified tracing and metrics for the BTS workspace.
//!
//! One deterministic event stream per run feeds everything observable about
//! it: simulated per-op charges from `bts-sim`, per-unit busy intervals from
//! `bts-sched`, queue/admission/job lifecycles from `bts-serve`, placement and
//! interconnect transfers from `bts-cluster`, and wall-clock spans around the
//! `bts-math` hot paths. Exporters turn the stream into a Chrome trace-event
//! JSON file (load it in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`) and a flat metrics text dump.
//!
//! # Capture model
//!
//! Telemetry is a scoped value, not process state: [`capture`] installs a
//! fresh [`Collector`] on the current thread, every instrumentation point the
//! thread reaches writes into it, and [`Capture::finish`] hands it back.
//! Captures nest (the innermost shadows the rest until it ends) and are per
//! thread, so concurrent runs never mix; code that fans out forwards its sink
//! ([`current`] + [`Sink::install`]).
//!
//! ```
//! use bts_telemetry as telemetry;
//!
//! let run = telemetry::capture();
//! telemetry::emit_complete("NTTU.0", "HMult@L27", 0.0, 98.0e-6, &[]);
//! let scratch = telemetry::capture(); // shadows `run` until it ends
//! telemetry::emit_instant("scratchpad", "evict", 0.0, &[]);
//! drop(scratch); // what it recorded never reaches `run`
//! telemetry::counter_add("sim.cache.hits", 1);
//! let run = run.finish();
//! assert_eq!(run.events.len(), 1);
//! assert_eq!(run.metrics_dump(), "counter sim.cache.hits 1\n");
//! ```
//!
//! Telemetry is **off by default** and free when off: without a sink an
//! instrumentation point is one thread-local read plus one atomic load (no
//! locks, no allocation, no clock reads — asserted by a counting-allocator
//! test). Whole programs use the environment: with `BTS_TRACE=out.json`,
//! `BTS_METRICS=out.txt` or `BTS_TELEMETRY=1` (read once per process) a
//! thread without a sink gets a root sink on first use, and [`init`] with
//! [`TelemetryConfig::from_env`] captures until [`TelemetrySession::finish`]
//! writes the configured files.
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
mod metrics;
mod stats;
mod timeline;

pub use collector::{
    active_span_depth, capture, current, current_process, emit_complete, emit_counter,
    emit_instant, enabled, scope, span, Capture, Collector, ScopeGuard, Sink, Span, MAX_EVENTS,
};
pub use event::{check_proper_nesting, ArgValue, Event, EventKind};
pub use export::{chrome_trace_json, export_chrome_trace, ExportSummary};
pub use json::{trace_event_names, validate_chrome_trace, TraceCheck};
pub use metrics::{counter_add, gauge_set, observe, Histogram, Metric, LATENCY_BUCKET_BOUNDS};
pub use stats::{jain_index, nearest_rank_index, percentile_nearest_rank};
pub use timeline::TimelineSegment;

use std::io;
use std::path::PathBuf;

/// Where telemetry goes for one session: whether to collect, and which files
/// (if any) to export on [`TelemetrySession::finish`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryConfig {
    /// Collect events and metrics for this run.
    pub enabled: bool,
    /// Write a Chrome trace-event JSON file here on finish.
    pub trace_path: Option<PathBuf>,
    /// Write the flat metrics dump here on finish.
    pub metrics_path: Option<PathBuf>,
}

impl TelemetryConfig {
    /// Telemetry off, nothing exported — the zero-overhead default.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Reads the conventional environment variables: `BTS_TRACE=path.json`
    /// sets the trace path, `BTS_METRICS=path.txt` the metrics path, and
    /// either (or `BTS_TELEMETRY=1`) enables collection.
    pub fn from_env() -> Self {
        let path_var = |key: &str| {
            std::env::var_os(key)
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        };
        let trace_path = path_var("BTS_TRACE");
        let metrics_path = path_var("BTS_METRICS");
        let enabled = trace_path.is_some()
            || metrics_path.is_some()
            || matches!(std::env::var("BTS_TELEMETRY"), Ok(v) if !v.is_empty() && v != "0");
        Self {
            enabled,
            trace_path,
            metrics_path,
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
    /// The metrics dump path, when configured.
    pub metrics: Option<PathBuf>,
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

    /// Ends the capture and exports the configured trace and/or metrics file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from either export.
    pub fn finish(self) -> io::Result<FinishSummary> {
        let collected = self.capture.map(Capture::finish).unwrap_or_default();
        let trace = match &self.config.trace_path {
            Some(path) => Some(export_chrome_trace(&collected, path)?),
            None => None,
        };
        if let Some(path) = &self.config.metrics_path {
            std::fs::write(path, collected.metrics_dump())?;
        }
        Ok(FinishSummary {
            trace,
            metrics: self.config.metrics_path.clone(),
        })
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
        assert!(config.metrics_path.is_none());
    }

    #[test]
    fn or_trace_path_fills_only_when_missing() {
        let filled = TelemetryConfig::disabled().or_trace_path("a.json");
        assert!(filled.enabled);
        assert_eq!(filled.trace_path, Some(PathBuf::from("a.json")));
        let kept = TelemetryConfig {
            enabled: true,
            trace_path: Some(PathBuf::from("explicit.json")),
            metrics_path: None,
        }
        .or_trace_path("default.json");
        assert_eq!(kept.trace_path, Some(PathBuf::from("explicit.json")));
    }

    #[test]
    fn session_round_trip_exports_a_valid_trace() {
        let dir = std::env::temp_dir().join("bts_telemetry_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("session.trace.json");
        let metrics_path = dir.join("session.metrics.txt");
        let config = TelemetryConfig {
            enabled: true,
            trace_path: Some(trace_path.clone()),
            metrics_path: Some(metrics_path.clone()),
        };
        let session = init(&config);
        emit_complete("unit", "work", 0.0, 1e-6, &[("bytes", ArgValue::U64(64))]);
        counter_add("lib.test.counter", 3);
        let summary = session.finish().unwrap();
        let trace = summary.trace.unwrap();
        assert_eq!(trace.events, 1);
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let check = validate_chrome_trace(&text).unwrap();
        assert_eq!(check.events, 1);
        let metrics_text = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics_text.contains("counter lib.test.counter 3"));
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&metrics_path).ok();
    }
}
