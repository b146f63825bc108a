//! The collector: one run's telemetry as a plain value, and the per-thread
//! stack of them the instrumentation points write into.
//!
//! A [`Collector`] owns what one run records. Each thread keeps a stack of
//! collectors, innermost last: [`capture`] pushes a fresh one, every
//! `emit_*` and [`span`] call on the thread goes to the top of the stack,
//! and [`Capture::finish`] pops it back out. Captures nest (innermost wins)
//! and are per thread, so runs never see each other's events, and a
//! collector only ever holds its own thread's events. The collector holds
//! events and nothing else: a count is an event or an event's arg. A thread
//! with an empty stack records nothing, for one thread-local borrow and one
//! `OnceLock` load per instrumentation point — no locks, allocation or clock
//! reads (asserted by `tests/zero_alloc.rs`) — unless the environment
//! switched telemetry on, which gives it a root collector.
//!
//! Two more thread-local stacks give events their context:
//!
//! * the **scope stack** ([`scope`]) names the Perfetto *process* an event
//!   belongs to — the cluster layer pushes `chip3` around a chip's serving
//!   loop and every simulated event inside lands in that chip's process;
//! * the **span stack** ([`span`]) links real-time RAII spans to their
//!   parents, so a `bconv.convert_into` span inside `ckks.key_switch` carries
//!   its parent's id.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use crate::event::{ArgValue, Event, EventKind};

/// Hard cap on one collector's buffered events. Past it, new events are
/// dropped (and counted in [`Collector::dropped`]) instead of growing
/// without bound — a long telemetry-enabled run stays at a bounded memory
/// footprint and the exported trace keeps its prefix.
pub const MAX_EVENTS: usize = 250_000;

/// Epoch for real-time spans: set on the first span, so `ts` starts near 0.
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// This thread's installed collectors, innermost last.
    static COLLECTORS: RefCell<Vec<Collector>> = const { RefCell::new(Vec::new()) };
    static SCOPES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Everything one run recorded.
#[derive(Debug, Default)]
pub struct Collector {
    /// The recorded events, oldest first; at most [`MAX_EVENTS`].
    pub events: Vec<Event>,
    /// Number of events dropped because the buffer hit [`MAX_EVENTS`].
    pub dropped: u64,
    /// Span ids handed out so far; the next span gets `spans + 1` (0 = root).
    spans: u64,
}

/// RAII guard of a [`capture`]d collector. Dropping it without
/// [`finish`](Capture::finish) discards what it recorded; captures must end
/// in reverse order of creation.
#[derive(Debug)]
#[must_use = "dropping the capture uninstalls its collector at once"]
pub struct Capture {
    /// Index of this capture's collector in the thread's stack.
    depth: usize,
    _this_thread: PhantomData<*const ()>,
}

impl Capture {
    /// Ends the capture and returns what its collector recorded.
    pub fn finish(self) -> Collector {
        COLLECTORS.with(|c| {
            let mut c = c.borrow_mut();
            debug_assert_eq!(c.len(), self.depth + 1, "captures end innermost first");
            // Takes its own collector; drops any a leaked inner capture left above.
            let from = self.depth.min(c.len());
            let mine = c.drain(from..).next();
            mine.unwrap_or_default()
        })
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        COLLECTORS.with(|c| c.borrow_mut().truncate(self.depth));
    }
}

/// Installs a fresh [`Collector`] on this thread, shadowing any outer one.
pub fn capture() -> Capture {
    let depth = COLLECTORS.with(|c| {
        let mut c = c.borrow_mut();
        c.push(Collector::default());
        c.len() - 1
    });
    Capture {
        depth,
        _this_thread: PhantomData,
    }
}

/// The trace file the environment asks for: `BTS_TRACE`, when set and
/// non-empty.
pub fn trace_path() -> Option<PathBuf> {
    std::env::var_os("BTS_TRACE")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Whether the environment switched telemetry on, read once per process:
/// `BTS_TRACE` ([`trace_path`]) or a `BTS_TELEMETRY` other than empty or `0`.
fn env_on() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        trace_path().is_some()
            || matches!(std::env::var("BTS_TELEMETRY"), Ok(v) if !v.is_empty() && v != "0")
    })
}

/// Whether a collector is installed on this thread, i.e. whether
/// instrumentation points record. A thread without one consults the
/// environment (read once per process): `BTS_TRACE` or `BTS_TELEMETRY` (any
/// non-empty value other than `0`) give it a root collector on first use.
#[inline]
pub fn enabled() -> bool {
    with_current(|_| ()).is_some()
}

/// Runs `f` on the current thread's innermost collector, if any.
fn with_current<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    COLLECTORS.with(|c| {
        let mut c = c.borrow_mut();
        if c.is_empty() && env_on() {
            c.push(Collector::default());
        }
        c.last_mut().map(f)
    })
}

/// Records `event()` into the innermost collector, or counts it dropped if
/// full.
fn record(event: impl FnOnce() -> Event) {
    with_current(|c| {
        if c.events.len() >= MAX_EVENTS {
            c.dropped += 1;
        } else {
            c.events.push(event());
        }
    });
}

/// The current thread's scope stack joined into a process name (`"bts"` when
/// empty).
pub fn current_process() -> String {
    SCOPES.with(|s| {
        let s = s.borrow();
        if s.is_empty() {
            "bts".to_string()
        } else {
            s.join("/")
        }
    })
}

/// RAII guard returned by [`scope`]; pops its name when dropped.
#[derive(Debug)]
pub struct ScopeGuard {
    active: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.active {
            SCOPES.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Pushes a name onto the current thread's scope stack: every event emitted
/// on this thread until the guard drops belongs to the (nested) process
/// `outer/inner`. No-op (and allocation-free) on a thread without a
/// collector.
pub fn scope(name: impl Into<String>) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { active: false };
    }
    SCOPES.with(|s| s.borrow_mut().push(name.into()));
    ScopeGuard { active: true }
}

/// Records a simulated-time event on `track` of the current scope process.
fn emit(
    track: &str,
    name: &str,
    ts_seconds: f64,
    kind: EventKind,
    args: impl Iterator<Item = (&'static str, ArgValue)>,
) {
    record(|| Event {
        process: current_process(),
        track: track.to_string(),
        name: name.to_string(),
        ts_ns: ts_seconds * 1e9,
        kind,
        args: args.collect(),
    });
}

/// Emits a closed interval in simulated time on `track` of the current scope
/// process. `start_seconds`/`dur_seconds` are model seconds. No-op while
/// disabled.
pub fn emit_complete(
    track: &str,
    name: &str,
    start_seconds: f64,
    dur_seconds: f64,
    args: &[(&'static str, ArgValue)],
) {
    let dur_ns = dur_seconds * 1e9;
    let kind = EventKind::Complete { dur_ns };
    emit(track, name, start_seconds, kind, args.iter().cloned());
}

/// Emits a point-in-time marker in simulated time. No-op while disabled.
pub fn emit_instant(track: &str, name: &str, ts_seconds: f64, args: &[(&'static str, ArgValue)]) {
    let args = args.iter().cloned();
    emit(track, name, ts_seconds, EventKind::Instant, args);
}

/// Emits a counter sample in simulated time; `series` become the counter's
/// stacked values in the trace viewer. No-op while disabled.
pub fn emit_counter(track: &str, name: &str, ts_seconds: f64, series: &[(&'static str, f64)]) {
    let args = series.iter().map(|&(k, v)| (k, ArgValue::F64(v)));
    emit(track, name, ts_seconds, EventKind::Counter, args);
}

/// A real-time RAII span: records a wall-clock `Complete` event on the
/// emitting thread's track of the `realtime` process when dropped. Inactive
/// (zero-cost, no clock read) on a thread without a collector.
#[derive(Debug)]
pub struct Span(Option<ActiveSpan>);

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: f64,
}

/// Opens a real-time span. Spans on one thread nest: the most recently opened
/// live span is the parent of the next, recorded in the `parent_span_id` arg
/// (0 = root). Returns an inactive guard on a thread without a collector.
pub fn span(name: &'static str) -> Span {
    let Some(id) = with_current(|c| {
        c.spans += 1;
        c.spans
    }) else {
        return Span(None);
    };
    let epoch = *EPOCH.get_or_init(Instant::now);
    let start_ns = epoch.elapsed().as_nanos() as f64;
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Span(Some(ActiveSpan {
        name,
        id,
        parent,
        start_ns,
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == active.id) {
                s.remove(pos);
            }
        });
        let end_ns = EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as f64;
        record(|| Event {
            process: "realtime".to_string(),
            track: realtime_track(),
            name: active.name.to_string(),
            ts_ns: active.start_ns,
            kind: EventKind::Complete {
                dur_ns: (end_ns - active.start_ns).max(0.0),
            },
            args: vec![
                ("span_id", ArgValue::U64(active.id)),
                ("parent_span_id", ArgValue::U64(active.parent)),
            ],
        });
    }
}

/// Number of live real-time spans on the current thread. A balanced
/// open/close discipline returns this to its prior value — the
/// "spans properly closed" test hook.
pub fn active_span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// The current thread's real-time track name: the OS thread name, or
/// `"thread"` when it has none.
fn realtime_track() -> String {
    std::thread::current()
        .name()
        .unwrap_or("thread")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_records_only_while_installed() {
        let outer = capture();
        emit_instant("t", "before", 0.0, &[]);
        let inner = capture();
        emit_complete("t", "n", 0.0, 1.0, &[]);
        emit_counter("t", "n", 0.0, &[("v", 1.0)]);
        let inner = inner.finish();
        emit_instant("t", "after", 1.0, &[]);
        let outer = outer.finish();
        assert_eq!(inner.events.len(), 2);
        let names: Vec<&str> = outer.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["before", "after"], "nested captures shadow");
        assert_eq!(active_span_depth(), 0);
        // Both collectors are gone: what is left is what the environment
        // alone gives (a root collector under `BTS_TELEMETRY=1`, else none).
        assert_eq!(enabled(), env_on());
    }

    #[test]
    fn a_capture_dropped_unfinished_uninstalls_its_collector() {
        let outer = capture();
        let inner = capture();
        emit_instant("t", "discarded", 0.0, &[]);
        drop(inner);
        emit_instant("t", "kept", 0.0, &[]);
        let outer = outer.finish();
        let names: Vec<&str> = outer.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["kept"]);
        assert_eq!(enabled(), env_on());
    }

    #[test]
    fn a_captured_run_exports_a_valid_trace() {
        let run = capture();
        emit_complete("unit", "work", 0.0, 1e-6, &[("bytes", ArgValue::U64(64))]);
        let run = run.finish();
        let check = crate::validate_chrome_trace(&crate::chrome_trace_json(&run.events))
            .expect("schema-valid");
        assert_eq!((check.events, check.tracks), (1, 1));
    }

    #[test]
    fn scope_stack_shapes_the_process_name() {
        let _run = capture();
        assert_eq!(current_process(), "bts");
        {
            let _outer = scope("chip0");
            assert_eq!(current_process(), "chip0");
            {
                let _inner = scope("prep");
                assert_eq!(current_process(), "chip0/prep");
            }
            assert_eq!(current_process(), "chip0");
        }
        assert_eq!(current_process(), "bts");
    }

    #[test]
    fn spans_record_parent_linkage() {
        let run = capture();
        {
            let _outer = span("collector-test-outer");
            let _inner = span("collector-test-inner");
            assert_eq!(active_span_depth(), 2);
        }
        assert_eq!(active_span_depth(), 0);
        let run = run.finish();
        let find = |name: &str| run.events.iter().find(|e| e.name == name).unwrap();
        let outer = find("collector-test-outer");
        let inner = find("collector-test-inner");
        assert_eq!(inner.arg_u64("parent_span_id"), outer.arg_u64("span_id"));
        assert_eq!(outer.arg_u64("parent_span_id"), Some(0));
        assert_eq!(outer.process, "realtime");
    }

    #[test]
    fn buffer_overflow_is_counted_not_grown() {
        let filler = Event {
            process: "p".to_string(),
            track: "t".to_string(),
            name: "f".to_string(),
            ts_ns: 0.0,
            kind: EventKind::Instant,
            args: Vec::new(),
        };
        let run = capture();
        with_current(|c| c.events.resize(MAX_EVENTS - 1, filler));
        emit_instant("t", "fits", 0.0, &[]);
        emit_instant("t", "overflow", 0.0, &[]);
        let full = run.finish();
        assert_eq!(full.events.len(), MAX_EVENTS);
        assert_eq!(full.dropped, 1);
    }
}
