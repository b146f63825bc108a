//! The collector: one run's telemetry as a plain value, and the per-thread
//! sink the instrumentation points write into.
//!
//! A [`Collector`] owns what one run records. While a [`Capture`] guard has
//! it installed on a thread, that thread's `emit_*` and [`span`] calls go to
//! it; captures nest (innermost wins) and are per thread, so runs never see
//! each other's events. The collector holds events and nothing else: a count
//! is an event or an event's arg. A thread with no sink records nothing, for
//! one thread-local read and one atomic load per instrumentation point — no
//! locks, allocation or clock reads (asserted by `tests/zero_alloc.rs`) —
//! unless the environment switched telemetry on, which gives it a root sink.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::event::{ArgValue, Event, EventKind};
use crate::TelemetryConfig;

/// Hard cap on one collector's buffered events. Past it, new events are
/// dropped (and counted in [`Collector::dropped`]) instead of growing
/// without bound — a long telemetry-enabled run stays at a bounded memory
/// footprint and the exported trace keeps its prefix.
pub const MAX_EVENTS: usize = 250_000;

/// Whether the environment switched telemetry on; read once per process.
static ENV_ON: OnceLock<bool> = OnceLock::new();
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);
/// Epoch for real-time spans: set on the first span, so `ts` starts near 0.
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// The innermost sink installed on this thread.
    static CURRENT: RefCell<Option<Sink>> = const { RefCell::new(None) };
    static SCOPES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static RT_TRACK: RefCell<Option<String>> = const { RefCell::new(None) };
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

/// A cheap clonable handle to a shared [`Collector`]: [`current`] on one
/// thread, [`Sink::install`] on another, and both write into the same run.
#[derive(Debug, Clone, Default)]
pub struct Sink(Arc<Mutex<Collector>>);

impl Sink {
    fn lock(&self) -> MutexGuard<'_, Collector> {
        // A panic while holding the lock only interrupts a push; the
        // collector stays well-formed, so poisoning is safe to shrug off.
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Makes this the current thread's innermost sink until the guard drops.
    pub fn install(self) -> Capture {
        let outer = CURRENT.with(|c| c.replace(Some(self.clone())));
        Capture {
            sink: self,
            outer,
            _this_thread: PhantomData,
        }
    }
}

/// RAII guard of an installed [`Sink`]; dropping it re-installs whatever was
/// current before, so guards must drop in reverse order of creation.
#[derive(Debug)]
#[must_use = "dropping the capture uninstalls its sink at once"]
pub struct Capture {
    sink: Sink,
    outer: Option<Sink>,
    _this_thread: PhantomData<*const ()>,
}

impl Capture {
    /// Ends the capture and returns what its sink recorded.
    pub fn finish(self) -> Collector {
        std::mem::take(&mut *self.sink.lock())
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.outer.take());
    }
}

/// Installs a fresh [`Collector`] on this thread, shadowing any outer sink.
pub fn capture() -> Capture {
    Sink::default().install()
}

/// The current thread's innermost sink, if any.
pub fn current() -> Option<Sink> {
    with_sink(Sink::clone)
}

/// Whether a sink is installed on this thread, i.e. whether instrumentation
/// points record. A thread without one consults the environment (read once
/// per process): `BTS_TRACE` or `BTS_TELEMETRY` (any non-empty value other
/// than `BTS_TELEMETRY=0`) give it a root sink on first use.
#[inline]
pub fn enabled() -> bool {
    with_sink(|_| ()).is_some()
}

fn with_sink<R>(f: impl FnOnce(&Sink) -> R) -> Option<R> {
    CURRENT.with(|c| {
        if c.borrow().is_none() && *ENV_ON.get_or_init(|| TelemetryConfig::from_env().enabled) {
            *c.borrow_mut() = Some(Sink::default());
        }
        c.borrow().as_ref().map(f)
    })
}

/// Runs `f` on the current thread's innermost collector, if any.
fn with_current<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    with_sink(|sink| f(&mut sink.lock()))
}

/// Records `event()` into the innermost sink, or counts it dropped if full.
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
/// `outer/inner`. No-op (and allocation-free) on a thread without a sink.
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
/// (zero-cost, no clock read) on a thread without a sink.
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
/// (0 = root). Returns an inactive guard on a thread without a sink.
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

/// The current thread's real-time track name: the OS thread name if set, a
/// stable `thread-N` otherwise.
fn realtime_track() -> String {
    RT_TRACK.with(|t| {
        t.borrow_mut()
            .get_or_insert_with(|| match std::thread::current().name() {
                Some(name) => name.to_string(),
                None => format!("thread-{}", NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed)),
            })
            .clone()
    })
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
    }

    #[test]
    fn a_forwarded_sink_collects_another_threads_events() {
        let run = capture();
        let sink = current().expect("a capture is installed");
        std::thread::scope(|s| {
            s.spawn(|| emit_instant("t", "unforwarded", 0.0, &[]));
            s.spawn(move || {
                let _forwarded = sink.install();
                emit_instant("t", "forwarded", 0.0, &[]);
            });
        });
        let run = run.finish();
        assert_eq!(run.events.len(), 1);
        assert_eq!(run.events[0].name, "forwarded");
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
