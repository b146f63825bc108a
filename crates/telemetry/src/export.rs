//! Exporter: Chrome trace-event JSON (Perfetto / `chrome://tracing`).
//!
//! The JSON exporter interns every distinct event `process` as a `pid` and
//! every `(process, track)` pair as a `tid`, emits `process_name` /
//! `thread_name` metadata records, and writes the events sorted by
//! `(pid, tid, ts)` — so each track's timestamps are monotone non-decreasing,
//! which the CI schema gate checks. Timestamps are converted from the
//! collector's nanoseconds to the trace format's microseconds.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

use crate::collector::Collector;
use crate::event::{ArgValue, Event, EventKind};
use crate::json::JsonWriter;

/// What one Chrome-trace export produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportSummary {
    /// Where the trace was written.
    pub path: PathBuf,
    /// Number of events written (excluding metadata records).
    pub events: usize,
    /// Number of distinct processes (pids).
    pub processes: usize,
    /// Number of distinct tracks (pid/tid pairs).
    pub tracks: usize,
    /// Events dropped at the collector's buffer cap before export.
    pub dropped: u64,
}

/// Serializes events into a complete Chrome trace-event JSON document
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
pub fn chrome_trace_json(events: &[Event]) -> String {
    // Intern processes and tracks in sorted order so ids are deterministic.
    let mut pids: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in events {
        let next = pids.len() as u64 + 1;
        pids.entry(ev.process.as_str()).or_insert(next);
    }
    let mut tids: BTreeMap<(u64, &str), u64> = BTreeMap::new();
    for ev in events {
        let pid = pids[ev.process.as_str()];
        let next = tids.len() as u64 + 1;
        tids.entry((pid, ev.track.as_str())).or_insert(next);
    }

    let ids = |ev: &Event| {
        let pid = pids[ev.process.as_str()];
        (pid, tids[&(pid, ev.track.as_str())])
    };
    // By track, then timestamp; the sort is stable, so events at equal
    // timestamps on one track keep their emission order.
    let mut order: Vec<&Event> = events.iter().collect();
    order.sort_by(|a, b| {
        let ts = a.ts_ns.partial_cmp(&b.ts_ns).expect("finite ts");
        ids(a).cmp(&ids(b)).then(ts)
    });

    let mut w = JsonWriter::default();
    w.object(|w| {
        w.key("traceEvents").array(|w| {
            // Metadata: name every process (tid 0) and track.
            let processes = pids
                .iter()
                .map(|(&name, &pid)| (pid, 0, "process_name", name));
            let tracks = tids
                .iter()
                .map(|(&(pid, name), &tid)| (pid, tid, "thread_name", name));
            for (pid, tid, kind, name) in processes.chain(tracks) {
                w.object(|w| {
                    w.field("ph", "M")
                        .field("name", kind)
                        .field("pid", pid)
                        .field("tid", tid)
                        .field("ts", 0u64)
                        .key("args")
                        .object(|w| {
                            w.field("name", name);
                        });
                });
            }
            for ev in order {
                let (pid, tid) = ids(ev);
                w.object(|w| {
                    w.field("name", ev.name.as_str())
                        .field("pid", pid)
                        .field("tid", tid)
                        .field("ts", ev.ts_ns / 1e3);
                    match ev.kind {
                        EventKind::Complete { dur_ns } => {
                            w.field("ph", "X").field("dur", dur_ns / 1e3)
                        }
                        EventKind::Instant => w.field("ph", "i").field("s", "t"),
                        EventKind::Counter => w.field("ph", "C"),
                    };
                    if !ev.args.is_empty() {
                        w.key("args").object(|w| {
                            for (key, value) in &ev.args {
                                match value {
                                    ArgValue::U64(v) => w.field(key, *v),
                                    ArgValue::F64(v) => w.field(key, *v),
                                    ArgValue::Str(v) => w.field(key, v.as_str()),
                                };
                            }
                        });
                    }
                });
            }
        });
        w.field("displayTimeUnit", "ms");
    });
    w.finish()
}

/// Writes a collector's events as a Chrome trace to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_chrome_trace(collector: &Collector, path: &Path) -> io::Result<ExportSummary> {
    let events = &collector.events;
    std::fs::write(path, chrome_trace_json(events))?;
    let tracks: BTreeSet<_> = events.iter().map(|ev| (&ev.process, &ev.track)).collect();
    let processes: BTreeSet<_> = tracks.iter().map(|(process, _)| process).collect();
    Ok(ExportSummary {
        path: path.to_path_buf(),
        events: events.len(),
        processes: processes.len(),
        tracks: tracks.len(),
        dropped: collector.dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(process: &str, track: &str, name: &str, ts_ns: f64, kind: EventKind) -> Event {
        Event {
            process: process.to_string(),
            track: track.to_string(),
            name: name.to_string(),
            ts_ns,
            kind,
            args: Vec::new(),
        }
    }

    #[test]
    fn exported_json_validates_against_the_schema_checker() {
        let mut events = vec![
            ev(
                "bts",
                "NTTU.0",
                "HMult@L27",
                2000.0,
                EventKind::Complete { dur_ns: 500.0 },
            ),
            ev(
                "bts",
                "NTTU.0",
                "HRot@L27",
                1000.0,
                EventKind::Complete { dur_ns: 250.0 },
            ),
            ev("chip1", "queue", "queue", 0.0, EventKind::Counter),
            ev("bts", "admission", "boot \"q\"", 1500.0, EventKind::Instant),
        ];
        events[2].args = vec![("waiting", ArgValue::F64(3.0))];
        events[3].args = vec![
            ("job", ArgValue::U64(4)),
            ("tenant", ArgValue::Str("t\\0".to_string())),
        ];
        let json = chrome_trace_json(&events);
        let check = crate::json::validate_chrome_trace(&json).expect("schema-valid");
        assert_eq!(check.events, 4);
        assert_eq!(check.processes, 2);
        assert_eq!(check.tracks, 3);
    }

    #[test]
    fn events_are_sorted_per_track_even_when_emitted_out_of_order() {
        let events = vec![
            ev("p", "t", "late", 500.0, EventKind::Instant),
            ev("p", "t", "early", 100.0, EventKind::Instant),
        ];
        let json = chrome_trace_json(&events);
        let early = json.find("\"early\"").unwrap();
        let late = json.find("\"late\"").unwrap();
        assert!(early < late, "events must be written in ts order per track");
        crate::json::validate_chrome_trace(&json).unwrap();
    }

    #[test]
    fn non_finite_values_are_exported_as_null() {
        let mut event = ev("p", "t", "gauge", 0.0, EventKind::Counter);
        event.args = vec![("waiting", ArgValue::F64(f64::NAN))];
        let json = chrome_trace_json(&[event]);
        assert!(json.contains("\"args\": {\"waiting\": null}"), "{json}");
        crate::json::validate_chrome_trace(&json).unwrap();
    }

    #[test]
    fn empty_event_set_is_still_well_formed() {
        let json = chrome_trace_json(&[]);
        let check = crate::json::validate_chrome_trace(&json).unwrap();
        assert_eq!(check.events, 0);
        assert_eq!(check.tracks, 0);
    }
}
