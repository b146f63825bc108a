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

    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by(|&a, &b| {
        let ka = (
            pids[events[a].process.as_str()],
            tids[&(pids[events[a].process.as_str()], events[a].track.as_str())],
        );
        let kb = (
            pids[events[b].process.as_str()],
            tids[&(pids[events[b].process.as_str()], events[b].track.as_str())],
        );
        ka.cmp(&kb)
            .then(
                events[a]
                    .ts_ns
                    .partial_cmp(&events[b].ts_ns)
                    .expect("finite ts"),
            )
            // Stable within a track at equal ts: keep emission order.
            .then(a.cmp(&b))
    });

    let mut out = String::with_capacity(events.len() * 128 + 1024);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push_record = |out: &mut String, body: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(body);
    };

    // Metadata: name every process and track.
    for (process, &pid) in &pids {
        push_record(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"ts\":0,\
                 \"args\":{{\"name\":{}}}}}",
                json_string(process)
            ),
        );
    }
    for (&(pid, track), &tid) in &tids {
        push_record(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"ts\":0,\
                 \"args\":{{\"name\":{}}}}}",
                json_string(track)
            ),
        );
    }

    for &idx in &order {
        let ev = &events[idx];
        let pid = pids[ev.process.as_str()];
        let tid = tids[&(pid, ev.track.as_str())];
        let ts_us = ev.ts_ns / 1e3;
        let mut body = format!(
            "{{\"name\":{},\"pid\":{pid},\"tid\":{tid},\"ts\":{}",
            json_string(&ev.name),
            json_number(ts_us)
        );
        match ev.kind {
            EventKind::Complete { dur_ns } => {
                body.push_str(&format!(
                    ",\"ph\":\"X\",\"dur\":{}",
                    json_number(dur_ns / 1e3)
                ));
            }
            EventKind::Instant => {
                body.push_str(",\"ph\":\"i\",\"s\":\"t\"");
            }
            EventKind::Counter => {
                body.push_str(",\"ph\":\"C\"");
            }
        }
        if !ev.args.is_empty() {
            body.push_str(",\"args\":{");
            for (i, (key, value)) in ev.args.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&json_string(key));
                body.push(':');
                match value {
                    ArgValue::U64(v) => body.push_str(&v.to_string()),
                    ArgValue::F64(v) => body.push_str(&json_number(*v)),
                    ArgValue::Str(v) => body.push_str(&json_string(v)),
                }
            }
            body.push('}');
        }
        body.push('}');
        push_record(&mut out, &body);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
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

/// Formats a finite f64 as a JSON number (no exponent, shortest round-trip).
fn json_number(v: f64) -> String {
    debug_assert!(v.is_finite(), "trace timestamps/values must be finite");
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes and quotes a string for JSON.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    fn empty_event_set_is_still_well_formed() {
        let json = chrome_trace_json(&[]);
        let check = crate::json::validate_chrome_trace(&json).unwrap();
        assert_eq!(check.events, 0);
        assert_eq!(check.tracks, 0);
    }
}
