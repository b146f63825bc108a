//! Serving figures recomputed from the telemetry event stream.
//!
//! The point of one unified event stream is that reports *derive* from it
//! instead of needing private plumbing: every scheduler reservation event
//! carries its exact `start_ticks`/`end_ticks` ([`bts_sim::ticks`]) and
//! every job lifecycle event its exact latency/finish floats, so the
//! utilization and latency percentiles recomputed here match
//! [`crate::ServeReport`] bitwise on the same run — which the umbrella
//! `telemetry_stream` test asserts.

use bts_sched::FuKind;
use bts_sim::ticks;
use bts_telemetry::Event;

/// Headline serving figures recomputed purely from telemetry events.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedServeFigures {
    /// Number of job lifecycle events seen (track `"jobs"`).
    pub job_count: usize,
    /// Latest job finish time (0 with no jobs) — the makespan.
    pub makespan_seconds: f64,
    /// Busy fraction per unit class (one channel each) over the makespan,
    /// from the scheduler's reservation events, indexed by
    /// [`FuKind::index`].
    pub utilizations: [f64; FuKind::COUNT],
    /// Nearest-rank p50 of end-to-end latency.
    pub latency_p50_seconds: f64,
    /// Nearest-rank p99 of end-to-end latency.
    pub latency_p99_seconds: f64,
}

/// Does `track` name a channel of `kind` (`"NTTU.0"`, `"HBM.0"`, …)?
fn is_channel_track(track: &str, kind: FuKind) -> bool {
    let label = kind.label();
    track.starts_with(label) && track.as_bytes().get(label.len()) == Some(&b'.')
}

impl DerivedServeFigures {
    /// Recomputes the figures from one serve run's captured event stream.
    pub fn from_events(events: &[Event]) -> Self {
        let mut latencies = Vec::new();
        let mut makespan = 0.0f64;
        // Reservation ticks summed per class: the scheduler's own sums.
        let mut reserved = [0u64; FuKind::COUNT];
        for ev in events {
            if ev.track == "jobs" {
                if let (Some(latency), Some(finish)) =
                    (ev.arg_f64("latency_s"), ev.arg_f64("finish_s"))
                {
                    latencies.push(latency);
                    makespan = makespan.max(finish);
                }
                continue;
            }
            for kind in FuKind::ALL {
                if is_channel_track(&ev.track, kind) {
                    let (start, end) = (ev.arg_u64("start_ticks"), ev.arg_u64("end_ticks"));
                    if let (Some(start), Some(end)) = (start, end) {
                        reserved[kind.index()] += end - start;
                    }
                    break;
                }
            }
        }
        let mut utilizations = [0.0f64; FuKind::COUNT];
        if makespan > 0.0 {
            for kind in FuKind::ALL {
                utilizations[kind.index()] = ticks::seconds(reserved[kind.index()]) / makespan;
            }
        }
        Self {
            job_count: latencies.len(),
            makespan_seconds: makespan,
            utilizations,
            latency_p50_seconds: bts_telemetry::percentile_nearest_rank(&latencies, 50.0),
            latency_p99_seconds: bts_telemetry::percentile_nearest_rank(&latencies, 99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_telemetry::{ArgValue, EventKind};

    fn job_event(latency: f64, finish: f64) -> Event {
        Event {
            process: "bts".to_string(),
            track: "jobs".to_string(),
            name: "bootstrap".to_string(),
            ts_ns: (finish - latency) * 1e9,
            kind: EventKind::Complete {
                dur_ns: latency * 1e9,
            },
            args: vec![
                ("latency_s", ArgValue::F64(latency)),
                ("finish_s", ArgValue::F64(finish)),
            ],
        }
    }

    fn busy_event(track: &str, start: f64, end: f64) -> Event {
        Event {
            process: "bts".to_string(),
            track: track.to_string(),
            name: "J0#0".to_string(),
            ts_ns: start * 1e9,
            kind: EventKind::Complete {
                dur_ns: (end - start) * 1e9,
            },
            args: vec![
                ("start_s", ArgValue::F64(start)),
                ("end_s", ArgValue::F64(end)),
                (
                    "start_ticks",
                    ArgValue::U64(ticks::from_seconds(start).unwrap()),
                ),
                (
                    "end_ticks",
                    ArgValue::U64(ticks::from_seconds(end).unwrap()),
                ),
            ],
        }
    }

    #[test]
    fn figures_come_from_the_event_args() {
        let events = vec![
            job_event(1.0, 1.0),
            job_event(3.0, 4.0),
            busy_event("NTTU.0", 0.0, 2.0),
            busy_event("HBM.0", 1.0, 4.0),
        ];
        let derived = DerivedServeFigures::from_events(&events);
        assert_eq!(derived.job_count, 2);
        assert_eq!(derived.makespan_seconds, 4.0);
        assert_eq!(derived.utilizations[FuKind::Nttu.index()], 2.0 / 4.0);
        assert_eq!(derived.utilizations[FuKind::Hbm.index()], 3.0 / 4.0);
        assert_eq!(derived.latency_p50_seconds, 1.0);
        assert_eq!(derived.latency_p99_seconds, 3.0);
    }

    #[test]
    fn unrelated_tracks_are_ignored_and_empty_streams_are_zero() {
        let stray = Event {
            process: "bts".to_string(),
            track: "engine".to_string(),
            name: "HMult@L27".to_string(),
            ts_ns: 0.0,
            kind: EventKind::Instant,
            args: Vec::new(),
        };
        let derived = DerivedServeFigures::from_events(&[stray]);
        assert_eq!(derived.job_count, 0);
        assert_eq!(derived.makespan_seconds, 0.0);
        assert_eq!(derived.utilizations, [0.0; FuKind::COUNT]);
        assert_eq!(derived.latency_p50_seconds, 0.0);
    }

    #[test]
    fn channel_track_matching_requires_the_dot() {
        assert!(is_channel_track("NTTU.0", FuKind::Nttu));
        assert!(is_channel_track("ModMult/ModAdd.3", FuKind::Elementwise));
        assert!(!is_channel_track("NTTU", FuKind::Nttu));
        assert!(!is_channel_track("NTTUX.0", FuKind::Nttu));
        assert!(!is_channel_track("jobs", FuKind::Hbm));
    }
}
