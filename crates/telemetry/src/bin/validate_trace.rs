//! CLI gate for exported Chrome traces: parses the file, checks it against
//! the trace-event schema subset the workspace emits (required keys, valid
//! phases, monotone timestamps per track) and optionally enforces a minimum
//! track count and the presence of named events. Exits non-zero on any
//! violation — CI runs this on the traces produced by `serving_demo` and
//! `cluster_demo`, including a fault-injected cluster run that must contain
//! its `chip-failure`/`migrate` events.
//!
//! ```text
//! validate_trace <trace.json> [--min-tracks N] [--require-event NAME]...
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: validate_trace <trace.json> [--min-tracks N] [--require-event NAME]...");
        return ExitCode::FAILURE;
    };
    let mut min_tracks = 0usize;
    let mut required_events: Vec<String> = Vec::new();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--min-tracks" => {
                let Some(value) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--min-tracks needs an integer argument");
                    return ExitCode::FAILURE;
                };
                min_tracks = value;
            }
            "--require-event" => {
                let Some(name) = args.next() else {
                    eprintln!("--require-event needs an event name argument");
                    return ExitCode::FAILURE;
                };
                required_events.push(name);
            }
            other => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("validate_trace: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    match bts_telemetry::validate_chrome_trace(&text) {
        Ok(check) => {
            println!(
                "{path}: OK — {} events, {} processes, {} tracks",
                check.events, check.processes, check.tracks
            );
            if check.tracks < min_tracks {
                eprintln!(
                    "validate_trace: {} tracks < required minimum {min_tracks}",
                    check.tracks
                );
                return ExitCode::FAILURE;
            }
            if !required_events.is_empty() {
                let names = match bts_telemetry::trace_event_names(&text) {
                    Ok(names) => names,
                    Err(err) => {
                        eprintln!("validate_trace: {path}: {err}");
                        return ExitCode::FAILURE;
                    }
                };
                for required in &required_events {
                    if !names.iter().any(|n| n == required) {
                        eprintln!(
                            "validate_trace: {path}: required event '{required}' absent \
                             (present: {})",
                            names.join(", ")
                        );
                        return ExitCode::FAILURE;
                    }
                }
                println!(
                    "{path}: required events present: {}",
                    required_events.join(", ")
                );
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("validate_trace: {path}: {err}");
            ExitCode::FAILURE
        }
    }
}
