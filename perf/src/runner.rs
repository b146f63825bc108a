//! The measurement loop every workload goes through: repeated set-up, one
//! cold repetition, closed-loop warm repetitions for the requested time, the
//! output checks, and — in a traced run — the span recorder plus the
//! workload's isolated layer probes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bts::params::BandwidthModel;
use bts::sim::BtsConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host;
use crate::spans::Recorder;

/// A run sets up at least this many times, and on until set-up has taken
/// `SETUP_SECONDS` in all (or `MAX_SETUPS` times); `setup_s` is the mean.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;
const SETUP_SECONDS: f64 = 0.1;
/// Fewest warm repetitions a run reports a median over.
const MIN_WARM: usize = 3;

/// Input size: the full fixed work of a repetition, or a tiny cut of it for
/// `--smoke` (all checks on, nothing worth timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Output checks, counted into the result line's `attempted` / `failed`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one check; a failed one is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Counts one fallible call into the program; an `Err` is a failure.
    pub fn ok<T, E: std::fmt::Display>(&mut self, result: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                eprintln!("CHECK FAILED: {what}: {e}");
                None
            }
        }
    }
}

/// What one repetition hands back to the loop.
#[derive(Debug, PartialEq)]
pub struct Rep {
    /// Units of work done (the workload's own unit).
    pub units: u64,
    /// Bit patterns of the repetition's simulated outputs: every warm
    /// repetition must reproduce the first one's exactly.
    pub sim_bits: Vec<u64>,
}

pub type Metrics = BTreeMap<&'static str, f64>;

pub trait Bench: Sized {
    /// Builds everything a repetition needs from the seed — the time this
    /// takes is `setup_s`.
    fn setup(seed: u64, size: Size, checks: &mut Checks) -> Self;

    /// One repetition of the workload's fixed work, with its output checks.
    /// `cold` marks the first one, which alone runs the checks against
    /// references that are too slow or too specific to repeat.
    fn rep(&mut self, rec: &mut Recorder, checks: &mut Checks, cold: bool) -> Rep;

    /// The simulated clock: `(sim_seconds, sim_hbm_gb)` of the last repetition.
    fn simulated(&self) -> (f64, f64);

    /// Per-layer metrics: aggregates of the recorded spans plus isolated
    /// probes of inner layers on the same inputs.
    fn layers(
        &mut self,
        rec: &mut Recorder,
        checks: &mut Checks,
        size: Size,
        warm: &Warm,
        out: &mut Metrics,
    );
}

/// What the warm loop hands to [`Bench::layers`].
pub struct Warm {
    /// Turns raw seconds of the warm repetitions into calibrated ones (see
    /// [`Recorder::factor_since`]).
    pub factor: f64,
    /// Heap allocations per unit inside the program's calls, first warm
    /// repetition.
    pub allocs_per_unit: f64,
}

pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
    pub warm_reps: usize,
}

/// The seeded design point every simulated workload of a run uses: the BTS
/// default with its HBM bandwidth drawn within ±0.1 % of 1 TB/s. Simulated
/// time is deterministic, so without a seeded input it would read the same
/// on every run whatever the seed; bytes moved do not depend on bandwidth
/// and stay exact.
pub fn design_point(seed: u64) -> BtsConfig {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6274_735f_6873_626d);
    let jitter = 1.0 + (rng.gen::<f64>() - 0.5) * 2e-3;
    BtsConfig::bts_default().with_hbm(BandwidthModel::new(1.0e12 * jitter))
}

pub fn run<B: Bench>(name: &str, args: RunArgs) -> Outcome {
    let mut checks = Checks::default();
    let mut rec = Recorder::new();

    let setup_mark = rec.mark();
    let mut setup_seconds = Vec::new();
    let mut state = None;
    while setup_seconds.len() < MIN_SETUPS
        || (setup_seconds.len() < MAX_SETUPS && setup_seconds.iter().sum::<f64>() < SETUP_SECONDS)
    {
        // Drop the previous set-up first: two live copies would double the
        // peak resident set.
        drop(state.take());
        let (built, seconds) = rec.timed(|| B::setup(args.seed, args.size, &mut checks));
        state = Some(built);
        setup_seconds.push(seconds);
    }
    let mut state = state.expect("MIN_SETUPS > 0");
    let setup_factor = rec.factor_since(setup_mark);

    rec.set(args.trace, 0);
    state.rep(&mut rec, &mut checks, true);
    rec.take_totals();

    // Warm repetitions, closed loop: the next starts when the previous
    // returns. A traced run alternates untraced and traced repetitions so
    // the two means see the same machine state.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let warm_mark = rec.mark();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Allocations are counted on the first warm repetition alone: it follows
    // the same calls in every run, so the count repeats exactly, while later
    // repetitions differ by how far internal pools have grown.
    let mut allocs_per_unit = 0.0;
    let mut first: Option<Rep> = None;
    let mut index = 0u32;
    while plain.len() + traced.len() < MIN_WARM || started.elapsed() < budget {
        index += 1;
        let tracing = args.trace && index.is_multiple_of(2);
        rec.set(tracing, index);
        let rep = state.rep(&mut rec, &mut checks, false);
        let (seconds, allocations) = rec.take_totals();
        if tracing {
            traced.push(seconds);
        } else {
            plain.push(seconds);
        }
        if index == 1 {
            allocs_per_unit = allocations as f64 / rep.units.max(1) as f64;
        }
        match &first {
            Some(first) => checks.check(rep == *first, || {
                format!("{name}: repetition {index}'s units or simulated outputs differ from the first's")
            }),
            None => first = Some(rep),
        }
        // A smoke run stops after one repetition of each kind.
        if args.size == Size::Smoke && index == 2 {
            break;
        }
    }
    rec.set(false, 0);
    let warm = Warm {
        factor: rec.factor_since(warm_mark),
        allocs_per_unit,
    };
    let slowdown = 1.0 / warm.factor;
    checks.check(host::thread_count() == 1, || {
        format!(
            "{name}: {} threads alive, the runner must stay single-threaded",
            host::thread_count()
        )
    });

    let mut metrics = Metrics::new();
    if args.trace {
        state.layers(&mut rec, &mut checks, args.size, &warm, &mut metrics);
        metrics.insert("host.rep_spread", host::iqr_over_median(&plain));
        metrics.insert("host.calibration_slowdown", slowdown);
        if !traced.is_empty() {
            metrics.insert(
                "bench.trace_overhead_ratio",
                host::mean(&traced) / host::mean(&plain),
            );
        }
        let path = format!("perf/out/trace-{name}.json");
        if let Err(e) = rec.write_chrome_trace(std::path::Path::new(&path)) {
            checks.check(false, || format!("{name}: writing {path}: {e}"));
        }
    } else {
        let wall = host::mean(&plain) * warm.factor;
        // Every repetition did the first one's units (checked above).
        let units_per_rep = first.map_or(0, |rep| rep.units) as f64;
        let (sim_seconds, sim_hbm_gb) = state.simulated();
        metrics.insert("setup_s", host::mean(&setup_seconds) * setup_factor);
        metrics.insert("wall_s", wall);
        metrics.insert("units_per_s", units_per_rep / wall);
        metrics.insert("peak_rss_mb", host::peak_rss_mb());
        metrics.insert("allocs_per_unit", warm.allocs_per_unit);
        metrics.insert("sim_seconds", sim_seconds);
        metrics.insert("sim_hbm_gb", sim_hbm_gb);
        // Not part of the result line: what the calibration corrected.
        println!("OUT: {name} wall_raw_mean_s {} s", host::mean(&plain));
        println!(
            "OUT: {name} wall_raw_min_s {} s",
            plain.iter().copied().fold(f64::INFINITY, f64::min)
        );
        println!("OUT: {name} calibration_slowdown {slowdown} ratio");
    }
    Outcome {
        checks,
        metrics,
        warm_reps: plain.len(),
    }
}
