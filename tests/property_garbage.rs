//! Garbage in, typed errors out: `serve` and `serve_cluster` on seeded
//! draws of malformed input — NaN, ±∞, negative and 1e300 s arrivals (the
//! last past the simulated clock's range); NaN, ±∞ and negative deadlines,
//! failure times and backoffs, and 1e300 s deadlines (legal: never
//! reached); zero chips, zero in-flight slots and zero
//! attempts; transient rates outside [0, 1); inverted or zero-factor link
//! windows; chips the fleet does not have; empty batches and unknown
//! workloads — mixed with sane values, so clean cases run end to end. The
//! simulator meets the same picker one layer down: every `BtsConfig` field
//! clean, zero, huge or non-finite, under `Simulator::try_run`.
//!
//! Every case runs on a watchdog thread and must come back within a bound
//! with `Ok` or a typed `Err`: never a panic, never a hang. A case that drew
//! a value no layer may accept must come back `Err`; a clean serve case must
//! come back `Ok` and account for every job it was given.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bts::cluster::{
    serve_cluster, ChipSpec, ClusterError, ClusterOptions, FaultPlan, Interconnect,
    PlacementPolicy, RetryPolicy,
};
use bts::params::{BandwidthModel, CkksInstance};
use bts::serve::{serve, JobRequest, ServeOptions};
use bts::sim::{ArchPreset, BtsConfig, Simulator, TraceBuilder, TraceError};

/// Long enough for a clean debug-build case, short enough to call a hang.
const WATCHDOG: Duration = Duration::from_secs(120);

/// Runs `case` on its own thread and returns its result, failing the test if
/// it panics or outlives the watchdog.
fn on_watchdog<T: Send + 'static>(case: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        // The receiver may have given up on a hung case already.
        let _ = done.send(case());
    });
    match result.recv_timeout(WATCHDOG) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("the case hung past {WATCHDOG:?}"),
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the worker sends before it returns"),
        },
    }
}

/// A seeded source of inputs: each site is corrupted with probability
/// `rate` (zero for a clean case), and drawing a value no layer may accept
/// marks the case as one that must fail.
struct Draw {
    rng: StdRng,
    rate: f64,
    must_fail: bool,
}

impl Draw {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Clean, sparsely corrupted (one bad site reaches the deep checks),
        // or densely corrupted (bad sites compete for the first error).
        let rate = [0.0, 0.08, 0.25][rng.gen_range(0..3usize)];
        Self {
            rng,
            rate,
            must_fail: false,
        }
    }

    /// `clean`, or, at a corrupted site, one of `garbage` — `(value, must
    /// the call fail?)`.
    fn pick<T: Copy>(&mut self, clean: T, garbage: &[(T, bool)]) -> T {
        if self.rate == 0.0 || !self.rng.gen_bool(self.rate) {
            return clean;
        }
        let (value, fatal) = garbage[self.rng.gen_range(0..garbage.len())];
        self.must_fail |= fatal;
        value
    }

    /// A simulated time: `clean`, or one no clock accepts.
    fn time(&mut self, clean: f64) -> f64 {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-3];
        self.pick(clean, &bad.map(|t| (t, true)))
    }

    /// A job stream: possibly empty, possibly naming an unknown workload,
    /// with bad arrivals and deadlines (a finite past deadline is legal: the
    /// job is shed on arrival; so is one far past any clock). An arrival at
    /// 1e300 s is past the simulated clock's range.
    fn jobs(&mut self) -> Vec<JobRequest> {
        let count = self.rng.gen_range(1..4usize);
        let count = self.pick(count, &[(0, false)]);
        (0..count)
            .map(|i| {
                let clean = ["bootstrap", "amortized-mult"][i % 2];
                let workload = self.pick(clean, &[("no-such-workload", true)]);
                let arrival = self.time(i as f64 * 2e-3);
                let arrival = self.pick(arrival, &[(1e300, true)]);
                let job = JobRequest::new(
                    i as u64,
                    i as u32 % 2,
                    workload,
                    CkksInstance::ins1(),
                    arrival,
                );
                let deadlines = [
                    (f64::NAN, true),
                    (f64::INFINITY, true),
                    (-1.0, false),
                    (1e300, false),
                ];
                match self.rng.gen_bool(0.5) {
                    true => job.with_deadline(self.pick(arrival.max(0.0) + 0.1, &deadlines)),
                    false => job,
                }
            })
            .collect()
    }

    fn retry(&mut self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.pick(3, &[(0, true)]),
            backoff_base_seconds: self.time(1e-3),
            backoff_cap_seconds: self.time(4e-3),
        }
    }

    fn transient_rate(&mut self) -> f64 {
        let bad = [f64::NAN, f64::INFINITY, -0.5, 1.0, 1.5];
        self.pick(0.3, &bad.map(|r| (r, true)))
    }
}

fn garbage_serve(seed: u64) -> (bool, Vec<JobRequest>, ServeOptions) {
    let mut d = Draw::new(seed);
    let jobs = d.jobs();
    let mut options = ServeOptions::new(d.pick(2, &[(0, true)]))
        .with_retry(d.retry())
        .with_fault_plan(
            FaultPlan::none()
                .with_seed(seed)
                .with_transient_rate(d.transient_rate()),
        );
    if let Some(capacity) = d.pick(None, &[(Some(0), false), (Some(1), false)]) {
        options = options.with_queue_capacity(capacity);
    }
    if let Some(t) = d.pick(None, &[(Some(2e-3), false), (Some(0.0), false)]) {
        options = options.with_failure_at(d.time(t));
    }
    (d.must_fail, jobs, options)
}

fn garbage_cluster(seed: u64) -> (bool, Vec<JobRequest>, ClusterOptions) {
    let mut d = Draw::new(seed);
    let jobs = d.jobs();
    let chips = d.pick(3, &[(0, true)]);
    let spec =
        ChipSpec::preset(ArchPreset::Bts, chips).with_interconnect(Interconnect::nvlink_class());
    let mut plan = FaultPlan::none()
        .with_seed(seed)
        .with_transient_rate(d.transient_rate());
    if d.rng.gen_bool(0.5) {
        let chip = d.pick(1, &[(chips + 1, true), (usize::MAX, true)]);
        plan = plan.with_chip_failure(chip, d.time(3e-3));
    }
    if d.rng.gen_bool(0.5) {
        let windows = [
            ((1e-2, 0.0, 0.5), true),
            ((0.0, 1e-2, 0.0), true),
            ((0.0, 1e-2, f64::NAN), true),
            ((0.0, 1e-2, 1.5), true),
            ((f64::NAN, 1e-2, 0.5), true),
        ];
        let (from, until, factor) = d.pick((0.0, 1e-2, 0.5), &windows);
        plan = plan.with_link_degradation(from, until, factor);
    }
    let mut options = ClusterOptions::new(spec)
        .with_placement(PlacementPolicy::ALL[d.rng.gen_range(0..3usize)])
        .with_max_in_flight(d.pick(2, &[(0, true)]))
        .with_retry(d.retry())
        .with_fault_plan(plan);
    if let Some(capacity) = d.pick(None, &[(Some(0), false), (Some(1), false)]) {
        options = options.with_queue_capacity(capacity);
    }
    (d.must_fail, jobs, options)
}

/// A configuration with every field clean, zero, huge or non-finite. A huge
/// scratchpad or `l_sub` is a legal (if unbuildable) design; every other
/// garbage value must be refused.
fn garbage_config(seed: u64) -> (bool, BtsConfig) {
    let mut d = Draw::new(seed);
    let clean = BtsConfig::bts_default();
    // A huge PE count is fatal too: no grid drawn here multiplies out to it.
    let bad_count = [(0, true), (usize::MAX, true)];
    let pe_count = d.pick(clean.pe_count, &bad_count);
    let pe_cols = d.pick(clean.pe_cols, &bad_count);
    let pe_rows = d.pick(clean.pe_rows, &bad_count);
    let bad_rates = [0.0, -1.0, 1e300, 1e-300, f64::NAN, f64::INFINITY];
    let frequency_hz = d.pick(clean.frequency_hz, &bad_rates.map(|f| (f, true)));
    let bandwidth = [0.0, -1.0, f64::NAN, 1e300, 1e-300, f64::INFINITY].map(|b| (b, true));
    let hbm = BandwidthModel::new(d.pick(clean.hbm.bytes_per_sec(), &bandwidth));
    let config = BtsConfig {
        pe_count,
        pe_cols,
        pe_rows,
        frequency_hz,
        scratchpad_bytes: d.pick(clean.scratchpad_bytes, &[(0, true), (u64::MAX, false)]),
        hbm,
        lsub: d.pick(clean.lsub, &[(0, true), (usize::MAX, false)]),
        overlap_bconv_intt: d.rng.gen_bool(0.5),
    };
    (d.must_fail, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn try_run_answers_garbage_configs_with_typed_errors(seed in any::<u64>()) {
        let (must_fail, config) = garbage_config(seed);
        let ins = CkksInstance::ins1();
        let mut b = TraceBuilder::new(&ins);
        let x = b.fresh_ct(ins.max_level());
        let y = b.hmult(x, x);
        let z = b.hrot(y, 1, ins.max_level());
        b.hrescale(z);
        let trace = b.build();
        match Simulator::new(config, ins).try_run(&trace) {
            Ok(report) => {
                prop_assert!(!must_fail, "seed {seed}: garbage accepted");
                let seconds = [report.total_seconds, report.bootstrap_seconds];
                let sane = seconds.iter().all(|s| s.is_finite() && *s >= 0.0);
                prop_assert!(sane, "seed {seed}: {seconds:?}");
            }
            Err(TraceError::InvalidConfig(e)) => {
                prop_assert!(must_fail, "seed {seed}: clean config refused: {e}");
            }
            Err(e) => prop_assert!(false, "seed {seed}: {e}"),
        }
    }
}

proptest! {
    // Clean cases lower and serve real INS-1 circuits; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serve_answers_garbage_with_typed_errors(seed in any::<u64>()) {
        let (must_fail, jobs, options) = garbage_serve(seed);
        let submitted = jobs.len();
        let result = on_watchdog(move || serve(&jobs, options));
        match result {
            Ok(report) => {
                prop_assert!(!must_fail, "seed {seed}: garbage accepted");
                prop_assert_eq!(report.submitted_count(), submitted);
            }
            Err(e) => prop_assert!(must_fail, "seed {seed}: clean input refused: {e}"),
        }
    }

    #[test]
    fn serve_cluster_answers_garbage_with_typed_errors(seed in any::<u64>()) {
        let (must_fail, jobs, options) = garbage_cluster(seed);
        let submitted = jobs.len();
        let result = on_watchdog(move || serve_cluster(&jobs, options));
        match result {
            Ok(report) => {
                prop_assert!(!must_fail, "seed {seed}: garbage accepted");
                prop_assert_eq!(report.submitted_count(), submitted);
            }
            // A clean plan may still kill every chip a job could go to.
            Err(ClusterError::ChipUnavailable { job: Some(_), .. }) if !must_fail => {}
            Err(e) => prop_assert!(must_fail, "seed {seed}: clean input refused: {e}"),
        }
    }
}
