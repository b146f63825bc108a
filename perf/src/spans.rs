//! The runner's clock and in-memory span recorder. Spans wrap calls into the
//! layers' public functions — nothing inside the program under test is
//! instrumented — and are written out once, at exit, in Chrome trace-event
//! format. While the recorder is off a span only adds its elapsed time to the
//! repetition's total.
//!
//! Every timed call is followed by samples of a fixed calibration kernel,
//! one per 20 ms measured. The sandbox is a shared VM: whatever else the host
//! runs slows throughput-bound code by up to 1.8x, flickering within a second
//! and drifting over minutes, so raw times — mean, median or minimum — differ
//! by 10-40 % between runs of the same binary.
//! The kernel slows down with the program, so raw seconds divided by the
//! kernel's slowdown over the same period do not, to within a few percent.

use std::time::Instant;

use crate::{alloc, host};

/// Measured seconds one calibration sample stands for.
const SECONDS_PER_SAMPLE: f64 = 20e-3;
/// Most samples taken after any one call.
const MAX_SAMPLES_PER_CALL: usize = 64;
/// Fewest samples a calibration factor is computed from.
const MIN_SAMPLES_PER_FACTOR: usize = 16;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    rep: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
    depth: usize,
    /// Seconds and heap allocations inside outermost spans since the last
    /// `take_totals`.
    seconds: f64,
    allocations: u64,
    /// Measured seconds not yet matched by a calibration sample.
    uncalibrated: f64,
    calibration: Vec<f64>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            depth: 0,
            seconds: 0.0,
            allocations: 0,
            uncalibrated: 0.0,
            calibration: Vec::new(),
        }
    }

    /// Switches recording on or off and stamps later spans with `rep`.
    pub fn set(&mut self, on: bool, rep: u32) {
        self.on = on;
        self.rep = rep;
    }

    /// Runs `f` as a span named `name`, nested under the span now open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let allocations_before = alloc::count();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let index = self.spans.len();
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: 0,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.stack.push(index);
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        if self.on {
            self.stack.pop();
            self.spans[index].end_ns = end_ns;
        }
        if self.depth == 0 {
            let seconds = (end_ns - start_ns) as f64 / 1e9;
            self.seconds += seconds;
            self.allocations += alloc::count() - allocations_before;
            self.calibrate_for(seconds);
        }
        out
    }

    /// Raw seconds and heap allocations inside outermost spans since the last
    /// call: one repetition's cost in the program. Everything between the
    /// spans is the runner's own checking and calibrating. (With the recorder
    /// on, the allocations include the span list's own growth.)
    pub fn take_totals(&mut self) -> (f64, u64) {
        (
            std::mem::take(&mut self.seconds),
            std::mem::take(&mut self.allocations),
        )
    }

    /// Times one call outside any repetition (set-up, a probe): raw seconds.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        self.calibrate_for(seconds);
        (out, seconds)
    }

    fn calibrate_for(&mut self, seconds: f64) {
        self.uncalibrated += seconds;
        let mut taken = 0;
        while self.uncalibrated >= SECONDS_PER_SAMPLE && taken < MAX_SAMPLES_PER_CALL {
            self.calibration.push(host::calibration_sample());
            self.uncalibrated -= SECONDS_PER_SAMPLE;
            taken += 1;
        }
        self.uncalibrated = self.uncalibrated.min(SECONDS_PER_SAMPLE);
    }

    /// A point in the calibration record, for [`Recorder::factor_since`].
    pub fn mark(&self) -> usize {
        self.calibration.len()
    }

    /// What raw seconds measured since `mark` are multiplied by to become
    /// calibrated seconds: one over the kernel's slowdown in that period, its
    /// reference time over its mean time.
    pub fn factor_since(&mut self, mark: usize) -> f64 {
        while self.calibration.len() < mark + MIN_SAMPLES_PER_FACTOR {
            self.calibration.push(host::calibration_sample());
        }
        host::CALIBRATION_REFERENCE_S / host::mean(&self.calibration[mark..])
    }

    /// One value per warm repetition (cold is repetition 0) that recorded
    /// spans named `name`: their `value`s folded with `combine`.
    fn per_rep(
        &self,
        name: &str,
        value: impl Fn(usize, &Span) -> f64,
        combine: fn(f64, f64) -> f64,
    ) -> Vec<f64> {
        let mut out: Vec<(u32, f64)> = Vec::new();
        let named = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.rep > 0);
        for (i, span) in named {
            match out.last_mut() {
                Some((rep, acc)) if *rep == span.rep => *acc = combine(*acc, value(i, span)),
                _ => out.push((span.rep, value(i, span))),
            }
        }
        out.into_iter().map(|(_, v)| v).collect()
    }

    /// Per warm repetition, the summed duration in ms of the spans `name`.
    pub fn per_rep_ms(&self, name: &str) -> Vec<f64> {
        self.per_rep(name, |_, s| s.ms(), |a, b| a + b)
    }

    /// Per warm repetition, the longest single span `name`, in ms.
    pub fn per_rep_max_ms(&self, name: &str) -> Vec<f64> {
        self.per_rep(name, |_, s| s.ms(), f64::max)
    }

    /// Summed duration in ms of the cold repetition's spans `name`.
    pub fn cold_ms(&self, name: &str) -> f64 {
        let cold = self.spans.iter().filter(|s| s.name == name && s.rep == 0);
        cold.map(Span::ms).sum()
    }

    /// Writes every recorded span to `path` as Chrome trace events (`ph: X`,
    /// microsecond timestamps). `args` carry the repetition, the parent and
    /// the span's self time: its duration minus what its children cover.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        write!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("", |p| self.spans[p].name);
            write!(
                out,
                "{}\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"rep\": {}, \"parent\": \"{}\", \"self_us\": {:.3}}}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.rep,
                parent,
                (span.end_ns - span.start_ns - child_ns[i]) as f64 / 1e3
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}
