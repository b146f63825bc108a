//! The metrics registry: named counters, gauges and fixed-bucket latency
//! histograms, kept in the same per-run [`Collector`] as the event stream.
//!
//! Metrics complement the event stream: events answer "when did it happen",
//! metrics answer "how much in total". Both are deterministic for simulated
//! sources; the registry is dumped as a flat sorted text file by
//! [`Collector::metrics_dump`] (one line per metric, stable across runs).

use std::fmt::Write;

use crate::collector::{with_current, Collector};
use crate::stats::nearest_rank_index;

/// Log-spaced 1-2-5 bucket upper bounds for latency histograms, in seconds:
/// 1 µs … 1000 s. Values past the last bound land in an overflow bucket.
pub const LATENCY_BUCKET_BOUNDS: [f64; 28] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 1e1, 2e1, 5e1, 1e2, 2e2, 5e2, 1e3,
];

/// A fixed-bucket histogram over [`LATENCY_BUCKET_BOUNDS`]: constant memory,
/// percentile estimates via the same nearest-rank rule as the exact report
/// percentiles (the estimate returns the upper bound of the bucket holding
/// the rank, clamped to the observed max).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// One count per bound plus a final overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; LATENCY_BUCKET_BOUNDS.len() + 1],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        let idx = LATENCY_BUCKET_BOUNDS.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank percentile estimate: the upper bound of the bucket
    /// containing the rank, clamped to the observed maximum (exact when all
    /// samples share a bucket's bound; otherwise an upper estimate within one
    /// bucket's width). Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            assert!(
                (0.0..=100.0).contains(&p),
                "percentile {p} outside [0, 100]"
            );
            return 0.0;
        }
        let rank = nearest_rank_index(self.total as usize, p) as u64 + 1;
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let bound = LATENCY_BUCKET_BOUNDS
                    .get(idx)
                    .copied()
                    .unwrap_or(f64::INFINITY);
                return bound.min(self.max);
            }
        }
        self.max()
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotone counter.
    Counter(u64),
    /// A last-value gauge.
    Gauge(f64),
    /// A fixed-bucket histogram.
    Histogram(Histogram),
}

/// Adds to the named counter (creating it at zero). No-op on a thread
/// without a sink.
pub fn counter_add(name: &str, delta: u64) {
    with_current(|c| match c.metrics.get_mut(name) {
        Some(Metric::Counter(v)) => *v += delta,
        _ => {
            c.metrics.insert(name.to_string(), Metric::Counter(delta));
        }
    });
}

/// Sets the named gauge to `value`. No-op on a thread without a sink.
pub fn gauge_set(name: &str, value: f64) {
    with_current(|c| c.metrics.insert(name.to_string(), Metric::Gauge(value)));
}

/// Records one sample into the named latency histogram (creating it empty).
/// No-op on a thread without a sink.
pub fn observe(name: &str, value: f64) {
    with_current(|c| match c.metrics.get_mut(name) {
        Some(Metric::Histogram(h)) => h.record(value),
        _ => {
            let mut h = Histogram::new();
            h.record(value);
            c.metrics.insert(name.to_string(), Metric::Histogram(h));
        }
    });
}

impl Collector {
    /// The flat text dump: one line per metric, sorted by name, stable across
    /// runs for deterministic sources.
    ///
    /// ```text
    /// counter sim.cache.hits 4821
    /// gauge serve.in_flight 3
    /// histogram serve.latency_seconds count=9 mean=0.0421 min=0.0118 max=0.0633 p50=0.05 p99=0.0633
    /// ```
    pub fn metrics_dump(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            match metric {
                Metric::Counter(v) => writeln!(out, "counter {name} {v}"),
                Metric::Gauge(v) => writeln!(out, "gauge {name} {v}"),
                Metric::Histogram(h) => writeln!(
                    out,
                    "histogram {name} count={} mean={} min={} max={} p50={} p99={}",
                    h.count(),
                    h.mean(),
                    h.min(),
                    h.max(),
                    h.percentile(50.0),
                    h.percentile(99.0),
                ),
            }
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_track_the_nearest_rank_rule() {
        let mut h = Histogram::new();
        for _ in 0..9 {
            h.record(1e-3);
        }
        h.record(0.5);
        assert_eq!(h.count(), 10);
        // p50 rank 5 lands in the 1e-3 bucket; p99 rank 10 in the 0.5 bucket.
        assert_eq!(h.percentile(50.0), 1e-3);
        assert_eq!(h.percentile(99.0), 0.5);
        assert_eq!(h.percentile(0.0), 1e-3);
        assert!((h.mean() - (9.0 * 1e-3 + 0.5) / 10.0).abs() < 1e-15);
        assert_eq!(h.min(), 1e-3);
        assert_eq!(h.max(), 0.5);
    }

    #[test]
    fn histogram_estimate_is_clamped_to_the_observed_max() {
        let mut h = Histogram::new();
        h.record(0.0012); // bucket bound 2e-3
        assert_eq!(h.percentile(50.0), 0.0012);
        // Overflow samples report the max, not infinity.
        let mut over = Histogram::new();
        over.record(5000.0);
        assert_eq!(over.percentile(99.0), 5000.0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn registry_round_trip_and_dump_are_sorted() {
        let run = crate::capture();
        counter_add("z.counter", 2);
        counter_add("z.counter", 3);
        gauge_set("a.gauge", 1.5);
        observe("m.hist", 1e-3);
        let dump = run.finish().metrics_dump();
        let lines: Vec<&str> = dump.lines().collect();
        // Sorted by name: a < m < z.
        assert_eq!(lines[0], "gauge a.gauge 1.5");
        assert!(lines[1].starts_with("histogram m.hist count=1"));
        assert_eq!(lines[2], "counter z.counter 5");
        assert!(Collector::default().metrics_dump().is_empty());
    }
}
