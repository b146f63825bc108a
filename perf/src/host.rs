//! Host-side measurement helpers: `/proc/self/status` readers, the
//! calibration kernel, and the statistics reported timings go through.

/// Reads one `kB` field of `/proc/self/status` (e.g. `VmHWM`).
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Threads alive in this process (`Threads:`); the runner must stay at one.
pub fn thread_count() -> u64 {
    status_kb("Threads:").unwrap_or(1)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Host seconds the calibration kernel takes on the machine calibrated
/// timings are expressed for (this sandbox when nothing else runs).
pub const CALIBRATION_REFERENCE_S: f64 = 0.6e-3;

/// One sample of the calibration kernel: multiply-add passes over an
/// L1-resident table, throughput-bound like the layers under test, so it
/// slows down with them when the host is busy with something else.
pub fn calibration_sample() -> f64 {
    let mut table: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let start = std::time::Instant::now();
    for pass in 0..256u64 {
        for word in table.iter_mut() {
            *word = word.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(pass) ^ (*word >> 29);
        }
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64()
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest order statistic with at least ten samples beyond it, as the
/// choosing-metrics guide asks; with fewer than twenty samples that would sit
/// below the median, so the maximum is reported instead.
pub fn high(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n >= 20 => v[n - 11],
        n => v[n - 1],
    }
}

/// Interquartile range over the median, with the exclusive-method quartiles
/// of Python's `statistics.quantiles(values, n=4)`; 0 below two samples.
pub fn iqr_over_median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    let m = median(&v);
    if n < 2 || m == 0.0 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (quartile(3) - quartile(1)) / m
}
