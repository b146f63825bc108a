//! Shared latency statistics.
//!
//! One nearest-rank implementation feeds every latency figure in the
//! workspace: the exact per-job percentiles of the `bts-serve`/`bts-cluster`
//! reports and of the figures derived from their event streams, both from
//! the raw samples. [`jain_index`] is both reports' tenant fairness.

/// Zero-based index of the nearest-rank `p`-th percentile in a sorted sample
/// of `len` elements: `rank = ⌈p/100 · len⌉`, clamped into `[1, len]`
/// (so `p = 0` selects the minimum and `p = 100` the maximum).
///
/// # Panics
///
/// Panics if `len == 0` or `p` is outside `[0, 100]`.
fn nearest_rank_index(len: usize, p: f64) -> usize {
    assert!(len > 0, "percentile of an empty sample");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

/// Exact nearest-rank percentile of an unsorted sample: sorts a copy and
/// takes its `⌈p/100 · len⌉`-th smallest value (rank clamped into
/// `[1, len]`). Returns `0.0` for an empty sample
/// (the convention the serving reports established for "no jobs yet").
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
pub fn percentile_nearest_rank(values: &[f64], p: f64) -> f64 {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    sorted[nearest_rank_index(sorted.len(), p)]
}

/// Jain's fairness index over per-tenant mean latency, from
/// `(tenant, latency)` pairs: `(Σx)² / (n·Σx²)` over the `n` tenants' means.
/// 1.0 means every tenant saw the same mean latency; `1/n` means one tenant
/// absorbed all of it. Fewer than two tenants (or zero total latency) is
/// perfectly fair by definition.
pub fn jain_index(samples: impl IntoIterator<Item = (u32, f64)>) -> f64 {
    let mut per_tenant: std::collections::BTreeMap<u32, (f64, usize)> =
        std::collections::BTreeMap::new();
    for (tenant, latency) in samples {
        let entry = per_tenant.entry(tenant).or_insert((0.0, 0));
        entry.0 += latency;
        entry.1 += 1;
    }
    if per_tenant.len() < 2 {
        return 1.0;
    }
    let means: Vec<f64> = per_tenant
        .values()
        .map(|&(sum, n)| sum / n as f64)
        .collect();
    let total: f64 = means.iter().sum();
    let squares: f64 = means.iter().map(|x| x * x).sum();
    if squares <= 0.0 {
        return 1.0;
    }
    total * total / (means.len() as f64 * squares)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_zero() {
        assert_eq!(percentile_nearest_rank(&[], 50.0), 0.0);
        assert_eq!(percentile_nearest_rank(&[], 99.0), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile_nearest_rank(&[42.0], p), 42.0);
        }
    }

    #[test]
    fn ties_resolve_to_the_tied_value() {
        let values = [3.0, 1.0, 3.0, 3.0, 2.0];
        assert_eq!(percentile_nearest_rank(&values, 50.0), 3.0);
        assert_eq!(percentile_nearest_rank(&values, 40.0), 2.0);
        assert_eq!(percentile_nearest_rank(&values, 99.0), 3.0);
    }

    #[test]
    fn matches_the_nearest_rank_definition() {
        // 10 samples: p50 → rank 5 → 5th smallest; p99 → rank 10 → max.
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&values, 50.0), 5.0);
        assert_eq!(percentile_nearest_rank(&values, 99.0), 10.0);
        assert_eq!(percentile_nearest_rank(&values, 0.0), 1.0);
        assert_eq!(percentile_nearest_rank(&values, 100.0), 10.0);
        assert_eq!(percentile_nearest_rank(&values, 10.0), 1.0);
        assert_eq!(percentile_nearest_rank(&values, 10.1), 2.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile_nearest_rank(&values, 50.0), 3.0);
    }

    #[test]
    fn jain_index_spans_one_over_n_to_one() {
        assert_eq!(jain_index([(0, 2.0), (1, 1.0), (1, 3.0)]), 1.0);
        assert_eq!(jain_index([(7, 5.0), (7, 1.0)]), 1.0);
        assert_eq!(jain_index([(0, 0.0), (1, 0.0)]), 1.0);
        // One of four tenants absorbs all the latency: 1/4.
        assert_eq!(jain_index([(0, 4.0), (1, 0.0), (2, 0.0), (3, 0.0)]), 0.25);
    }

    #[test]
    fn out_of_range_percentile_panics() {
        assert!(std::panic::catch_unwind(|| percentile_nearest_rank(&[1.0], 101.0)).is_err());
        assert!(std::panic::catch_unwind(|| percentile_nearest_rank(&[1.0], -0.5)).is_err());
        assert!(std::panic::catch_unwind(|| nearest_rank_index(0, 50.0)).is_err());
    }
}
