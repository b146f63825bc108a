use rand::Rng;

/// Hamming weight marker meaning "dense ternary" (every coefficient drawn
/// uniformly from {-1, 0, 1}); the paper's security analysis follows the
/// non-sparse-key setting of Bossuat et al. \[12\].
pub const TERNARY_HAMMING_DENSE: usize = usize::MAX;

/// Samples a uniformly random residue polynomial modulo `q`.
pub fn sample_uniform<R: Rng + ?Sized>(rng: &mut R, degree: usize, q: u64) -> Vec<u64> {
    let mut out = vec![0; degree];
    sample_uniform_into(rng, q, &mut out);
    out
}

/// [`sample_uniform`] into `out`: the same draws, one per coefficient in
/// order.
pub fn sample_uniform_into<R: Rng + ?Sized>(rng: &mut R, q: u64, out: &mut [u64]) {
    for x in out {
        *x = rng.gen_range(0..q);
    }
}

/// Samples a signed ternary secret with coefficients in {-1, 0, 1}.
///
/// If `hamming_weight` is [`TERNARY_HAMMING_DENSE`] every coefficient is drawn
/// uniformly; otherwise exactly `hamming_weight` coefficients are non-zero
/// (half +1, half -1, rounding down), matching sparse-secret keygen.
pub fn sample_ternary<R: Rng + ?Sized>(
    rng: &mut R,
    degree: usize,
    hamming_weight: usize,
) -> Vec<i64> {
    if hamming_weight == TERNARY_HAMMING_DENSE || hamming_weight >= degree {
        return (0..degree).map(|_| rng.gen_range(-1i64..=1)).collect();
    }
    let mut out = vec![0i64; degree];
    let mut placed = 0usize;
    while placed < hamming_weight {
        let idx = rng.gen_range(0..degree);
        if out[idx] == 0 {
            out[idx] = if placed.is_multiple_of(2) { 1 } else { -1 };
            placed += 1;
        }
    }
    out
}

/// Samples a centered discrete Gaussian-like error polynomial with standard
/// deviation `sigma` (default CKKS value 3.2), by rounding a Box–Muller
/// Gaussian. Tails are clipped at ±6σ as is standard for RLWE error sampling.
pub fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R, degree: usize, sigma: f64) -> Vec<i64> {
    let clip = (6.0 * sigma).ceil();
    (0..degree)
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (g * sigma).round().clamp(-clip, clip) as i64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let q = 12289;
        let v = sample_uniform(&mut rng, 4096, q);
        assert!(v.iter().all(|&x| x < q));
        // not all identical
        assert!(v.iter().any(|&x| x != v[0]));
    }

    #[test]
    fn ternary_respects_hamming_weight() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let v = sample_ternary(&mut rng, 1024, 64);
        assert_eq!(v.iter().filter(|&&x| x != 0).count(), 64);
        assert!(v.iter().all(|&x| (-1..=1).contains(&x)));
    }

    #[test]
    fn dense_ternary_covers_all_values() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let v = sample_ternary(&mut rng, 4096, TERNARY_HAMMING_DENSE);
        assert!(v.contains(&-1) && v.contains(&0) && v.contains(&1));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sigma = 3.2;
        let v = sample_gaussian(&mut rng, 1 << 14, sigma);
        let n = v.len() as f64;
        let mean = v.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.2, "mean {mean} too far from zero");
        assert!(
            (var.sqrt() - sigma).abs() < 0.3,
            "std {} vs {sigma}",
            var.sqrt()
        );
        let clip = (6.0 * sigma).ceil() as i64;
        assert!(v.iter().all(|&x| x.abs() <= clip));
    }
}
