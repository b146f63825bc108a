//! Approximate modular reduction (EvalMod) building blocks: Chebyshev series,
//! the Clenshaw recurrence (plaintext and homomorphic), and the double-angle
//! sine evaluator of the Han–Ki-style bootstrapping [40] the paper adopts
//! (§2.4).
//!
//! Bootstrapping must evaluate `x mod q0` on encrypted data; since only
//! polynomials are homomorphically computable, the reduction is replaced by a
//! scaled sine, `(q0/2πΔ)·sin(2πx/q0)`, valid because the ModRaise overflow is
//! an integer multiple of `q0`. Evaluating the sine directly over the full
//! overflow range `[-K, K]` needs a high-degree polynomial; the double-angle
//! method instead approximates `cos(2πt)` on the `2^r`-times smaller range,
//! then applies `cos(2θ) = 2cos²θ − 1` `r` times — trading polynomial degree
//! for a handful of squarings, which is how production bootstrapping keeps
//! `L_boot` near 19 levels.

use crate::ciphertext::Ciphertext;
use crate::error::CkksError;
use crate::evaluator::Evaluator;

/// A Chebyshev series `Σ c_j T_j(x/k)` on the interval `[-k, k]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChebyshevSeries {
    coefficients: Vec<f64>,
    half_width: f64,
}

impl ChebyshevSeries {
    /// Interpolates `f` on `[-half_width, half_width]` with a series of the
    /// given degree (degree + 1 coefficients), using Chebyshev nodes.
    ///
    /// # Panics
    ///
    /// Panics if `half_width` is not positive.
    pub fn fit(f: impl Fn(f64) -> f64, half_width: f64, degree: usize) -> Self {
        assert!(half_width > 0.0, "interval half-width must be positive");
        let m = degree + 1;
        let nodes: Vec<f64> = (0..m)
            .map(|i| (std::f64::consts::PI * (i as f64 + 0.5) / m as f64).cos())
            .collect();
        let values: Vec<f64> = nodes.iter().map(|&t| f(half_width * t)).collect();
        let mut coefficients = vec![0.0; m];
        for (j, c) in coefficients.iter_mut().enumerate() {
            let mut s = 0.0;
            for (i, &v) in values.iter().enumerate() {
                s += v * (std::f64::consts::PI * j as f64 * (i as f64 + 0.5) / m as f64).cos();
            }
            *c = 2.0 * s / m as f64;
        }
        coefficients[0] /= 2.0;
        Self {
            coefficients,
            half_width,
        }
    }

    /// The series degree.
    pub fn degree(&self) -> usize {
        self.coefficients.len() - 1
    }

    /// Evaluates the series at a plaintext point via Clenshaw's recurrence.
    pub fn eval(&self, t: f64) -> f64 {
        let x = t / self.half_width;
        let mut b1 = 0.0f64;
        let mut b2 = 0.0f64;
        for j in (1..self.coefficients.len()).rev() {
            let b = self.coefficients[j] + 2.0 * x * b1 - b2;
            b2 = b1;
            b1 = b;
        }
        self.coefficients[0] + x * b1 - b2
    }

    /// Maximum absolute error of the series against `f` sampled on a uniform
    /// grid (a practical proxy for the sup-norm error).
    pub fn max_error(&self, f: impl Fn(f64) -> f64, samples: usize) -> f64 {
        (0..=samples)
            .map(|i| {
                let t = -self.half_width + 2.0 * self.half_width * i as f64 / samples as f64;
                (self.eval(t) - f(t)).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Multiplicative levels [`ChebyshevSeries::eval_homomorphic`] spends:
    /// one to normalise the argument, one for the leading term, one per
    /// further Clenshaw step (`degree − 1`) and one for the final product
    /// with the argument — `degree + 2`.
    pub fn levels_consumed(&self) -> usize {
        self.degree() + 2
    }

    /// Evaluates the series homomorphically via the Clenshaw recurrence,
    /// consuming [`ChebyshevSeries::levels_consumed`] levels.
    ///
    /// # Errors
    ///
    /// Fails on level exhaustion or missing keys.
    pub fn eval_homomorphic(
        &self,
        eval: &Evaluator<'_>,
        ct: &Ciphertext,
    ) -> crate::Result<Ciphertext> {
        if self.coefficients.len() < 2 {
            return Err(CkksError::InvalidParameters(
                "Chebyshev series must have degree at least 1".to_string(),
            ));
        }
        // Normalise the argument to [-1, 1].
        let x = eval.rescale(&eval.mul_const(ct, 1.0 / self.half_width)?)?;
        let degree = self.coefficients.len() - 1;
        let mut b_next: Option<Ciphertext> = None;
        let mut b_next2: Option<Ciphertext> = None;
        for k in (1..=degree).rev() {
            let mut term = match &b_next {
                Some(b1) => {
                    let x_aligned = eval.level_reduce(&x, b1.level())?;
                    let two_x_b1 = eval.rescale(&eval.mul(&eval.add(b1, b1)?, &x_aligned)?)?;
                    eval.add_const(&two_x_b1, self.coefficients[k])?
                }
                None => {
                    let base = eval.rescale(&eval.mul_const(&x, 0.0)?)?;
                    eval.add_const(&base, self.coefficients[k])?
                }
            };
            if let Some(b2) = &b_next2 {
                let b2_aligned = eval.level_reduce(b2, term.level())?;
                term = eval.sub(&term, &b2_aligned)?;
            }
            b_next2 = b_next;
            b_next = Some(term);
        }
        let b1 = b_next.expect("degree >= 1");
        let x_aligned = eval.level_reduce(&x, b1.level())?;
        let mut result = eval.rescale(&eval.mul(&b1, &x_aligned)?)?;
        result = eval.add_const(&result, self.coefficients[0])?;
        if let Some(b2) = &b_next2 {
            let b2_aligned = eval.level_reduce(b2, result.level())?;
            result = eval.sub(&result, &b2_aligned)?;
        }
        Ok(result)
    }
}

/// Plaintext error, at unit amplitude, under which
/// [`SineEvaluator::fewest_double_angles`] accepts a double-angle count.
pub const SINE_TOLERANCE: f64 = 1e-6;

/// Double-angle evaluator of the scaled sine used by EvalMod.
///
/// The evaluator approximates `cos(2π(t - 1/4)/2^r)` with a low-degree
/// Chebyshev series on the reduced interval, squares it `r` times via the
/// double-angle identity to recover `cos(2π(t - 1/4)) = sin(2πt)`, and scales
/// by `amplitude` (set to `q0/(2πΔ)` by the bootstrapping driver).
#[derive(Debug, Clone, PartialEq)]
pub struct SineEvaluator {
    series: ChebyshevSeries,
    double_angles: u32,
    amplitude: f64,
    range: f64,
}

impl SineEvaluator {
    /// Builds a sine evaluator for arguments in `[-range, range]` with the
    /// given Chebyshev degree on the reduced interval and `double_angles`
    /// double-angle iterations. `amplitude` scales the final result.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not positive.
    pub fn new(range: f64, degree: usize, double_angles: u32, amplitude: f64) -> Self {
        assert!(range > 0.0, "range must be positive");
        let scale = 2f64.powi(double_angles as i32);
        // After dividing by 2^r the argument (including the -1/4 phase shift)
        // lives in [-(range + 0.25)/2^r, (range + 0.25)/2^r].
        let reduced = (range + 0.25) / scale;
        let series = ChebyshevSeries::fit(
            move |t| (2.0 * std::f64::consts::PI * t).cos(),
            reduced,
            degree,
        );
        Self {
            series,
            double_angles,
            amplitude,
            range,
        }
    }

    /// The number of double-angle iterations `r`.
    pub fn double_angles(&self) -> u32 {
        self.double_angles
    }

    /// The evaluator with the fewest double angles whose plaintext error at
    /// unit amplitude ([`SineEvaluator::max_error`] over 2 000 intervals)
    /// is under [`SINE_TOLERANCE`], scaled by `amplitude`; `None` if none
    /// within `max_levels` levels is (a degree-0 series never is).
    ///
    /// # Panics
    ///
    /// Panics if `range` is not positive.
    pub fn fewest_double_angles(
        range: f64,
        degree: usize,
        max_levels: usize,
        amplitude: f64,
    ) -> Option<Self> {
        (0..)
            .map(|r| Self::new(range, degree, r, 1.0))
            .take_while(|sine| sine.levels_consumed() <= max_levels)
            .find(|sine| sine.max_error(2000) < SINE_TOLERANCE)
            .map(|sine| Self { amplitude, ..sine })
    }

    /// Multiplicative levels [`SineEvaluator::eval_homomorphic`] spends: one
    /// to shift and divide the argument by `2^r`, the series' own, one per
    /// double angle (the square's rescale) and one for the amplitude.
    pub fn levels_consumed(&self) -> usize {
        self.series.levels_consumed() + self.double_angles as usize + 2
    }

    /// Plaintext reference evaluation of `amplitude · sin(2π t)`.
    pub fn eval(&self, t: f64) -> f64 {
        let scale = 2f64.powi(self.double_angles as i32);
        let mut c = self.series.eval((t - 0.25) / scale);
        for _ in 0..self.double_angles {
            c = 2.0 * c * c - 1.0;
        }
        self.amplitude * c
    }

    /// Maximum error of the plaintext evaluation against the exact scaled sine
    /// on a uniform grid over `[-range, range]`.
    pub fn max_error(&self, samples: usize) -> f64 {
        (0..=samples)
            .map(|i| {
                let t = -self.range + 2.0 * self.range * i as f64 / samples as f64;
                (self.eval(t) - self.amplitude * (2.0 * std::f64::consts::PI * t).sin()).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Homomorphic evaluation of `amplitude · sin(2π·ct)`.
    ///
    /// # Errors
    ///
    /// Fails on level exhaustion or missing keys.
    pub fn eval_homomorphic(
        &self,
        eval: &Evaluator<'_>,
        ct: &Ciphertext,
    ) -> crate::Result<Ciphertext> {
        let scale = 2f64.powi(self.double_angles as i32);
        // (t - 1/4) / 2^r
        let shifted = eval.add_const(ct, -0.25)?;
        let reduced = eval.rescale(&eval.mul_const(&shifted, 1.0 / scale)?)?;
        // cos on the reduced interval.
        let mut c = self.series.eval_homomorphic(eval, &reduced)?;
        // r double-angle steps: c ← 2c² − 1.
        for _ in 0..self.double_angles {
            let sq = eval.rescale(&eval.mul(&c, &c)?)?;
            let doubled = eval.add(&sq, &sq)?;
            c = eval.add_const(&doubled, -1.0)?;
        }
        // Final amplitude scaling.
        eval.rescale(&eval.mul_const(&c, self.amplitude)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use rand::SeedableRng;

    #[test]
    fn chebyshev_fit_converges_with_degree() {
        let f = |t: f64| (2.0 * std::f64::consts::PI * t).sin();
        let coarse = ChebyshevSeries::fit(f, 4.0, 23);
        let fine = ChebyshevSeries::fit(f, 4.0, 47);
        assert!(fine.max_error(f, 400) < coarse.max_error(f, 400));
        assert!(fine.max_error(f, 400) < 1e-6);
    }

    #[test]
    fn double_angle_matches_direct_sine() {
        // Degree-15 Chebyshev on the reduced interval + 3 double angles covers
        // [-6, 6] with small error — far cheaper than a direct degree-~60 fit.
        let sine = SineEvaluator::new(6.0, 15, 3, 1.0);
        assert!(
            sine.max_error(600) < 1e-4,
            "error = {}",
            sine.max_error(600)
        );
        // A direct fit of degree levels − 1 (one level deeper than the sine,
        // `ChebyshevSeries::levels_consumed` = degree + 2) is still worse.
        let direct = ChebyshevSeries::fit(
            |t| (2.0 * std::f64::consts::PI * t).sin(),
            6.0,
            sine.levels_consumed() - 1,
        );
        assert!(
            sine.max_error(600) < direct.max_error(|t| (2.0 * std::f64::consts::PI * t).sin(), 600)
        );
    }

    #[test]
    fn amplitude_scales_the_output() {
        let sine = SineEvaluator::new(4.0, 15, 2, 7.5);
        let t = 1.3;
        assert!((sine.eval(t) - 7.5 * (2.0 * std::f64::consts::PI * t).sin()).abs() < 1e-3);
    }

    #[test]
    fn homomorphic_chebyshev_matches_plain_eval() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let ctx = CkksContext::new_toy(1 << 8, 12, 1).unwrap();
        let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
        let eval = ctx.evaluator(&keys);
        // A gentle degree-7 polynomial target on [-2, 2].
        let f = |t: f64| 0.3 * t + 0.1 * t * t - 0.05 * t * t * t;
        let series = ChebyshevSeries::fit(f, 2.0, 7);
        let msg: Vec<crate::Complex> = (0..ctx.slots())
            .map(|i| crate::Complex::new(-1.8 + 3.6 * (i as f64) / ctx.slots() as f64, 0.0))
            .collect();
        let ct = ctx
            .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
            .unwrap();
        let out_ct = series.eval_homomorphic(&eval, &ct).unwrap();
        let out = ctx.decode(&ctx.decrypt(&out_ct, &sk).unwrap()).unwrap();
        for (i, o) in out.iter().enumerate().step_by(16) {
            let expect = series.eval(msg[i].re);
            assert!(
                (o.re - expect).abs() < 5e-2,
                "slot {i}: {} vs {expect}",
                o.re
            );
        }
    }

    #[test]
    fn homomorphic_double_angle_sine_on_a_toy_ring() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        // Enough levels for degree 7 + 2 double angles + scaling.
        let ctx = CkksContext::new_toy(1 << 8, 16, 1).unwrap();
        let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
        let eval = ctx.evaluator(&keys);
        let sine = SineEvaluator::new(1.5, 7, 2, 1.0);
        assert!(sine.levels_consumed() <= ctx.max_level());
        let msg: Vec<crate::Complex> = (0..ctx.slots())
            .map(|i| crate::Complex::new(-1.2 + 2.4 * (i as f64) / ctx.slots() as f64, 0.0))
            .collect();
        let ct = ctx
            .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
            .unwrap();
        let out_ct = sine.eval_homomorphic(&eval, &ct).unwrap();
        let out = ctx.decode(&ctx.decrypt(&out_ct, &sk).unwrap()).unwrap();
        for (i, o) in out.iter().enumerate().step_by(16) {
            let expect = sine.eval(msg[i].re);
            assert!(
                (o.re - expect).abs() < 8e-2,
                "slot {i}: {} vs {expect}",
                o.re
            );
        }
    }

    /// Encrypts a ramp on `[-0.5, 0.5]` at the top of a toy ring.
    fn top_level_ramp(levels: usize, seed: u64) -> (CkksContext, crate::KeyBundle, Ciphertext) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ctx = CkksContext::new_toy(1 << 5, levels, 1).unwrap();
        let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
        let msg: Vec<crate::Complex> = (0..ctx.slots())
            .map(|i| crate::Complex::new(i as f64 / ctx.slots() as f64 - 0.5, 0.0))
            .collect();
        let ct = ctx
            .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
            .unwrap();
        (ctx, keys, ct)
    }

    #[test]
    fn clenshaw_spends_its_levels_consumed() {
        for degree in [1, 3, 7] {
            let series = ChebyshevSeries::fit(|t| t * t - 0.5 * t, 1.0, degree);
            let (ctx, keys, ct) = top_level_ramp(series.levels_consumed() + 1, 21);
            let out = series.eval_homomorphic(&ctx.evaluator(&keys), &ct).unwrap();
            assert_eq!(
                ct.level() - out.level(),
                series.levels_consumed(),
                "degree {degree}"
            );
            assert_eq!(series.levels_consumed(), degree + 2);
        }
    }

    #[test]
    fn sine_evaluator_spends_its_levels_consumed() {
        for (degree, double_angles) in [(3, 0), (7, 0), (7, 2), (5, 4)] {
            let sine = SineEvaluator::new(1.0, degree, double_angles, 2.0);
            let (ctx, keys, ct) = top_level_ramp(sine.levels_consumed() + 1, 22);
            let out = sine.eval_homomorphic(&ctx.evaluator(&keys), &ct).unwrap();
            assert_eq!(
                ct.level() - out.level(),
                sine.levels_consumed(),
                "(d, r) = ({degree}, {double_angles})"
            );
            assert_eq!(
                sine.levels_consumed(),
                degree + 2 + double_angles as usize + 2
            );
        }
    }

    /// The fewest doublings that reach the tolerance, not the most the
    /// levels allow; none if the levels cannot hold them.
    #[test]
    fn fewest_double_angles_is_measured() {
        let sine = SineEvaluator::fewest_double_angles(4.0, 31, 60, 3.0).unwrap();
        assert_eq!(sine.double_angles(), 1);
        assert!(SineEvaluator::new(4.0, 31, 0, 1.0).max_error(2000) >= SINE_TOLERANCE);
        assert!(sine.max_error(2000) < 3.0 * SINE_TOLERANCE);
        let levels = sine.levels_consumed();
        assert!(SineEvaluator::fewest_double_angles(4.0, 31, levels, 3.0).is_some());
        assert!(SineEvaluator::fewest_double_angles(4.0, 31, levels - 1, 3.0).is_none());
    }
}
