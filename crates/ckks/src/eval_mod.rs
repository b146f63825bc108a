//! Approximate modular reduction (EvalMod) building blocks: Chebyshev series
//! and the double-angle sine of the Han–Ki-style bootstrapping [40] the
//! paper adopts (§2.4).
//!
//! Bootstrapping must evaluate `x mod q0` on encrypted data; since only
//! polynomials are homomorphically computable, the reduction is replaced by a
//! scaled sine, `(q0/2πΔ)·sin(2πx/q0)`, valid because the ModRaise overflow is
//! an integer multiple of `q0`. A direct fit over the overflow range `[-K, K]`
//! needs a high degree; the double-angle method fits `cos(2πs/2^r)`, which
//! oscillates `2^r` times slower, then applies `cos 2θ = 2cos²θ − 1` `r`
//! times. A series runs homomorphically by baby-step giant-step in the
//! Chebyshev basis (Paterson–Stockmeyer; Bossuat et al., Eurocrypt 2021) in
//! `⌈log₂(d+1)⌉ + O(1)` levels, where Clenshaw's recurrence — kept as the
//! plaintext reference — would spend `d + O(1)`.

use std::collections::BTreeMap;

use crate::ciphertext::Ciphertext;
use crate::error::CkksError;
use crate::evaluator::Evaluator;

/// `width` if it is a positive, finite interval half-width.
fn positive_width(what: &str, width: f64) -> crate::Result<f64> {
    (width.is_finite() && width > 0.0)
        .then_some(width)
        .ok_or_else(|| {
            CkksError::InvalidParameters(format!("{what} must be positive and finite, got {width}"))
        })
}

/// The largest `|g(t) − f(t)|` over `samples` uniform intervals of
/// `[-half_width, half_width]` (a practical proxy for the sup-norm error).
fn max_gap(half_width: f64, samples: usize, g: impl Fn(f64) -> f64, f: impl Fn(f64) -> f64) -> f64 {
    (0..=samples)
        .map(|i| -half_width + 2.0 * half_width * i as f64 / samples as f64)
        .map(|t| (g(t) - f(t)).abs())
        .fold(0.0, f64::max)
}

/// A Chebyshev series `Σ c_j T_j(x/k)` on the interval `[-k, k]`, of degree
/// at least 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ChebyshevSeries {
    coefficients: Vec<f64>,
    half_width: f64,
}

impl ChebyshevSeries {
    /// Interpolates `f` on `[-half_width, half_width]` with a series of the
    /// given degree (degree + 1 coefficients), using Chebyshev nodes. The fit
    /// is exact for a polynomial of degree at most `degree`.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidParameters`] if `half_width` is not positive and
    /// finite, or `degree` is 0.
    pub fn fit(f: impl Fn(f64) -> f64, half_width: f64, degree: usize) -> crate::Result<Self> {
        let half_width = positive_width("interval half-width", half_width)?;
        if degree == 0 {
            return Err(CkksError::InvalidParameters(
                "Chebyshev series must have degree at least 1".to_string(),
            ));
        }
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
        Ok(Self {
            coefficients,
            half_width,
        })
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
        max_gap(self.half_width, samples, |t| self.eval(t), f)
    }

    /// Multiplicative levels [`ChebyshevSeries::eval_homomorphic`] spends,
    /// at most `⌈log₂(d+1)⌉ + 2`: its recursion replayed on levels alone.
    pub fn levels_consumed(&self) -> usize {
        let degree = self.degree();
        bsgs_levels(degree, baby_steps(degree))
    }

    /// Evaluates the series homomorphically, consuming
    /// [`ChebyshevSeries::levels_consumed`] levels: one normalises the
    /// argument to `x = ct/k`; the baby steps `T_1 … T_m` (`m` a power of two
    /// near `√(d+1)`) and giant steps `T_2m, T_4m …` follow from
    /// `T_{a+b} = 2·T_a·T_b − T_{a−b}`; the series splits at the largest
    /// giant step `g ≤ d` into `q·T_g + r` (Chebyshev division) until each
    /// part is a combination of baby steps. Operands at different levels
    /// meet at the lower one, and every sum's operands at exactly one scale:
    /// the result sits at scale Δ.
    ///
    /// # Errors
    ///
    /// Fails on level exhaustion or missing keys.
    pub fn eval_homomorphic(
        &self,
        eval: &Evaluator<'_>,
        ct: &Ciphertext,
    ) -> crate::Result<Ciphertext> {
        let (degree, m) = (self.degree(), baby_steps(self.degree()));
        let x = eval.rescale(&eval.mul_const(ct, 1.0 / self.half_width)?)?;
        let mut powers = BTreeMap::from([(1, x)]);
        // T_i = 2·T_⌈i/2⌉·T_⌊i/2⌋ − T_(i mod 2).
        let giants = std::iter::successors(Some(2 * m), |g| Some(2 * g));
        for i in (2..=m).chain(giants).take_while(|&i| i <= degree) {
            let difference = (i % 2 == 1).then(|| &powers[&1]);
            let t =
                chebyshev_product(eval, &powers[&i.div_ceil(2)], &powers[&(i / 2)], difference)?;
            powers.insert(i, t);
        }
        let top = ct.level();
        Powers {
            eval,
            powers,
            m,
            top,
        }
        .series(&self.coefficients, eval.context().scale())
    }
}

/// The baby-step count `m` for a degree-`d` series: `2^⌈log₂(d+1)/2⌉`.
fn baby_steps(degree: usize) -> usize {
    let bits = usize::BITS - degree.leading_zeros(); // ⌈log₂(d+1)⌉
    1 << bits.div_ceil(2)
}

/// The giant step a degree-`d` part splits at: the largest `m·2^j ≤ d`;
/// none below `m`, where the part is a combination of baby steps.
fn split_point(degree: usize, m: usize) -> Option<usize> {
    (degree >= m).then(|| m << (degree / m).ilog2())
}

/// Levels below the series' input at which a degree-`d` part evaluated with
/// `m` baby steps lands: `T_i` sits `1 + ⌈log₂ i⌉` down, a combination one
/// below its deepest power, and a product `q·T_g` one below its deeper
/// factor.
fn bsgs_levels(degree: usize, m: usize) -> usize {
    let power = |i: usize| 1 + (usize::BITS - (i - 1).leading_zeros()) as usize;
    match split_point(degree, m) {
        None => power(degree) + 1,
        Some(g) if g == degree => power(g) + 1,
        Some(g) => {
            let product = bsgs_levels(degree - g, m).max(power(g)) + 1;
            product.max(bsgs_levels(g - 1, m))
        }
    }
}

/// Chebyshev division by `T_g` of a series of degree `d < 2g`: `(q, r)` with
/// `p = q·T_g + r` and `deg r < g`, by `T_g·T_j = (T_{g+j} + T_{g−j})/2`.
fn divide(coefficients: &[f64], g: usize) -> (Vec<f64>, Vec<f64>) {
    let mut q = coefficients[g..].to_vec();
    let mut r = coefficients[..g].to_vec();
    for (j, c) in q.iter_mut().enumerate().skip(1) {
        r[g - j] -= *c;
        *c *= 2.0;
    }
    (q, r)
}

/// `2·a·b − difference`, with `T_0 = 1` for `None`: `T_{i+j}` from `T_i`,
/// `T_j` and `T_{i−j}`, one level below the deeper factor.
fn chebyshev_product(
    eval: &Evaluator<'_>,
    a: &Ciphertext,
    b: &Ciphertext,
    difference: Option<&Ciphertext>,
) -> crate::Result<Ciphertext> {
    let mut product = eval.mul(a, b)?;
    if let Some(t) = difference {
        // ½·T_{i−j} at exactly the product's scale, taken off before the
        // rescale.
        product = eval.sub(
            &product,
            &eval.mul_const_at(t, 0.5, product.scale() / t.scale())?,
        )?;
    }
    let half = eval.rescale(&product)?;
    let doubled = eval.add(&half, &half)?;
    match difference {
        Some(_) => Ok(doubled),
        None => eval.add_const(&doubled, -1.0),
    }
}

/// The Chebyshev powers of one argument a baby-step giant-step evaluation
/// reads: `T_1 … T_m` and `T_2m, T_4m …` up to the degree.
struct Powers<'e, 'a> {
    eval: &'e Evaluator<'a>,
    powers: BTreeMap<usize, Ciphertext>,
    m: usize,
    /// The level of the series' argument before its normalisation.
    top: usize,
}

impl Powers<'_, '_> {
    /// The series with these coefficients at exactly scale `target`. `q` is
    /// evaluated at the scale that lands the rescaled `q·T_g` on `target`,
    /// where `r` lands too.
    fn series(&self, coefficients: &[f64], target: f64) -> crate::Result<Ciphertext> {
        let degree = coefficients.len() - 1;
        let Some(g) = split_point(degree, self.m) else {
            let terms: Vec<_> = (1..=degree)
                .map(|i| (&self.powers[&i], coefficients[i]))
                .collect();
            return self.combine(&terms, coefficients[0], target);
        };
        let t_g = &self.powers[&g];
        let (q, r) = divide(coefficients, g);
        let q_t_g = if q.len() == 1 {
            self.combine(&[(t_g, q[0])], 0.0, target)?
        } else {
            // The product rescales at the lower of q's level (the level
            // model's) and T_g's.
            let q_level = self.top.saturating_sub(bsgs_levels(q.len() - 1, self.m));
            let prime = self.eval.context().q_modulus(q_level.min(t_g.level())) as f64;
            let q_value = self.series(&q, target * prime / t_g.scale())?;
            self.eval.rescale(&self.eval.mul(&q_value, t_g)?)?
        };
        self.eval.add(&q_t_g, &self.series(&r, target)?)
    }

    /// `constant + Σ c·T` over `terms` at exactly scale `target`, one level
    /// below the deepest power: each `c` is encoded at the scale that puts
    /// its term on `target · q_ℓ` before the one rescale.
    fn combine(
        &self,
        terms: &[(&Ciphertext, f64)],
        constant: f64,
        target: f64,
    ) -> crate::Result<Ciphertext> {
        let level = terms
            .iter()
            .map(|(t, _)| t.level())
            .fold(usize::MAX, usize::min);
        let sum_scale = target * self.eval.context().q_modulus(level) as f64;
        let term =
            |&(t, c): &(&Ciphertext, f64)| self.eval.mul_const_at(t, c, sum_scale / t.scale());
        let mut sum = term(&terms[0])?;
        for t in &terms[1..] {
            sum = self.eval.add(&sum, &term(t)?)?;
        }
        self.eval.add_const(&self.eval.rescale(&sum)?, constant)
    }
}

/// Plaintext error under which [`SineEvaluator::fewest_double_angles`]
/// accepts a double-angle count.
pub const SINE_TOLERANCE: f64 = 1e-6;

/// Double-angle evaluator of the unit sine used by EvalMod: a Chebyshev
/// series of `cos(2πs/2^r)` over the shifted argument `s = t − 1/4`, squared
/// `r` times by the double-angle identity into `cos(2π(t − 1/4)) = sin(2πt)`.
/// The bootstrapping driver applies the amplitude `q0/(2πΔ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SineEvaluator {
    series: ChebyshevSeries,
    double_angles: u32,
    range: f64,
}

impl SineEvaluator {
    /// Builds a sine evaluator for arguments in `[-range, range]` with a
    /// Chebyshev series of the given degree and `double_angles` double-angle
    /// iterations.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidParameters`] if `range` is not positive and
    /// finite, or `degree` is 0.
    pub fn new(range: f64, degree: usize, double_angles: u32) -> crate::Result<Self> {
        let range = positive_width("sine range", range)?;
        let scale = 2f64.powi(double_angles as i32);
        // The shifted argument t − 1/4 lives in [-(range + 1/4), range + 1/4].
        let series = ChebyshevSeries::fit(
            move |s| (2.0 * std::f64::consts::PI * s / scale).cos(),
            range + 0.25,
            degree,
        )?;
        Ok(Self {
            series,
            double_angles,
            range,
        })
    }

    /// The number of double-angle iterations `r`.
    pub fn double_angles(&self) -> u32 {
        self.double_angles
    }

    /// The evaluator with the fewest double angles whose plaintext error
    /// ([`SineEvaluator::max_error`] over 2 000 intervals) is under
    /// [`SINE_TOLERANCE`] within `max_levels` levels.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidParameters`] if [`SineEvaluator::new`] refuses
    /// `range` or `degree`, or no double-angle count within `max_levels`
    /// reaches the tolerance.
    pub fn fewest_double_angles(
        range: f64,
        degree: usize,
        max_levels: usize,
    ) -> crate::Result<Self> {
        for r in 0.. {
            let sine = Self::new(range, degree, r)?;
            if sine.levels_consumed() > max_levels {
                break;
            }
            if sine.max_error(2000) < SINE_TOLERANCE {
                return Ok(sine);
            }
        }
        Err(CkksError::InvalidParameters(format!(
            "no double-angle count brings a degree-{degree} sine on [-{range}, {range}] \
             under {SINE_TOLERANCE:e} within {max_levels} levels"
        )))
    }

    /// Multiplicative levels [`SineEvaluator::eval_homomorphic`] spends: the
    /// series' own and one per double angle.
    pub fn levels_consumed(&self) -> usize {
        self.series.levels_consumed() + self.double_angles as usize
    }

    /// Plaintext reference evaluation of `sin(2π t)`.
    pub fn eval(&self, t: f64) -> f64 {
        let mut c = self.series.eval(t - 0.25);
        for _ in 0..self.double_angles {
            c = 2.0 * c * c - 1.0;
        }
        c
    }

    /// Maximum error of the plaintext evaluation against the exact sine on a
    /// uniform grid over `[-range, range]`.
    pub fn max_error(&self, samples: usize) -> f64 {
        let sine = |t: f64| (2.0 * std::f64::consts::PI * t).sin();
        max_gap(self.range, samples, |t| self.eval(t), sine)
    }

    /// Homomorphic evaluation of `sin(2π·ct)`.
    ///
    /// # Errors
    ///
    /// Fails on level exhaustion or missing keys.
    pub fn eval_homomorphic(
        &self,
        eval: &Evaluator<'_>,
        ct: &Ciphertext,
    ) -> crate::Result<Ciphertext> {
        let shifted = eval.add_const(ct, -0.25)?;
        let mut c = self.series.eval_homomorphic(eval, &shifted)?;
        for _ in 0..self.double_angles {
            c = chebyshev_product(eval, &c, &c, None)?; // 2c² − 1
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use rand::SeedableRng;

    fn unit_sine(t: f64) -> f64 {
        (2.0 * std::f64::consts::PI * t).sin()
    }

    #[test]
    fn chebyshev_fit_converges_with_degree() {
        let coarse = ChebyshevSeries::fit(unit_sine, 4.0, 23).unwrap();
        let fine = ChebyshevSeries::fit(unit_sine, 4.0, 47).unwrap();
        assert!(fine.max_error(unit_sine, 400) < coarse.max_error(unit_sine, 400));
        assert!(fine.max_error(unit_sine, 400) < 1e-6);
    }

    /// A zero, negative, NaN or infinite width is a typed error from every
    /// constructor, never a panic.
    #[test]
    fn bad_widths_are_invalid_parameters() {
        for width in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let results = [
                ChebyshevSeries::fit(unit_sine, width, 3).map(drop),
                SineEvaluator::new(width, 7, 1).map(drop),
                SineEvaluator::fewest_double_angles(width, 7, 20).map(drop),
            ];
            for result in results {
                assert!(
                    matches!(result, Err(CkksError::InvalidParameters(_))),
                    "width {width}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn double_angle_matches_direct_sine() {
        // Degree 15 + 3 double angles covers [-6, 6] with small error: the
        // series takes 7 ciphertext products (T_2, T_3, T_4, T_8 and three
        // splits) and the double angles 3, 10 in all.
        let sine = SineEvaluator::new(6.0, 15, 3).unwrap();
        assert!(
            sine.max_error(600) < 1e-4,
            "error = {}",
            sine.max_error(600)
        );
        // A direct degree-31 fit spends more products, 11 (T_2 … T_8, T_16
        // and three splits), and is still far worse.
        let direct = ChebyshevSeries::fit(unit_sine, 6.0, 31).unwrap();
        assert!(sine.max_error(600) < direct.max_error(unit_sine, 600));
    }

    /// Encrypts a ramp on `[-0.5, 0.5]` at the top of a toy ring.
    fn top_level_ramp(
        log_n: u32,
        levels: usize,
        seed: u64,
    ) -> (CkksContext, crate::SecretKey, crate::KeyBundle, Ciphertext) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ctx = CkksContext::new_toy(1 << log_n, levels, 1).unwrap();
        let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
        let msg: Vec<crate::Complex> = (0..ctx.slots())
            .map(|i| crate::Complex::new(i as f64 / ctx.slots() as f64 - 0.5, 0.0))
            .collect();
        let ct = ctx
            .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
            .unwrap();
        (ctx, sk, keys, ct)
    }

    /// Degrees on each side of every power-of-two split up to 31.
    const DEGREES: [usize; 8] = [1, 2, 3, 7, 8, 15, 16, 31];

    /// Baby-step giant-step evaluation decrypts to the plaintext Clenshaw
    /// evaluation of the same series, on each side of every split (measured
    /// error at most 5e-8).
    #[test]
    fn homomorphic_chebyshev_matches_plain_eval() {
        // Chebyshev coefficients that do not decay before degree ~20.
        let f = |t: f64| 0.3 + (40.0 * t).sin();
        for degree in DEGREES {
            let series = ChebyshevSeries::fit(f, 0.5, degree).unwrap();
            let (ctx, sk, keys, ct) = top_level_ramp(8, series.levels_consumed(), 11);
            let out_ct = series.eval_homomorphic(&ctx.evaluator(&keys), &ct).unwrap();
            let out = ctx.decode(&ctx.decrypt(&out_ct, &sk).unwrap()).unwrap();
            let input = ctx.decode(&ctx.decrypt(&ct, &sk).unwrap()).unwrap();
            let worst = input
                .iter()
                .zip(&out)
                .map(|(i, o)| (o.re - series.eval(i.re)).abs())
                .fold(0.0, f64::max);
            assert!(worst < 1e-6, "degree {degree}: error {worst}");
        }
    }

    #[test]
    fn homomorphic_double_angle_sine_on_a_toy_ring() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        // Enough levels for degree 7 + 2 double angles.
        let ctx = CkksContext::new_toy(1 << 8, 16, 1).unwrap();
        let (sk, keys) = ctx.generate_keys(&mut rng).unwrap();
        let eval = ctx.evaluator(&keys);
        let sine = SineEvaluator::new(1.5, 7, 2).unwrap();
        assert!(sine.levels_consumed() <= ctx.max_level());
        let msg: Vec<crate::Complex> = (0..ctx.slots())
            .map(|i| crate::Complex::new(-1.2 + 2.4 * (i as f64) / ctx.slots() as f64, 0.0))
            .collect();
        let ct = ctx
            .encrypt(&ctx.encode(&msg).unwrap(), &sk, &mut rng)
            .unwrap();
        let out_ct = sine.eval_homomorphic(&eval, &ct).unwrap();
        let out = ctx.decode(&ctx.decrypt(&out_ct, &sk).unwrap()).unwrap();
        // Measured: 4.2e-9 against the plaintext series at seed 12; the
        // bound is about 20× that.
        for (i, o) in out.iter().enumerate().step_by(16) {
            let expect = sine.eval(msg[i].re);
            assert!(
                (o.re - expect).abs() < 8e-8,
                "slot {i}: {} vs {expect}",
                o.re
            );
        }
    }

    #[test]
    fn chebyshev_series_spends_its_levels_consumed() {
        let expected = [2, 3, 3, 5, 5, 6, 6, 7];
        for (degree, levels) in DEGREES.into_iter().zip(expected) {
            let series = ChebyshevSeries::fit(|t| t * t - 0.5 * t, 1.0, degree).unwrap();
            let (ctx, _, keys, ct) = top_level_ramp(5, series.levels_consumed() + 1, 21);
            let out = series.eval_homomorphic(&ctx.evaluator(&keys), &ct).unwrap();
            assert_eq!(
                ct.level() - out.level(),
                series.levels_consumed(),
                "degree {degree}"
            );
            assert_eq!(series.levels_consumed(), levels, "degree {degree}");
            let (ctx, _, keys, ct) = top_level_ramp(5, levels - 1, 21);
            assert!(matches!(
                series.eval_homomorphic(&ctx.evaluator(&keys), &ct),
                Err(CkksError::LevelExhausted { .. })
            ));
            let log_degree = (usize::BITS - degree.leading_zeros()) as usize;
            assert!(levels <= log_degree + 2, "degree {degree}");
        }
    }

    #[test]
    fn sine_evaluator_spends_its_levels_consumed() {
        for (degree, double_angles, levels) in [(3, 0, 3), (7, 0, 5), (7, 2, 7), (5, 4, 8)] {
            let sine = SineEvaluator::new(1.0, degree, double_angles).unwrap();
            let (ctx, _, keys, ct) = top_level_ramp(5, sine.levels_consumed() + 1, 22);
            let out = sine.eval_homomorphic(&ctx.evaluator(&keys), &ct).unwrap();
            assert_eq!(
                ct.level() - out.level(),
                sine.levels_consumed(),
                "(d, r) = ({degree}, {double_angles})"
            );
            assert_eq!(sine.levels_consumed(), levels);
        }
    }

    /// The fewest doublings that reach the tolerance, not the most the
    /// levels allow; none if the levels cannot hold them.
    #[test]
    fn fewest_double_angles_is_measured() {
        let sine = SineEvaluator::fewest_double_angles(4.0, 31, 60).unwrap();
        assert_eq!(sine.double_angles(), 1);
        assert!(SineEvaluator::new(4.0, 31, 0).unwrap().max_error(2000) >= SINE_TOLERANCE);
        assert!(sine.max_error(2000) < SINE_TOLERANCE);
        let levels = sine.levels_consumed();
        assert!(SineEvaluator::fewest_double_angles(4.0, 31, levels).is_ok());
        assert!(matches!(
            SineEvaluator::fewest_double_angles(4.0, 31, levels - 1),
            Err(CkksError::InvalidParameters(_))
        ));
    }
}
