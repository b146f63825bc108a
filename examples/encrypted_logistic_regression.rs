//! A miniature end-to-end HELR-style workload: trains one logistic-regression
//! step on encrypted data with the functional CKKS library (toy ring), then
//! projects the full 1,024-image × 30-iteration training run onto the BTS
//! accelerator model (Table 5).
//!
//! Run with: `cargo run --release --example encrypted_logistic_regression`

use bts::circuit::Workload;
use bts::ckks::{ChebyshevSeries, CkksContext, Complex};
use bts::params::CkksInstance;
use bts::sim::{BtsConfig, Simulator};
use bts::workloads::{BaselineSet, HelrWorkload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Functional part: one encrypted gradient step on toy parameters ----
    let mut rng = rand::thread_rng();
    let ctx = CkksContext::new_toy(1 << 11, 8, 2)?;
    let (sk, mut keys) = ctx.generate_keys(&mut rng)?;
    ctx.add_rotation_keys(&sk, &mut keys, &[1, 2, 4, 8], &mut rng)?;
    let eval = ctx.evaluator(&keys);

    // 16 features per sample, packed one sample per 16 slots.
    let features = 16usize;
    let samples = ctx.slots() / features;
    let x: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new(((i * 37 % 100) as f64) / 100.0 - 0.5, 0.0))
        .collect();
    let w: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new(0.1 + (i % features) as f64 * 0.01, 0.0))
        .collect();
    let ct_x = ctx.encrypt(&ctx.encode(&x)?, &sk, &mut rng)?;
    let pt_w = ctx.encode(&w)?;

    // Inner product per sample: multiply then rotate-and-accumulate log2(16) times.
    let mut acc = eval.rescale(&eval.mul_plain(&ct_x, &pt_w)?)?;
    for shift in [1i64, 2, 4, 8] {
        let rotated = eval.rotate(&acc, shift)?;
        acc = eval.add(&acc, &rotated)?;
    }
    // Degree-3 sigmoid approximation σ(t) ≈ 0.5 + 0.15·t - 0.0015·t³, as the
    // Chebyshev series that equals it on [-2, 2] (|x·w| ≤ 1.4 here).
    let sigmoid_series = ChebyshevSeries::fit(|t| 0.5 + 0.15 * t - 0.0015 * t.powi(3), 2.0, 3)?;
    let sigmoid = sigmoid_series.eval_homomorphic(&eval, &acc)?;
    let decoded = ctx.decode(&ctx.decrypt(&sigmoid, &sk)?)?;

    // Verify against the plaintext computation for the first few samples.
    let mut max_err = 0.0f64;
    for s in 0..4.min(samples) {
        let dot: f64 = (0..features)
            .map(|f| x[s * features + f].re * w[s * features + f].re)
            .sum();
        let expect = 0.5 + 0.15 * dot - 0.0015 * dot.powi(3);
        let got = decoded[s * features].re;
        max_err = max_err.max((got - expect).abs());
        println!("sample {s}: encrypted σ(x·w) = {got:.5}, plaintext = {expect:.5}");
    }
    assert!(max_err < 1e-2, "error too large: {max_err}");

    // ---- Accelerator part: the full HELR training run on BTS ----
    println!("\nProjected HELR training (1,024 MNIST images × 30 iterations) on BTS:");
    let lattigo = BaselineSet::paper()
        .get("Lattigo")
        .and_then(|b| b.helr_ms_per_iter)
        .unwrap_or(1235.0);
    for instance in CkksInstance::evaluation_set() {
        let lowered = HelrWorkload::default()
            .lower(&instance)
            .expect("paper instances lower");
        let report = Simulator::new(BtsConfig::bts_default(), instance.clone()).run(&lowered.trace);
        let ms_per_iter = report.total_seconds * 1e3 / 30.0;
        println!(
            "  {:<6}: {:>6.1} ms/iter, {:>3} bootstraps, {:>5.0}× faster than the Lattigo CPU baseline",
            instance.name(),
            ms_per_iter,
            lowered.bootstrap_count,
            lattigo / ms_per_iter
        );
    }
    Ok(())
}
