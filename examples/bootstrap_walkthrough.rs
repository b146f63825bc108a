//! Bootstrapping walkthrough: runs the full CKKS bootstrapping pipeline
//! (ModRaise → CoeffToSlot → EvalMod → SlotToCoeff) on a toy ring and prints
//! what happens to the ciphertext level and to the message precision at each
//! stage — the software-side view of the operation BTS accelerates as a
//! first-class citizen.
//!
//! Run with: `cargo run --release --example bootstrap_walkthrough`

use bts::ckks::{
    BootstrapConfig, Bootstrapper, CkksContext, Complex, NoiseTracker, SineEvaluator,
    SINE_TOLERANCE,
};
use bts::params::CkksInstance;
use rand::SeedableRng;

fn max_error(a: &[Complex], b: &[Complex]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x.re - y.re).abs())
        .fold(0.0, f64::max)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);

    // A toy ring that is deep enough to bootstrap: 52 levels, 40-bit scale,
    // 45-bit q0 (the small q0/Δ ratio keeps the EvalMod amplitude small).
    let degree = 1 << 7;
    let ctx = CkksContext::new(degree, 52, 1, 45, 40, 60)?;
    let config = BootstrapConfig::functional_test();
    // Sparse secret: keeps the ModRaise overflow |I| within the EvalMod range.
    let sk = ctx.gen_sparse_secret_key(&mut rng, 4);
    let mut keys = ctx.generate_bundle_for(&sk, &mut rng)?;
    let bootstrapper = Bootstrapper::new(&ctx, config)?;
    println!("== Functional bootstrapping on a toy ring ==");
    println!(
        "N = {}, L = {}, Δ = 2^{}, q0/Δ = 2^5, EvalMod degree {} on [-{}, {}] \
         + {} double angle(s) → the bootstrap spends {} levels",
        ctx.degree(),
        ctx.max_level(),
        ctx.scale().log2(),
        config.evalmod_degree,
        config.range_k,
        config.range_k,
        bootstrapper.eval_mod().double_angles(),
        bootstrapper.levels_consumed(),
    );
    let rotations = bootstrapper.required_rotations();
    println!(
        "rotation keys required by CoeffToSlot/SlotToCoeff: {}",
        rotations.len()
    );
    ctx.add_rotation_keys(&sk, &mut keys, &rotations, &mut rng)?;
    let eval = ctx.evaluator(&keys);

    // Encrypt a message at level 0: no multiplications are possible any more.
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new(0.3 * (i as f64 * 0.29).sin(), 0.0))
        .collect();
    let exhausted = ctx.encrypt(&ctx.encode_at(&msg, 0, ctx.scale())?, &sk, &mut rng)?;
    println!("\nexhausted ciphertext: level {}", exhausted.level());

    // Step 1: ModRaise.
    let raised = ctx.mod_raise(&exhausted);
    println!("after ModRaise:       level {}", raised.level());

    // Full pipeline.
    let refreshed = bootstrapper.bootstrap(&eval, &exhausted)?;
    let out = ctx.decode(&ctx.decrypt(&refreshed, &sk)?)?;
    println!(
        "after bootstrapping:  level {} (levels recovered for {} more multiplications)",
        refreshed.level(),
        refreshed.level()
    );
    println!(
        "message error after refresh: {:.2e} (≈ {:.1} bits of precision)",
        max_error(&msg, &out),
        -max_error(&msg, &out).log2()
    );

    // The same rule on production-style overflow ranges: the fewest double
    // angles that bring the plaintext error under the tolerance.
    println!("\n== Double-angle EvalMod (Han–Ki style), error < {SINE_TOLERANCE:.0e} ==");
    for (range, degree) in [(6.0, 15), (12.0, 23), (25.0, 31)] {
        let sine = SineEvaluator::fewest_double_angles(range, degree, ctx.max_level())?;
        println!(
            "range ±{range:>4}: Chebyshev degree {degree:>2} + {} double angles \
             → {:>2} levels, max error {:.1e}",
            sine.double_angles(),
            sine.levels_consumed(),
            sine.max_error(2000)
        );
    }

    // Analytical noise budget on the paper-scale instance for comparison.
    println!("\n== Analytical precision budget (INS-1, N = 2^17) ==");
    let ins = CkksInstance::ins1();
    for depth in [0usize, 4, 8] {
        println!(
            "precision after {depth} multiplicative levels: {:.1} bits",
            NoiseTracker::precision_after_depth(&ins, depth)
        );
    }
    Ok(())
}
