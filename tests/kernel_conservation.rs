//! Both clocks count the same kernels. Every key-switching op is executed
//! on real toy-ring ciphertexts at every level under
//! `bts_telemetry::capture()`, and its single-limb transform and base
//! conversion spans must equal the shared `KernelCalls` of a one-step
//! key-switch group — the counts `Simulator::op_cost` charges, which must in
//! turn equal those spans times the per-limb butterflies over the NTTU rate,
//! bit for bit.

use bts::ckks::{Ciphertext, CkksContext, Complex, Evaluator};
use bts::params::{hoisted_rotations_calls, CkksInstance, KernelCalls};
use bts::sim::{BtsConfig, HeOp, Simulator};
use bts::telemetry;
use rand::SeedableRng;

/// The `(ntt.forward, ntt.inverse, bconv.convert_into)` spans one op records.
fn traced(op: impl FnOnce()) -> KernelCalls {
    let run = telemetry::capture();
    op();
    let events = run.finish().events;
    let spans = |name: &str| events.iter().filter(|e| e.name == name).count() as u64;
    KernelCalls {
        ntt: spans("ntt.forward"),
        intt: spans("ntt.inverse"),
        bconv: spans("bconv.convert_into"),
    }
}

/// Executes the key-switching op `op` on `ct`.
fn execute(op: HeOp, eval: &Evaluator<'_>, ct: &Ciphertext) {
    match op {
        HeOp::HMult => eval.mul(ct, ct),
        HeOp::HRot => eval.rotate(ct, 1),
        HeOp::Conjugate => eval.conjugate(ct),
        _ => unreachable!("{op:?} does not key-switch"),
    }
    .unwrap();
}

#[test]
fn key_switch_spans_equal_the_shared_counts_and_op_cost() {
    let config = BtsConfig::bts_default();
    let mut cases = 0;
    for (max_level, dnum) in [(5, 1), (5, 2), (6, 3), (8, 4), (3, 3)] {
        let instance = CkksInstance::toy(6, max_level, dnum);
        let ctx = CkksContext::from_instance(&instance).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(max_level as u64 * 10 + dnum as u64);
        let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
        ctx.add_rotation_keys(&sk, &mut keys, &[1], &mut rng)
            .unwrap();
        let eval = ctx.evaluator(&keys);
        let sim = Simulator::new(config.clone(), instance.clone());
        let limb_butterflies = instance.n() as f64 / 2.0 * instance.log_n() as f64;
        let message = vec![Complex::new(0.25, -0.5); ctx.slots()];

        for level in 1..=max_level {
            let pt = ctx.encode_at(&message, level, ctx.scale()).unwrap();
            let ct = ctx.encrypt(&pt, &sk, &mut rng).unwrap();
            let want = hoisted_rotations_calls(level, instance.decomposition(), 1);
            for op in [HeOp::HMult, HeOp::HRot, HeOp::Conjugate] {
                let at = format!("{op:?} at level {level}, L = {max_level}, dnum = {dnum}");
                let got = traced(|| execute(op, &eval, &ct));
                assert_eq!(got, want, "{at}");
                let charged = sim.op_cost(op, level).ntt_seconds;
                let spans = (got.ntt + got.intt) as f64;
                assert_eq!(
                    charged,
                    spans * limb_butterflies / config.butterfly_rate(),
                    "{at}"
                );
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 3 * (5 + 5 + 6 + 8 + 3));
}
