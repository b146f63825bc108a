//! `fhe_exec`: two small compiled circuits executed on real RNS ciphertexts.
//! `math` and `ckks` do almost all of the work, `circuit`'s register-file
//! executor the rest; nothing is simulated inside a repetition.

use std::collections::{BTreeMap, HashMap};

use bts::circuit::{
    compile, CompiledCircuit, FunctionalBackend, HeCircuit, HeInstr, Opcode, PassPipeline,
    TraceBackend, Workload,
};
use bts::ckks::{Ciphertext, CkksContext, Complex};
use bts::math::{BaseConverter, BconvScratch};
use bts::params::CkksInstance;
use bts::sim::{HeOp, Simulator};
use bts::workloads::{HelrWorkload, ResNetWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host;
use crate::runner::{design_point, Bench, Checks, Metrics, Rep, Size, Warm};
use crate::spans::Recorder;

/// Largest tolerated slot error against the plaintext reference.
const SLOT_TOLERANCE: f64 = 1e-2;

fn instance(size: Size) -> CkksInstance {
    match size {
        Size::Full => CkksInstance::toy(12, 13, 2),
        Size::Smoke => CkksInstance::toy(10, 13, 2),
    }
}

fn mini_workloads() -> [(&'static str, Box<dyn Workload>); 2] {
    use bts::workloads::{HelrConfig, ResNetConfig};
    [
        (
            "helr-mini",
            Box::new(HelrWorkload::new(HelrConfig {
                iterations: 1,
                batch: 8,
                features: 4,
            })),
        ),
        (
            "resnet-mini",
            Box::new(ResNetWorkload::new(ResNetConfig {
                conv_layers: 2,
                rotations_per_conv: 4,
                relu_depth: 2,
                channel_packing: true,
            })),
        ),
    ]
}

/// The reference the functional outputs are held against: `HeCircuit`
/// evaluated slot-wise on plain `f64`s. It shares no code with the backends
/// and runs the *source* circuit, so it also covers the pass pipeline.
fn interpret(circuit: &HeCircuit, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let slots = circuit.instance.slots();
    let mut env: HashMap<u32, Vec<f64>> = HashMap::new();
    for (input, message) in circuit.inputs.iter().zip(inputs) {
        env.insert(input.id, message.clone());
    }
    for node in &circuit.nodes {
        let (a, b) = node.instr.operands();
        let a = &env[&a];
        let zip = |f: fn(f64, f64) -> f64| -> Vec<f64> {
            let b = &env[&b.expect("binary instruction")];
            a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
        };
        let value = match node.instr {
            HeInstr::HMult { .. } => zip(|x, y| x * y),
            HeInstr::HAdd { .. } => zip(|x, y| x + y),
            HeInstr::HRot { rotation, .. } => (0..slots)
                .map(|j| a[(j as i64 + rotation).rem_euclid(slots as i64) as usize])
                .collect(),
            HeInstr::PMult { value, .. } | HeInstr::CMult { value, .. } => {
                a.iter().map(|x| x * value).collect()
            }
            HeInstr::PAdd { value, .. } | HeInstr::CAdd { value, .. } => {
                a.iter().map(|x| x + value).collect()
            }
            // Real messages: conjugation, level management and refreshes
            // leave the slots as they are.
            HeInstr::Conjugate { .. }
            | HeInstr::Rescale { .. }
            | HeInstr::ModRaise { .. }
            | HeInstr::Bootstrap { .. } => a.clone(),
        };
        env.insert(node.result, value);
    }
    circuit.outputs.iter().map(|id| env[id].clone()).collect()
}

struct Prepared {
    name: &'static str,
    compiled: CompiledCircuit,
    backend: FunctionalBackend,
    expected: Vec<Vec<f64>>,
    expected_counts: BTreeMap<HeOp, usize>,
}

pub struct FheExec {
    seed: u64,
    circuits: Vec<Prepared>,
    sim_seconds: f64,
    sim_hbm_gb: f64,
}

impl Bench for FheExec {
    fn setup(seed: u64, size: Size, checks: &mut Checks) -> Self {
        let ins = instance(size);
        let mut rng = StdRng::seed_from_u64(seed);
        let simulator = Simulator::new(design_point(seed), ins.clone());
        let mut circuits = Vec::new();
        let (mut sim_seconds, mut sim_hbm_gb) = (0.0, 0.0);
        for (i, (name, workload)) in mini_workloads().into_iter().enumerate() {
            let source = workload
                .build(&ins)
                .expect("mini circuits fit the toy budget");
            let optimized = PassPipeline::standard()
                .optimize(&source)
                .expect("the standard pipeline accepts builder output");
            let compiled = compile(&optimized).expect("optimized circuits compile");
            let inputs: Vec<Vec<f64>> = source
                .inputs
                .iter()
                .map(|_| (0..ins.slots()).map(|_| rng.gen_range(0.05..0.4)).collect())
                .collect();
            let expected = interpret(&source, &inputs);
            let backend = FunctionalBackend::new(&ins, seed.wrapping_add(i as u64))
                .expect("toy contexts build")
                .with_inputs(inputs);
            // What the modelled accelerator would take for the same program.
            let lowered = TraceBackend::new()
                .lower_compiled(&compiled)
                .expect("compiled circuits lower");
            if let Some(report) = checks.ok(simulator.try_run(&lowered.trace), name) {
                sim_seconds += report.total_seconds;
                sim_hbm_gb += report.hbm_bytes as f64 / 1e9;
            }
            circuits.push(Prepared {
                name,
                expected_counts: optimized.op_counts(),
                compiled,
                backend,
                expected,
            });
        }
        Self {
            seed,
            circuits,
            sim_seconds,
            sim_hbm_gb,
        }
    }

    fn rep(&mut self, rec: &mut Recorder, checks: &mut Checks, _cold: bool) -> Rep {
        let mut units = 0u64;
        for c in &mut self.circuits {
            let run = rec.span("circuit.execute_compiled", |_| {
                c.backend.execute_compiled(&c.compiled)
            });
            let Some(run) = checks.ok(run, c.name) else {
                continue;
            };
            units += run.op_counts.values().map(|&n| n as u64).sum::<u64>();
            checks.check(run.op_counts == c.expected_counts, || {
                format!("{}: executed op counts differ from the circuit's", c.name)
            });
            let worst = run
                .outputs
                .iter()
                .zip(&c.expected)
                .flat_map(|(got, want)| got.iter().zip(want).map(|(g, w)| (g.re - w).abs()))
                .fold(0.0f64, f64::max);
            checks.check(
                run.outputs.len() == c.expected.len() && worst < SLOT_TOLERANCE,
                || {
                    format!(
                        "{}: slot error {worst:e} against the plaintext reference",
                        c.name
                    )
                },
            );
        }
        Rep {
            units,
            sim_bits: Vec::new(),
        }
    }

    fn simulated(&self) -> (f64, f64) {
        (self.sim_seconds, self.sim_hbm_gb)
    }

    fn layers(
        &mut self,
        rec: &mut Recorder,
        checks: &mut Checks,
        size: Size,
        warm: &Warm,
        out: &mut Metrics,
    ) {
        let exec_ms: Vec<f64> = rec
            .per_rep_ms("circuit.execute_compiled")
            .iter()
            .map(|ms| ms * warm.factor)
            .collect();
        let exec = host::mean(&exec_ms);
        out.insert("circuit.exec_ms", exec);
        out.insert("circuit.exec_hi_ms", host::high(&exec_ms));
        // Every timed call of a repetition is an `execute_compiled`.
        out.insert("circuit.exec_allocs_per_op", warm.allocs_per_unit);
        let mark = rec.mark();
        let Some(mut units) = probe_ckks(self.seed, size, rec, checks, out) else {
            return;
        };
        // The probes reported raw times; calibrate them over their own period.
        let factor = rec.factor_since(mark);
        for (name, value) in out.iter_mut() {
            if name.starts_with("math.") || name.starts_with("ckks.") {
                *value *= factor;
            }
        }
        units.scale(factor);
        // What the evaluator calls alone would cost, op by op at the level
        // each runs at; the rest of `execute_compiled` is the register
        // file's own doing.
        let kernels_us: f64 = self
            .circuits
            .iter()
            .map(|c| units.program_us(&c.compiled))
            .sum();
        out.insert("circuit.exec_overhead_share", 1.0 - kernels_us / 1e3 / exec);
    }
}

/// Mean raw wall time in µs of `f` over `runs` calls, after one warm-up call.
fn time_us<T>(rec: &mut Recorder, runs: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let samples: Vec<f64> = (0..runs)
        .map(|_| rec.timed(|| std::hint::black_box(f())).1 * 1e6)
        .collect();
    host::mean(&samples)
}

/// Evaluator unit times in µs per level, plus the I/O ends of an execution.
struct UnitTimes {
    /// Indexed by level: `[mul, rotate, rescale, mul_const, add]`.
    by_level: Vec<[f64; 5]>,
    encode_encrypt: f64,
    decrypt_decode: f64,
}

impl UnitTimes {
    fn scale(&mut self, factor: f64) {
        self.by_level
            .iter_mut()
            .flatten()
            .for_each(|us| *us *= factor);
        self.encode_encrypt *= factor;
        self.decrypt_decode *= factor;
    }

    fn program_us(&self, compiled: &CompiledCircuit) -> f64 {
        let ops: f64 = compiled
            .ops
            .iter()
            .map(|op| {
                let unit = &self.by_level[op.level.min(self.by_level.len() - 1)];
                match op.opcode {
                    Opcode::HMult => unit[0],
                    Opcode::HRot | Opcode::Conjugate => unit[1],
                    Opcode::Rescale => unit[2],
                    // The backend's plaintext and constant ops all encode a
                    // constant and apply it, as `mul_const` does; the
                    // allowed surface has no `add_const` to time.
                    Opcode::PMult | Opcode::CMult | Opcode::PAdd | Opcode::CAdd => unit[3],
                    Opcode::HAdd => unit[4],
                    Opcode::ModRaise | Opcode::Bootstrap => 0.0,
                }
            })
            .sum();
        ops + compiled.inputs.len() as f64 * self.encode_encrypt
            + compiled.outputs.len() as f64 * self.decrypt_decode
    }
}

/// Isolated probes of `math` and `ckks` on the workload's own ring: the
/// kernels at the context's moduli, then every evaluator op at every level.
fn probe_ckks(
    seed: u64,
    size: Size,
    rec: &mut Recorder,
    checks: &mut Checks,
    out: &mut Metrics,
) -> Option<UnitTimes> {
    let ins = instance(size);
    let runs = if size == Size::Full { 5 } else { 1 };
    let ctx = checks.ok(
        CkksContext::new_toy(ins.n(), ins.max_level(), ins.dnum()),
        "probe context",
    )?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70726f6265);
    let n = ctx.degree();

    // math: one NTT per modulus of the chain, and the ModUp base conversion
    // (first key-switch slice → every other limb of the extended basis).
    let q = ctx.q_basis();
    // Residues below 2^30 are reduced for every modulus of the chain.
    let mut limb: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() >> 34).collect();
    let (mut forward, mut inverse) = (Vec::new(), Vec::new());
    for table in q.tables() {
        forward.push(time_us(rec, runs, || table.forward(&mut limb)));
        inverse.push(time_us(rec, runs, || table.inverse(&mut limb)));
    }
    out.insert("math.ntt_forward_us", host::median(&forward));
    out.insert("math.ntt_inverse_us", host::median(&inverse));
    let k = ctx.num_special();
    let slice: Vec<usize> = (0..k.min(q.len())).collect();
    let rest: Vec<usize> = (slice.len()..q.len()).collect();
    let source = q.select(&slice);
    let target = checks.ok(q.select(&rest).concat(ctx.p_basis()), "ModUp target basis")?;
    let converter = checks.ok(BaseConverter::new(&source, &target), "ModUp converter")?;
    let src_limbs: Vec<Vec<u64>> = (0..source.len())
        .map(|j| {
            (0..n)
                .map(|_| rng.gen::<u64>() % source.modulus(j).value())
                .collect()
        })
        .collect();
    let mut dst_limbs = vec![vec![0u64; n]; target.len()];
    let mut scratch = BconvScratch::new();
    out.insert(
        "math.bconv_us",
        time_us(rec, runs, || {
            let srcs: Vec<&[u64]> = src_limbs.iter().map(Vec::as_slice).collect();
            let mut outs: Vec<&mut [u64]> = dst_limbs.iter_mut().map(Vec::as_mut_slice).collect();
            converter.convert_into(&srcs, &mut outs, false, &mut scratch);
        }),
    );

    // ckks: keys, then the I/O ends.
    let (keys, keygen_seconds) = rec.timed(|| ctx.generate_keys(&mut rng));
    out.insert("ckks.keygen_ms", keygen_seconds * 1e3);
    let (sk, mut keys) = checks.ok(keys, "probe keygen")?;
    checks.ok(
        ctx.add_rotation_keys(&sk, &mut keys, &[1], &mut rng),
        "probe rotation key",
    )?;
    let eval = ctx.evaluator(&keys);
    let message: Vec<Complex> = (0..ctx.slots())
        .map(|_| Complex::new(rng.gen_range(0.05..0.4), 0.0))
        .collect();
    let encode_us = time_us(rec, runs, || ctx.encode(&message));
    let plain = checks.ok(ctx.encode(&message), "probe encode")?;
    let encrypt_us = time_us(rec, runs, || ctx.encrypt(&plain, &sk, &mut rng));
    let top = checks.ok(ctx.encrypt(&plain, &sk, &mut rng), "probe encrypt")?;
    let decrypt_decode = time_us(rec, runs, || {
        ctx.decrypt(&top, &sk).and_then(|p| ctx.decode(&p))
    });
    out.insert("ckks.encrypt_us", encrypt_us);
    out.insert("ckks.decrypt_decode_us", decrypt_decode);
    out.insert(
        "ckks.key_switch_us",
        time_us(rec, runs, || ctx.key_switch(top.c1(), keys.relin())),
    );

    // A ladder of ciphertexts, one per level, by multiplying by one and
    // rescaling; then every evaluator op the circuits use, at every level.
    let mut ladder: Vec<Ciphertext> = vec![top];
    for _ in 0..ctx.max_level() {
        let last = ladder.last().expect("ladder starts non-empty");
        let next = eval.mul_const(last, 1.0).and_then(|ct| eval.rescale(&ct));
        ladder.push(checks.ok(next, "probe ladder")?);
    }
    ladder.reverse();
    let by_level: Vec<[f64; 5]> = ladder
        .iter()
        .map(|ct| {
            let product = eval.mul_const(ct, 1.0).expect("same op built the ladder");
            [
                time_us(rec, runs, || eval.mul(ct, ct)),
                time_us(rec, runs, || eval.rotate(ct, 1)),
                if ct.level() == 0 {
                    0.0
                } else {
                    time_us(rec, runs, || eval.rescale(&product))
                },
                time_us(rec, runs, || eval.mul_const(ct, 0.5)),
                time_us(rec, runs, || eval.add(ct, ct)),
            ]
        })
        .collect();
    let at_top = by_level.last().expect("at least level 0");
    out.insert("ckks.hmult_us", at_top[0]);
    out.insert("ckks.hrot_us", at_top[1]);
    out.insert("ckks.rescale_us", at_top[2]);
    out.insert("ckks.pmult_us", at_top[3]);
    out.insert("ckks.hadd_us", at_top[4]);
    Some(UnitTimes {
        by_level,
        encode_encrypt: encode_us + encrypt_us,
        decrypt_decode,
    })
}
