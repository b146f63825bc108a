//! The functional path runs allocation-free in steady state, held by counts:
//! every warm evaluator op writes into a destination ciphertext whose residue
//! matrices are already large enough and takes its temporaries from the
//! context's pools, so it makes **zero** heap allocations; and a warm
//! `FunctionalBackend::execute_compiled` of the `fhe_exec` benchmark's two
//! circuits — encryption of the inputs and decoding of the outputs included —
//! stays at **≤ 2 allocations per executed op**.
//!
//! Its own binary (own process), shaped like
//! `crates/telemetry/tests/zero_alloc.rs`: the allocator counts only the
//! measuring thread, and the telemetry environment is cleared before its
//! first read (a root collector would record, and allocate, per span).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Once;

use bts::circuit::{compile, FunctionalBackend, PassPipeline, Workload};
use bts::ckks::{Ciphertext, CkksContext, Complex};
use bts::params::CkksInstance;
use bts::workloads::{HelrConfig, HelrWorkload, ResNetConfig, ResNetWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAllocator;

thread_local! {
    /// This thread's allocations while it measures: the harness's main
    /// thread keeps its own books, and the other test runs beside this one.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations `call` makes on this thread.
fn allocations<T>(call: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.set(Some(0));
    let result = call();
    (ALLOCATIONS.take().expect("set above"), result)
}

/// No telemetry collector: what the counts are about.
fn quiet() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        for key in ["BTS_TRACE", "BTS_TELEMETRY"] {
            std::env::remove_var(key);
        }
        assert!(!bts::telemetry::enabled());
    });
}

#[test]
fn warm_pooled_ops_allocate_nothing() {
    quiet();
    let ctx = CkksContext::new_toy(1 << 10, 6, 2).unwrap();
    let mut rng = StdRng::seed_from_u64(25);
    let (sk, mut keys) = ctx.generate_keys(&mut rng).unwrap();
    ctx.add_rotation_keys(&sk, &mut keys, &[1], &mut rng)
        .unwrap();
    let eval = ctx.evaluator(&keys);
    let message = vec![Complex::new(0.25, 0.0); ctx.slots()];
    let top = ctx
        .encrypt(&ctx.encode(&message).unwrap(), &sk, &mut rng)
        .unwrap();
    let floor = ctx
        .encrypt(
            &ctx.encode_at(&message, 0, ctx.scale()).unwrap(),
            &sk,
            &mut rng,
        )
        .unwrap();
    let digits = eval.decompose(&top).unwrap();

    type Op<'a> = Box<dyn Fn(&mut Ciphertext) + 'a>;
    let ops: Vec<(&str, Op)> = vec![
        (
            "HMult",
            Box::new(|dst| eval.mul_into(&top, &top, dst).unwrap()),
        ),
        (
            "HRot from digits",
            Box::new(|dst| eval.rotate_decomposed_into(&top, &digits, 1, dst).unwrap()),
        ),
        (
            "conjugation from digits",
            Box::new(|dst| eval.conjugate_decomposed_into(&top, &digits, dst).unwrap()),
        ),
        (
            "decompose",
            Box::new(|_| drop(eval.decompose(&top).unwrap())),
        ),
        (
            "rescale",
            Box::new(|dst| eval.rescale_into(&top, dst).unwrap()),
        ),
        (
            "HAdd",
            Box::new(|dst| eval.add_into(&top, &top, dst).unwrap()),
        ),
        (
            "CMult",
            Box::new(|dst| eval.mul_const_into(&top, 0.5, dst).unwrap()),
        ),
        (
            "CAdd",
            Box::new(|dst| eval.add_const_into(&top, 0.5, dst).unwrap()),
        ),
        ("ModRaise", Box::new(|dst| ctx.mod_raise_into(&floor, dst))),
    ];
    // One destination for every op, as a register file hands them out: the
    // first round grows the context's pools, the second must not touch the
    // heap.
    let mut dst = ctx.ciphertext_buffer();
    for (_, op) in &ops {
        op(&mut dst);
    }
    for (name, op) in &ops {
        let (made, ()) = allocations(|| op(&mut dst));
        assert_eq!(made, 0, "a warm {name} allocated {made} times");
    }
    // The allocating forms wrap the same bodies around a fresh destination:
    // two allocations, its residue matrices, and nothing else.
    type Alloc<'a> = Box<dyn Fn() -> Ciphertext + 'a>;
    let allocating: Vec<(&str, Alloc)> = vec![
        ("mul", Box::new(|| eval.mul(&top, &top).unwrap())),
        (
            "rotate_decomposed",
            Box::new(|| eval.rotate_decomposed(&top, &digits, 1).unwrap()),
        ),
        (
            "conjugate_decomposed",
            Box::new(|| eval.conjugate_decomposed(&top, &digits).unwrap()),
        ),
        ("rescale", Box::new(|| eval.rescale(&top).unwrap())),
        ("add", Box::new(|| eval.add(&top, &top).unwrap())),
        ("mul_const", Box::new(|| eval.mul_const(&top, 0.5).unwrap())),
        ("add_const", Box::new(|| eval.add_const(&top, 0.5).unwrap())),
        ("mod_raise", Box::new(|| ctx.mod_raise(&floor))),
    ];
    for (name, op) in &allocating {
        let (made, _) = allocations(op);
        assert_eq!(made, 2, "{name} allocates its result's two matrices");
    }
    let (made, _) = allocations(|| ctx.key_switch(top.c1(), keys.relin()).unwrap());
    assert_eq!(made, 2, "key_switch allocates its result pair");
}

#[test]
fn warm_execution_allocates_at_most_two_per_op() {
    quiet();
    // The `fhe_exec` benchmark's circuits, at its smoke ring degree.
    let ins = CkksInstance::toy(10, 13, 2);
    let workloads: [(&str, Box<dyn Workload>); 2] = [
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
    ];
    for (name, workload) in workloads {
        let circuit = PassPipeline::standard()
            .optimize(&workload.build(&ins).unwrap())
            .unwrap();
        let compiled = compile(&circuit).unwrap();
        let mut backend = FunctionalBackend::new(&ins, 2022).unwrap();
        let (cold, run) = allocations(|| backend.execute_compiled(&compiled).unwrap());
        let ops: usize = run.op_counts.values().sum();
        let (warm, _) = allocations(|| backend.execute_compiled(&compiled).unwrap());
        let (again, _) = allocations(|| backend.execute_compiled(&compiled).unwrap());
        println!(
            "{name}: {ops} ops; cold run {cold} allocations, warm {warm} ({:.3} per op)",
            warm as f64 / ops as f64
        );
        // Measured: 24 warm allocations for each circuit (helr-mini 39 ops,
        // resnet-mini 76). Key provisioning allocates nothing: it reads the
        // keys' levels into a buffer the backend keeps. While it still built
        // a rotation list per run the counts were 25 and 27.
        assert!(
            warm <= 2 * ops as u64,
            "{name}: a warm run made {warm} allocations for {ops} ops"
        );
        assert_eq!(
            again, warm,
            "{name}: the pools kept growing after one warm run"
        );
    }
}
