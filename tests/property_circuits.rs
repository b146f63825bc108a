//! Property-based tests over the circuit IR: whatever sequence of operations
//! a program attempts, `CircuitBuilder` either refuses (returns an error) or
//! emits a circuit whose every instruction is level- and scale-valid, and
//! whose trace lowering passes the simulator's structural validation.

use bts::circuit::{compile, CircuitBuilder, HeInstr, TraceBackend};
use bts::params::CkksInstance;
use proptest::prelude::*;

/// Applies one op-code to the accumulator, mimicking an arbitrary
/// application program. Fallible steps that the builder refuses simply leave
/// the accumulator unchanged — the property is that nothing invalid is ever
/// *emitted*.
fn apply(b: &mut CircuitBuilder, cur: u32, code: u32) -> u32 {
    match code % 6 {
        // Multiply + rescale (one level).
        0 => match b.hmult(cur, cur) {
            Ok(p) => b.rescale(p).unwrap_or(cur),
            Err(_) => cur,
        },
        // Rotate.
        1 => b.hrot(cur, 1 + (code as i64 % 5)).unwrap_or(cur),
        // Mask + rescale (one level).
        2 => match b.pmult(cur, 0.5) {
            Ok(m) => b.rescale(m).unwrap_or(cur),
            Err(_) => cur,
        },
        // Self-addition (same scale exponent by construction).
        3 => b.hadd(cur, cur).unwrap_or(cur),
        // Scalar addition.
        4 => b.cadd(cur, 0.125).unwrap_or(cur),
        // Budget check, possibly bootstrapping on deep instances.
        _ => b.ensure(cur, 1).unwrap_or(cur),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs on toy instances: every emitted instruction stays
    /// within the level budget, rescales never execute at level 0, and the
    /// lowered trace validates.
    #[test]
    fn builder_never_emits_level_invalid_instructions(
        max_level in 1usize..12,
        dnum in 1usize..4,
        codes in proptest::collection::vec(any::<u32>(), 48),
        len in 1usize..48,
    ) {
        prop_assume!(dnum <= max_level + 1);
        let ins = CkksInstance::toy(10, max_level, dnum);
        let mut b = CircuitBuilder::new(&ins);
        let mut cur = b.input();
        for &code in &codes[..len] {
            cur = apply(&mut b, cur, code);
        }
        let circuit = b.build();
        prop_assert!(circuit.validate().is_ok());
        for node in &circuit.nodes {
            prop_assert!(node.level <= ins.max_level(), "level beyond budget");
            if matches!(node.instr, HeInstr::Rescale { .. }) {
                prop_assert!(node.level >= 1, "rescale at level 0");
            }
        }
        let lowered = compile(&circuit).and_then(|c| TraceBackend::new().lower_compiled(&c));
        prop_assert!(lowered.is_ok());
        prop_assert!(lowered.unwrap().trace.validate().is_ok());
    }

    /// The same property on bootstrappable (paper-scale) parameter shapes:
    /// ensure() inserts bootstrap markers instead of failing, and the marker
    /// expansion still yields a structurally valid trace.
    #[test]
    fn deep_programs_bootstrap_and_stay_valid(
        codes in proptest::collection::vec(any::<u32>(), 64),
        extra_levels in 0usize..10,
    ) {
        let ins = CkksInstance::toy(10, 19 + extra_levels, 2);
        let mut b = CircuitBuilder::new(&ins);
        let mut cur = b.input();
        for &code in &codes {
            // Force level pressure: always ensure before a mult step.
            cur = apply(&mut b, cur, 5);
            cur = apply(&mut b, cur, code);
        }
        let circuit = b.build();
        prop_assert!(circuit.validate().is_ok());
        let lowered = compile(&circuit).and_then(|c| TraceBackend::new().lower_compiled(&c));
        prop_assert!(lowered.is_ok());
        let lowered = lowered.unwrap();
        prop_assert!(lowered.trace.validate().is_ok());
        prop_assert_eq!(circuit.bootstrap_count(), lowered.bootstrap_count);
    }
}
