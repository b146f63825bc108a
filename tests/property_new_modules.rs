//! Property-based tests over the newer public APIs: BSGS linear transforms,
//! the noise tracker and the twiddle-storage model. These complement the unit
//! tests inside each module with randomized invariants.

use bts::ckks::{BsgsTransform, Complex, NoiseTracker};
use bts::params::{CkksInstance, InstanceBuilder};
use bts::sim::TwiddleStorage;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A BSGS transform built from a diagonal matrix acts as slot-wise scaling.
    #[test]
    fn bsgs_diagonal_matrix_scales_slots(scale in -2.0f64..2.0) {
        let slots = 16usize;
        let mut m = vec![vec![Complex::default(); slots]; slots];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = Complex::new(scale, 0.0);
        }
        prop_assume!(scale.abs() > 1e-6);
        let t = BsgsTransform::from_matrix(&m).unwrap();
        let input: Vec<Complex> = (0..slots).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        let out = t.apply_plain(&input);
        for i in 0..slots {
            prop_assert!((out[i].re - scale * input[i].re).abs() < 1e-9);
            prop_assert!((out[i].im - scale * input[i].im).abs() < 1e-9);
        }
    }

    /// The noise tracker's precision is monotone non-increasing in circuit
    /// depth for any sensible prime configuration.
    #[test]
    fn noise_precision_is_monotone_in_depth(log_scale in 35u32..55, depth in 1usize..10) {
        let ins = InstanceBuilder::new(15, 12, 1)
            .name("prop")
            .prime_bits(log_scale + 10, log_scale, log_scale + 9)
            .build();
        let d = depth.min(ins.max_level());
        let deeper = NoiseTracker::precision_after_depth(&ins, d);
        let shallower = NoiseTracker::precision_after_depth(&ins, d - 1);
        prop_assert!(shallower + 1e-9 >= deeper);
    }

    /// On-the-fly twiddling never increases storage, and the broadcast volume
    /// per epoch equals the higher-digit table size.
    #[test]
    fn twiddle_ot_never_increases_storage(log_m in 2u32..12) {
        let ins = CkksInstance::ins2();
        let storage = TwiddleStorage::for_instance(&ins).with_decomposition(1 << log_m);
        prop_assert!(storage.ot_table_bytes() <= storage.full_table_bytes());
        prop_assert_eq!(storage.broadcast_words_per_epoch(), storage.higher_digit_entries());
        prop_assert!(storage.reduction_factor() >= 1.0);
    }
}
