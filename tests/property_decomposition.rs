//! Property-based tests of `bts_params::Decomposition`, the one statement of
//! key-switching's dnum slice structure: its slices partition the chain at
//! every level, the evk words it streams grow with the level, and the keys
//! the CKKS library generates have exactly the size it predicts.

use bts::ckks::{Ciphertext, CkksContext, CkksError, Complex};
use bts::params::{CkksInstance, Decomposition};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At every level the live slices are contiguous, non-empty, at most k
    /// limbs each, and cover every limb exactly once; the slices past them
    /// are empty.
    #[test]
    fn slices_partition_the_primes(max_level in 0usize..80, dnum in 1usize..8) {
        prop_assume!(dnum <= max_level + 1);
        let d = Decomposition::new(max_level, dnum).unwrap();
        for level in 0..=max_level {
            let live = d.slices_at_level(level);
            prop_assert!(live >= 1 && live <= d.dnum());
            let mut next = 0;
            for j in 0..d.dnum() {
                let slice = d.slice(j, level);
                prop_assert_eq!(!slice.is_empty(), j < live);
                prop_assert!(slice.len() <= d.special_primes());
                if j < live {
                    prop_assert_eq!(slice.start, next);
                    next = slice.end;
                }
            }
            prop_assert_eq!(next, level + 1);
        }
        // At the top level every non-empty slice is live; when dnum does not
        // divide the prime count evenly the trailing slices are empty, so the
        // live count is ⌈(L+1)/k⌉ rather than dnum itself.
        prop_assert_eq!(
            d.slices_at_level(max_level),
            (max_level + 1).div_ceil(d.special_primes())
        );
    }

    /// The evaluation-key words streamed at a level never exceed the full key
    /// and grow monotonically with the level.
    #[test]
    fn evk_streaming_is_monotone(max_level in 1usize..60, dnum in 1usize..6) {
        prop_assume!(dnum <= max_level + 1);
        let d = Decomposition::new(max_level, dnum).unwrap();
        let n = 1usize << 14;
        let mut prev = 0u64;
        for level in 0..=max_level {
            let words = d.evk_words_at_level(n, level);
            prop_assert!(words >= prev);
            prop_assert!(words <= d.evk_words(n));
            prev = words;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Key generation makes one key pair per live slice, so a generated key
    /// is `evk_bytes_at_level(L)` bytes; the nominal `evk_bytes()` (every one
    /// of the dnum slices, the figure Fig. 1 and Table 4 are drawn with)
    /// agrees exactly when no trailing slice is empty.
    #[test]
    fn generated_keys_have_the_live_slice_size(
        log_n in 4u32..7,
        max_level in 0usize..13,
        dnum in 1usize..6,
        seed in any::<u64>(),
    ) {
        prop_assume!(dnum <= max_level + 1);
        let instance = CkksInstance::toy(log_n, max_level, dnum);
        let ctx = CkksContext::from_instance(&instance).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = ctx.gen_secret_key(&mut rng);
        let relin = ctx.gen_relin_key(&sk, &mut rng);
        let d = instance.decomposition();
        prop_assert_eq!(relin.dnum(), d.slices_at_level(max_level));
        prop_assert_eq!(relin.size_bytes(), instance.evk_bytes_at_level(max_level));
        prop_assert_eq!(
            relin.size_bytes() == instance.evk_bytes(),
            d.slices_at_level(max_level) == d.dnum()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A rotation key generated for level ℓ is sized by it — the slices live
    /// at ℓ, `evk_bytes_at_level(ℓ)` bytes — and draws what the top-level
    /// key draws: from the same RNG state both leave the RNG in the same
    /// state and rotate every ciphertext of level ℓ′ ≤ ℓ to the same bits.
    /// A level-(ℓ+1) ciphertext is refused with `MissingKey`.
    #[test]
    fn rotation_keys_are_sized_by_their_level(
        log_n in 4u32..7,
        max_level in 0usize..9,
        dnum in 1usize..5,
        seed in any::<u64>(),
    ) {
        prop_assume!(dnum <= max_level + 1);
        let instance = CkksInstance::toy(log_n, max_level, dnum);
        let ctx = CkksContext::from_instance(&instance).unwrap();
        let d = instance.decomposition();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (sk, bundle) = ctx.generate_keys(&mut rng).unwrap();
        let message = vec![Complex::new(0.25, -0.125); ctx.slots()];
        let ladder: Vec<Ciphertext> = (0..=max_level)
            .map(|level| {
                let pt = ctx.encode_at(&message, level, ctx.scale()).unwrap();
                ctx.encrypt(&pt, &sk, &mut rng).unwrap()
            })
            .collect();
        let rotation = 1;
        let mut top_rng = rng.clone();
        let mut top = bundle.clone();
        top.insert_rotation(
            rotation,
            ctx.gen_rotation_key(&sk, rotation, max_level, &mut top_rng).unwrap(),
        );
        for level in 0..=max_level {
            let mut sized_rng = rng.clone();
            let key = ctx.gen_rotation_key(&sk, rotation, level, &mut sized_rng).unwrap();
            prop_assert_eq!(sized_rng.gen::<u64>(), top_rng.clone().gen::<u64>());
            prop_assert_eq!(key.level(), level);
            prop_assert_eq!(key.dnum(), d.slices_at_level(level));
            prop_assert_eq!(key.size_bytes(), instance.evk_bytes_at_level(level));
            let mut sized = bundle.clone();
            sized.insert_rotation(rotation, key);
            let (sized, top) = (ctx.evaluator(&sized), ctx.evaluator(&top));
            for ct in &ladder[..=level] {
                prop_assert!(
                    sized.rotate(ct, rotation).unwrap() == top.rotate(ct, rotation).unwrap(),
                    "a level-{} ciphertext rotated by a level-{} key",
                    ct.level(),
                    level
                );
            }
            if let Some(above) = ladder.get(level + 1) {
                prop_assert!(matches!(
                    sized.rotate(above, rotation),
                    Err(CkksError::MissingKey(_))
                ));
            }
        }
    }
}
