//! Property-based tests for the DOE substrate.

use caffeine_doe::{OrthogonalArray, ScaledHypercube};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Strength-2 must hold for *any* random pair of columns, not just the
    /// first few.
    #[test]
    fn oa_strength_two_on_random_column_pairs(
        k in 2usize..5,
        seed in 0u64..1000,
    ) {
        let oa = OrthogonalArray::rao_hamming(k).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let a = rng.gen_range(0..oa.columns());
        let b = rng.gen_range(0..oa.columns());
        if a != b {
            prop_assert!(oa.verify_strength_two(&[a, b]));
        }
        prop_assert!(oa.verify_balance(a));
    }

    #[test]
    fn hypercube_mapping_brackets_nominal(
        nominal in proptest::collection::vec(0.1f64..100.0, 1..6),
        dx in 0.01f64..0.5,
    ) {
        let cube = ScaledHypercube::relative(&nominal, dx).unwrap();
        let lo = cube.map_run(&vec![0; nominal.len()], 3).unwrap();
        let mid = cube.map_run(&vec![1; nominal.len()], 3).unwrap();
        let hi = cube.map_run(&vec![2; nominal.len()], 3).unwrap();
        for i in 0..nominal.len() {
            prop_assert!(lo[i] < mid[i] && mid[i] < hi[i]);
            prop_assert!((mid[i] - nominal[i]).abs() < 1e-12);
            let rel = (hi[i] - nominal[i]) / nominal[i];
            prop_assert!((rel - dx).abs() < 1e-9);
        }
    }
}
