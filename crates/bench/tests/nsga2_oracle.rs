//! The two-objective sort-and-sweep is pinned to the `O(N²)` count-down
//! it replaced (`caffeine_bench::perf::reference_nondominated_sort`): the
//! same fronts, each in the same order, on inputs built to stress the
//! sweep — tie-heavy integer grids, exact duplicates, `-0.0` next to
//! `+0.0`, and infinities.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use caffeine_bench::perf::{gp_objectives, reference_nondominated_sort};
use caffeine_core::nsga2::fast_nondominated_sort;

/// One objective value from a small integer grid, with the signed zeros
/// and infinities mixed in.
fn value(rng: &mut StdRng, grid: i32) -> f64 {
    match rng.gen_range(0..20u32) {
        0 => -0.0,
        1 => 0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        _ => f64::from(rng.gen_range(-1..grid)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn sweep_reproduces_countdown_fronts_and_order(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..=150usize);
        let grid = rng.gen_range(1..=12i32);
        let mut objs: Vec<[f64; 2]> = Vec::with_capacity(n);
        for _ in 0..n {
            let o = if !objs.is_empty() && rng.gen_range(0..5u32) == 0 {
                // A duplicate of an earlier point, its zeros' signs flipped
                // half the time (`-0.0 == 0.0`, so still a tie).
                let flip = rng.gen_range(0..2u32) == 0;
                objs[rng.gen_range(0..objs.len())].map(|v| if flip && v == 0.0 { -v } else { v })
            } else {
                [value(&mut rng, grid), value(&mut rng, grid)]
            };
            objs.push(o);
        }
        prop_assert_eq!(fast_nondominated_sort(&objs), reference_nondominated_sort(&objs));
    }

    #[test]
    fn sweep_matches_countdown_on_gp_shaped_populations(seed in 0u64..u64::MAX, n in 1usize..=400) {
        let objs = gp_objectives(n, seed);
        prop_assert_eq!(fast_nondominated_sort(&objs), reference_nondominated_sort(&objs));
    }
}

#[test]
fn degenerate_inputs() {
    for objs in [
        vec![],
        vec![[1.0, 1.0]],
        vec![[0.0, 5.0], [-0.0, 5.0], [0.0, 4.0], [-0.0, 6.0]],
        vec![[f64::INFINITY, 0.0]; 5],
        vec![
            [1e30, 1.0],
            [0.5, f64::INFINITY],
            [1e30, 1.0],
            [0.25, 10.0],
            [f64::INFINITY, f64::INFINITY],
        ],
    ] {
        assert_eq!(
            fast_nondominated_sort(&objs),
            reference_nondominated_sort(&objs),
            "{objs:?}"
        );
    }
}
